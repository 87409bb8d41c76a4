"""One benchmark for the whole generator.

    python3 perfbench/run.py --workload {bulk,sharded,apps,serve} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Workload inputs derive from ``--seed``
only.  Each run sets up the program, measures for ``--seconds``, checks
the outputs, and prints one line per metric followed by a last line of
JSON: ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` wraps the program's layer
calls and reports the per-layer metrics instead (see ``layers.py``).

A record with provenance goes to ``.perfbench/records.jsonl``; a traced
run also writes its spans to ``.perfbench/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import signal
import statistics
import sys
import time

from common import (
    OUT_DIR,
    SETUP_SAMPLES,
    SRC,
    child_pids,
    latency_summary,
    pin_one_cpu,
    provenance,
    shm_mapped_elsewhere,
    shm_segments,
    spawn_until,
    stop_process,
)

WORKLOADS = ("bulk", "sharded", "apps", "serve")
END_TO_END = {
    "setup_s": "s",
    "numbers_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mib": "MiB",
}


def _probe_setup(workload: str, seed: int, count: int) -> list:
    """Spawn-to-ready seconds of fresh processes building the workload,
    at nominal host speed (see ``hostspeed``)."""
    from hostspeed import HostClock

    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "probe.py")
    clock = HostClock()
    samples = []
    for _ in range(count):
        slowdown = clock.settle()
        proc, secs, _ = spawn_until(
            [sys.executable, probe, workload, str(seed)], "ready", "stdout")
        try:
            proc.wait(60)  # let it tear down its own workers and rings
        finally:
            stop_process(proc)
        samples.append(secs / slowdown)
    return samples


def _reap_leftovers() -> list:
    """Children still alive after the run: kill and reap, then report.

    The stdlib's shared-memory resource tracker is stopped (and waited
    for) first: it is started on the program's behalf and would
    otherwise live until this process exits.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()
    multiprocessing.active_children()
    left = child_pids()
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except OSError:
            pass
    return left


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload != "sharded":
        pin_one_cpu()

    import inproc
    import serve_load
    from hostspeed import steal_ns
    from spans import Tracer

    cpus = os.sched_getaffinity(0)
    steal0, wall0 = steal_ns(cpus), time.perf_counter_ns()
    shm_before = shm_segments()
    tracer = Tracer() if args.trace else None
    if args.workload == "serve":
        out, setup = serve_load.serve(args.seed, args.seconds, tracer)
    else:
        # Set-up samples come first: taken after the measurement, the
        # same probes read up to twice as long (bulk: 0.3 s before,
        # 0.5-0.9 s after, on a 2-vCPU x86 host).
        setup = _probe_setup(args.workload, args.seed,
                             0 if tracer else SETUP_SAMPLES)
        out = getattr(inproc, args.workload)(args.seed, args.seconds, tracer)
    steal_share = ((steal_ns(cpus) - steal0) / len(cpus)
                   / (time.perf_counter_ns() - wall0))
    leftovers = _reap_leftovers()
    leaked_shm = sorted(
        shm_segments() - shm_before - shm_mapped_elsewhere())
    hygiene = int(bool(leftovers or leaked_shm))
    failed = out.errors + out.mismatches + hygiene

    lat = latency_summary(out.latencies_ns)
    if tracer is None:
        values = dict(out.end_to_end(), setup_s=statistics.median(setup))
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items()}
    else:
        from layers import LAYER_METRICS

        values = dict(out.layers)
        values["client.cpu_s"] = out.client["client_cpu_s"]
        values["client.busy_share"] = out.client["client_busy_share"]
        metrics = {k: {"value": values[k], "unit": spec[0]}
                   for k, spec in LAYER_METRICS.items()}

    w = args.workload
    for name, m in metrics.items():
        print(f"{w:8s} {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{w:8s} {'failed_share':40s} {failed / out.attempted:.6g} share"
          f" ({failed} of {out.attempted}: {out.errors} errors/busy,"
          f" {out.mismatches} mismatches, {hygiene} hygiene)")
    print(f"{w:8s} {'latency_samples':40s} {lat['samples']} calls,"
          f" {lat['beyond_p99']} beyond p99")
    print(f"{w:8s} {'client':40s} {out.client['client_cpu_s']:.3f} cpu s,"
          f" busy share {out.client['client_busy_share']:.3f}")
    if tracer is None:
        raw = out.end_to_end(scaled=False)
        print(f"{w:8s} {'host_slowdown':40s} {out.clock.median_slowdown():.3f}"
              f", steal share {steal_share:.3f}"
              f" (uncorrected: {raw['numbers_per_s']:.6g} 1/s,"
              f" p50 {raw['latency_p50_ms']:.6g} ms,"
              f" p99 {raw['latency_p99_ms']:.6g} ms)")
    if leftovers or leaked_shm:
        print(f"{w:8s} leftover processes {leftovers} shm {leaked_shm}")

    record = provenance(w, args.seed, bool(args.trace))
    record.update(
        seconds=args.seconds, attempted=out.attempted, failed=failed,
        failed_share=failed / out.attempted, latency=lat,
        setup_samples=setup, client=out.client, checks=out.checks,
        leftover_processes=leftovers, leaked_shm=leaked_shm,
        metrics={k: m["value"] for k, m in metrics.items()},
    )
    if tracer is None:
        record.update(uncorrected=raw,
                      host_slowdown=out.clock.median_slowdown(),
                      host_steal_share=steal_share,
                      host_probes=len(out.clock.probes))
    if tracer is not None:
        from layers import LAYER_METRICS

        record["targets"] = {k: v[2] for k, v in LAYER_METRICS.items()}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "records.jsonl", "a") as fh:
        fh.write(json.dumps(record, default=str) + "\n")
    if tracer is not None:
        tracer.dump(OUT_DIR / f"spans-{w}.jsonl")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": out.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
