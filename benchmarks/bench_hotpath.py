"""Hot-path benchmark: blocked FEED, fused GENERATE, zero-copy delivery.

Measures the three stages the paper times (Fig. 3/4) as implemented by
this reproduction, comparing the optimized fast path against the legacy
reference kernels **in the same run**:

* **FEED** -- ``GlibcRandom.words64`` throughput, blocked lag-3/lag-31
  kernel vs the one-window-at-a-time reference (``blocked=False``);
* **GENERATE** -- ``ParallelExpanderPRNG.generate`` numbers/s under both
  neighbour-selection policies (the chained ``reject`` walk and the
  windowed ``mod`` bank) with the fused walk kernel, plus
  the pre-overhaul variant (``fused=False`` + unblocked feed) under the
  default ``reject`` policy for the end-to-end speedup; both policies
  again on smaller banks (16, 64 and 1024 lanes), where per-step fixed
  cost rather than lane width sets the rate;
* **DELIVERY** -- ``generate_into`` into a caller-owned buffer vs
  allocating ``generate``;
* **stage self-time** -- per-stage ``self_s`` from the obs tracer for
  the optimized end-to-end run (the Fig. 4 counterpart).

The record lands in ``benchmarks/results/BENCH_core.json`` via the
common exporter.  The ``--min-speedup`` gate enforces the blocked-FEED
microbenchmark ratio; like the engine scaling benchmark it only
enforces on hosts with enough cores (>= 2), recording the measurement
otherwise.

Runs two ways:

* under pytest (tiny load; registers a report via ``record``);
* as a script (``python benchmarks/bench_hotpath.py [--quick]``), the
  CI benchmark mode.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

import numpy as np

from repro import obs
from repro.bitsource.glibc import GlibcRandom
from repro.core.parallel import ParallelExpanderPRNG
from repro.core.walk import POLICIES


def _rate(fn, amount: int, repeats: int = 3) -> float:
    """Best-of-``repeats`` items/second of ``fn(amount)``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(amount)
        best = min(best, time.perf_counter() - t0)
    return amount / best


def bench_feed(words: int, seed: int = 1) -> dict:
    """FEED microbenchmark: blocked vs reference ``words64`` throughput."""
    legacy = GlibcRandom(seed, blocked=False)
    blocked = GlibcRandom(seed, blocked=True)
    legacy.words64(1 << 12)  # warm both paths (and the power cache)
    blocked.words64(1 << 12)
    out = {
        "feed_words_per_s_legacy": _rate(legacy.words64, words),
        "feed_words_per_s_blocked": _rate(blocked.words64, words),
    }
    out["feed_speedup"] = (
        out["feed_words_per_s_blocked"] / out["feed_words_per_s_legacy"]
    )
    return out


def _policy_rates(lanes: int, numbers: int, seed: int, backend) -> dict:
    """``generate`` numbers/s of an ``lanes``-lane bank, per policy."""
    rates = {}
    for policy in POLICIES:
        prng = ParallelExpanderPRNG(
            num_threads=lanes, seed=seed, policy=policy, backend=backend
        )
        prng.generate(lanes)  # warm scratch buffers and the feed
        rates[policy] = _rate(prng.generate, numbers)
    return rates


def bench_generate(
    lanes: int, numbers: int, seed: int = 0, backend=None
) -> dict:
    """GENERATE per policy (fused) plus the pre-overhaul reject variant."""
    out = {
        f"gen_numbers_per_s_{policy}": rate
        for policy, rate in _policy_rates(lanes, numbers, seed,
                                          backend).items()
    }
    legacy = ParallelExpanderPRNG(
        num_threads=lanes,
        bit_source=GlibcRandom(seed, blocked=False),
        policy="reject",
        fused=False,
    )
    legacy.generate(lanes)
    out["gen_numbers_per_s_reject_legacy"] = _rate(legacy.generate, numbers)
    out["e2e_speedup_reject"] = (
        out["gen_numbers_per_s_reject"]
        / out["gen_numbers_per_s_reject_legacy"]
    )
    return out


def bench_lanes_sweep(
    sweep: tuple, numbers: int, seed: int = 0, backend=None
) -> dict:
    """GENERATE per policy on smaller banks, keyed
    ``gen_numbers_per_s_<policy>_<lanes>l``.  Each measurement draws at
    most 1024 rounds, so a slow small-bank path cannot stall the run."""
    out = {}
    for lanes in sweep:
        rates = _policy_rates(lanes, min(numbers, 1024 * lanes), seed,
                              backend)
        out.update({f"gen_numbers_per_s_{policy}_{lanes}l": rate
                    for policy, rate in rates.items()})
    return out


def bench_delivery(
    lanes: int, numbers: int, seed: int = 0, backend=None
) -> dict:
    """Zero-copy ``generate_into`` vs allocating ``generate``."""
    prng = ParallelExpanderPRNG(
        num_threads=lanes, seed=seed, backend=backend
    )
    prng.generate(lanes)
    alloc_rate = _rate(prng.generate, numbers)
    buf = np.empty(numbers, dtype=np.uint64)
    into_rate = _rate(lambda _n: prng.generate_into(buf), numbers)
    return {
        "into_numbers_per_s": into_rate,
        "alloc_numbers_per_s": alloc_rate,
    }


def bench_stage_selftime(lanes: int, numbers: int, seed: int = 0) -> dict:
    """Per-stage self-time of one optimized end-to-end run (Fig. 4).

    The feed goes through a :class:`BufferedFeed` so the tracer sees the
    FEED stage as its own spans (same trick as ``repro generate
    --trace``); the feed is value-transparent, so the stream is the one
    the other measurements produce.
    """
    from repro.bitsource.buffered import BufferedFeed

    out = {}
    with obs.observed() as (_registry, tracer):
        prng = ParallelExpanderPRNG(
            num_threads=lanes,
            bit_source=BufferedFeed(GlibcRandom(seed), batch_words=1 << 15),
        )
        buf = np.empty(numbers, dtype=np.uint64)
        prng.generate_into(buf)
        for stage, total in tracer.stage_totals().items():
            out[f"self_s_{stage}"] = total.self_s
            out[f"total_s_{stage}"] = total.total_s
    return out


def run_hotpath(
    feed_words: int = 1 << 21,
    lanes: int = 4096,
    numbers: int = 1 << 20,
    backend=None,
    sweep_lanes: tuple = (16, 64, 1024),
) -> dict:
    from common import host_env

    report = {
        "feed_words": feed_words,
        "lanes": lanes,
        "numbers": numbers,
    }
    report.update(host_env(backend))
    print(
        f"HOST:     backend {report['backend']}, "
        f"{report['host_cpu_count']} core(s), "
        f"{report['blas_threads']} BLAS thread(s)",
        flush=True,
    )
    report.update(bench_feed(feed_words))
    print(
        f"FEED:     blocked {report['feed_words_per_s_blocked'] / 1e6:8.3f} "
        f"M words/s, legacy {report['feed_words_per_s_legacy'] / 1e6:8.3f} "
        f"M words/s ({report['feed_speedup']:.2f}x)",
        flush=True,
    )
    report.update(bench_generate(lanes, numbers, backend=backend))
    for policy in POLICIES:
        print(
            f"GENERATE: {policy:6s} "
            f"{report[f'gen_numbers_per_s_{policy}'] / 1e6:8.3f} M numbers/s",
            flush=True,
        )
    print(
        f"GENERATE: reject (pre-overhaul) "
        f"{report['gen_numbers_per_s_reject_legacy'] / 1e6:8.3f} M numbers/s"
        f" -> end-to-end speedup {report['e2e_speedup_reject']:.2f}x",
        flush=True,
    )
    report.update(bench_lanes_sweep(sweep_lanes, numbers, backend=backend))
    for sweep in sweep_lanes:
        for policy in POLICIES:
            rate = report[f"gen_numbers_per_s_{policy}_{sweep}l"]
            print(f"GENERATE: {policy:6s} {sweep:5d} lanes "
                  f"{rate / 1e6:8.3f} M numbers/s", flush=True)
    report.update(bench_delivery(lanes, numbers, backend=backend))
    print(
        f"DELIVERY: generate_into "
        f"{report['into_numbers_per_s'] / 1e6:8.3f} M numbers/s, generate "
        f"{report['alloc_numbers_per_s'] / 1e6:8.3f} M numbers/s",
        flush=True,
    )
    report.update(bench_stage_selftime(lanes, numbers))
    for key, val in sorted(report.items()):
        if key.startswith("self_s_"):
            stage = key[len("self_s_"):]
            print(f"STAGE:    {stage:10s} self-time {val:8.3f} s", flush=True)
    return report


def check_speedup(report: dict, min_speedup: float) -> int:
    """Enforce the blocked-FEED speedup gate where the host allows it."""
    if min_speedup <= 0:
        return 0
    cores = report["host_cpu_count"]
    speedup = report["feed_speedup"]
    if cores < 2:
        print(
            f"NOTE: host has {cores} core(s); the {min_speedup}x gate is "
            f"recorded but not enforced (measured {speedup:.2f}x)."
        )
        return 0
    if speedup < min_speedup:
        print(
            f"HOTPATH GATE FAILED: blocked FEED speedup {speedup:.2f}x < "
            f"{min_speedup}x on a {cores}-core host",
            file=sys.stderr,
        )
        return 1
    print(f"hotpath gate passed: {speedup:.2f}x >= {min_speedup}x")
    return 0


def test_hotpath_smoke():
    """Pytest-scale run: exercises every measurement path, asserts the
    rates are positive (not a performance assertion)."""
    from conftest import record

    report = run_hotpath(feed_words=1 << 12, lanes=64, numbers=2048,
                         sweep_lanes=(16,))
    assert report["feed_words_per_s_blocked"] > 0
    assert report["gen_numbers_per_s_mod_16l"] > 0
    assert report["gen_numbers_per_s_reject"] > 0
    assert report["into_numbers_per_s"] > 0
    record("hotpath", "hot-path smoke", data={
        k: round(v, 3) for k, v in report.items()
        if isinstance(v, (int, float))
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--feed-words", type=int, default=1 << 21,
                        help="64-bit words per FEED measurement")
    parser.add_argument("--lanes", type=int, default=4096,
                        help="walker lanes for the GENERATE measurements")
    parser.add_argument("--numbers", type=int, default=1 << 20,
                        help="numbers generated per measurement")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run (~10x smaller measurements)")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="fail unless the blocked FEED speedup reaches "
                             "this (only enforced on hosts with >= 2 cores)")
    parser.add_argument("--backend", default=None,
                        help="array backend for the GENERATE measurements "
                             "(numpy, cupy, torch; default numpy)")
    args = parser.parse_args(argv)
    if args.quick:
        args.feed_words = min(args.feed_words, 1 << 18)
        args.numbers = min(args.numbers, 1 << 17)
    report = run_hotpath(
        feed_words=args.feed_words, lanes=args.lanes, numbers=args.numbers,
        backend=args.backend,
    )
    from common import emit_bench_record

    path = emit_bench_record("core", fields={
        "report": "hotpath", "backend": report["backend"],
    }, metrics={
        k: round(v, 3) for k, v in report.items()
        if isinstance(v, (int, float))
    })
    print(f"wrote {path}")
    return check_speedup(report, args.min_speedup)


if __name__ == "__main__":
    raise SystemExit(main())
