"""The in-process workloads: ``bulk``, ``sharded`` and ``apps``.

Each function runs one workload for ``seconds`` after set-up, checks the
outputs, and returns a :class:`Outcome`.  With a tracer, the layer
wrappers are installed for the timed window only.
"""

from __future__ import annotations

import math
import multiprocessing
import random
import statistics
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

import layers
from common import (
    ClientMeter,
    latency_summary,
    nproc,
    peak_rss_kib,
    self_peak_rss_kib,
    window_rates,
)
from hostspeed import HostClock
from spans import Tracer, span_cost_s

_now = time.perf_counter_ns
#: The clock in-process calls are timed on: this process's CPU time.  The
#: calls compute on one pinned CPU without blocking, so it is their wall
#: time less what the host steals, which swings from 0 to 17% between
#: phases (see ``hostspeed``).
_busy = time.process_time_ns

#: Words per on-demand call (not a multiple of the bank width, so calls
#: cross round boundaries and exercise the remainder path).
CALL_WORDS = 5000
#: Total walker lanes of the paper-scale bank (``repro generate``).
LANES = 4096
#: Calls made before timing starts (caches, lazy tables, ring fill).
WARMUP_CALLS = 3
#: Leading calls whose sampled chunks are checked against a reference
#: drawn in one call; up to 10 of them are sampled per run.
VERIFY_CALLS = 48
#: One apps cycle: an ``estimate_pi`` over two 16-lane substreams, then
#: this many GRF pencils (about 40% / 60% of the cycle's time today).
PI_POINTS = 1000
PENCILS = 40
#: Modes per pencil are uniform on 1..MAX_MODES.  A 16-lane bank emits
#: 16 words a round and a mode takes about 4, so pencil latency comes in
#: steps of 4 modes; 12 puts the median mid-step (5..8 modes) rather
#: than on a step edge, where it would flip between steps run to run.
MAX_MODES = 12
#: Pencils re-drawn after the run (a reservoir sample of all pencils).
RECHECK_PENCILS = 4
#: Most rounds of the sharded run replayed in process (traced run only).
REPLAY_ROUNDS = 64


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: ``(start_ns, end_ns, numbers)`` per call (or apps cycle).
    items: List[tuple]
    latencies_ns: Sequence[int]
    #: Start time of each latency sample.
    latency_starts_ns: Sequence[int]
    attempted: int
    errors: int = 0
    mismatches: int = 0
    peak_rss_kib: int = 0
    client: Dict[str, float] = field(default_factory=dict)
    checks: Dict[str, object] = field(default_factory=dict)
    layers: Optional[Dict[str, float]] = None
    clock: HostClock = field(default_factory=lambda: HostClock(False))

    @property
    def numbers(self) -> int:
        return sum(n for _, _, n in self.items)

    @property
    def wall_s(self) -> float:
        return (self.items[-1][1] - self.items[0][0]) / 1e9

    def end_to_end(self, scaled: bool = True) -> Dict[str, float]:
        """The end-to-end figures, timings at nominal host speed and
        less marked steal unless ``scaled`` is false (see ``hostspeed``)."""
        if scaled:
            slowdown, stolen = self.clock.slowdown, self.clock.stolen
        else:
            slowdown, stolen = (lambda t: 1.0), (lambda a, b: 0)
        lat = latency_summary([
            (ns - stolen(t, t + ns)) / slowdown(t)
            for t, ns in zip(self.latency_starts_ns, self.latencies_ns)])
        return {
            "numbers_per_s": statistics.median(
                window_rates(self.items, slowdown=slowdown, stolen=stolen)),
            "latency_p50_ms": lat["p50_ms"],
            "latency_p99_ms": lat["p99_ms"],
            "peak_rss_mib": self.peak_rss_kib / 1024.0,
        }


def _traced_window(tracer: Optional[Tracer]):
    if tracer is not None:
        layers.install(tracer)
    return _now()


def _drain(fill: Callable[[np.ndarray], None], seed: int, seconds: float,
           tracer: Optional[Tracer],
           reference: Callable[[int], np.ndarray],
           now: Callable[[], int] = _busy) -> tuple:
    """Fixed-size calls until the deadline, timed on ``now``; sampled
    prefix verified.

    Returns ``(outcome, t0_ns, t1_ns)`` with the timed window's bounds.
    """
    rng = random.Random(seed)
    sampled = set(rng.sample(range(VERIFY_CALLS), 8)) | {0, VERIFY_CALLS - 1}
    buf = np.empty(CALL_WORDS, dtype=np.uint64)
    kept: Dict[int, np.ndarray] = {}
    clock = HostClock(enabled=tracer is None, now=now)
    for i in range(WARMUP_CALLS):
        fill(buf)
        if i in sampled:
            kept[i] = buf.copy()
    meter = ClientMeter()
    t0 = _traced_window(tracer)
    deadline = t0 + int(seconds * 1e9)
    items: List[tuple] = []
    i = WARMUP_CALLS
    while True:
        a = now()
        fill(buf)
        b = now()
        items.append((a, b, CALL_WORDS))
        if i in sampled:
            kept[i] = buf.copy()
        i += 1
        if _now() >= deadline:
            break
        clock.tick()
    t1 = _now()
    if tracer is not None:
        tracer.restore()
    out = Outcome(items=items, latencies_ns=[b - a for a, b, _ in items],
                  latency_starts_ns=[a for a, _, _ in items],
                  attempted=len(items), client=meter.read(), clock=clock)
    out.peak_rss_kib = self_peak_rss_kib()
    # Fetch-split invariance: the same prefix drawn in one call.
    checked = min(i, VERIFY_CALLS)
    ref = reference(checked * CALL_WORDS)
    for k, chunk in kept.items():
        if k < checked and not np.array_equal(
                chunk, ref[k * CALL_WORDS:(k + 1) * CALL_WORDS]):
            out.mismatches += 1
    out.checks["chunks_checked"] = sum(1 for k in kept if k < checked)
    return out, t0, t1


def bulk(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    from repro.baselines.hybrid_adapter import HybridPRNG

    gen = HybridPRNG(seed=seed, num_threads=LANES)
    out, t0, t1 = _drain(
        gen.u64_into, seed, seconds, tracer,
        lambda n: HybridPRNG(seed=seed, num_threads=LANES).u64_array(n),
    )
    if tracer is not None:
        out.layers = layers.compute(tracer, t0, t1, LANES, span_cost_s())
    return out


def engine_config(seed: int):
    """``shards = nproc`` over the same total lanes, glibc feed."""
    from repro.bitsource.glibc import GlibcRandom
    from repro.engine import EngineConfig

    shards = max(1, min(nproc(), 8))
    return EngineConfig(seed=seed, shards=shards, lanes=LANES // shards,
                        source_factory=GlibcRandom)


def _reference_s(cfg, rounds: int) -> float:
    """Seconds :func:`~repro.engine.serial_reference` takes to build the
    shard banks (with the workers' own feed chain) and draw ``rounds``
    rounds of every shard in this process."""
    from repro.engine import serial_reference

    t0 = time.perf_counter()
    serial_reference(cfg, rounds * cfg.shards * cfg.lanes)
    return time.perf_counter() - t0


def sharded(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    from repro.engine import ShardedEngine, serial_reference

    cfg = engine_config(seed)
    engine = ShardedEngine(cfg)
    try:
        out, t0, t1 = _drain(
            # Late-bound, so the traced run sees the wrapped method.
            lambda out: engine.generate_into(out), seed, seconds, tracer,
            # Wall time: the work runs in the engine's processes.
            lambda n: serial_reference(cfg, n), now=_now,
        )
        out.peak_rss_kib += sum(
            peak_rss_kib(p.pid) for p in multiprocessing.active_children()
        )
        described = engine.describe()
    finally:
        engine.close()
    out.checks["engine_health"] = described["health"]
    if described["health"] != "OK":
        out.errors += 1
    if tracer is not None:
        out.layers = _sharded_layers(cfg, out, described, tracer, t0, t1)
    return out


#: ``bitsource``/``core`` totals the sharded replay yields per round.
_REPLAY_TOTALS = ("bitsource.words", "bitsource.busy_s", "core.numbers",
                  "core.busy_s", "core.delivery_s")


def _traced_reference(cfg, rounds: int) -> Dict[str, float]:
    """Layer metrics of :func:`_reference_s`'s work, traced."""
    from repro.core.parallel import AddressableExpanderPRNG
    from repro.engine import serial_reference

    replay = Tracer()
    r0 = _traced_window(replay)
    # serial_reference draws round by round, outside generate_into.
    replay.patch(AddressableExpanderPRNG, "next_round", "core.generate",
                 work=lambda a, k, r, p: (r.size, 0))
    try:
        serial_reference(cfg, rounds * cfg.shards * cfg.lanes)
    finally:
        replay.restore()
    return layers.compute(replay, r0, _now(), LANES, 0.0)


def _sharded_layers(cfg, out: Outcome, described: dict, tracer: Tracer,
                    t0: int, t1: int) -> Dict[str, float]:
    """Engine metrics from the run; feed and core ones derived.

    Feed and core run in the workers, out of the tracer's reach, so a
    slice of the same rounds is replayed in process through the public
    ``serial_reference`` (same banks, same feed chain): untraced for the
    compute time behind ``engine.ipc_share``, traced for the layer
    split.  Each replay is run at 1 round and at ``replayed`` rounds and
    differenced, which takes bank construction out; per-round figures
    are then scaled to the run's rounds.  ``serial_reference`` draws one
    round per launch where the workers fuse ``ring_burst`` rounds; on a
    2-vCPU x86 host that costs about 1.2x the fused time per round, so
    the replayed compute reads high and ``engine.ipc_share`` low, below
    0 when the pool runs close to ideal.
    """
    metrics = layers.compute(tracer, t0, t1, LANES, span_cost_s())
    rounds = out.numbers // (cfg.shards * cfg.lanes)
    replayed = max(2, min(rounds, REPLAY_ROUNDS))
    # Best of two each, the 1-round replay first: the first replay in a
    # process pays one-off costs (page faults, lazy tables).
    build_s = min(_reference_s(cfg, 1) for _ in range(2))
    full_s = min(_reference_s(cfg, replayed) for _ in range(2))
    per_round_s = max(0.0, full_s - build_s) / (replayed - 1)
    ideal = per_round_s * rounds / min(cfg.shards, nproc())
    metrics["engine.ipc_share"] = 1.0 - ideal / out.wall_s

    one, full = _traced_reference(cfg, 1), _traced_reference(cfg, replayed)
    per = {name: (full[name] - one[name]) / (replayed - 1)
           for name in _REPLAY_TOTALS}
    for name in _REPLAY_TOTALS:
        metrics[name] = per[name] * rounds
    feed, core, delivery = (per["bitsource.busy_s"], per["core.busy_s"],
                            per["core.delivery_s"])
    fig4 = feed + core + delivery
    metrics.update({
        "core.feed_words_per_number":
            per["bitsource.words"] / per["core.numbers"],
        "core.feed_share_measured": feed / fig4,
        "core.generate_share_measured": core / fig4,
        "core.delivery_share_measured": delivery / fig4,
        "core.lanes_per_launch": cfg.lanes * described["ring_burst"],
        "engine.rounds_assembled": described["rounds_assembled"],
        "engine.restarts": described["restarts"],
    })
    for name in metrics:
        if name.startswith("gpusim."):
            metrics[name] = full[name]
    return metrics


def _fold(i: int) -> int:
    """0, -1, 1, -2, 2, ...: a distinct signed pencil key per call."""
    return (i + 1) // 2 * (1 if i % 2 == 0 else -1)


def apps(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    from repro.apps.montecarlo import estimate_pi, pencil_modes

    rng = random.Random(seed)
    pick = random.Random(f"{seed}-recheck")
    meter = ClientMeter()
    t0 = _traced_window(tracer)
    deadline = t0 + int(seconds * 1e9)
    # What the loop keeps does not grow with the calls made, beyond 16
    # bytes a call (latency and start), so peak RSS is the program's, not the
    # benchmark's: running sums for the checks and a reservoir of
    # pencils to re-draw.
    items: List[tuple] = []
    lat, starts = array("q"), array("q")
    clock = HostClock(enabled=tracer is None, now=_busy)
    hits = points = calls = 0
    normals, total, total_sq = 0, 0.0, 0.0
    recheck: List[tuple] = []
    while not items or _now() < deadline:
        c0 = _busy()
        pi = estimate_pi(PI_POINTS, master_seed=seed * 100003 + len(items),
                         substreams=2)
        hits, points = hits + pi.hits, points + pi.points
        variates = 2 * PI_POINTS
        for _ in range(PENCILS):
            ky, kx = _fold(calls), rng.randint(1, MAX_MODES)
            a = _busy()
            z = pencil_modes(seed, ky, kx)
            lat.append(_busy() - a)
            starts.append(a)
            # Unit complex modes: sqrt(2) * (re, im) are standard normals.
            normals += 2 * z.size
            total += math.sqrt(2.0) * float(z.real.sum() + z.imag.sum())
            total_sq += 2.0 * float(np.vdot(z, z).real)
            if calls < RECHECK_PENCILS:
                recheck.append((ky, kx, z))
            else:
                k = pick.randrange(calls + 1)
                if k < RECHECK_PENCILS:
                    recheck[k] = (ky, kx, z)
            calls += 1
            variates += 2 * kx
            clock.tick()
        items.append((c0, _busy(), variates))
    t1 = _now()
    if tracer is not None:
        tracer.restore()
    out = Outcome(items=items, latencies_ns=lat, latency_starts_ns=starts,
                  attempted=len(items) + len(lat), client=meter.read(),
                  clock=clock)
    out.peak_rss_kib = self_peak_rss_kib()
    # Pooled pi within 5 sigma of the binomial spread.
    p = math.pi / 4
    sigma = 4 * math.sqrt(p * (1 - p) / points)
    estimate = 4.0 * hits / points
    out.checks["pi_estimate"] = estimate
    out.checks["pi_sigmas"] = abs(estimate - math.pi) / sigma
    if abs(estimate - math.pi) > 5 * sigma:
        out.mismatches += 1
    mean = total / normals
    var = total_sq / normals - mean * mean
    out.checks["normal_mean"], out.checks["normal_var"] = mean, var
    if (abs(mean) > 5 / math.sqrt(normals)
            or abs(var - 1) > 5 * math.sqrt(2 / normals)):
        out.mismatches += 1
    # Per-pencil determinism: the sampled calls repeated give the same
    # modes.
    for ky, kx, z in recheck:
        if not np.array_equal(pencil_modes(seed, ky, kx), z):
            out.mismatches += 1
    if tracer is not None:
        out.layers = layers.compute(tracer, t0, t1, 16, span_cost_s())
    return out
