"""Per-layer metrics: which program calls are wrapped, and what they yield.

The map below is the benchmark's prediction table: for each per-layer
metric, the end-to-end metric and workload it should move.  A change
that claims a gain names its layer here and shows the trace moving.
"""

from __future__ import annotations

from typing import Dict

from spans import Tracer

#: name -> (unit, better, end-to-end metric @ workloads it should move).
LAYER_METRICS: Dict[str, tuple] = {
    "bitsource.words": ("count", "higher", "numbers_per_s@bulk,sharded"),
    "bitsource.busy_s": ("s", "lower", "numbers_per_s@bulk,sharded; ~none@apps"),
    "core.numbers": ("count", "higher", "numbers_per_s@bulk,apps"),
    "core.busy_s": ("s", "lower", "numbers_per_s,latency_p99_ms@bulk; numbers_per_s@apps; latency_p50_ms@serve"),
    "core.delivery_s": ("s", "lower", "numbers_per_s@bulk,serve"),
    "core.feed_words_per_number": ("word/number", "lower", "numbers_per_s@bulk,apps"),
    "core.lanes_per_launch": ("lanes", "higher", "numbers_per_s@apps,serve"),
    "core.banks_built": ("count", "higher", "numbers_per_s@apps; none@bulk"),
    "core.bank_init_s": ("s", "lower", "numbers_per_s@apps; latency_p99_ms@serve (cold); none@bulk"),
    "dist.variates": ("count", "higher", "numbers_per_s@apps"),
    "dist.busy_s": ("s", "lower", "numbers_per_s@apps; latency_p50_ms@serve; none@bulk,sharded"),
    "dist.words_per_variate": ("word/variate", "lower", "numbers_per_s@apps"),
    "engine.calls": ("count", "higher", "numbers_per_s@sharded"),
    "engine.wait_s": ("s", "lower", "numbers_per_s@sharded"),
    "engine.rounds_assembled": ("count", "higher", "numbers_per_s@sharded"),
    "engine.restarts": ("count", "lower", "numbers_per_s@sharded"),
    "engine.ipc_share": ("share", "lower", "numbers_per_s@sharded (derived; reads low, see inproc._sharded_layers)"),
    "serve.requests": ("count", "higher", "numbers_per_s@serve"),
    "serve.busy": ("count", "lower", "latency_p99_ms@serve"),
    "serve.errors": ("count", "lower", "latency_p99_ms@serve"),
    "serve.batch_size_mean": ("requests", "higher", "numbers_per_s@serve"),
    "serve.readahead_hit_ratio": ("share", "higher", "latency_p50_ms@serve"),
    "serve.prefill_words_per_served_word": ("word/word", "lower", "numbers_per_s,peak_rss_mib@serve"),
    "serve.session_ms": ("ms", "lower", "latency_p50_ms,latency_p99_ms@serve"),
    "serve.coalesce_wait_ms": ("ms", "lower", "latency_p50_ms@serve"),
    "serve.network_ms": ("ms", "lower", "latency_p50_ms@serve (HELLO round trip)"),
    "serve.sentinel_ms": ("ms", "lower", "latency_p50_ms@serve"),
    "serve.sessions": ("count", "higher", "peak_rss_mib@serve"),
    "serve.rss_per_session_kib": ("KiB", "lower", "peak_rss_mib@serve"),
    "resilience.failovers": ("count", "lower", "latency_p99_ms@serve"),
    "core.feed_share_measured": ("share", "lower", "numbers_per_s@bulk (Fig. 4)"),
    "core.generate_share_measured": ("share", "higher", "numbers_per_s@bulk (Fig. 4)"),
    "core.delivery_share_measured": ("share", "lower", "numbers_per_s@bulk (Fig. 4)"),
    "gpusim.feed_share_predicted": ("share", "lower", "model: paper calibration"),
    "gpusim.generate_share_predicted": ("share", "higher", "model: paper calibration"),
    "gpusim.feed_share_predicted_blocked": ("share", "lower", "model: blocked-feed calibration"),
    "gpusim.generate_share_predicted_blocked": ("share", "higher", "model: blocked-feed calibration"),
    "unattributed_s": ("s", "lower", "coverage: time no traced layer accounts for"),
    "trace.overhead_share": ("share", "lower", "cost of tracing itself"),
    "trace.spans": ("count", "lower", "cost of tracing itself"),
    "client.cpu_s": ("s", "lower", "load generator CPU"),
    "client.busy_share": ("share", "lower", "load generator saturation"),
}


def install(tracer: Tracer) -> None:
    """Wrap the public calls at every in-process layer boundary."""
    from repro.bitsource.counter import SplitMix64Source
    from repro.bitsource.glibc import GlibcRandom
    from repro.core.parallel import (
        AddressableExpanderPRNG,
        ParallelExpanderPRNG,
    )
    from repro.core.walk import WalkEngine
    from repro.dist.stream import DistStream
    from repro.engine.sharded import ShardedEngine

    def arg1(a, k, r, p):
        return a[1], 0

    def arg1_size(a, k, r, p):
        return a[1].size, 0

    for feed in (GlibcRandom, SplitMix64Source):
        tracer.patch(feed, "words64", "bitsource.words64", work=arg1)
        tracer.patch(feed, "seek", "bitsource.seek")
    tracer.patch(ParallelExpanderPRNG, "__init__", "core.init")
    tracer.patch(ParallelExpanderPRNG, "generate_into", "core.generate",
                 work=arg1_size)
    tracer.patch(AddressableExpanderPRNG, "seek", "core.seek")
    tracer.patch(WalkEngine, "outputs_into", "core.delivery",
                 work=lambda a, k, r, p: (a[2].size, 0))
    tracer.patch(WalkEngine, "outputs", "core.delivery",
                 work=lambda a, k, r, p: (r.size, 0))

    def words_before(a, k):
        return a[0].words_consumed

    def variates(a, k, r, before):
        return a[1].size, a[0].words_consumed - before

    for attr in ("uniform01_into", "normal_into", "exponential_into",
                 "integers_into"):
        tracer.patch(DistStream, attr, "dist.sample", work=variates,
                     pre=words_before)
    tracer.patch(ShardedEngine, "generate_into", "engine.generate",
                 work=arg1_size)


def _predicted(costs, numbers: int, lanes: int) -> tuple:
    from repro.gpusim.pipeline import PipelineConfig
    from repro.hybrid.throughput import stage_times_ns

    feed, transfer, gen, _ = stage_times_ns(PipelineConfig(
        total_numbers=max(numbers, lanes), threads=lanes, costs=costs,
    ))
    total = feed + transfer + gen
    return feed / total, gen / total


def compute(tracer: Tracer, t0_ns: int, t1_ns: int, lanes: int,
            span_cost_s: float) -> Dict[str, float]:
    """Layer metrics common to every workload, from one traced window.

    ``lanes`` is the workload's bank width, used for the ``gpusim``
    prediction of the same number count.  Workload-specific entries
    (engine, serve) are filled in by the caller; every other metric in
    :data:`LAYER_METRICS` defaults to 0 (layer not on the path).
    """
    from repro.gpusim.calibration import PipelineCosts

    s = tracer.summary()

    def get(name: str, key: str) -> float:
        return s.get(name, {}).get(key, 0)

    wall = (t1_ns - t0_ns) / 1e9
    feed = get("bitsource.words64", "self_s") + get("bitsource.seek", "self_s")
    core = sum(get(n, "self_s") for n in ("core.generate", "core.init",
                                          "core.seek"))
    delivery = get("core.delivery", "self_s")
    numbers = get("core.generate", "n")
    fig4 = feed + core + delivery
    out = {name: 0.0 for name in LAYER_METRICS}
    out.update({
        "bitsource.words": get("bitsource.words64", "n"),
        "bitsource.busy_s": feed,
        "core.numbers": numbers,
        "core.busy_s": core,
        "core.delivery_s": delivery,
        "core.feed_words_per_number":
            get("bitsource.words64", "n") / numbers if numbers else 0.0,
        "core.lanes_per_launch":
            get("core.delivery", "n") / get("core.delivery", "calls")
            if get("core.delivery", "calls") else 0.0,
        "core.banks_built": get("core.init", "calls"),
        "core.bank_init_s":
            get("core.init", "incl_s") / get("core.init", "calls")
            if get("core.init", "calls") else 0.0,
        "dist.variates": get("dist.sample", "n"),
        "dist.busy_s": get("dist.sample", "self_s"),
        "dist.words_per_variate":
            get("dist.sample", "m") / get("dist.sample", "n")
            if get("dist.sample", "n") else 0.0,
        "engine.calls": get("engine.generate", "calls"),
        "engine.wait_s": get("engine.generate", "incl_s"),
        "unattributed_s": wall - tracer.covered_s(t0_ns, t1_ns),
        "trace.spans": tracer.span_count,
        "trace.overhead_share": tracer.span_count * span_cost_s / wall,
    })
    if fig4 > 0:
        out["core.feed_share_measured"] = feed / fig4
        out["core.generate_share_measured"] = core / fig4
        out["core.delivery_share_measured"] = delivery / fig4
    if numbers:
        paper = _predicted(PipelineCosts(), int(numbers), lanes)
        blocked = _predicted(PipelineCosts.blocked_feed(), int(numbers), lanes)
        out["gpusim.feed_share_predicted"] = paper[0]
        out["gpusim.generate_share_predicted"] = paper[1]
        out["gpusim.feed_share_predicted_blocked"] = blocked[0]
        out["gpusim.generate_share_predicted_blocked"] = blocked[1]
    return out
