"""The ``serve`` workload: a fresh ``repro serve`` driven over its wire
protocol by a closed-loop asyncio client in this process.

One connection per CPU.  Each connection owns its own slice of session
ids (so its view of every session's word offset is exact) and walks a
request sequence drawn from the seed: each of its sessions once, then
sessions by Zipf popularity; per request a raw ``FETCH`` of varied
count, a ``VARIATE normal``, or a ``RESUME`` to an earlier acked offset
plus a re-fetch that must repeat the words first served there.  A
switch to another session costs a ``HELLO`` inside the timed request.
The constants below say which parts of this traffic come from the
repo's own use of the server and which are assumed.

The traced run replays the same request sequence in process through
:class:`~repro.serve.BatchingExecutor` and
:class:`~repro.serve.SessionStream` with the server's default settings,
since the server's own layers live in another process.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import layers
from common import (
    SETUP_SAMPLES,
    ClientMeter,
    nproc,
    peak_rss_kib,
    rss_kib,
    spawn_until,
    stop_process,
)
from hostspeed import HostClock
from inproc import Outcome
from spans import Tracer, span_cost_s

_now = time.perf_counter_ns

#: Raw FETCH counts, dealt in equal shares.  Each is a count the repo
#: itself sends the server: ``repro fetch -n 10`` and
#: ``client.fetch(1000)`` in docs/serving.md, 256 in the serve soak
#: (benchmarks/bench_serve_throughput.py), 4096 in the sentinel soak
#: (benchmarks/bench_sentinel_overhead.py).  The equal shares are assumed.
FETCH_COUNTS = (10, 256, 1000, 4096)
#: ``VARIATE normal`` count and parameters: docs/serving.md's example.
VARIATE_COUNT = 1000
NORMAL = {"mean": 0.0, "std": 1.0}
#: Sessions in a run, split evenly over the connections: the serve
#: soak's default of 100 concurrent sessions (its ``--clients``).  The
#: first requests of each connection touch each of its sessions once,
#: in seed order, so every run creates the same sessions (and peak RSS
#: does not move with how many requests a run completes).
SESSIONS = 100
#: Assumed, with no trace or measurement behind them: later requests
#: pick a session with Zipf's law, weight 1 / (rank + 1); forward reads
#: dominate the mix and RESUME, the reconnect path, is rare: 70% FETCH,
#: 20% VARIATE, 10% RESUME.
MIX = ("fetch",) * 7 + ("normal",) * 2 + ("resume",)
#: Session ranks whose every response is kept and replayed in process.
SAMPLED_RANKS = (0, 1, 7, 40)
#: Responses per sampled session checked against an in-process stream.
SAMPLED_CHECKS = 100


@dataclass
class SessionLog:
    sampled: bool
    pos: int = 0
    #: ``(offset, words)`` of every raw FETCH.
    chunks: List[tuple] = field(default_factory=list)
    #: ``(offset_before, values, offset_after)`` (sampled sessions only).
    variates: List[tuple] = field(default_factory=list)


@dataclass
class Tally:
    busy: int = 0
    errors: int = 0
    mismatches: int = 0
    #: ``(start_ns, end_ns, numbers delivered)`` per request.
    items: List[tuple] = field(default_factory=list)
    #: Round trips of a HELLO to a session the server already holds:
    #: wire, framing and event loop, no executor work.
    hello_rtt_ns: List[int] = field(default_factory=list)
    #: Per connection, the requests as executed, for the replay.
    ops: List[list] = field(default_factory=list)


class _Deck:
    """Deals ``items`` in shuffled blocks, each holding every item once.

    A run's mix then has its stated shares up to one block, not only on
    average: drawn independently, the count of 4096-word FETCHes in a
    20 s run swings its delivered words by several percent.
    """

    def __init__(self, rng: random.Random, items):
        self.rng, self.items, self.hand = rng, list(items), []

    def deal(self):
        if not self.hand:
            self.hand = self.rng.sample(self.items, len(self.items))
        return self.hand.pop()


class _Conn:
    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer
        self.session: Optional[str] = None

    async def call(self, frame: bytes) -> tuple:
        from repro.serve import protocol as proto

        self.writer.write(frame)
        await self.writer.drain()
        return await proto.read_frame(self.reader)

    async def json(self, frame: bytes) -> dict:
        from repro.serve import protocol as proto

        op, payload = await self.call(frame)
        if op != proto.OP_JSON:
            raise proto.ServeError(payload.decode("utf-8", "replace"))
        doc = proto.decode_json_payload(payload)
        if not doc.get("ok"):
            raise proto.ServeError(str(doc))
        return doc

    async def use(self, sid: str, rtts: Optional[List[int]]) -> None:
        """Switch to ``sid``; a timed switch appends to ``rtts``."""
        from repro.serve import protocol as proto

        if self.session != sid:
            t0 = _now()
            await self.json(proto.pack_hello(sid))
            if rtts is not None:
                rtts.append(_now() - t0)
            self.session = sid


async def _drive(conn_id: int, port: int, seed: int, deadline_ns: int,
                 logs: Dict[str, SessionLog], tally: Tally,
                 clock: HostClock) -> None:
    from repro.serve import protocol as proto

    rng = random.Random(f"{seed}-{conn_id}")
    ranks = range(max(1, SESSIONS // nproc()))
    first = rng.sample(ranks, len(ranks))
    weights = [1.0 / (r + 1) for r in ranks]
    mix, counts = _Deck(rng, MIX), _Deck(rng, FETCH_COUNTS)
    conn = _Conn(*await asyncio.open_connection("127.0.0.1", port))
    ops: List[tuple] = []
    tally.ops.append(ops)
    try:
        while _now() < deadline_ns:
            rank = (first.pop() if first
                    else rng.choices(ranks, weights=weights)[0])
            sid = f"s{seed}-c{conn_id}-r{rank}"
            rtts = tally.hello_rtt_ns if sid in logs else None
            log = logs.setdefault(sid, SessionLog(rank in SAMPLED_RANKS))
            kind = mix.deal()
            if kind == "resume" and not log.chunks:
                kind = "fetch"  # nothing acked yet to resume to
            count = counts.deal() if kind == "fetch" else VARIATE_COUNT
            t0 = clock.mark()
            try:
                op, delivered = await _request(conn, rng, sid, log, kind,
                                               count, ops, tally, rtts)
            except proto.ServeError:
                conn.session = None
                op, delivered = proto.OP_ERROR, 0
            tally.items.append((t0, clock.mark(), delivered))
            if op == proto.OP_BUSY:
                tally.busy += 1
            elif op in (proto.OP_ERROR, proto.OP_JSON):
                tally.errors += 1
            clock.tick()
    finally:
        try:
            await conn.call(proto.pack_frame(proto.OP_BYE))
        except (OSError, asyncio.IncompleteReadError, proto.ServeError):
            pass
        conn.writer.close()
        await conn.writer.wait_closed()


async def _request(conn: _Conn, rng: random.Random, sid: str,
                   log: SessionLog, kind: str, count: int, ops: list,
                   tally: Tally, rtts: Optional[List[int]]) -> tuple:
    """One timed request: ``(opcode of its last response, numbers)``."""
    from repro.serve import protocol as proto

    delivered = 0
    if kind == "fetch":
        await conn.use(sid, rtts)
        op, payload = await conn.call(proto.pack_fetch(count))
        if op == proto.OP_VALUES:
            words = proto.decode_values(payload)
            if words.size != count:
                tally.mismatches += 1
            log.chunks.append((log.pos, words))
            ops.append(("fetch", sid, count, words))
            log.pos += count
            delivered = count
    elif kind == "normal":
        await conn.use(sid, rtts)
        op, payload = await conn.call(
            proto.pack_variate("normal", count, NORMAL))
        if op == proto.OP_VARIATES:
            _, after, values = proto.decode_variates(payload)
            if values.size != count or after <= log.pos:
                tally.mismatches += 1
            if log.sampled:
                log.variates.append((log.pos, values, after))
            ops.append(("normal", sid, count,
                        values if log.sampled else None))
            log.pos = after
            delivered = count
    else:
        offset, old = rng.choice(log.chunks)
        await conn.json(proto.pack_resume(sid, offset))
        conn.session = sid
        op, payload = await conn.call(proto.pack_fetch(old.size))
        if op == proto.OP_VALUES:
            if not np.array_equal(proto.decode_values(payload), old):
                tally.mismatches += 1
            await conn.json(proto.pack_resume(sid, log.pos))
            ops.append(("resume", sid, offset, old, log.pos))
            delivered = old.size
    return op, delivered


def _first_window_words() -> int:
    """Served words after which a default server's session sentinels
    evaluate their first window."""
    from repro.serve import ServeConfig

    cfg = ServeConfig()
    return cfg.sentinel_window * cfg.sentinel_sample


async def _warm_up(port: int, seed: int) -> bool:
    """Push one throwaway session past the first sentinel window.

    That window's evaluation imports ``scipy.stats`` lazily, once per
    process (about a second and 45 MiB on a 2-vCPU x86 host).  Left to
    the timed window it lands in some runs and not in others, so, like
    the in-process workloads' warm-up calls, it is paid before timing.
    Returns whether the fetch was served.
    """
    from repro.serve import protocol as proto

    conn = _Conn(*await asyncio.open_connection("127.0.0.1", port))
    try:
        await conn.use(f"warmup-{seed}", None)
        op, _ = await conn.call(proto.pack_fetch(_first_window_words()))
        return op == proto.OP_VALUES
    finally:
        await conn.call(proto.pack_frame(proto.OP_BYE))
        conn.writer.close()
        await conn.writer.wait_closed()


async def _status(port: int) -> dict:
    from repro.serve import protocol as proto

    conn = _Conn(*await asyncio.open_connection("127.0.0.1", port))
    try:
        return await conn.json(proto.pack_frame(proto.OP_STATUS))
    finally:
        await conn.call(proto.pack_frame(proto.OP_BYE))
        conn.writer.close()
        await conn.writer.wait_closed()


def start_server(master: int, clock: HostClock) -> tuple:
    """``repro serve`` with default config on an ephemeral port; the
    set-up time is at nominal host speed (see ``hostspeed``)."""
    slowdown = clock.settle()
    proc, setup_s, line = spawn_until(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--seed", str(master)],
        "listening on", "stderr",
    )
    port = int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
    return proc, setup_s / slowdown, port


def _probe_servers(master: int, count: int,
                   clock: HostClock) -> List[float]:
    """Set-up seconds of ``count`` servers started and stopped again."""
    samples = []
    for _ in range(count):
        proc, setup_s, _ = start_server(master, clock)
        stop_process(proc)
        samples.append(setup_s)
    return samples


def _verify(logs: Dict[str, SessionLog], master: int, seed: int) -> int:
    """Cross-session disjointness, then sampled sessions vs in process."""
    from repro.serve import SessionStream

    mismatches = 0
    words = [w for log in logs.values() for _, w in log.chunks]
    if words:
        every = np.concatenate(words)
        if np.unique(every).size != every.size:
            mismatches += 1
    rng = random.Random(seed)
    for sid, log in sorted(logs.items()):
        if not log.sampled:
            continue
        stream = SessionStream(sid, master_seed=master)
        for offset, old in rng.sample(
                log.chunks, min(SAMPLED_CHECKS, len(log.chunks))):
            stream.seek(offset)
            if not np.array_equal(stream.generate(old.size), old):
                mismatches += 1
        for before, values, after in rng.sample(
                log.variates, min(SAMPLED_CHECKS, len(log.variates))):
            stream.seek(before)
            got, words_after = stream.variates("normal", values.size, NORMAL)
            if words_after != after or not np.array_equal(got, values):
                mismatches += 1
    return mismatches


def serve(seed: int, seconds: float, tracer: Optional[Tracer]) -> tuple:
    """Run the workload; returns ``(outcome, setup samples)``."""
    master = seed + 1
    # Set-up samples come first (see run.py), the last from the server
    # that is then measured.
    clock = HostClock(enabled=tracer is None)
    setup = _probe_servers(
        master, 0 if tracer is not None else SETUP_SAMPLES - 1, clock)
    proc, setup_s, port = start_server(master, clock)
    setup.append(setup_s)
    try:
        logs: Dict[str, SessionLog] = {}
        tally = Tally()
        if not asyncio.run(_warm_up(port, seed)):
            tally.errors += 1
        base_rss = rss_kib(proc.pid)
        meter = ClientMeter()
        t0 = _now()

        async def load() -> dict:
            deadline = t0 + int(seconds * 1e9)
            await asyncio.gather(*(
                _drive(c, port, seed, deadline, logs, tally, clock)
                for c in range(nproc())
            ))
            return await _status(port)

        status = asyncio.run(load())["server"]
        client = meter.read()
        peak = peak_rss_kib(proc.pid)
    finally:
        code = stop_process(proc)
    items = sorted(tally.items, key=lambda item: item[1])
    out = Outcome(items=items, latencies_ns=[b - a for a, b, _ in items],
                  latency_starts_ns=[a for a, _, _ in items],
                  attempted=len(items),
                  errors=tally.errors + (code != 0), peak_rss_kib=peak,
                  client=client, clock=clock)
    out.checks.update(server_exit=code, sessions=status["sessions"],
                      server_health=status["health"],
                      new_session_share=len(logs) / max(1, len(items)))
    out.mismatches = tally.mismatches + _verify(logs, master, seed)
    out.errors += tally.busy  # BUSY counts as failed, like an error
    if status["health"] != "OK":
        out.errors += 1
    if tracer is not None:
        out.layers = _replay(tally, master, seconds, tracer, out)
        out.layers.update({
            "serve.requests": status["requests_total"],
            "serve.busy": status["busy_total"],
            "serve.errors": status["errors_total"],
            "serve.sessions": status["sessions"],
            # Growth from after the warm-up over the sessions the load
            # created.
            "serve.rss_per_session_kib":
                (peak - base_rss) / max(1, len(logs)),
        })
    return out, setup


def _replay(tally: Tally, master: int, seconds: float, tracer: Tracer,
            out: Outcome) -> Dict[str, float]:
    """The recorded requests through the serve layers in process."""
    from repro.obs import metrics as obs_metrics
    from repro.obs.sentinel import SentinelConfig, StreamSentinel
    from repro.serve import BatchingExecutor, ServeConfig, SessionStream

    # The config ``repro serve --seed`` builds when no other flag is given.
    cfg = ServeConfig(master_seed=master)
    streams: Dict[str, SessionStream] = {}

    def sentinel(sid: str) -> Optional[StreamSentinel]:
        if not cfg.sentinel:
            return None
        return StreamSentinel(SentinelConfig(
            window_words=cfg.sentinel_window,
            sample_every=cfg.sentinel_sample, seed=cfg.master_seed),
            name=sid)

    def stream(sid: str) -> SessionStream:
        if sid not in streams:
            streams[sid] = SessionStream(
                sid, master_seed=cfg.master_seed, lanes=cfg.lanes,
                source_factory=cfg.source_factory, failover=cfg.failover,
                retry_policy=cfg.retry_policy, sentinel=sentinel(sid),
                readahead_max=cfg.readahead_max, backend=cfg.backend)
        return streams[sid]

    # The same warm-up as the server's (see _warm_up), untraced.
    stream("warmup").generate(_first_window_words())
    streams.clear()
    registry = obs_metrics.enable()
    waits: List[int] = []
    pending: Dict[str, List[int]] = defaultdict(list)

    def first_touch(args, kwargs):
        # The planner's first look at a session in a batch: every
        # request of that session submitted before now has left the
        # queue and its coalescing window.
        now = _now()
        queued = pending.pop(args[0].session_id, [])
        waits.extend(now - t for t in queued)

    def words_served(args, kwargs):
        return args[0].words_served

    layers.install(tracer)
    tracer.patch(SessionStream, "__init__", "serve.session_init")
    tracer.patch(SessionStream, "generate_locked", "serve.generate",
                 work=lambda a, k, r, p: (a[1], 0))
    tracer.patch(SessionStream, "variates_locked", "serve.variates",
                 work=lambda a, k, r, p: (a[2], a[0].words_served - p),
                 pre=words_served)
    tracer.patch(SessionStream, "fill_local", "serve.prefill",
                 work=lambda a, k, r, p: (a[1], 0))
    tracer.patch(SessionStream, "seek", "serve.seek")
    tracer.patch(SessionStream, "plan_fill", "serve.plan", pre=first_touch,
                 work=lambda a, k, r, p: (1, int(r == 0)))
    tracer.patch(StreamSentinel, "observe", "serve.sentinel")

    lat: List[int] = []
    mismatches = 0

    async def conn(ex: BatchingExecutor, ops: list, deadline: int) -> None:
        nonlocal mismatches
        for kind, sid, *rest in ops:
            if _now() >= deadline:
                return
            t = _now()
            s = stream(sid)
            if kind == "resume":
                offset, old, pos = rest
                s.seek(offset)
                s.sentinel = sentinel(sid)
                pending[sid].append(_now())
                got = await ex.try_submit(s, old.size)
                s.seek(pos)
                s.sentinel = sentinel(sid)
            elif kind == "fetch":
                count, old = rest
                pending[sid].append(t)
                got = await ex.try_submit(s, count)
            else:
                count, old = rest
                pending[sid].append(t)
                got, _ = await ex.try_submit(s, count, dist="normal",
                                             params=NORMAL)
            if old is not None and not np.array_equal(got, old):
                mismatches += 1
            lat.append(_now() - t)

    async def run() -> tuple:
        ex = BatchingExecutor(
            max_queue=cfg.max_global_queue, max_batch=cfg.max_batch,
            window_s=cfg.batch_window_s, workers=cfg.workers,
            cache_bytes=cfg.cache_bytes)
        await ex.start()
        t0 = _now()
        try:
            deadline = t0 + int(max(2.0, seconds / 3) * 1e9)
            await asyncio.gather(*(conn(ex, ops, deadline)
                                   for ops in tally.ops))
        finally:
            t1 = _now()
            await ex.aclose()
        return t0, t1

    try:
        t0, t1 = asyncio.run(run())
    finally:
        tracer.restore()
        obs_metrics.disable()
    out.mismatches += mismatches
    metrics = layers.compute(tracer, t0, t1, cfg.lanes, span_cost_s())
    s = tracer.summary()

    def get(name: str, key: str) -> float:
        return s.get(name, {}).get(key, 0)

    requests = max(1, len(lat))
    served = get("serve.generate", "n") + get("serve.variates", "m")
    session_s = sum(get(n, "incl_s") for n in (
        "serve.session_init", "serve.generate", "serve.variates",
        "serve.prefill", "serve.seek"))
    batches = registry.histogram("repro_serve_batch_size")
    metrics.update({
        "serve.batch_size_mean":
            batches.sum / batches.count if batches.count else 0.0,
        "serve.readahead_hit_ratio":
            get("serve.plan", "m") / get("serve.plan", "calls")
            if get("serve.plan", "calls") else 0.0,
        "serve.prefill_words_per_served_word":
            get("serve.prefill", "n") / served if served else 0.0,
        "serve.session_ms": 1e3 * session_s / requests,
        "serve.sentinel_ms":
            1e3 * get("serve.sentinel", "incl_s") / requests,
        "serve.coalesce_wait_ms":
            statistics.mean(waits) / 1e6 if waits else 0.0,
        "serve.network_ms": statistics.median(tally.hello_rtt_ns) / 1e6
        if tally.hello_rtt_ns else 0.0,
        "resilience.failovers": sum(
            st.supervisor.stats.failovers for st in streams.values()),
    })
    return metrics
