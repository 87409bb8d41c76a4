"""Process-sharded generation behind one canonical stream.

:class:`ShardedEngine` runs ``shards`` worker processes.  Worker ``i``
owns a :class:`~repro.core.parallel.ParallelExpanderPRNG` walker bank --
the lane range ``[i * lanes, (i + 1) * lanes)`` of a virtual global
bank -- fed by the master seed's substream ``derive_seed(seed, i)``, so
shards are exactly as independent as any two
:func:`~repro.core.streams.spawn_streams` substreams.  Each worker
writes whole rounds into its own shared-memory
:class:`~repro.engine.ring.SharedRing`; the parent assembles the
engine's **bulk stream** by consuming one round from every ring in
shard order:

    round 0: shard 0 lanes, shard 1 lanes, ..., round 1: shard 0, ...

That stream is a pure function of ``(seed, shards, lanes, walk_length)``
-- :func:`serial_reference` produces the identical values in
process, and ``generate`` buffers round remainders so fetch sizing
cannot change it (the same stream contract the core obeys).

Workers also answer **named stream fetches** (the serving path): a
fetch names a ``(stream_seed, lanes)`` stream, is routed to the shard
``stream_seed % shards``, and is served from a per-stream walker bank
inside that worker -- byte-identical to running the same bank in
process, which is what lets ``repro.serve`` sessions move onto the
shard pool without changing a single client-visible value.  Every bank
is an offset-addressable ``policy="mod"``
:class:`~repro.core.parallel.ParallelExpanderPRNG`, and every fetch
carries the stream's **absolute word offset**: a worker whose bank is at a
different position seeks there directly -- O(log offset) via the feed
jump-ahead -- so respawn cost is independent of stream age and
``fetch_stream(..., offset=...)`` serves any slice without replay.
Each worker keeps at most :data:`MAX_WORKER_STREAMS` named-stream banks,
least recently used first out; an evicted stream is rebuilt and seeks
on its next fetch.

Health follows :mod:`repro.resilience`: worker feeds run behind
:class:`~repro.resilience.supervised.SupervisedFeed` failover chains, a
dead worker surfaces as
:class:`~repro.resilience.errors.WorkerFailedError` (or is respawned
when ``auto_restart`` is on, with the engine reporting ``DEGRADED``),
and ``repro_engine_*`` metrics/spans flow through :mod:`repro.obs`.

NOTE: wall-clock speedup requires actual cores; on a single-core
container (such as the reproduction environment) the decomposition is
correct but not faster -- ``benchmarks/bench_engine_scaling.py``
measures the scaling where cores exist.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import queue as queue_mod
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.bitsource.base import BitSource
from repro.bitsource.counter import SplitMix64Source
from repro.bitsource.os_entropy import OsEntropySource
from repro.core.generator import DEFAULT_WALK_LENGTH
from repro.core.parallel import ParallelExpanderPRNG
from repro.core.streams import derive_seed
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.resilience.errors import WorkerFailedError
from repro.resilience.supervised import RetryPolicy, SupervisedFeed
from repro.utils.checks import check_positive

from repro.engine.ring import RingHandle, SharedRing

__all__ = [
    "DEFAULT_ENGINE_LANES",
    "DEFAULT_RING_BURST",
    "DEFAULT_RING_SLOTS",
    "ENGINE_RETRY_POLICY",
    "EngineConfig",
    "ShardedEngine",
    "serial_reference",
]

#: Lanes per shard: big enough to stay vectorized, small enough that a
#: round is quick to assemble and the rings stay compact.
DEFAULT_ENGINE_LANES = 4096

#: Rounds buffered per shard ring; the writer stalls when all are full,
#: which is the engine's built-in backpressure.
DEFAULT_RING_SLOTS = 4

#: Rounds packed into one ring slot (the burst width): one
#: semaphore/notify pair and one fused multi-round launch per burst,
#: instead of per round.  Bursts are transport framing only -- the
#: reader hands rounds out one at a time and restart positions stay
#: round-granular -- so the bulk stream is unchanged for any value.
DEFAULT_RING_BURST = 8

#: Fast, bounded supervision budget for worker feeds (mirrors serving).
ENGINE_RETRY_POLICY = RetryPolicy(
    max_retries=2, backoff_base_s=0.001, backoff_cap_s=0.01
)

#: Worker poll interval while idle (ring full, no pending requests).
_IDLE_POLL_S = 0.02

#: Word cap for one fused worker round: bounds the pickled response (a
#: full message is ~16 MiB of uint64) without limiting batch size --
#: overflow just becomes another round on the same shard.
MAX_ROUND_WORDS = 1 << 21

#: Named-stream banks one worker keeps between fetches.  Past the cap
#: the least recently fetched bank is dropped; a bank is rebuilt from
#: its stream seed and one O(log offset) seek, so the cap bounds worker
#: memory without changing a served byte.
MAX_WORKER_STREAMS = 256

#: A worker's named-stream banks by ``(stream_seed, lanes)``, least
#: recently fetched first.
StreamBanks = OrderedDict[Tuple[int, int], ParallelExpanderPRNG]


@dataclass(frozen=True)
class EngineConfig:
    """Everything that identifies a shard pool *and* its streams.

    ``(seed, shards, lanes, walk_length)`` are part of the bulk
    stream's identity; the rest is operational.  Every bank walks the
    offset-addressable ``policy="mod"`` stream.
    """

    seed: int = 0
    shards: int = 2
    lanes: int = DEFAULT_ENGINE_LANES
    walk_length: int = DEFAULT_WALK_LENGTH
    #: Rounds buffered per shard; ``0`` disables the bulk stream (a
    #: serve-only pool answers stream fetches but assembles no rounds).
    ring_slots: int = DEFAULT_RING_SLOTS
    #: Rounds per ring slot (burst width); the effective value is capped
    #: so one burst never exceeds :data:`MAX_ROUND_WORDS` words.
    #: Transport framing only -- never part of the stream's identity.
    ring_burst: int = DEFAULT_RING_BURST
    #: Array backend name for worker walk kernels (``None`` = process
    #: default, i.e. NumPy).  The stream is bit-identical on every
    #: backend; a string (not a Backend instance) so configs stay
    #: picklable for worker processes.
    backend: Optional[str] = None
    #: Wrap worker feeds in a SupervisedFeed failover chain.  Value-
    #: transparent while healthy, so it never changes the stream.
    supervised: bool = True
    #: Deadline for one round / one fetch response before the engine
    #: inspects the worker (dead -> restart or WorkerFailedError).
    fetch_timeout_s: float = 60.0
    #: Respawn dead workers (deterministic seek to the dead shard's
    #: position) instead of raising; the engine reports DEGRADED afterwards.
    auto_restart: bool = False
    #: Picklable ``seed -> BitSource`` override for the *primary* feed
    #: of every worker bank and stream (fault injection in tests).
    source_factory: Optional[Callable[[int], BitSource]] = None

    def __post_init__(self):
        check_positive("shards", self.shards)
        check_positive("lanes", self.lanes)
        check_positive("walk_length", self.walk_length)
        if self.ring_slots < 0:
            raise ValueError(
                f"ring_slots must be >= 0, got {self.ring_slots}"
            )
        check_positive("ring_burst", self.ring_burst)
        if self.fetch_timeout_s <= 0:
            raise ValueError(
                f"fetch_timeout_s must be > 0, got {self.fetch_timeout_s}"
            )


def _effective_burst(config: EngineConfig) -> int:
    """Rounds per ring slot, capped so a burst stays under the word cap."""
    return max(1, min(config.ring_burst, MAX_ROUND_WORDS // config.lanes))


# ----------------------------------------------------------------------
# Bank construction (shared by workers and the serial reference)
# ----------------------------------------------------------------------

def _make_feed(config: EngineConfig, feed_seed: int) -> BitSource:
    factory = config.source_factory or SplitMix64Source
    primary = factory(feed_seed)
    if not config.supervised:
        return primary
    return SupervisedFeed(
        [
            primary,
            SplitMix64Source(derive_seed(feed_seed, 1)),
            OsEntropySource(),
        ],
        policy=ENGINE_RETRY_POLICY,
        jitter_seed=feed_seed,
    )


def _make_bank(config: EngineConfig, shard_index: int) -> ParallelExpanderPRNG:
    """Shard ``shard_index``'s bulk walker bank (offset-addressable)."""
    return _make_stream(config, derive_seed(config.seed, shard_index),
                        config.lanes)


def _make_stream(config: EngineConfig, stream_seed: int,
                 lanes: int) -> ParallelExpanderPRNG:
    """A named stream's walker bank (identical to an in-process one)."""
    return ParallelExpanderPRNG(
        num_threads=lanes,
        bit_source=_make_feed(config, stream_seed),
        walk_length=config.walk_length,
        policy="mod",
        backend=config.backend,
    )


def _stream_bank(streams: StreamBanks, config: EngineConfig,
                 stream_seed: int, lanes: int) -> ParallelExpanderPRNG:
    """The worker's cached bank for a named stream, LRU-bounded.

    A hit moves the bank to the most-recent end; a miss builds it and
    drops the least recently used bank past :data:`MAX_WORKER_STREAMS`.
    """
    key = (stream_seed, lanes)
    prng = streams.get(key)
    if prng is None:
        prng = streams[key] = _make_stream(config, stream_seed, lanes)
        while len(streams) > MAX_WORKER_STREAMS:
            streams.popitem(last=False)
    else:
        streams.move_to_end(key)
    return prng


def serial_reference(config: EngineConfig, n: int) -> np.ndarray:
    """The exact bulk stream the shard pool produces, single-process.

    Used by tests to prove the decomposition changes nothing: round
    ``r`` of the engine is shard 0's round ``r``, then shard 1's, ...
    """
    check_positive("n", n)
    banks = [_make_bank(config, i) for i in range(config.shards)]
    parts: List[np.ndarray] = []
    total = 0
    while total < n:
        for bank in banks:
            vals = bank.next_round()
            parts.append(vals)
            total += vals.size
    return np.concatenate(parts)[:n]


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------

def _picklable(exc: BaseException):
    """The exception itself if it survives pickling, else a string."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return f"{type(exc).__name__}: {exc}"


def _serve_fetch_round(span_reqs,
                       streams: StreamBanks,
                       config: EngineConfig, resp_q) -> None:
    """One fused round: every span is generated into a single output
    buffer, back to back, and shipped in one response.  Spans are
    independent streams, so a failed span is recorded in ``metas``
    (its slot in the buffer is simply not filled) and the rest of
    the round still succeeds.  Always puts exactly one response."""
    try:
        buf = np.empty(sum(s[3] for s in span_reqs), dtype=np.uint64)
        metas: list = []
        pos = 0
        for stream_seed, lanes, offset, n in span_reqs:
            try:
                prng = _stream_bank(streams, config, stream_seed, lanes)
                if prng.tell() != offset:
                    # Fresh worker behind a long-lived stream (post-
                    # restart), an evicted bank, or an explicit-offset
                    # fetch: jump straight there -- O(log offset), never
                    # a replay of the already-served prefix.
                    prng.seek(offset)
                if n:
                    prng.generate_into(buf[pos:pos + n])
                metas.append(n)
                pos += n
            except Exception as exc:  # noqa: BLE001 - shipped per span
                metas.append(_picklable(exc))
        resp_q.put(("okv", (buf[:pos] if pos != buf.size else buf, metas)))
    except Exception as exc:  # noqa: BLE001 - shipped to the caller
        try:
            resp_q.put(("err", exc))
        except Exception:  # unpicklable exception: degrade to a string
            resp_q.put(("err", f"{type(exc).__name__}: {exc}"))


def _serve_request(req,
                   streams: StreamBanks,
                   config: EngineConfig, resp_q) -> None:
    """Handle one request message.

    A ``fetchv`` message batches *all* of the caller's rounds for this
    shard in one queue put (one pickle/wakeup instead of one per
    round); responses still go back one per round so no single pickle
    exceeds the :data:`MAX_ROUND_WORDS` response-size budget.
    """
    op = req[0]
    if op == "ping":
        resp_q.put(("ok", None))
        return
    if op != "fetchv":
        resp_q.put(("err", f"unknown engine request {op!r}"))
        return
    for span_reqs in req[1]:
        _serve_fetch_round(span_reqs, streams, config, resp_q)


def _shard_main(config: EngineConfig, shard_index: int,
                ring_handle: Optional[RingHandle], req_q, resp_q,
                stop, resume_rounds: int, ready) -> None:
    """Worker body: produce ring rounds, answer stream fetches.

    ``resume_rounds`` > 0 means this process replaces a dead shard: the
    bank seeks straight to that round boundary -- O(log offset), so a
    respawn costs the same whether the shard died in round 3 or round
    3 billion -- and the ring resumes at exactly the round the reader
    expects.
    """
    bank = _make_bank(config, shard_index) if ring_handle is not None else None
    if bank is not None and resume_rounds:
        bank.seek(resume_rounds * config.lanes)
    writer = ring_handle.attach() if ring_handle is not None else None
    streams: StreamBanks = OrderedDict()
    ready.set()
    try:
        while not stop.is_set():
            produced = False
            if writer is not None:
                slot = writer.try_reserve()
                if slot is not None:
                    # One fused multi-round launch fills the whole
                    # burst in place (zero-alloc: the slot is a view
                    # into shared memory), then one notify publishes
                    # every round in it.
                    bank.generate_into(slot)
                    writer.commit()
                    produced = True
            try:
                if produced:
                    req = req_q.get(False)
                else:
                    req = req_q.get(True, _IDLE_POLL_S)
            except queue_mod.Empty:
                continue
            if req is None:
                break
            _serve_request(req, streams, config, resp_q)
    finally:
        if writer is not None:
            writer.close()


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------

class ShardedEngine:
    """A pool of generation shards behind one stream-exact interface.

    Use as a context manager, or call :meth:`close` explicitly; worker
    processes and shared-memory rings are real OS resources.
    """

    def __init__(self, config: Optional[EngineConfig] = None, **overrides):
        if config is None:
            config = EngineConfig(**overrides)
        elif overrides:
            raise TypeError("pass either a config or keyword overrides")
        self.config = config
        self._ctx = (
            mp.get_context("fork")
            if "fork" in mp.get_all_start_methods()
            else mp.get_context("spawn")
        )
        self._stop = self._ctx.Event()
        n = config.shards
        self._procs: List[Optional[mp.Process]] = [None] * n
        self._rings: List[Optional[SharedRing]] = [None] * n
        self._req_qs: List = [None] * n
        self._resp_qs: List = [None] * n
        #: Rounds of each shard the reader has consumed -- the restart
        #: seek target (a respawned worker jumps straight there).
        self._rounds_consumed = [0] * n
        #: Rounds per ring slot (burst width), after the word cap.
        self._burst = _effective_burst(config)
        #: Read cursor inside each shard's current burst.  Reset on
        #: respawn: a fresh ring's first burst starts at exactly
        #: ``_rounds_consumed[i]``, so the partially-read burst that
        #: died with the old ring is regenerated from its unread round.
        self._burst_pos = [0] * n
        #: Next word offset per (stream_seed, lanes) -- where a fetch
        #: without an explicit ``offset`` continues from.
        self._stream_words: Dict[Tuple[int, int], int] = {}
        self._shard_locks = [threading.Lock() for _ in range(n)]
        self._gen_lock = threading.Lock()
        self._remainder = np.empty(0, dtype=np.uint64)
        self.rounds_assembled = 0
        self.restarts = 0
        self._closed = False
        obs_metrics.gauge(
            "repro_engine_shards", "Worker shards in the generation engine"
        ).set(n)
        try:
            for i in range(n):
                self._spawn(i, resume_rounds=0)
        except BaseException:
            self.close()
            raise

    # -- lifecycle -----------------------------------------------------

    def _spawn(self, i: int, resume_rounds: int) -> None:
        cfg = self.config
        ring = (
            SharedRing(cfg.ring_slots, cfg.lanes, self._ctx,
                       rounds_per_slot=self._burst)
            if cfg.ring_slots
            else None
        )
        self._burst_pos[i] = 0
        req_q = self._ctx.Queue()
        resp_q = self._ctx.Queue()
        ready = self._ctx.Event()
        proc = self._ctx.Process(
            target=_shard_main,
            args=(cfg, i, ring.handle() if ring else None, req_q, resp_q,
                  self._stop, resume_rounds, ready),
            daemon=True,
            name=f"repro-engine-shard-{i}",
        )
        proc.start()
        self._rings[i], self._req_qs[i], self._resp_qs[i] = ring, req_q, resp_q
        self._procs[i] = proc
        if not ready.wait(cfg.fetch_timeout_s) or not proc.is_alive():
            alive = proc.is_alive()
            self._reap(i)
            raise WorkerFailedError(
                f"engine shard {i} "
                + ("timed out during startup"
                   if alive else "died during startup")
                + f" (resume_rounds={resume_rounds})",
                worker_index=i,
                attempts=1,
            )

    def _reap(self, i: int) -> None:
        """Tear down shard ``i``'s process, ring, and queues."""
        proc = self._procs[i]
        if proc is not None:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5)
        if self._rings[i] is not None:
            self._rings[i].close(unlink=True)
        for q in (self._req_qs[i], self._resp_qs[i]):
            if q is not None:
                try:
                    q.close()
                    q.cancel_join_thread()
                except Exception:  # pragma: no cover - platform quirks
                    pass
        self._procs[i] = self._rings[i] = None
        self._req_qs[i] = self._resp_qs[i] = None

    def _revive(self, i: int) -> None:
        """Replace a dead shard with a deterministic respawn."""
        obs_metrics.counter(
            "repro_engine_restarts_total", "Engine shards respawned"
        ).inc()
        self.restarts += 1
        self._reap(i)
        with span("engine.restart", shard=i,
                  resume_rounds=self._rounds_consumed[i]):
            self._spawn(i, resume_rounds=self._rounds_consumed[i])

    def _shard_down(self, i: int, doing: str) -> None:
        """A shard missed a deadline: revive it or raise, never hang."""
        proc = self._procs[i]
        if proc is not None and proc.is_alive():
            raise WorkerFailedError(
                f"engine shard {i} timed out {doing} after "
                f"{self.config.fetch_timeout_s}s (process alive but "
                f"unresponsive); no partial results were returned",
                worker_index=i,
                attempts=1,
            )
        if self.config.auto_restart:
            self._revive(i)
            return
        raise WorkerFailedError(
            f"engine shard {i} died {doing} (exitcode="
            f"{proc.exitcode if proc is not None else '?'}); "
            f"no partial results were returned",
            worker_index=i,
            attempts=1,
        )

    def close(self) -> None:
        """Stop all workers and release rings/queues (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        for q in self._req_qs:
            if q is not None:
                try:
                    q.put_nowait(None)
                except Exception:  # pragma: no cover - full/closed queue
                    pass
        for i in range(self.config.shards):
            self._reap(i)

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    # -- bulk stream ---------------------------------------------------

    def _peek_round(self) -> list:
        """Zero-copy ring views of every shard's next round, shard-major.

        Blocks (reviving dead shards) until *all* shards have a round
        ready; nothing is consumed, so a failure mid-peek leaves every
        ring intact (the no-partial-results contract).
        """
        cfg = self.config
        lanes = cfg.lanes
        parts = []
        for i in range(cfg.shards):
            while True:
                ring = self._rings[i]
                view = (
                    ring.peek(timeout=cfg.fetch_timeout_s)
                    if ring is not None else None
                )
                if view is not None:
                    break
                self._shard_down(i, "producing a round")
            # The slot holds a burst; hand out this shard's next unread
            # round of it.  Peek is idempotent, so re-peeking the same
            # slot just re-slices at the same cursor.
            pos = self._burst_pos[i]
            parts.append(view[pos * lanes:(pos + 1) * lanes])
        return parts

    def _consume_round(self) -> None:
        """Release the round returned by the last :meth:`_peek_round`.

        The underlying ring slot is only handed back to the writer once
        every round of its burst has been consumed.
        """
        for i in range(self.config.shards):
            self._burst_pos[i] += 1
            if self._burst_pos[i] >= self._burst:
                self._rings[i].consume()
                self._burst_pos[i] = 0
            self._rounds_consumed[i] += 1
        self.rounds_assembled += 1
        obs_metrics.counter(
            "repro_engine_rounds_total", "Engine rounds assembled"
        ).inc()

    def _next_round(self) -> np.ndarray:
        """Assemble one engine round: every shard's round, shard-major."""
        parts = self._peek_round()
        out = np.concatenate(parts)  # one copy, straight from the rings
        self._consume_round()
        return out

    def generate_into(self, out: np.ndarray) -> None:
        """Fill ``out`` with the next ``out.size`` numbers of the stream.

        Zero-copy variant of :meth:`generate`: full rounds are copied
        straight from the shards' ring views into the caller's buffer
        (no intermediate round array); only a trailing partial round
        goes through the remainder buffer.  ``out`` must be a
        one-dimensional, C-contiguous, writeable ``uint64`` array.
        """
        if not isinstance(out, np.ndarray):
            raise TypeError(f"out must be a numpy array, got {type(out)!r}")
        if out.dtype != np.uint64:
            raise TypeError(f"out must have dtype uint64, got {out.dtype}")
        if out.ndim != 1:
            raise ValueError(f"out must be one-dimensional, got shape {out.shape}")
        if not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        if not out.flags.writeable:
            raise ValueError("out must be writeable")
        if not self.config.ring_slots:
            raise RuntimeError(
                "bulk stream disabled: this engine was built with "
                "ring_slots=0 (serve-only)"
            )
        n = out.size
        round_size = self.config.shards * self.config.lanes
        with self._gen_lock:
            with span("engine.generate", n=n, shards=self.config.shards):
                pos = 0
                if self._remainder.size:
                    take = min(self._remainder.size, n)
                    out[:take] = self._remainder[:take]
                    self._remainder = self._remainder[take:]
                    pos = take
                while n - pos >= round_size:
                    for view in self._peek_round():
                        out[pos : pos + view.size] = view
                        pos += view.size
                    self._consume_round()
                if pos < n:
                    vals = self._next_round()
                    take = n - pos
                    out[pos:] = vals[:take]
                    self._remainder = vals[take:].copy()
            obs_metrics.counter(
                "repro_engine_numbers_total", "Numbers served (bulk stream)"
            ).inc(n)

    def generate(self, n: int) -> np.ndarray:
        """The next ``n`` numbers of the engine's bulk stream.

        Fetch-size transparent: remainders of assembled rounds are
        buffered, so any split of ``n`` across calls yields the same
        stream (equal to :func:`serial_reference`).
        """
        if n < 0:
            raise ValueError(f"count must be non-negative, got {n}")
        out = np.empty(n, dtype=np.uint64)
        self.generate_into(out)
        return out

    # -- named streams (the serving path) ------------------------------

    def stream_shard(self, stream_seed: int) -> int:
        """Which shard owns the stream seeded ``stream_seed``."""
        return stream_seed % self.config.shards

    def fetch_spans(
        self, spans: List[Tuple[int, int, Optional[int], int]]
    ) -> List[object]:
        """Serve many named-stream spans in a handful of fused rounds.

        ``spans`` is a sequence of ``(stream_seed, lanes, offset,
        count)`` tuples (``offset=None`` continues where the previous
        fetch of that stream left off).  Spans are grouped by owning
        shard, packed into per-shard ``fetchv`` rounds capped at
        :data:`MAX_ROUND_WORDS` words, dispatched to **all** shards
        up front (so shards generate concurrently), and collected in
        order.  Returns a list aligned with ``spans``: a ``uint64``
        array per served span, or an ``Exception`` instance for a span
        that failed -- callers decide whether a partial batch is fatal.

        Every dispatched span carries an absolute word offset, so a
        shard revived mid-batch just re-serves its unanswered rounds
        byte-identically (the no-partial-results contract per span).
        Thread-safe: shard locks are taken in ascending shard order,
        the same total order every other engine entry point uses.
        """
        spans = list(spans)
        results: List[object] = [None] * len(spans)
        if not spans:
            return results
        for stream_seed, lanes, offset, n in spans:
            if n < 0:
                raise ValueError(f"count must be non-negative, got {n}")
            check_positive("lanes", lanes)
            if offset is not None and offset < 0:
                raise ValueError(
                    f"offset must be non-negative, got {offset}"
                )
        by_shard: Dict[int, List[int]] = {}
        for idx, sp in enumerate(spans):
            by_shard.setdefault(self.stream_shard(sp[0]), []).append(idx)
        shard_ids = sorted(by_shard)
        total_words = sum(sp[3] for sp in spans)
        acquired: List[int] = []
        try:
            for i in shard_ids:
                self._shard_locks[i].acquire()
                acquired.append(i)
            with span("engine.fetch_spans", shards=len(shard_ids),
                      spans=len(spans), words=total_words):
                # Resolve continuation offsets and pack each shard's
                # spans into rounds under the word cap.  ``cursor``
                # makes two offset=None spans of the same stream in one
                # batch contiguous.
                cursor: Dict[Tuple[int, int], int] = {}
                messages: Dict[int, List[list]] = {}
                for i in shard_ids:
                    msgs: List[list] = []
                    cur: list = []
                    cur_words = 0
                    for idx in by_shard[i]:
                        stream_seed, lanes, offset, n = spans[idx]
                        key = (stream_seed, lanes)
                        start = (
                            offset if offset is not None
                            else cursor.get(
                                key, self._stream_words.get(key, 0)
                            )
                        )
                        cursor[key] = start + n
                        if cur and cur_words + n > MAX_ROUND_WORDS:
                            msgs.append(cur)
                            cur, cur_words = [], 0
                        cur.append((idx, (stream_seed, lanes, start, n)))
                        cur_words += n
                    if cur:
                        msgs.append(cur)
                    messages[i] = msgs
                # Dispatch first -- shards run their fused walks
                # concurrently -- then collect in the same order.  All
                # of a shard's rounds travel in ONE queue put (one
                # pickle + one wakeup); the worker still acknowledges
                # round by round, keeping responses under the word cap.
                for i in shard_ids:
                    if messages[i]:
                        self._req_qs[i].put(
                            ("fetchv",
                             [[sp for _, sp in msg] for msg in messages[i]])
                        )
                    obs_metrics.counter(
                        "repro_engine_fused_rounds_total",
                        "Fused multi-span worker rounds dispatched",
                    ).inc(len(messages[i]))
                for i in shard_ids:
                    msgs = messages[i]
                    answered = 0
                    while answered < len(msgs):
                        try:
                            status, payload = self._resp_qs[i].get(
                                timeout=self.config.fetch_timeout_s
                            )
                        except queue_mod.Empty:
                            try:
                                self._shard_down(i, "serving a fused fetch")
                            except WorkerFailedError as exc:
                                for msg in msgs[answered:]:
                                    for idx, _ in msg:
                                        results[idx] = exc
                                answered = len(msgs)
                                continue
                            # Revived: the old queues died with the
                            # worker, so re-dispatch every unanswered
                            # round -- again as one batched put
                            # (absolute offsets make the retry
                            # byte-exact).
                            self._req_qs[i].put(
                                ("fetchv",
                                 [[sp for _, sp in msg]
                                  for msg in msgs[answered:]])
                            )
                            continue
                        msg = msgs[answered]
                        answered += 1
                        if status == "err":
                            exc = (
                                payload
                                if isinstance(payload, BaseException)
                                else WorkerFailedError(
                                    f"engine shard {i} failed a fused "
                                    f"fetch: {payload}",
                                    worker_index=i,
                                    attempts=1,
                                )
                            )
                            for idx, _ in msg:
                                results[idx] = exc
                            continue
                        buf, metas = payload
                        pos = 0
                        for (idx, (stream_seed, lanes, start, n)), meta \
                                in zip(msg, metas):
                            if isinstance(meta, int):
                                results[idx] = buf[pos:pos + meta]
                                pos += meta
                                self._stream_words[(stream_seed, lanes)] \
                                    = start + n
                            elif isinstance(meta, BaseException):
                                results[idx] = meta
                            else:
                                results[idx] = WorkerFailedError(
                                    f"engine shard {i} failed a span: "
                                    f"{meta}",
                                    worker_index=i,
                                    attempts=1,
                                )
        finally:
            for i in reversed(acquired):
                self._shard_locks[i].release()
        served = sum(
            r.size for r in results if isinstance(r, np.ndarray)
        )
        obs_metrics.counter(
            "repro_engine_fetch_words_total",
            "Numbers served to named streams",
        ).inc(served)
        return results

    def fetch_stream(self, stream_seed: int, lanes: int, n: int,
                     offset: Optional[int] = None) -> np.ndarray:
        """``n`` numbers of the named stream (thread-safe).

        Byte-identical to ``ParallelExpanderPRNG(num_threads=lanes,
        bit_source=<same feed chain>(stream_seed), policy="mod")
        .generate(...)`` run in process, regardless of fetch sizing or
        worker restarts.

        ``offset`` names the absolute word offset to serve from; the
        default continues where the previous fetch of this stream left
        off.  Every request ships an absolute offset to the worker, so
        an arbitrary slice -- including one before the current position
        -- costs one O(log offset) seek, never a replay.  A single-span
        :meth:`fetch_spans` round under the hood.
        """
        [result] = self.fetch_spans([(stream_seed, lanes, offset, n)])
        if isinstance(result, BaseException):
            raise result
        return result

    def ping(self, shard: int) -> bool:
        """Round-trip a no-op through a shard (health probe)."""
        with self._shard_locks[shard]:
            self._req_qs[shard].put(("ping",))
            try:
                status, _ = self._resp_qs[shard].get(
                    timeout=self.config.fetch_timeout_s
                )
                return status == "ok"
            except queue_mod.Empty:
                return False

    # -- introspection -------------------------------------------------

    @property
    def shards_alive(self) -> List[bool]:
        return [p is not None and p.is_alive() for p in self._procs]

    @property
    def health(self) -> str:
        """``OK`` / ``DEGRADED`` / ``FAILED`` in the resilience idiom:
        dead shard -> FAILED (DEGRADED if auto_restart will revive it);
        any past restart is sticky DEGRADED."""
        alive = self.shards_alive
        if not all(alive):
            return "DEGRADED" if self.config.auto_restart else "FAILED"
        return "DEGRADED" if self.restarts else "OK"

    def describe(self) -> dict:
        """STATUS-op view of the pool (no seed material exposed)."""
        return {
            "shards": self.config.shards,
            "lanes_per_shard": self.config.lanes,
            "ring_burst": self._burst,
            "backend": self.config.backend or "numpy",
            "rounds_assembled": self.rounds_assembled,
            "streams": len(self._stream_words),
            "restarts": self.restarts,
            "alive": self.shards_alive,
            "health": self.health,
        }

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ShardedEngine(shards={self.config.shards}, "
            f"lanes={self.config.lanes}, health={self.health})"
        )
