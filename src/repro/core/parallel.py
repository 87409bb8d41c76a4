"""Massively parallel generation: one NumPy lane per GPU thread.

:class:`ParallelExpanderPRNG` runs ``num_threads`` independent walkers in
SIMD lockstep, reproducing the paper's execution model: every thread owns
a walk, every ``GetNextRand`` is a 64-step walk, and a *batch size* ``S``
(Figure 5's "block size") says how many numbers each thread produces per
kernel launch.

Values are independent of ``S`` and of ``num_threads`` ordering choices:
``generate(n)`` always returns numbers grouped launch-by-launch,
thread-major within a launch, mirroring how the paper's kernel writes its
output array.

The bank emits one stream per neighbour-selection policy:

``reject`` (default)
    The paper's chained walk: each thread's walk carries over from one
    round to the next, and every step redraws until its 3 bits name a
    neighbour.  ``seek`` can only replay forwards.
``mod``
    The windowed construction: round ``r`` draws its start vertices
    **and** its complete chunk window from the fixed feed slice
    ``[r * words_per_round, (r + 1) * words_per_round)``, with
    ``words_per_round = lanes + ceil(walk_length * lanes / 21)``, walks
    ``walk_length`` steps and emits.  Round ``r`` is a pure function of
    ``(seed, lanes, walk_length, r)``, so ``seek`` reaches any offset
    with one feed seek plus at most one round of walking, and
    consecutive rounds fuse into one wide walk.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.bitsource.base import (
    BitSource,
    UnseekableSourceError,
    chunks_from_words,
)
from repro.bitsource.glibc import GlibcRandom
from repro.core.expander import GabberGalilExpander
from repro.core.generator import DEFAULT_WALK_LENGTH
from repro.core.walk import CHUNKS_PER_WORD, WalkEngine, WalkState
from repro.obs import metrics as obs_metrics
from repro.obs.sentinel.tap import maybe_observe
from repro.obs.trace import span
from repro.utils.bits import u01_from_u64
from repro.utils.checks import check_positive

__all__ = [
    "ParallelExpanderPRNG",
    "DEFAULT_NUM_THREADS",
    "DEFAULT_BATCH_SIZE",
]

#: Default walker count; a multiple of the C1060's 240 cores x warp width.
DEFAULT_NUM_THREADS = 30 * 32 * 16  # 15360 lanes

#: The paper's empirically optimal numbers-per-thread batch (Figure 5).
DEFAULT_BATCH_SIZE = 100

#: Lane budget of one fused multi-round launch on a ``mod`` bank.
#: Windowed rounds are independent, so K rounds of an nt-lane bank can
#: walk as one (K * nt)-lane bank; this caps K * nt so the fused state
#: and its scratch stay cache-sized.  A pure batching knob: it cannot
#: change emitted values, only how many rounds share one kernel sweep.
FUSED_LAUNCH_LANES = 1 << 16

_EMPTY = np.empty(0, dtype=np.uint64)


class ParallelExpanderPRNG:
    """Bank of independent expander walkers emitting 64-bit numbers.

    Parameters
    ----------
    num_threads : int
        Walker lanes (GPU threads).
    seed : int
        Seed for the default glibc feed.
    graph, bit_source, walk_length :
        As in :class:`~repro.core.generator.ExpanderWalkPRNG`.
    policy : str
        ``'reject'`` (chained, forward-only seek) or ``'mod'``
        (windowed, offset-addressable); see the module docstring.

    Examples
    --------
    >>> prng = ParallelExpanderPRNG(num_threads=256, seed=3)
    >>> vals = prng.generate(1000)
    >>> vals.dtype, len(vals)
    (dtype('uint64'), 1000)
    """

    def __init__(
        self,
        num_threads: int = DEFAULT_NUM_THREADS,
        seed: int = 0,
        graph: Optional[GabberGalilExpander] = None,
        bit_source: Optional[BitSource] = None,
        walk_length: int = DEFAULT_WALK_LENGTH,
        policy: str = "reject",
        fused: bool = True,
        backend=None,
    ):
        check_positive("num_threads", num_threads)
        check_positive("walk_length", walk_length)
        self.num_threads = int(num_threads)
        self.graph = graph if graph is not None else GabberGalilExpander()
        self.source = (
            bit_source if bit_source is not None else GlibcRandom(seed)
        )
        self.walk_length = int(walk_length)
        # ``fused`` selects the allocation-free walk kernel (default) or
        # the legacy reference kernel; the stream is identical either
        # way -- benchmarks use the flag to compare the two.
        # ``backend`` picks the array backend for the walk kernel; the
        # stream is bit-identical on every backend (integer kernel).
        self.engine = WalkEngine(
            self.graph, policy=policy, fused=fused, backend=backend
        )
        self.backend = self.engine.backend
        #: True for the windowed ``mod`` stream, False for chained ``reject``.
        self.addressable = policy == "mod"
        chunks = self.walk_length * self.num_threads
        #: Feed words one windowed round reads (``mod`` only).
        self.words_per_round = self.num_threads + -(-chunks // CHUNKS_PER_WORD)
        self._state: Optional[WalkState] = None
        self.initialize()

    # ------------------------------------------------------------------
    # Algorithm 1, vectorized over all threads
    # ------------------------------------------------------------------

    def initialize(self) -> None:
        """Reset to offset 0.

        A ``reject`` bank gives every thread a feed-chosen start vertex
        and a 64-step mix; a ``mod`` bank draws nothing, since every
        windowed round picks its own start vertices and mixes afresh.
        """
        obs_metrics.gauge(
            "repro_prng_lanes", "Walker lanes in the parallel generator"
        ).set(self.num_threads)
        self.numbers_generated = 0
        #: Rounds of the stream produced so far (the stream position).
        self._round_index = 0
        #: Feed word position of a ``mod`` bank's source.
        self._source_pos = 0
        #: Numbers produced by the last round but not yet handed out.
        #: Part of the stream contract: the stream is one lane-major
        #: round sequence and ``generate`` slices it, so fetch sizing
        #: cannot change which numbers a caller sees.
        self._remainder = _EMPTY
        self._state = None
        if self.addressable:
            return
        with span("generate", init=True, lanes=self.num_threads):
            starts = self.source.words64(self.num_threads)
            self._state = self.engine.make_state(starts)
            self.engine.walk(self._state, self.source, self.walk_length)

    # ------------------------------------------------------------------
    # Bulk generation
    # ------------------------------------------------------------------

    def next_round(self) -> np.ndarray:
        """One ``GetNextRand`` per thread: ``num_threads`` fresh numbers.

        This is the raw round primitive: it advances the round stream
        directly and neither consumes nor clears :meth:`generate`'s
        buffered round remainder.
        """
        out = np.empty(self.num_threads, dtype=np.uint64)
        self._launch_into(out, 1)
        return out

    def _window_into(self, out: np.ndarray, first_round: int,
                     num_rounds: int) -> np.ndarray:
        """Windowed rounds ``[first_round, first_round + num_rounds)``.

        Because every windowed round is a pure function of its own feed
        slice, ``num_rounds`` consecutive rounds of an ``nt``-lane bank
        are *one* walk of ``num_rounds * nt`` independent lanes: lane
        ``r * nt + j`` is round ``r``'s walker ``j``, started from round
        ``r``'s start words and stepped by round ``r``'s chunk indices.
        Lanes never interact, so the fused walk is bit-identical to
        ``num_rounds`` sequential rounds -- while the per-step NumPy
        work runs on ``num_rounds``-times-wider arrays, which is what
        makes small banks (16-64 lanes) fast.

        ``out`` may stop short inside the last round (see
        :meth:`_launch_into`); its unread numbers are returned.  The
        launch scratch is dropped afterwards: the bank keeps only the
        last round's ``nt`` walker positions.
        """
        nt = self.num_threads
        wl = self.walk_length
        wpr = self.words_per_round
        base = first_round * wpr
        if self._source_pos != base:
            self.source.seek(base)
        words = self.source.words64(num_rounds * wpr)
        self._source_pos = base + num_rounds * wpr
        slab = words.reshape(num_rounds, wpr)
        fresh = self.engine.make_state(slab[:, :nt].reshape(-1))
        # Per round: 21 chunks per word, first wl * nt are real, the
        # word-tail chunks are padding.  Step-major across the fused
        # lane axis: ks[i] holds step i's index for every (round, lane).
        ks = self.engine.indices_from_chunks(
            chunks_from_words(np.ascontiguousarray(slab[:, nt:]).reshape(-1))
        )
        ks = ks.reshape(num_rounds, -1)[:, : wl * nt]
        ks = np.ascontiguousarray(
            ks.reshape(num_rounds, wl, nt)
            .transpose(1, 0, 2)
            .reshape(wl, num_rounds * nt)
        )
        self.engine.apply_block(fresh, ks)
        rest = self._emit(fresh, out)
        steps, chunks = self._counters()
        # copy(): the last round's positions, detached from the launch
        # buffers so those are freed.
        self._state = WalkState(
            fresh.x[-nt:], fresh.y[-nt:],
            steps + fresh.steps_taken, chunks + wl * nt * num_rounds,
        ).copy()
        return rest

    def _launch_into(self, out: np.ndarray, num_rounds: int) -> np.ndarray:
        """One kernel launch: ``num_rounds`` rounds under one span.

        Writes the launch's numbers round-by-round, thread-major within
        each round, directly into ``out`` -- the same stream
        :meth:`next_round` walks, so launch grouping cannot change
        values, only tracing granularity.  ``out`` may end inside the
        last round (``(num_rounds - 1) * num_threads < out.size``); the
        last round's unread numbers are returned, so a fetch's partial
        tail round rides in its last launch instead of costing one of
        its own.  A ``mod`` launch walks up to
        :data:`FUSED_LAUNCH_LANES` lanes at a time.
        """
        nt = self.num_threads
        rest = _EMPTY
        steps_before, chunks_before = self._counters()
        with span("generate", lanes=nt, rounds=num_rounds):
            if self.addressable:
                per_launch = max(1, FUSED_LAUNCH_LANES // nt)
                for done in range(0, num_rounds, per_launch):
                    k = min(per_launch, num_rounds - done)
                    rest = self._window_into(out[done * nt : (done + k) * nt],
                                             self._round_index + done, k)
            else:
                for i in range(num_rounds):
                    self.engine.walk(self._state, self.source,
                                     self.walk_length)
                    rest = self._emit(self._state,
                                      out[i * nt : (i + 1) * nt])
        self._round_index += num_rounds
        self.numbers_generated += num_rounds * nt
        steps_after, chunks_after = self._counters()
        obs_metrics.counter(
            "repro_prng_numbers_total", "64-bit numbers emitted"
        ).inc(num_rounds * nt)
        obs_metrics.counter(
            "repro_prng_rounds_total", "GetNextRand rounds executed"
        ).inc(num_rounds)
        obs_metrics.counter(
            "repro_prng_steps_total", "Walker steps taken (all lanes)"
        ).inc(steps_after - steps_before)
        obs_metrics.counter(
            "repro_prng_feed_bits_total", "Feed bits consumed (3 per chunk)"
        ).inc(3 * (chunks_after - chunks_before))
        return rest

    def _emit(self, state: WalkState, out: np.ndarray) -> np.ndarray:
        """Deliver the walkers' numbers into ``out``, which may be
        shorter than the bank; returns the numbers that did not fit."""
        if out.size == state.num_walkers:
            self.engine.outputs_into(state, out)
            return _EMPTY
        full = np.empty(state.num_walkers, dtype=np.uint64)
        self.engine.outputs_into(state, full)
        out[:] = full[: out.size]
        return full[out.size :].copy()

    def _counters(self) -> tuple:
        """``(steps_taken, chunks_consumed)``; zeros before a first round."""
        st = self._state
        if st is None:
            return 0, 0
        return st.steps_taken, st.chunks_consumed

    def generate_into(
        self, out: np.ndarray, batch_size: Optional[int] = None
    ) -> None:
        """Fill ``out`` with the next ``out.size`` numbers of the stream.

        Zero-copy variant of :meth:`generate`: full rounds are written
        straight from the walker state into the caller's buffer, with no
        intermediate arrays.  ``out`` must be a one-dimensional,
        C-contiguous, writeable ``uint64`` array; values and remainder
        behaviour are identical to ``generate(out.size)``.
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
        nt = self.num_threads
        if batch_size is not None:
            check_positive("batch_size", batch_size)
        elif self.addressable:
            # One launch of K windowed rounds is one (K * lanes)-wide
            # walk, so default to the full fused lane budget.
            batch_size = max(1, FUSED_LAUNCH_LANES // nt)
        else:
            batch_size = 1
        n = out.size
        pos = 0
        if self._remainder.size:
            take = min(self._remainder.size, n)
            out[:take] = self._remainder[:take]
            self._remainder = self._remainder[take:]
            pos = take
        while pos < n:
            # The last launch also covers a partial tail round, whose
            # unread numbers become the remainder: one launch per fetch.
            k = min(-(-(n - pos) // nt), batch_size)
            self._remainder = self._launch_into(out[pos : pos + k * nt], k)
            pos += k * nt
        # Sentinel tap: a read-only look at the delivered words.  The
        # tap copies what it samples and never touches the stream, so
        # values (and golden streams) are unchanged; with no tap
        # installed this is a global load and a None check.
        maybe_observe(out)

    def generate(self, n: int, batch_size: Optional[int] = None) -> np.ndarray:
        """The next ``n`` numbers of the generator's stream.

        The stream is *one* well-defined sequence (round-by-round,
        thread-major within a round) and ``generate`` slices it: a round
        remainder is buffered, never discarded, so ``generate(4);
        generate(4)`` equals ``generate(8)`` from the same seed.

        ``batch_size`` (the paper's ``S``, Figure 5) groups the work into
        kernel launches of up to ``num_threads * batch_size`` numbers --
        one tracing span per launch instead of per round.  It cannot
        change the values; ``None`` launches round by round on a
        ``reject`` bank and fuses up to :data:`FUSED_LAUNCH_LANES` lanes
        on a ``mod`` bank.
        """
        if n < 0:
            raise ValueError(f"count must be non-negative, got {n}")
        out = np.empty(n, dtype=np.uint64)
        self.generate_into(out, batch_size)
        return out

    # ------------------------------------------------------------------
    # Stream positioning
    # ------------------------------------------------------------------

    def tell(self) -> int:
        """Absolute offset of the next word :meth:`generate` will return."""
        return self._round_index * self.num_threads - self._remainder.size

    def seek(self, word_offset: int) -> None:
        """Position the stream at an absolute word offset.

        ``mod``: a jump without replay -- one feed ``seek`` (O(log
        offset)) plus at most one round of walking when the offset lands
        inside a round, in either direction.  ``reject``: the chained
        walk threads walker positions through every round, so the only
        general implementation is forward replay, O(offset - tell()).
        """
        if word_offset < 0:
            raise ValueError(f"word offset must be non-negative, got {word_offset}")
        pos = self.tell()
        if word_offset == pos:
            return
        if not self.addressable:
            if word_offset < pos:
                raise ValueError(
                    f"cannot seek backwards on a chained stream "
                    f"({word_offset} < {pos}); build the bank with "
                    f"policy=\"mod\" for arbitrary offsets"
                )
            skip = word_offset - pos
            scratch = np.empty(min(skip, 1 << 16), dtype=np.uint64)
            while skip:
                take = min(skip, scratch.size)
                self.generate_into(scratch[:take])
                skip -= take
            return
        if not self.source.seekable:
            # Fail here, not on the next generate: repositioning always
            # needs a feed seek eventually, and a deferred error would
            # blame the wrong call.
            raise UnseekableSourceError(
                f"cannot seek: feed {self.source.name!r} is not seekable"
            )
        rounds, within = divmod(word_offset, self.num_threads)
        self._round_index = rounds
        self._remainder = _EMPTY
        if within:
            vals = self.next_round()
            self._remainder = vals[within:].copy()

    def rounds(self, num_rounds: int) -> Iterator[np.ndarray]:
        """Yield ``num_rounds`` successive per-thread output vectors."""
        check_positive("num_rounds", num_rounds)
        for _ in range(num_rounds):
            yield self.next_round()

    # ------------------------------------------------------------------
    # Convenience distributions
    # ------------------------------------------------------------------

    def random(self, n: int) -> np.ndarray:
        """``n`` uniform floats in [0, 1)."""
        return u01_from_u64(self.generate(n))

    def integers(self, lo: int, hi: int, n: int) -> np.ndarray:
        """``n`` integers uniform in ``[lo, hi)`` (unbiased, via rejection).

        Returns ``int64`` when the range fits in it, ``uint64`` when it
        only fits unsigned (``lo >= 0`` and ``hi > 2**63``).  When the
        range size divides ``2**64`` -- any power of two, including the
        full 64-bit range -- every raw word maps uniformly and no
        rejection happens at all.
        """
        if hi <= lo:
            raise ValueError(f"empty range [{lo}, {hi})")
        range_size = hi - lo
        if range_size > 2**64:
            raise ValueError(
                f"range [{lo}, {hi}) spans more than 2**64 values"
            )
        if lo >= 0 and hi > 2**63:
            dtype = np.dtype(np.uint64)
        elif lo >= -(2**63) and hi <= 2**63:
            dtype = np.dtype(np.int64)
        else:
            raise ValueError(
                f"range [{lo}, {hi}) fits neither int64 nor uint64"
            )
        # Largest multiple of range_size representable in the draw space;
        # when range_size divides 2**64 this is 2**64 itself and the
        # rejection limit would overflow uint64 -- but then no draw can
        # be biased, so rejection is skipped entirely.
        full = (2**64 // range_size) * range_size
        reject = full != 2**64
        limit = np.uint64(full) if reject else None
        offset = np.uint64(lo & (2**64 - 1))
        out = np.empty(n, dtype=dtype)
        pos = 0
        while pos < n:
            raw = self.generate(max(n - pos, 1))
            good = raw[raw < limit] if reject else raw
            take = min(good.size, n - pos)
            vals = good[:take]
            if range_size != 2**64:
                vals = vals % np.uint64(range_size)
            with np.errstate(over="ignore"):
                vals = vals + offset  # two's-complement wrap is intended
            out[pos : pos + take] = (
                vals if dtype.kind == "u" else vals.view(np.int64)
            )
            pos += take
        return out

    def random_bits(self, n: int) -> np.ndarray:
        """``n`` output bits (uint8 0/1), MSB-first per 64-bit number."""
        nwords = (n + 63) // 64
        words = self.generate(nwords)
        return np.unpackbits(words.astype(">u8").view(np.uint8))[:n]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def bits_consumed(self) -> int:
        """Feed bits consumed so far across all threads."""
        return 3 * self._counters()[1]

    @property
    def state(self) -> Optional[WalkState]:
        """The underlying walker bank (read-mostly; copy before mutating).

        On a ``mod`` bank: the last round's ``num_threads`` walkers, or
        ``None`` before a first round.
        """
        return self._state

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ParallelExpanderPRNG(threads={self.num_threads}, m={self.graph.m}, "
            f"l={self.walk_length}, policy={self.engine.policy!r}, "
            f"feed={self.source.name!r})"
        )


#: Former name of the windowed bank, kept so external code that imports
#: it still resolves; construct ``ParallelExpanderPRNG(policy="mod")``.
AddressableExpanderPRNG = ParallelExpanderPRNG
