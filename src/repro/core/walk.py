"""Vectorized random-walk engine over the Gabber-Galil expander.

One NumPy lane corresponds to one GPU thread of the paper: every lane
holds a current vertex ``(x, y)`` and advances independently, consuming
3 bits of the CPU feed per step to choose among the 7 neighbour maps.

The paper (Algorithms 1 and 2) masks 3 bits per step out of the feed but
never says what happens when those bits read ``111`` (7), which does not
name a neighbour.  Two policies are implemented and ablated:

``reject``
    Redraw until the 3 bits name a neighbour.  Unbiased -- the walk is the
    exact uniform 7-way walk whose stationary distribution is uniform.
    Costs a factor 8/7 in feed bits.  **Default.**
``mod``
    Use ``k = bits % 7``.  Cheapest and branch-free (what a CUDA kernel
    would most plausibly do) but gives neighbour 0 -- the identity map
    -- probability 2/8, i.e. a lazy walk that stays put a little more
    often; a bias towards self-loops provably cannot hurt the
    stationary distribution.  One chunk per step, so the feed position
    of any step is a closed-form function of the step index: the
    policy behind offset-addressable walker banks.

The stream contract
-------------------
A walker bank's trajectory is a pure function of ``(start vertices,
feed, policy)`` -- *never* of how callers slice their requests.  The
feed is consumed as one canonical chunk stream: whole 64-bit words are
pulled in order, each yielding 21 chunks, and the tail chunks of the
last word are buffered on the :class:`WalkState` (``feed_buffer``)
instead of being discarded.  Under the ``reject`` policy, redraws for a
step happen *immediately after* that step's base chunks, before the
next step draws anything.  Consequences, guaranteed by tests:

* ``walk(state, src, a)`` then ``walk(state, src, b)`` equals
  ``walk(state, src, a + b)``;
* ``length`` repeated ``step()`` calls equal one ``walk(length)``,
  bit-for-bit, under both policies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backend import Backend, get_backend, host_np as np
from repro.bitsource.base import BitSource
from repro.core.expander import DEGREE, GabberGalilExpander
from repro.utils.checks import check_positive

__all__ = [
    "WalkEngine",
    "WalkState",
    "POLICIES",
    "CHUNKS_PER_WORD",
]

POLICIES = ("reject", "mod")

#: 3-bit chunks yielded per 64-bit feed word (the last bit is unused).
CHUNKS_PER_WORD = 21

#: Prefetch quantum for feed-buffer refills.  Below it, refills round
#: the cumulative word demand up to a power of two (so small banks ramp
#: geometrically instead of paying a 4096-word first fetch); above it,
#: demand rounds up to a multiple of this quantum.  Refill granularity
#: amortizes chunk extraction across steps; it cannot affect emitted
#: values, because the chunk stream is a fixed function of the word
#: stream and buffered chunks are consumed strictly in order.
PREFETCH_WORDS = 1 << 12

_U8 = np.uint8


def _empty_chunks() -> np.ndarray:
    return np.empty(0, dtype=np.uint8)


def _acopy(a):
    """Backend-agnostic array copy (torch spells it ``clone``)."""
    try:
        return a.copy()
    except AttributeError:
        return a.clone()


@dataclass
class WalkState:
    """Positions of a bank of independent walkers (one lane per GPU thread)."""

    x: np.ndarray
    y: np.ndarray
    #: Total steps taken by each call into the engine (aggregate, not per lane).
    steps_taken: int = 0
    #: Total 3-bit chunks drawn from the feed (includes rejected draws).
    chunks_consumed: int = 0
    #: Chunks already pulled from the feed but not yet consumed: the tail
    #: of the last 64-bit word.  Part of the stream state -- it is what
    #: makes feed consumption independent of how draws are sliced.
    feed_buffer: np.ndarray = field(default_factory=_empty_chunks)

    def __post_init__(self):
        if self.x.shape != self.y.shape:
            raise ValueError("x and y must have identical shapes")

    @property
    def num_walkers(self) -> int:
        # x is always 1-D; shape[0] (not .size) keeps torch tensors,
        # whose .size is a method, working as positions.
        return int(self.x.shape[0])

    def copy(self) -> "WalkState":
        return WalkState(
            _acopy(self.x),
            _acopy(self.y),
            self.steps_taken,
            self.chunks_consumed,
            self.feed_buffer.copy(),
        )


class WalkEngine:
    """Advances banks of walkers on a :class:`GabberGalilExpander`.

    Stepping is branch-free: per-``k`` lookup tables turn the 7 neighbour
    maps into two fused affine updates (``x += isX[k] * (2y + cX[k])``,
    ``y += isY[k] * (2x + cY[k])``), which is also exactly how a CUDA
    kernel would avoid warp divergence.

    Parameters
    ----------
    graph : GabberGalilExpander
    policy : str
        One of :data:`POLICIES`; see module docstring.
    fused : bool
        Use the packed double-buffer kernel (native graphs only).
    backend : str | Backend | None
        Array backend for walker positions and the step kernel (see
        :mod:`repro.backend`).  ``None`` resolves the process default
        (NumPy unless overridden).  Non-host backends require the
        native ``m = 2**32`` graph and always run the fused kernel;
        a non-native graph silently falls back to the host backend.
        Feed chunks are drawn on the host either way and uploaded
        once per bulk walk.
    """

    def __init__(
        self,
        graph: GabberGalilExpander,
        policy: str = "reject",
        fused: bool = True,
        backend=None,
    ):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
        self.graph = graph
        self.policy = policy
        dtype = np.uint32 if graph.m == 2**32 else np.uint64
        self._dtype = dtype
        be = get_backend(backend)
        if not be.is_host and graph.m != 2**32:
            be = get_backend("numpy")
        self.backend: Backend = be
        self._be_host = be.is_host
        self._xp = be.xp
        # Lookup tables over k = 0..7 (index 7 only reachable pre-policy).
        is_y = np.array([0, 1, 1, 1, 0, 0, 0, 0], dtype=dtype)
        c_y = np.array([0, 0, 1, 2, 0, 0, 0, 0], dtype=dtype)
        is_x = np.array([0, 0, 0, 0, 1, 1, 1, 0], dtype=dtype)
        c_x = np.array([0, 0, 0, 0, 0, 1, 2, 0], dtype=dtype)
        self._luts = (is_y, c_y, is_x, c_x)
        # Fused tables for the fast path: y' = y + a_y[k]*x + c_y[k],
        # x' = x + a_x[k]*y + c_x[k]  (a = 2*is; the c term is already
        # zero wherever `is` is zero, so no second mask is needed).
        self._a_y = (dtype(2) * is_y).astype(dtype)
        self._a_x = (dtype(2) * is_x).astype(dtype)
        # Packed (2, 8) tables for the fused kernel: with positions held
        # as a (2, n) array `pos` (row 0 = x, row 1 = y) the whole step
        # is one broadcast update,
        #     pos' = pos + a2[:, k] * pos[::-1] + c2[:, k],
        # because x reads y and y reads x (`pos[::-1]` swaps the rows)
        # and at most one row's coefficient is nonzero per k.
        # constant() is the identity on the host backend, so these stay
        # the plain numpy stacks there; non-host backends get memoized
        # device-resident copies (one upload, ever).
        self._a2 = be.constant(np.stack([self._a_x, self._a_y]))
        self._c2 = be.constant(np.stack([c_x, c_y]))
        # The fused kernel relies on uint32 wraparound (native m only).
        # Non-host backends only ship the fused kernel.
        self._fused = (bool(fused) and dtype is np.uint32) or not be.is_host

    # ------------------------------------------------------------------
    # State construction
    # ------------------------------------------------------------------

    def make_state(self, start_words: np.ndarray) -> WalkState:
        """Create walkers whose start vertices come from 64-bit seed words.

        This is the "64 random bits to select the starting position" of
        Algorithm 1: word ``w`` places a walker at vertex ``unpack(w)``.
        For ``m < 2**32`` coordinates are reduced mod m.
        """
        start_words = np.atleast_1d(np.asarray(start_words, dtype=np.uint64))
        x, y = self.graph.unpack(start_words)
        if self.graph.m != 2**32:
            x = x % np.uint64(self.graph.m)
            y = y % np.uint64(self.graph.m)
        dtype = np.uint32 if self.graph.m == 2**32 else np.uint64
        x = x.astype(dtype)
        y = y.astype(dtype)
        if not self._be_host:
            x = self.backend.from_host(x)
            y = self.backend.from_host(y)
        return WalkState(x, y)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    @staticmethod
    def _take_chunks(state: WalkState, source: BitSource, n: int) -> np.ndarray:
        """The next ``n`` chunks of the canonical chunk stream.

        Words are pulled whole (21 chunks each) and the tail is kept in
        ``state.feed_buffer``, so the *values* drawn are a fixed function
        of the word stream regardless of request slicing.  The number of
        words *read ahead* is too: a refill pulls up to ``F(T)`` total
        words, where ``T`` is the cumulative chunks requested so far and
        ``F`` rounds ``ceil(T / 21)`` up to a power of two (below
        :data:`PREFETCH_WORDS`) or to a multiple of the quantum (above).
        Because ``F`` is a monotone pure function of ``T`` and its image
        is totally ordered, any two request patterns with the same total
        demand leave the source at the same position -- while small
        banks ramp up geometrically instead of over-fetching thousands
        of words on their first step.

        The returned slice may view already-consumed buffer memory;
        callers may mutate it freely (nothing re-reads it).
        """
        buf = state.feed_buffer
        if buf.size >= n:
            state.feed_buffer = buf[n:]
            return buf[:n]
        deficit = n - buf.size
        # Invariant: every chunk requested so far has been counted into
        # ``chunks_consumed`` (callers increment right after each take),
        # so words pulled so far = (consumed + buffered) / 21, exactly.
        pulled = (state.chunks_consumed + buf.size) // CHUNKS_PER_WORD
        need = -(-(state.chunks_consumed + n) // CHUNKS_PER_WORD)
        if need <= PREFETCH_WORDS:
            target = 1 << (need - 1).bit_length()
        else:
            target = -(-need // PREFETCH_WORDS) * PREFETCH_WORDS
        fresh = source.chunks3((target - pulled) * CHUNKS_PER_WORD)
        state.feed_buffer = fresh[deficit:]
        if not buf.size:
            return fresh[:deficit]
        return np.concatenate([buf, fresh[:deficit]])

    def _draw_indices(self, n: int, source: BitSource, state: WalkState) -> np.ndarray:
        """Draw ``n`` neighbour indices (0..6) under the configured policy.

        The returned array may be any shape-(n,) uint8; the 'reject' policy
        redraws offending entries in vectorized rounds (expected < 2),
        taking each redraw batch from the same canonical chunk stream.
        """
        chunks = self._take_chunks(state, source, n)
        state.chunks_consumed += n
        if self.policy == "mod":
            return self.indices_from_chunks(chunks)
        # 'reject': redraw lanes that read 111 until none remain.  Track
        # offending indices so each round only touches the shrinking
        # rejection set instead of rescanning the full array.
        idx = np.flatnonzero(chunks == _U8(7))
        while idx.size:
            redraw = self._take_chunks(state, source, idx.size)
            state.chunks_consumed += idx.size
            chunks[idx] = redraw
            idx = idx[redraw == _U8(7)]
        return chunks

    def indices_from_chunks(self, chunks: np.ndarray) -> np.ndarray:
        """Map raw 3-bit chunks to neighbour indices, no feed interaction.

        Only valid for 'mod' (one chunk per step, 7 folds onto 0 via
        subtraction).  'reject' consumes a data-dependent number of
        chunks per step and therefore has no chunk-pure mapping --
        offset-addressable streams cannot use it.
        """
        if self.policy == "mod":
            return np.where(chunks >= DEGREE, chunks - _U8(DEGREE), chunks)
        raise ValueError(
            "policy 'reject' consumes a data-dependent number of chunks; "
            "only policy 'mod' maps pre-drawn chunks to indices"
        )

    # -- fused kernel plumbing -----------------------------------------

    def _fused_buffers(self, state: WalkState):
        """Per-state (2, n) double-buffer scratch for the fused kernel.

        ``state.x`` / ``state.y`` are row views into the current buffer
        after a fused step; the stored view identities detect external
        reassignment (snapshot restore, legacy interleave, fresh state)
        and copy the positions back in.  Returns ``(cur, nxt, ta, tc)``
        with ``cur`` holding the current positions.
        """
        n = state.num_walkers
        bufs = getattr(state, "_fused_bufs", None)
        if bufs is None or bufs[0].shape[1] != n:
            xp = self._xp
            u32 = self.backend.uint32
            bufs = tuple(xp.empty((2, n), dtype=u32) for _ in range(4))
            state._fused_bufs = bufs
            state._fused_xy = (None, None)
        cur = bufs[0]
        xv, yv = state._fused_xy
        if state.x is not xv or state.y is not yv:
            cur[0] = state.x
            cur[1] = state.y
        return bufs

    def _fused_commit(self, state: WalkState, cur, nxt, ta, tc) -> None:
        """Publish ``cur`` as the new positions and keep the buffers."""
        state._fused_bufs = (cur, nxt, ta, tc)
        x, y = cur[0], cur[1]
        state.x = x
        state.y = y
        state._fused_xy = (x, y)

    def _apply_indices_fused(self, state: WalkState, ks) -> None:
        """One fused step: 5 small ``xp`` calls, zero allocations.

        On the host backend ``xp`` is numpy and this is the identical
        call sequence as always; non-host backends run the same five
        ops device-resident (``ks`` is uploaded here if the caller did
        not pre-stage it with :meth:`Backend.device_index`).
        """
        xp = self._xp
        cur, nxt, ta, tc = self._fused_buffers(state)
        if not self._be_host:
            ks = self.backend.device_index(ks)
        xp.take(self._a2, ks, axis=1, out=ta)
        xp.take(self._c2, ks, axis=1, out=tc)
        xp.multiply(ta, self.backend.swap_rows(cur), out=ta)
        xp.add(ta, tc, out=ta)
        xp.add(cur, ta, out=nxt)
        self._fused_commit(state, nxt, cur, ta, tc)
        state.steps_taken += state.num_walkers

    def _apply_indices(self, state: WalkState, ks: np.ndarray) -> None:
        """Advance all walkers by one step given neighbour indices ``ks``.

        Native path (m = 2**32): fused-LUT updates into double-buffered
        scratch arrays -- no per-step allocations, ~2x the throughput of
        the naive expression.  At most one of a_y/a_x is nonzero per k
        (both zero for k == 0), so both updates can read the pre-step
        x and y.
        """
        if self._fused:
            self._apply_indices_fused(state, ks)
            return
        n = state.num_walkers
        if self._dtype is np.uint32:
            # Scratch lives on the state (never shared across states).
            scratch = getattr(state, "_scratch", None)
            if scratch is None or scratch[0].size != n:
                scratch = tuple(np.empty(n, dtype=np.uint32) for _ in range(4))
            t1, t2, nx, ny = scratch
            x, y = state.x, state.y
            np.take(self._a_y, ks, out=t1)
            np.multiply(t1, x, out=t1)
            np.take(self._luts[1], ks, out=t2)  # c_y
            np.add(t1, t2, out=t1)
            np.add(y, t1, out=ny)
            np.take(self._a_x, ks, out=t1)
            np.multiply(t1, y, out=t1)
            np.take(self._luts[3], ks, out=t2)  # c_x
            np.add(t1, t2, out=t1)
            np.add(x, t1, out=nx)
            # Swap: the old position arrays become the next step's scratch.
            state._scratch = (t1, t2, x, y)
            state.x = nx
            state.y = ny
        else:
            is_y, c_y, is_x, c_x = self._luts
            x, y = state.x, state.y
            two = self._dtype(2)
            ny = y + is_y[ks] * (two * x + c_y[ks])
            nx = x + is_x[ks] * (two * y + c_x[ks])
            mm = self._dtype(self.graph.m)
            nx %= mm
            ny %= mm
            state.x = nx
            state.y = ny
        state.steps_taken += state.num_walkers

    def step(self, state: WalkState, source: BitSource) -> None:
        """Advance every walker by one step, in place."""
        ks = self._draw_indices(state.num_walkers, source, state)
        self._apply_indices(state, ks)

    def apply_block(self, state: WalkState, ks) -> None:
        """Advance every walker by ``len(ks)`` steps in one kernel call.

        ``ks`` is a ``(steps, lanes)`` block of neighbour indices, row
        ``i`` naming step ``i``'s neighbour for every lane; the result
        equals ``len(ks)`` :meth:`_apply_indices` calls, one per row.
        On the host the fused kernel fetches its ping-pong buffers once,
        binds the LUT gathers to locals and loops the five ufunc calls
        with nothing else per step.  ``mode="clip"`` skips the bounds
        check (and the buffered copy NumPy makes for ``mode="raise"``
        with ``out=``); it is exact because every index is 0..6 by
        construction.  Torch's ``take`` has no ``mode``, so non-host
        backends -- and the ``fused=False`` reference -- loop the
        per-step kernel instead.
        """
        if not (self._fused and self._be_host):
            if not self._be_host:
                # One host->device copy for the whole block; row slices
                # of the uploaded array pass through device_index untouched.
                ks = self.backend.device_index(ks)
            for i in range(len(ks)):
                self._apply_indices(state, ks[i])
            return
        cur, nxt, ta, tc = self._fused_buffers(state)
        take_a, take_c = self._a2.take, self._c2.take
        mul, add = np.multiply, np.add
        # The swapped-row views are fixed per buffer: build them once.
        cur_sw, nxt_sw = cur[::-1], nxt[::-1]
        for k in ks:
            take_a(k, axis=1, out=ta, mode="clip")
            take_c(k, axis=1, out=tc, mode="clip")
            mul(ta, cur_sw, out=ta)
            add(ta, tc, out=ta)
            add(cur, ta, out=nxt)
            cur, nxt, cur_sw, nxt_sw = nxt, cur, nxt_sw, cur_sw
        self._fused_commit(state, cur, nxt, ta, tc)
        state.steps_taken += state.num_walkers * len(ks)

    def walk(self, state: WalkState, source: BitSource, length: int) -> None:
        """Advance every walker by ``length`` steps, in place.

        Bit-for-bit equal to ``length`` separate :meth:`step` calls under
        every policy (the stream contract).  For 'mod' that equivalence
        lets all ``length * n`` chunks be drawn in one bulk request
        (step-major order) -- the chunk stream is continuous, so slicing
        cannot change it.  'reject' must interleave each step's
        redraws with the next step's base draw, so it draws one step at
        a time -- the same feed requests, in the same order and sizes,
        as ``length`` :meth:`step` calls -- into a ``(length, n)``
        block.  The kernel never reads the feed, so either way the
        whole walk is then one :meth:`apply_block` call.
        """
        check_positive("length", length)
        n = state.num_walkers
        if self.policy == "reject":
            ks = np.empty((length, n), dtype=np.uint8)
            for i in range(length):
                ks[i] = self._draw_indices(n, source, state)
        else:
            ks = self._draw_indices(length * n, source, state).reshape(length, n)
        self.apply_block(state, ks)

    def outputs(self, state: WalkState) -> np.ndarray:
        """Current vertex ids of all walkers -- the emitted random numbers.

        Always a host ``uint64`` array: delivery is host-side by
        contract, so non-host backends pay their single device->host
        copy here.
        """
        if not self._be_host:
            return self.backend.pack_pairs_to_host(state.x, state.y)
        return self.graph.pack(state.x, state.y)

    def outputs_into(self, state: WalkState, out: np.ndarray) -> None:
        """Write the walkers' vertex ids into ``out`` (uint64, size n).

        The zero-copy delivery primitive: for the native graph the pack
        ``(x << 32) | y`` is computed in-place in the caller's buffer,
        with no intermediate array.
        """
        if tuple(out.shape) != tuple(state.x.shape):
            raise ValueError(
                f"out has shape {tuple(out.shape)}, expected {tuple(state.x.shape)}"
            )
        if not self._be_host:
            # The delivery boundary: one device->host copy, landed
            # directly in the caller's buffer.
            out[...] = self.backend.pack_pairs_to_host(state.x, state.y)
            return
        if self._dtype is np.uint32 and out.dtype == np.uint64:
            np.copyto(out, state.x, casting="safe")
            np.left_shift(out, np.uint64(32), out=out)
            np.bitwise_or(out, state.y, out=out)
            return
        out[...] = self.graph.pack(state.x, state.y)

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------

    def expected_chunks_per_step(self) -> float:
        """Mean 3-bit chunks consumed per walker step under the policy."""
        return 8.0 / 7.0 if self.policy == "reject" else 1.0

    def bits_per_number(self, walk_length: int) -> float:
        """Mean feed bits consumed to emit one random number."""
        return 3.0 * self.expected_chunks_per_step() * walk_length
