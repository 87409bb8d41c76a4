"""Tests for the vectorized walk engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitsource.base import BitSource
from repro.bitsource.counter import RawCounterSource, SplitMix64Source
from repro.bitsource.glibc import GlibcRandom
from repro.core.expander import GabberGalilExpander
from repro.core.walk import POLICIES, WalkEngine, WalkState


def make_state(n, m=2**32, seed=5):
    g = GabberGalilExpander(m=m)
    eng = WalkEngine(g)
    starts = SplitMix64Source(seed).words64(n)
    return g, eng, eng.make_state(starts)


class CountingSource:
    """Feed wrapper counting the chunks (and so the words) pulled."""

    def __init__(self, inner):
        self.inner = inner
        self.chunks_served = 0

    @property
    def words_served(self):
        return self.chunks_served // 21

    def chunks3(self, n):
        self.chunks_served += n
        return self.inner.chunks3(n)


class RecordingSource(BitSource):
    """Feed wrapper logging the size of every ``words64`` request --
    the granularity at which fault schedules (``FaultyBitSource``)
    count calls."""

    name = "recording"

    def __init__(self, inner):
        self.inner = inner
        self.requests = []

    def words64(self, n):
        self.requests.append(n)
        return self.inner.words64(n)

    def reseed(self, seed):
        self.inner.reseed(seed)


class TestWalkState:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="identical shapes"):
            WalkState(np.zeros(3, dtype=np.uint32), np.zeros(4, dtype=np.uint32))

    def test_copy_is_independent(self):
        _, eng, st1 = make_state(8)
        st2 = st1.copy()
        eng.walk(st1, SplitMix64Source(1), 4)
        assert not np.array_equal(st1.x, st2.x)

    def test_num_walkers(self):
        _, _, state = make_state(17)
        assert state.num_walkers == 17


class TestPolicies:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            WalkEngine(GabberGalilExpander(), policy="bogus")

    @pytest.mark.parametrize("policy", POLICIES)
    def test_indices_in_range(self, policy):
        g = GabberGalilExpander()
        eng = WalkEngine(g, policy=policy)
        state = eng.make_state(SplitMix64Source(2).words64(64))
        ks = eng._draw_indices(10000, SplitMix64Source(3), state)
        assert ks.min() >= 0 and ks.max() <= 6

    def test_reject_consumes_extra_chunks(self):
        g = GabberGalilExpander()
        eng = WalkEngine(g, policy="reject")
        state = eng.make_state(SplitMix64Source(2).words64(4))
        n = 50000
        eng._draw_indices(n, SplitMix64Source(3), state)
        # Expected overhead factor 8/7; allow generous tolerance.
        assert state.chunks_consumed > n
        assert state.chunks_consumed < n * 1.25

    def test_mod_policy_bias(self):
        """mod-7 makes index 0 about twice as likely as the others."""
        g = GabberGalilExpander()
        eng = WalkEngine(g, policy="mod")
        state = eng.make_state(SplitMix64Source(2).words64(4))
        ks = eng._draw_indices(140_000, SplitMix64Source(3), state)
        counts = np.bincount(ks, minlength=7)
        assert counts[0] > 1.7 * counts[1:].mean()

    def test_expected_chunks_per_step(self):
        g = GabberGalilExpander()
        assert WalkEngine(g, "reject").expected_chunks_per_step() == pytest.approx(
            8 / 7
        )
        assert WalkEngine(g, "mod").expected_chunks_per_step() == 1.0

    def test_bits_per_number(self):
        g = GabberGalilExpander()
        assert WalkEngine(g, "mod").bits_per_number(64) == 192.0
        assert WalkEngine(g, "reject").bits_per_number(64) == pytest.approx(
            192 * 8 / 7
        )


class TestStepping:
    def test_walk_consumption_order_is_step_major(self):
        """walk(l) consumes the chunk stream step-major: step i of a
        bank of n walkers reads chunks [i*n, (i+1)*n) of the canonical
        stream (which, on a fresh source, is chunks3's prefix)."""
        g = GabberGalilExpander()
        eng = WalkEngine(g, policy="mod")
        starts = SplitMix64Source(7).words64(33)
        s1 = eng.make_state(starts.copy())
        eng.walk(s1, SplitMix64Source(11), 16)
        s2 = eng.make_state(starts.copy())
        chunks = SplitMix64Source(11).chunks3(16 * 33).reshape(16, 33)
        for i in range(16):
            ks = np.where(chunks[i] >= 7, chunks[i] - 7, chunks[i])
            eng._apply_indices(s2, ks)
        assert np.array_equal(s1.x, s2.x) and np.array_equal(s1.y, s2.y)

    def test_step_equals_walk_of_length_one(self):
        g = GabberGalilExpander()
        eng = WalkEngine(g, policy="mod")
        starts = SplitMix64Source(7).words64(12)
        s1 = eng.make_state(starts.copy())
        s2 = eng.make_state(starts.copy())
        eng.step(s1, SplitMix64Source(11))
        eng.walk(s2, SplitMix64Source(11), 1)
        assert np.array_equal(s1.x, s2.x) and np.array_equal(s1.y, s2.y)

    def test_deterministic_given_seed(self):
        g = GabberGalilExpander()
        eng = WalkEngine(g)
        s1 = eng.make_state(SplitMix64Source(5).words64(10))
        s2 = eng.make_state(SplitMix64Source(5).words64(10))
        eng.walk(s1, SplitMix64Source(6), 32)
        eng.walk(s2, SplitMix64Source(6), 32)
        assert np.array_equal(eng.outputs(s1), eng.outputs(s2))

    def test_walkers_are_independent(self):
        """Adding walkers must not change earlier walkers' trajectories
        when each walker consumes its own chunk column (step-major draws).
        """
        g = GabberGalilExpander()
        eng = WalkEngine(g, policy="mod")
        starts = SplitMix64Source(7).words64(8)
        s_all = eng.make_state(starts)
        eng.walk(s_all, SplitMix64Source(9), 4)
        # Walk a single-walker state drawing the same chunk schedule:
        # chunks are drawn step-major for 8 walkers; walker 0 sees chunks
        # 0, 8, 16, 24.
        chunks = SplitMix64Source(9).chunks3(4 * 8).reshape(4, 8)
        s_one = eng.make_state(starts[:1])
        for i in range(4):
            eng._apply_indices(s_one, np.where(chunks[i, :1] >= 7,
                                               chunks[i, :1] - 7,
                                               chunks[i, :1]))
        assert s_one.x[0] == s_all.x[0] and s_one.y[0] == s_all.y[0]

    @given(st.integers(min_value=2, max_value=50), st.integers(min_value=1, max_value=30))
    @settings(max_examples=20, deadline=None)
    def test_small_m_stays_in_range(self, m, length):
        g = GabberGalilExpander(m=m)
        eng = WalkEngine(g)
        state = eng.make_state(SplitMix64Source(1).words64(16))
        eng.walk(state, SplitMix64Source(2), length)
        assert int(state.x.max()) < m and int(state.y.max()) < m

    def test_length_must_be_positive(self):
        _, eng, state = make_state(4)
        with pytest.raises(ValueError):
            eng.walk(state, SplitMix64Source(1), 0)

    def test_steps_counted(self):
        _, eng, state = make_state(10)
        eng.walk(state, SplitMix64Source(1), 6)
        assert state.steps_taken == 60

    def test_outputs_are_packed_vertices(self):
        g, eng, state = make_state(12)
        out = eng.outputs(state)
        x, y = g.unpack(out)
        assert np.array_equal(x.astype(np.uint32), state.x)
        assert np.array_equal(y.astype(np.uint32), state.y)

    def test_counter_feed_still_moves(self):
        """Even a pathological feed advances positions (no stuck states)."""
        g = GabberGalilExpander()
        eng = WalkEngine(g)
        state = eng.make_state(RawCounterSource(0).words64(16))
        before = state.x.copy()
        eng.walk(state, RawCounterSource(1), 8)
        assert not np.array_equal(before, state.x)


class TestStreamContract:
    """The canonical chunk stream: trajectories are a pure function of
    (starts, feed, policy), never of how callers slice their requests.

    Regression tests for the reject-policy walk()/step() divergence:
    walk() used to draw all redraw chunks up front (bulk, walk-level)
    while repeated step() redrew per step, so the two call patterns
    consumed the feed in different orders and produced different walks.
    """

    @pytest.mark.parametrize("policy", POLICIES)
    def test_walk_equals_repeated_step(self, policy):
        g = GabberGalilExpander()
        eng = WalkEngine(g, policy=policy)
        starts = SplitMix64Source(7).words64(33)
        s_walk = eng.make_state(starts.copy())
        s_step = eng.make_state(starts.copy())
        src_walk, src_step = SplitMix64Source(11), SplitMix64Source(11)
        eng.walk(s_walk, src_walk, 24)
        for _ in range(24):
            eng.step(s_step, src_step)
        np.testing.assert_array_equal(s_walk.x, s_step.x)
        np.testing.assert_array_equal(s_walk.y, s_step.y)
        assert s_walk.chunks_consumed == s_step.chunks_consumed
        # Same stream position too: both patterns pulled the same words.
        assert src_walk._state == src_step._state

    @pytest.mark.parametrize("policy", POLICIES)
    def test_split_walks_equal_one_walk(self, policy):
        g = GabberGalilExpander()
        eng = WalkEngine(g, policy=policy)
        starts = SplitMix64Source(3).words64(17)
        s_split = eng.make_state(starts.copy())
        s_bulk = eng.make_state(starts.copy())
        src_split, src_bulk = SplitMix64Source(5), SplitMix64Source(5)
        for length in (1, 7, 2, 13):
            eng.walk(s_split, src_split, length)
        eng.walk(s_bulk, src_bulk, 23)
        np.testing.assert_array_equal(s_split.x, s_bulk.x)
        np.testing.assert_array_equal(s_split.y, s_bulk.y)
        assert src_split._state == src_bulk._state

    def test_copy_carries_the_feed_buffer(self):
        """A copied state replays the same stream as the original --
        including the buffered tail chunks of the last feed word."""
        g = GabberGalilExpander()
        eng = WalkEngine(g, policy="reject")
        state = eng.make_state(SplitMix64Source(1).words64(9))
        src = SplitMix64Source(2)
        eng.walk(state, src, 5)  # leaves a partial word in the buffer
        fork = state.copy()
        src_fork = SplitMix64Source(2)
        src_fork._state = np.uint64(src._state)
        eng.walk(state, src, 11)
        eng.walk(fork, src_fork, 11)
        np.testing.assert_array_equal(state.x, fork.x)
        np.testing.assert_array_equal(state.y, fork.y)

    def test_buffered_chunks_are_a_chunks3_prefix(self):
        """Slicing cannot change the stream: any draw pattern consumes
        the same chunk sequence chunks3 yields on a fresh source."""
        from repro.core.walk import WalkEngine as WE

        state = WalkState(
            np.zeros(1, dtype=np.uint32), np.zeros(1, dtype=np.uint32)
        )
        src = SplitMix64Source(9)
        got = np.concatenate([
            WE._take_chunks(state, src, n) for n in (5, 1, 40, 17, 100)
        ])
        np.testing.assert_array_equal(
            got, SplitMix64Source(9).chunks3(163)
        )


class TestFusedKernel:
    """The fused walk kernel must be bit-identical to the reference
    scratch-array path -- same positions, same feed consumption, same
    buffered tail -- under every policy and call pattern."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_matches_reference_kernel(self, policy):
        g = GabberGalilExpander()
        fused = WalkEngine(g, policy=policy, fused=True)
        ref = WalkEngine(g, policy=policy, fused=False)
        assert fused._fused and not ref._fused
        starts = SplitMix64Source(9).words64(50)
        sf = fused.make_state(starts.copy())
        sr = ref.make_state(starts.copy())
        src_f, src_r = SplitMix64Source(4), SplitMix64Source(4)
        for length in (5, 1, 24):
            fused.walk(sf, src_f, length)
            ref.walk(sr, src_r, length)
            np.testing.assert_array_equal(fused.outputs(sf), ref.outputs(sr))
        fused.step(sf, src_f)
        ref.step(sr, src_r)
        np.testing.assert_array_equal(fused.outputs(sf), ref.outputs(sr))
        assert sf.chunks_consumed == sr.chunks_consumed
        assert sf.steps_taken == sr.steps_taken
        np.testing.assert_array_equal(sf.feed_buffer, sr.feed_buffer)

    def test_disabled_for_non_native_modulus(self):
        assert not WalkEngine(GabberGalilExpander(m=97))._fused
        assert WalkEngine(GabberGalilExpander())._fused

    def test_survives_external_position_assignment(self):
        """Snapshot restore assigns fresh x/y arrays straight onto the
        state; the fused kernel must copy them in, not keep walking its
        stale internal views."""
        g = GabberGalilExpander()
        eng = WalkEngine(g)
        state = eng.make_state(SplitMix64Source(1).words64(8))
        eng.walk(state, SplitMix64Source(2), 3)  # fused buffers now live
        fresh = eng.make_state(SplitMix64Source(1).words64(8))
        state.x = fresh.x.copy()
        state.y = fresh.y.copy()
        state.feed_buffer = fresh.feed_buffer
        state.chunks_consumed = fresh.chunks_consumed
        eng.walk(state, SplitMix64Source(2), 3)
        eng.walk(fresh, SplitMix64Source(2), 3)
        np.testing.assert_array_equal(state.x, fresh.x)
        np.testing.assert_array_equal(state.y, fresh.y)

    def test_outputs_into_matches_outputs(self):
        g, eng, state = make_state(20)
        eng.walk(state, SplitMix64Source(3), 4)
        out = np.empty(20, dtype=np.uint64)
        eng.outputs_into(state, out)
        np.testing.assert_array_equal(out, eng.outputs(state))

    def test_outputs_into_non_native_graph(self):
        g, eng, state = make_state(6, m=97)
        eng.walk(state, SplitMix64Source(3), 2)
        out = np.empty(6, dtype=np.uint64)
        eng.outputs_into(state, out)
        np.testing.assert_array_equal(out, eng.outputs(state).astype(np.uint64))

    def test_outputs_into_shape_check(self):
        _, eng, state = make_state(8)
        with pytest.raises(ValueError, match="shape"):
            eng.outputs_into(state, np.empty(9, dtype=np.uint64))


class TestBlockKernel:
    """``apply_block`` advances a bank by a whole ``(steps, lanes)``
    index block in one call; it must equal one ``_apply_indices`` call
    per row, and walks built on it must pull the feed exactly as
    ``length`` ``step`` calls do."""

    @pytest.mark.parametrize("width", [1, 16, 4099])
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("blocked", [True, False])
    def test_equals_per_row_steps(self, width, policy, fused, blocked):
        g = GabberGalilExpander()
        eng = WalkEngine(g, policy=policy, fused=fused)
        src = GlibcRandom(width, blocked=blocked)
        draw = eng.make_state(src.words64(width))
        ks = np.stack([eng._draw_indices(width, src, draw) for _ in range(9)])
        starts = SplitMix64Source(width).words64(width)
        block, rows = eng.make_state(starts), eng.make_state(starts)
        eng.apply_block(block, ks)
        for k in ks:
            eng._apply_indices(rows, k)
        np.testing.assert_array_equal(block.x, rows.x)
        np.testing.assert_array_equal(block.y, rows.y)
        assert block.steps_taken == rows.steps_taken == 9 * width
        # A second block continues from the first one's positions.
        eng.apply_block(block, ks[::-1])
        for k in ks[::-1]:
            eng._apply_indices(rows, k)
        np.testing.assert_array_equal(eng.outputs(block), eng.outputs(rows))

    @pytest.mark.parametrize("fused", [True, False])
    def test_reject_walk_pulls_like_per_step_walk(self, fused):
        """Under ``reject`` the block walk draws every step's indices
        (and redraws) before running the kernel; the feed must see the
        same ``words64`` requests, in the same order and sizes, as a
        step-at-a-time walk."""
        g = GabberGalilExpander()
        eng = WalkEngine(g, policy="reject", fused=fused)
        starts = SplitMix64Source(3).words64(37)
        walked, stepped = eng.make_state(starts), eng.make_state(starts)
        src_w = RecordingSource(SplitMix64Source(8))
        src_s = RecordingSource(SplitMix64Source(8))
        for length in (64, 1, 13):
            eng.walk(walked, src_w, length)
            for _ in range(length):
                eng.step(stepped, src_s)
        assert src_w.requests == src_s.requests
        np.testing.assert_array_equal(eng.outputs(walked), eng.outputs(stepped))
        assert walked.chunks_consumed == stepped.chunks_consumed
        np.testing.assert_array_equal(walked.feed_buffer, stepped.feed_buffer)


    @pytest.mark.parametrize("policy", POLICIES)
    def test_device_backend_matches_host(self, policy):
        """Non-host backends loop the per-step kernel over the uploaded
        block; a loopback device (numpy arrays behind the transfer
        hooks) must emit the host stream, partial tail rounds too."""
        from repro.backend.base import NumPyBackend, _DeviceBackend
        from repro.core.parallel import ParallelExpanderPRNG

        class Loopback(_DeviceBackend):
            name = "_loopback"
            xp = np
            pack_pairs_to_host = NumPyBackend.pack_pairs_to_host

            def _upload(self, arr):
                return arr.copy()

            def _download(self, arr):
                return arr.copy()

        dev, host = (
            ParallelExpanderPRNG(16, bit_source=SplitMix64Source(3),
                                 policy=policy, backend=be)
            for be in (Loopback(), None)
        )
        assert not dev.engine._be_host
        for n in (100, 37, 16):
            np.testing.assert_array_equal(dev.generate(n), host.generate(n))


class TestPrefetchSchedule:
    """Refills pull ``F(T)`` total words for cumulative chunk demand
    ``T``: the word need rounded up to a power of two below
    ``PREFETCH_WORDS``, to a quantum multiple above.  Small banks must
    not pay a 4096-word first fetch, and the total pulled must depend
    only on total demand -- never on how requests were sliced."""

    def test_small_bank_first_step_pulls_one_word(self):
        g = GabberGalilExpander()
        eng = WalkEngine(g, policy="mod")
        state = eng.make_state(SplitMix64Source(1).words64(16))
        src = CountingSource(SplitMix64Source(2))
        eng.step(state, src)
        assert src.words_served == 1  # ceil(16 / 21) = 1 word, not 4096

    def test_pulled_words_are_a_pure_function_of_demand(self):
        from repro.core.walk import CHUNKS_PER_WORD, WalkEngine as WE

        totals = set()
        for pattern in ([16] * 40, [640], [1, 5, 300, 1, 333]):
            state = WalkState(
                np.zeros(1, dtype=np.uint32), np.zeros(1, dtype=np.uint32)
            )
            src = CountingSource(SplitMix64Source(3))
            for n in pattern:
                WE._take_chunks(state, src, n)
                state.chunks_consumed += n  # the caller contract
            assert sum(pattern) == 640
            totals.add(src.words_served)
        need = -(-640 // CHUNKS_PER_WORD)  # 31 words
        assert totals == {1 << (need - 1).bit_length()}  # every pattern: 32

    def test_overfetch_bounded_above_the_quantum(self):
        from repro.core.walk import (
            CHUNKS_PER_WORD, PREFETCH_WORDS, WalkEngine as WE,
        )

        state = WalkState(
            np.zeros(1, dtype=np.uint32), np.zeros(1, dtype=np.uint32)
        )
        src = CountingSource(SplitMix64Source(3))
        n = 3 * PREFETCH_WORDS * CHUNKS_PER_WORD + 5
        WE._take_chunks(state, src, n)
        need = -(-n // CHUNKS_PER_WORD)
        assert need <= src.words_served < need + PREFETCH_WORDS
