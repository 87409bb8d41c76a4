"""Tests for generator state capture/restore."""

import json

import numpy as np
import pytest

from repro.bitsource import AnsiCLcg, GlibcRandom, RawCounterSource, SplitMix64Source
from repro.core.generator import ExpanderWalkPRNG
from repro.core.parallel import ParallelExpanderPRNG
from repro.core.state import capture_state, restore_state


class TestRoundTrip:
    @pytest.mark.parametrize(
        "feed",
        [
            lambda: SplitMix64Source(5),
            lambda: GlibcRandom(5),
            lambda: AnsiCLcg(5),
            lambda: RawCounterSource(5),
        ],
    )
    def test_scalar_generator_resumes_exactly(self, feed):
        a = ExpanderWalkPRNG(bit_source=feed())
        a.next_batch(7)
        snap = capture_state(a)
        expected = a.next_batch(10)

        b = ExpanderWalkPRNG(bit_source=feed())
        restore_state(b, snap)
        assert np.array_equal(b.next_batch(10), expected)

    def test_parallel_generator_resumes_exactly(self):
        a = ParallelExpanderPRNG(num_threads=128, bit_source=SplitMix64Source(9))
        a.generate(500)
        snap = capture_state(a)
        expected = a.generate(500)

        b = ParallelExpanderPRNG(num_threads=128, bit_source=SplitMix64Source(1))
        restore_state(b, snap)
        assert np.array_equal(b.generate(500), expected)

    def test_snapshot_is_json_serializable(self):
        a = ExpanderWalkPRNG(bit_source=GlibcRandom(3))
        a.get_next_rand()
        snap = capture_state(a)
        roundtripped = json.loads(json.dumps(snap))
        b = ExpanderWalkPRNG(bit_source=GlibcRandom(1))
        restore_state(b, roundtripped)
        assert b.get_next_rand() == a.get_next_rand()

    def test_counters_restored(self):
        a = ParallelExpanderPRNG(num_threads=32, bit_source=SplitMix64Source(2))
        a.generate(100)
        snap = capture_state(a)
        b = ParallelExpanderPRNG(num_threads=32, bit_source=SplitMix64Source(0))
        restore_state(b, snap)
        assert b.numbers_generated == a.numbers_generated
        assert b.bits_consumed == a.bits_consumed


def _windowed(seed=4, lanes=16):
    return ParallelExpanderPRNG(
        num_threads=lanes, bit_source=GlibcRandom(seed), policy="mod"
    )


class TestWindowedSnapshot:
    """A ``mod`` bank's snapshot is its stream offset; restore seeks."""

    # 0: before the first round; 37: inside round 2 of a 16-lane bank.
    @pytest.mark.parametrize("offset", [0, 37])
    def test_restores_into_fresh_bank(self, offset):
        a = _windowed()
        a.generate(offset)
        snap = json.loads(json.dumps(capture_state(a)))
        assert snap["offset"] == offset
        expected = a.generate(100)

        b = _windowed()
        restore_state(b, snap)
        assert b.tell() == offset
        np.testing.assert_array_equal(b.generate(100), expected)

    def test_restores_into_bank_that_has_drawn(self):
        a = _windowed()
        a.generate(100)
        snap = capture_state(a)
        expected = a.generate(50)

        b = _windowed()
        b.generate(4)
        restore_state(b, snap)
        assert b.tell() == 100
        np.testing.assert_array_equal(b.generate(50), expected)

    def test_lane_count_must_match(self):
        snap = capture_state(_windowed(lanes=16))
        with pytest.raises(ValueError, match="walkers"):
            restore_state(_windowed(lanes=8), snap)


class TestValidation:
    def test_wrong_kind(self):
        a = ExpanderWalkPRNG(bit_source=SplitMix64Source(1))
        snap = capture_state(a)
        b = ParallelExpanderPRNG(num_threads=4, bit_source=SplitMix64Source(1))
        with pytest.raises(TypeError, match="snapshot is for"):
            restore_state(b, snap)

    def test_wrong_thread_count(self):
        a = ParallelExpanderPRNG(num_threads=8, bit_source=SplitMix64Source(1))
        snap = capture_state(a)
        b = ParallelExpanderPRNG(num_threads=16, bit_source=SplitMix64Source(1))
        with pytest.raises(ValueError, match="walkers"):
            restore_state(b, snap)

    def test_wrong_walk_length(self):
        a = ExpanderWalkPRNG(bit_source=SplitMix64Source(1), walk_length=32)
        snap = capture_state(a)
        b = ExpanderWalkPRNG(bit_source=SplitMix64Source(1), walk_length=64)
        with pytest.raises(ValueError, match="walk length"):
            restore_state(b, snap)

    def test_wrong_feed_type(self):
        a = ExpanderWalkPRNG(bit_source=SplitMix64Source(1))
        snap = capture_state(a)
        b = ExpanderWalkPRNG(bit_source=GlibcRandom(1))
        with pytest.raises(TypeError):
            restore_state(b, snap)

    def test_unsupported_generator(self):
        with pytest.raises(TypeError):
            capture_state(object())

    def test_bad_version(self):
        a = ExpanderWalkPRNG(bit_source=SplitMix64Source(1))
        snap = capture_state(a)
        snap["version"] = 99
        with pytest.raises(ValueError, match="version"):
            restore_state(a, snap)

    def test_custom_source_protocol(self):
        class MySource(SplitMix64Source):
            def __getstate_dict__(self):
                return {"s": int(self._state)}

            def __setstate_dict__(self, data):
                self._state = np.uint64(data["s"])

        a = ExpanderWalkPRNG(bit_source=MySource(4))
        a.get_next_rand()
        snap = capture_state(a)
        assert snap["source"]["kind"] == "custom"
        b = ExpanderWalkPRNG(bit_source=MySource(0))
        restore_state(b, snap)
        assert b.get_next_rand() == a.get_next_rand()
