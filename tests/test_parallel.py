"""Tests for the many-walker parallel generator."""

import numpy as np
import pytest

from repro import obs
from repro.bitsource.counter import SplitMix64Source
from repro.core.parallel import ParallelExpanderPRNG


def make(threads=256, seed=7, **kw):
    return ParallelExpanderPRNG(
        num_threads=threads, bit_source=SplitMix64Source(seed), **kw
    )


class TestConstruction:
    def test_rejects_zero_threads(self):
        with pytest.raises(ValueError):
            ParallelExpanderPRNG(num_threads=0)

    def test_initial_positions_distinct(self):
        p = make(512)
        ids = p.engine.outputs(p.state)
        # 512 random 64-bit start points collide with probability ~2**-46.
        assert np.unique(ids).size == 512


class TestGeneration:
    def test_count_and_dtype(self):
        p = make()
        vals = p.generate(1000)
        assert vals.dtype == np.uint64 and vals.size == 1000

    def test_deterministic(self):
        assert np.array_equal(make(seed=3).generate(500), make(seed=3).generate(500))

    def test_seed_sensitivity(self):
        assert not np.array_equal(
            make(seed=3).generate(100), make(seed=4).generate(100)
        )

    def test_batch_size_does_not_change_values(self):
        a = make(seed=5).generate(700)
        b = make(seed=5).generate(700, batch_size=10)
        assert np.array_equal(a, b)

    def test_non_multiple_of_threads(self):
        p = make(threads=64)
        vals = p.generate(100)  # not a multiple of 64
        assert vals.size == 100

    def test_next_round_size(self):
        p = make(threads=96)
        assert p.next_round().size == 96

    def test_rounds_iterator(self):
        p = make(threads=32)
        chunks = list(p.rounds(3))
        assert len(chunks) == 3
        assert all(c.size == 32 for c in chunks)

    def test_successive_rounds_differ(self):
        p = make(threads=32)
        r1, r2 = p.next_round(), p.next_round()
        assert not np.array_equal(r1, r2)

    def test_numbers_counted(self):
        p = make(threads=32)
        p.generate(100)
        # generate() rounds up to whole thread-rounds internally.
        assert p.numbers_generated == 128

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            make().generate(-1)


@pytest.mark.parametrize("policy", ["reject", "mod"])
class TestStreamContract:
    """generate() serves one canonical stream regardless of fetch sizes.

    Regression tests: generate() used to discard the tail of the last
    round whenever ``n`` was not a multiple of ``num_threads``, so
    ``generate(4); generate(4)`` skipped numbers that ``generate(8)``
    emitted -- the fetch size leaked into the stream.  Both policies'
    streams obey the same contract.
    """

    def test_two_fetches_equal_one(self, policy):
        p, q = (make(threads=32, seed=9, policy=policy) for _ in range(2))
        split = np.concatenate([p.generate(4), p.generate(4)])
        assert np.array_equal(split, q.generate(8))

    def test_arbitrary_split_equals_bulk(self, policy):
        sizes = [1, 37, 2, 300, 64, 96]
        p, q = (make(threads=64, seed=10, policy=policy) for _ in range(2))
        split = np.concatenate([p.generate(s) for s in sizes])
        assert np.array_equal(split, q.generate(sum(sizes)))

    def test_batch_size_orthogonal_to_split(self, policy):
        p, q = (make(threads=48, seed=11, policy=policy) for _ in range(2))
        a = np.concatenate([
            p.generate(30, batch_size=2), p.generate(70, batch_size=5)
        ])
        assert np.array_equal(a, q.generate(100))

    def test_remainder_survives_zero_fetch(self, policy):
        p, q = (make(threads=32, seed=12, policy=policy) for _ in range(2))
        head = p.generate(5)
        mid = p.generate(0)
        assert mid.size == 0
        got = np.concatenate([head, p.generate(27)])
        assert np.array_equal(got, q.generate(32))

    def test_next_round_bypasses_remainder(self, policy):
        """next_round() is the raw per-round API: it neither serves nor
        disturbs generate()'s buffered tail."""
        p = make(threads=16, seed=13, policy=policy)
        ref = make(threads=16, seed=13, policy=policy).generate(48)
        head = p.generate(8)           # buffers 8 tail numbers
        skipped = p.next_round()       # round 2, raw
        tail = p.generate(24)          # rest of round 1, then round 3
        got = np.concatenate([head, tail])
        assert np.array_equal(np.concatenate([got[:16], skipped, got[16:]]),
                              ref)


class TestLaunches:
    """A fetch is one kernel launch, and a bank keeps no launch scratch
    between fetches."""

    @staticmethod
    def launches(fetch):
        with obs.observed() as (_registry, tracer):
            fetch()
        return sum(1 for s in tracer.spans if s.name == "generate")

    def test_partial_tail_round_rides_in_the_last_launch(self):
        p, q = make(threads=64, seed=21, policy="mod"), make(
            threads=64, seed=21, policy="mod")
        head = np.empty(1000, dtype=np.uint64)  # 1000 % 64 != 0
        assert self.launches(lambda: p.generate_into(head)) == 1
        mid = np.empty(24, dtype=np.uint64)  # the buffered tail round
        assert self.launches(lambda: p.generate_into(mid)) == 0
        tail = np.empty(77, dtype=np.uint64)
        assert self.launches(lambda: p.generate_into(tail)) == 1
        assert np.array_equal(np.concatenate([head, mid, tail]),
                              q.generate(1101))
        assert p.tell() == 1101

    @staticmethod
    def held_bytes(state):
        """Bytes of every array the state references, counting each
        view's base buffer once (a view keeps all of its base alive)."""
        bases = {}
        for value in vars(state).values():
            for arr in value if isinstance(value, tuple) else (value,):
                if not isinstance(arr, np.ndarray):
                    continue
                while isinstance(arr.base, np.ndarray):
                    arr = arr.base
                bases[id(arr)] = arr.nbytes
        return sum(bases.values())

    def test_windowed_bank_keeps_only_last_round_positions(self):
        lanes = 64
        p = make(threads=lanes, seed=23, policy="mod")
        p.generate_into(np.empty(4096, dtype=np.uint64))
        assert self.held_bytes(p.state) <= 2 * lanes * 4
        assert p.state.num_walkers == lanes

    def test_windowed_state_is_the_last_rounds_walkers(self):
        lanes = 16
        p = make(threads=lanes, seed=24, policy="mod")
        vals = p.generate(5 * lanes + 3)
        last = p.engine.outputs(p.state)
        np.testing.assert_array_equal(last[:3], vals[-3:])
        assert p.state.steps_taken == 6 * lanes * p.walk_length
        assert p.state.chunks_consumed == 6 * lanes * p.walk_length


class TestIntegersRegressions:
    """integers() across power-of-two and full-width ranges.

    Regression tests: ranges whose size divides 2**64 made the
    rejection limit ``(2**64 // size) * size == 2**64`` overflow
    ``np.uint64`` and raise OverflowError (e.g. ``integers(0, 2**32)``).
    """

    def test_power_of_two_range(self):
        vals = make(seed=21).integers(0, 2**32, 1000)
        assert vals.dtype == np.int64
        assert vals.min() >= 0 and vals.max() < 2**32
        # Power-of-two spans take the no-rejection path; the top 32 bits
        # of a healthy stream keep the mean near the middle.
        assert abs(vals.mean() / 2**32 - 0.5) < 0.05

    def test_full_uint64_range(self):
        vals = make(seed=22).integers(0, 2**64, 500)
        assert vals.dtype == np.uint64
        assert vals.max() > np.uint64(2**63)  # top bit exercised

    def test_full_int64_range(self):
        vals = make(seed=23).integers(-(2**63), 2**63, 500)
        assert vals.dtype == np.int64
        assert vals.min() < 0 < vals.max()

    def test_high_uint64_range(self):
        vals = make(seed=24).integers(2**63, 2**64, 200)
        assert vals.dtype == np.uint64
        assert (vals >= np.uint64(2**63)).all()

    def test_span_too_wide_rejected(self):
        with pytest.raises(ValueError, match="spans more than"):
            make().integers(-1, 2**64, 10)

    def test_bounds_not_representable_rejected(self):
        with pytest.raises(ValueError, match="fits neither"):
            make().integers(-1, 2**63 + 1, 10)

    def test_matches_fetch_split(self):
        """integers() draws from the same canonical stream."""
        p, q = make(seed=25), make(seed=25)
        a = np.concatenate([p.integers(0, 1000, 70),
                            p.integers(0, 1000, 30)])
        assert np.array_equal(a, q.integers(0, 1000, 100))


class TestDistributions:
    def test_random_range(self):
        u = make(seed=2).random(5000)
        assert (u >= 0).all() and (u < 1).all()
        assert abs(u.mean() - 0.5) < 0.02

    def test_integers_range_and_coverage(self):
        vals = make(seed=2).integers(5, 15, 2000)
        assert vals.min() >= 5 and vals.max() < 15
        assert np.unique(vals).size == 10

    def test_integers_empty_range(self):
        with pytest.raises(ValueError):
            make().integers(3, 3, 10)

    def test_random_bits_balanced(self):
        bits = make(seed=6).random_bits(80_000)
        assert bits.size == 80_000
        assert abs(bits.mean() - 0.5) < 0.01

    def test_bit_positions_unbiased(self):
        """Every one of the 64 output bit positions should be ~50/50."""
        p = make(threads=512, seed=8)
        vals = p.generate(8192)
        bits = np.unpackbits(vals.astype(">u8").view(np.uint8)).reshape(-1, 64)
        rates = bits.mean(axis=0)
        assert rates.min() > 0.45 and rates.max() < 0.55


class TestStatisticalSanity:
    def test_no_duplicate_outputs_in_small_sample(self):
        """64-bit outputs should essentially never collide in 10**4 draws."""
        vals = make(threads=1024, seed=13).generate(10_000)
        assert np.unique(vals).size == 10_000

    def test_byte_histogram_flat(self):
        vals = make(threads=1024, seed=14).generate(50_000)
        counts = np.bincount(vals.view(np.uint8), minlength=256)
        expected = vals.size * 8 / 256
        chi2 = ((counts - expected) ** 2 / expected).sum()
        # 255 dof: mean 255, std ~22.6; 400 is a ~6.4 sigma allowance.
        assert chi2 < 400
