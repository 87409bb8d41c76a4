"""Tests for the NumPy BitGenerator adapter (``ExpanderBitGen``).

The ctypes capsule is the ecosystem bridge: ``np.random.Generator``
must accept it and produce statistically sound variates off the
expander word stream.  ``ExpanderGenerator`` is the pure-Python
fallback with the same core methods.
"""

import numpy as np
import pytest
import scipy.stats as sps

from repro.core.parallel import ParallelExpanderPRNG
from repro.dist import ExpanderBitGen, ExpanderGenerator, expander_generator


class TestCapsule:
    def test_numpy_generator_accepts_it(self):
        gen = np.random.Generator(ExpanderBitGen(seed=42))
        x = gen.standard_normal(1000)
        assert x.shape == (1000,) and np.isfinite(x).all()

    def test_standard_normal_ks(self):
        gen = np.random.Generator(ExpanderBitGen(seed=42, lanes=16))
        assert sps.kstest(gen.standard_normal(50_000), "norm").pvalue > 0.01

    def test_random_uniform_ks(self):
        gen = np.random.Generator(ExpanderBitGen(seed=43, lanes=16))
        x = gen.random(50_000)
        assert x.min() >= 0.0 and x.max() < 1.0
        assert sps.kstest(x, "uniform").pvalue > 0.01

    def test_integers_range_and_balance(self):
        gen = np.random.Generator(ExpanderBitGen(seed=44, lanes=16))
        x = gen.integers(0, 10, 50_000)
        assert x.min() >= 0 and x.max() < 10
        assert sps.chisquare(np.bincount(x, minlength=10)).pvalue > 0.01

    def test_deterministic_per_seed(self):
        a = np.random.Generator(ExpanderBitGen(seed=7, lanes=16))
        b = np.random.Generator(ExpanderBitGen(seed=7, lanes=16))
        c = np.random.Generator(ExpanderBitGen(seed=8, lanes=16))
        x, y = a.standard_normal(256), b.standard_normal(256)
        np.testing.assert_array_equal(x.view(np.uint64), y.view(np.uint64))
        assert not np.array_equal(x, c.standard_normal(256))

    def test_random_raw_is_the_bank_stream(self):
        """The adapter adds buffering, never a different word stream."""
        bitgen = ExpanderBitGen(seed=11, lanes=16, buffer_words=64)
        reference = ParallelExpanderPRNG(num_threads=16, seed=11, policy="mod")
        np.testing.assert_array_equal(
            bitgen.random_raw(200), reference.generate(200)
        )

    def test_next32_splits_words_low_half_first(self):
        bitgen = ExpanderBitGen(seed=11, lanes=16)
        word = ParallelExpanderPRNG(
            num_threads=16, seed=11, policy="mod"
        ).generate(1)[0]
        lo = bitgen._next32(None)
        hi = bitgen._next32(None)
        assert lo == int(word) & 0xFFFFFFFF
        assert hi == int(word) >> 32

    def test_bad_buffer_words(self):
        with pytest.raises(ValueError):
            ExpanderBitGen(seed=1, buffer_words=0)

    def test_state_is_descriptive(self):
        bitgen = ExpanderBitGen(seed=5, lanes=16)
        state = bitgen.state
        assert state["bit_generator"] == "ExpanderBitGen"
        assert state["seed"] == 5 and state["lanes"] == 16


class TestFallbackGenerator:
    def test_core_methods_shapes_and_bounds(self):
        gen = ExpanderGenerator(seed=3, lanes=16)
        assert gen.random(10).shape == (10,)
        assert gen.random((4, 5)).shape == (4, 5)
        assert 0.0 <= float(gen.random()) < 1.0
        u = gen.uniform(-2.0, 2.0, 1000)
        assert u.min() >= -2.0 and u.max() < 2.0
        e = gen.standard_exponential(1000)
        assert (e > 0).all()
        i = gen.integers(5, size=1000)
        assert i.min() >= 0 and i.max() < 5
        i2 = gen.integers(-3, 3, size=1000)
        assert i2.min() >= -3 and i2.max() < 3

    def test_scalar_returns(self):
        gen = ExpanderGenerator(seed=3, lanes=16)
        assert np.ndim(gen.standard_normal()) == 0
        assert np.ndim(gen.integers(10)) == 0

    def test_normal_moments(self):
        gen = ExpanderGenerator(seed=3, lanes=16)
        x = gen.normal(loc=2.0, scale=0.5, size=50_000)
        assert x.mean() == pytest.approx(2.0, abs=0.02)
        assert x.std() == pytest.approx(0.5, abs=0.02)

    def test_exponential_scale(self):
        gen = ExpanderGenerator(seed=3, lanes=16)
        x = gen.exponential(scale=4.0, size=50_000)
        assert x.mean() == pytest.approx(4.0, abs=0.15)


class TestFactory:
    def test_expander_generator_works_either_way(self):
        gen = expander_generator(seed=9, lanes=16)
        x = gen.standard_normal(4096)
        assert np.isfinite(x).all()
        assert sps.kstest(x, "norm").pvalue > 1e-4

    def test_factory_is_deterministic(self):
        a = expander_generator(seed=9, lanes=16).standard_normal(128)
        b = expander_generator(seed=9, lanes=16).standard_normal(128)
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))
