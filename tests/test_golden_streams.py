"""Golden stream vectors: literal expected values, pinned forever.

The repo-wide stream contract guarantees streams are pure functions of
identity (seed, lanes, walk length, policy) -- but nothing stopped a
*coordinated* change from silently shifting every emitted value at once
(it happened once: PR 5's notes admit emitted values changed repo-wide
with no golden tests to catch it).  These tests pin the canonical
streams as literals:

* the first 16 ``GlibcRandom.words64`` words for seed 1 (the glibc
  reference seed), and
* the first 64 numbers emitted by a 16-lane bank, seed 0, under each of
  the two neighbour-selection policies (the chained ``reject`` stream
  and the windowed ``mod`` stream),

checked against every kernel variant (fused/reference walk x
blocked/reference feed).  Any future change to these values -- however
self-consistent -- is a hard failure that must be an explicit,
documented decision.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import available_backends, backend_names
from repro.bitsource.glibc import GlibcRandom
from repro.core.parallel import ParallelExpanderPRNG


def backend_params():
    """Every registered array backend; unavailable ones skip cleanly.

    The walk kernel is pure integer arithmetic, so a *correct* backend
    is bit-identical to the golden literals -- running the same pinned
    vectors on every backend is the enforcement of that rule.
    """
    avail = available_backends()
    return [
        pytest.param(
            name,
            marks=() if avail.get(name) else pytest.mark.skip(
                reason=f"backend {name!r} not available here"
            ),
        )
        for name in backend_names()
    ]

GOLDEN_WORDS64_SEED1 = np.array([
    0xd7168acec9ec8f19, 0xcc6690e7d2c37147,
    0x55d12895895563b1, 0x8dd0f99af46d62eb,
    0x5d6283e506dc7bef, 0xea8bc28d457c01f2,
    0x244010a936c49fe3, 0x3e2dd3d04643379d,
    0x281c1eeccd48956a, 0x1bdae4c7ff7308cf,
    0x834f8993ada01e6a, 0x4bc8ba65466d4037,
    0x7e5b7463f20f9163, 0xc577b2b50db18495,
    0x6675620bc8768c5c, 0x5a3ab5d39d8e1178,
], dtype=np.uint64)

GOLDEN_REJECT = np.array([
    0x80cebc1bd59063f6, 0x8cdc1810619c4ee5,
    0x0969cd2f354213df, 0x9eba43d201e13cb3,
    0x7a255b377f9dacf9, 0xee0f7bee24299053,
    0x0cf9a5de8e22238f, 0x5d9c5123d399a84d,
    0x67e5214b71a5d454, 0xf2e9cc5fb6d26b71,
    0x1f13b51fa0c7a623, 0x8bb16454442c7e5f,
    0xb38b8003f630a429, 0x5be1ea4c20f86af6,
    0x123449dc0fcd9345, 0x62db4f3b65186f43,
    0x806fa83e0b256b96, 0x7c78de7708c0bda7,
    0xa2528e06cbe698f7, 0x7d86619126559d67,
    0x8f6a46979586f3d5, 0x9e181c745e9ae3ca,
    0x6c10b4436cefb674, 0x131da0e169ee6f0c,
    0xe80dcfbf18be6c14, 0x4ee16b85403ec411,
    0x3ef5d91f7673c8ed, 0xd454f32998ce0c11,
    0x2bad52169d6604f6, 0x3ed63c11fbadbf56,
    0xfa32bd47776e081a, 0x12cce3cb7459276b,
    0xd2d43420cc153a21, 0x07642a2e0db7a91b,
    0xaf2b398a0c3fae3e, 0x94a48f1248a86370,
    0xb7176fed8b794a65, 0xbabe2590c5625752,
    0x08953da41a0995b0, 0x329f57cc72cb3dc1,
    0xd80c330a00193fff, 0xbfd14d9a1ca9f949,
    0xba2aaa51add58965, 0x50b43d881982e75d,
    0x89e67671c5b9ca77, 0xd64b88f4cdff03e9,
    0xa0b52395299bf2b4, 0xbe06ab3fec6b4524,
    0x47130a3d6d066e78, 0x18a398939b065867,
    0xaca39b0ac13ae242, 0x815c7a98733dcbeb,
    0xaf9108bf253642ec, 0x3685136fe453ceb9,
    0x45993a21d112e28c, 0x9a963624df83f7eb,
    0x7deb95aa3d899c08, 0x2e6c66281d3cc6ed,
    0xfdb9f73cf6eb91ed, 0x0ade9b68b93a09cc,
    0x0a94b67b966f8264, 0xd5af49fa78c80dc2,
    0x86e73a4899d78a44, 0x088d34709216f70f,
], dtype=np.uint64)

#: The windowed ``mod`` stream (re-pinned once, when the chained ``mod``
#: bank was folded into the windowed construction; see CHANGES.md).
GOLDEN_MOD = np.array([
    0x898d27cfd2cf2621, 0xf9116cf8c347a6ca,
    0x8dff4a6e7eeda3a3, 0x9d7c2d42c5162a92,
    0x793f684c4fe61627, 0x06c20c9adbf14891,
    0x103eb91f1ef27dc5, 0x1831d12d3a6812f8,
    0x99271c0891abd401, 0xa0919bc909768202,
    0x90c94f6544fd67e2, 0xa4f95f734ea37599,
    0x192a2c7cc9f0386b, 0xe72a5a151687d1bb,
    0xf137784f55c0ad38, 0xcd159f191818eef1,
    0x6a7272e060e9af35, 0x894f58bec9cff741,
    0x73f3f7350013e81e, 0x92c858c3f6aa694d,
    0x1e645dcf2396a925, 0x46a45fd77be0b45c,
    0x5666125ea5306138, 0x2acb636253ed5622,
    0xc987f71515198ca7, 0x3b412e2bed1be447,
    0x2d7e21e808d181ba, 0xf9168f6049f9bcb8,
    0xf86e1d25fe652718, 0x82e7c1a26f5658c6,
    0xde5bfe55f618b947, 0xb64916c5fefe8475,
    0xab94d104d15c0c56, 0xd20c6997e6cd50dd,
    0x05c1545d6344ecb6, 0x805cc69f57babaeb,
    0xa74eccc05da7545e, 0x2adf27c75d109db4,
    0xb7849ce11f17dab5, 0xc3f4669f6a896374,
    0xeaab2c5e6cacc42c, 0xfe96f72ecfe18f85,
    0xfe287e60c01768fe, 0x481560d3eda37335,
    0xbc0f0df8f8af0e7f, 0x5cebdfbabe51f280,
    0xca432594c90fde1c, 0x1357967364dfb45b,
    0x1f8a246ff48cc304, 0x77b78d30f62ec9b9,
    0x3d6c54d416e376ae, 0xca8afd7eea83a1f2,
    0x063f56184e325850, 0x0788336d57a78a3f,
    0x8c00bccb9849da6f, 0x751a9eb76081a95a,
    0xa5f35ed1a7bd0b66, 0x66daff9245a54553,
    0x26dc91220461ca54, 0xc914ceeb47839059,
    0x46bc03b8460b5b50, 0x29a9986c8f4104a5,
    0xb1d6d646d648589b, 0x47ffdf338d6d755d,
], dtype=np.uint64)

GOLDEN_POLICY_VECTORS = {
    "reject": GOLDEN_REJECT,
    "mod": GOLDEN_MOD,
}

#: First outputs of glibc's scalar rand() for srand(1) -- the published
#: reference sequence the words64 stream is built from.
GLIBC_RAND_SEED1 = [1804289383, 846930886, 1681692777, 1714636915, 1957747793]


class TestGoldenFeed:
    @pytest.mark.parametrize("blocked", [True, False])
    def test_words64_seed1(self, blocked):
        got = GlibcRandom(1, blocked=blocked).words64(16)
        np.testing.assert_array_equal(got, GOLDEN_WORDS64_SEED1)

    def test_scalar_rand_seed1(self):
        src = GlibcRandom(1)
        assert [src.rand() for _ in GLIBC_RAND_SEED1] == GLIBC_RAND_SEED1


class TestGoldenStreams:
    @pytest.mark.parametrize("backend", backend_params())
    @pytest.mark.parametrize("policy", sorted(GOLDEN_POLICY_VECTORS))
    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("blocked", [True, False])
    def test_policy_stream(self, policy, fused, blocked, backend):
        prng = ParallelExpanderPRNG(
            num_threads=16,
            bit_source=GlibcRandom(0, blocked=blocked),
            policy=policy,
            fused=fused,
            backend=backend,
        )
        np.testing.assert_array_equal(
            prng.generate(64), GOLDEN_POLICY_VECTORS[policy]
        )

    def test_golden_vectors_are_not_trivial(self):
        """Guard against a check that silently compares empty or zeroed
        arrays (e.g. after a bad edit to the literals)."""
        assert GOLDEN_WORDS64_SEED1.size == 16
        for vec in GOLDEN_POLICY_VECTORS.values():
            assert vec.size == 64
            assert np.count_nonzero(vec) == 64
        assert not np.array_equal(GOLDEN_REJECT, GOLDEN_MOD)
