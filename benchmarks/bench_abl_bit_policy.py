"""Ablation: neighbour-selection policy for the 3-bit draw.

The paper never says what its kernel does when the three feed bits read
111 (there is no neighbour 7).  Compares the two policies implemented
in :mod:`repro.core.walk`: unbiased rejection (default, the chained
walk) and branch-free mod-7 (111 -> neighbour 0, the identity map, so
biased towards staying put; the windowed bank).  Reports feed-bit
overhead, local throughput, and the neighbour-index bias each policy
induces.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import record

from repro.bitsource import SplitMix64Source
from repro.core.expander import GabberGalilExpander
from repro.core.parallel import ParallelExpanderPRNG
from repro.core.walk import POLICIES, WalkEngine
from repro.utils.tables import format_table

N = 200_000


def _index_bias(policy: str) -> float:
    """Max relative deviation of neighbour-index frequency from 1/7."""
    eng = WalkEngine(GabberGalilExpander(), policy=policy)
    state = eng.make_state(SplitMix64Source(1).words64(64))
    ks = eng._draw_indices(700_000, SplitMix64Source(2), state)
    freq = np.bincount(ks, minlength=7) / ks.size
    return float(np.abs(freq * 7 - 1).max())


def test_ablation_bit_policy(benchmark):
    def sweep():
        rows = []
        for policy in POLICIES:
            prng = ParallelExpanderPRNG(
                num_threads=1 << 14,
                bit_source=SplitMix64Source(7),
                policy=policy,
            )
            prng.generate(1 << 14)  # warm-up
            before = prng.bits_consumed
            t0 = time.perf_counter()
            prng.generate(N)
            dt = time.perf_counter() - t0
            bits_per_number = (prng.bits_consumed - before) / N
            rows.append(
                [
                    policy,
                    f"{bits_per_number:.1f}",
                    f"{N / dt / 1e3:.0f}",
                    f"{_index_bias(policy):.4f}",
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_table(
        ["policy", "feed bits/number", "Knumbers/s (local)", "index bias"],
        rows,
        title="Ablation -- neighbour-selection policy",
    )
    record("Ablation: bit policy", table)

    by = {r[0]: r for r in rows}
    # Rejection costs ~8/7 more bits but is unbiased.
    assert float(by["reject"][1]) > float(by["mod"][1])
    assert float(by["reject"][3]) < 0.02
    assert float(by["mod"][3]) > 0.5  # neighbour 0 gets twice the mass
