"""Independent substreams of the hybrid generator.

Parallel applications (each MPI rank, each host thread, each experiment
repetition) need statistically independent generators that are still
reproducible from one master seed.  Substreams are derived by running the
master seed through SplitMix64 -- each child feed starts 2**64/phi apart
in SplitMix64's Weyl sequence, so child streams never overlap in
practice -- and every child is a fully independent walker bank on the
expander.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.bitsource.counter import SplitMix64Source, splitmix64
from repro.core.expander import GabberGalilExpander
from repro.core.generator import DEFAULT_WALK_LENGTH, ExpanderWalkPRNG
from repro.core.parallel import ParallelExpanderPRNG
from repro.utils.checks import check_positive

__all__ = ["spawn_streams", "spawn_parallel_streams", "derive_seed"]


def derive_seed(master_seed: int, index: int) -> int:
    """The ``index``-th child seed of ``master_seed`` (SplitMix64 mix)."""
    if index < 0:
        raise ValueError(f"index must be non-negative, got {index}")
    mixed = splitmix64(
        np.uint64((master_seed ^ (index * 0x9E3779B97F4A7C15)) & (2**64 - 1))
    )
    return int(mixed[()] if mixed.shape == () else mixed)


def spawn_streams(
    master_seed: int,
    count: int,
    walk_length: int = DEFAULT_WALK_LENGTH,
    graph: Optional[GabberGalilExpander] = None,
) -> List[ExpanderWalkPRNG]:
    """``count`` independent single-stream generators from one seed."""
    check_positive("count", count)
    return [
        ExpanderWalkPRNG(
            bit_source=SplitMix64Source(derive_seed(master_seed, i)),
            walk_length=walk_length,
            graph=graph,
        )
        for i in range(count)
    ]


def spawn_parallel_streams(
    master_seed: int,
    count: int,
    num_threads: int = 4096,
    walk_length: int = DEFAULT_WALK_LENGTH,
) -> List[ParallelExpanderPRNG]:
    """``count`` independent offset-addressable walker banks from one seed."""
    check_positive("count", count)
    return [
        ParallelExpanderPRNG(
            num_threads=num_threads,
            bit_source=SplitMix64Source(derive_seed(master_seed, i)),
            walk_length=walk_length,
            policy="mod",
        )
        for i in range(count)
    ]
