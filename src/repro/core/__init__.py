"""The paper's primary contribution: the expander-walk on-demand PRNG."""

from repro.core.amplification import (
    AmplificationResult,
    amplify,
    independent_bit_cost,
    walk_seeds,
)
from repro.core.expander import (
    DEGREE,
    EDGE_EXPANSION_LOWER_BOUND,
    GabberGalilExpander,
)
from repro.core.state import capture_state, restore_state
from repro.core.streams import derive_seed, spawn_parallel_streams, spawn_streams
from repro.core.generator import DEFAULT_WALK_LENGTH, ExpanderWalkPRNG
from repro.core.parallel import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_NUM_THREADS,
    ParallelExpanderPRNG,
)
from repro.core.walk import (
    POLICIES,
    WalkEngine,
    WalkState,
)

__all__ = [
    "AmplificationResult",
    "amplify",
    "independent_bit_cost",
    "walk_seeds",
    "capture_state",
    "restore_state",
    "derive_seed",
    "spawn_parallel_streams",
    "spawn_streams",
    "DEGREE",
    "EDGE_EXPANSION_LOWER_BOUND",
    "GabberGalilExpander",
    "DEFAULT_WALK_LENGTH",
    "ExpanderWalkPRNG",
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_NUM_THREADS",
    "ParallelExpanderPRNG",
    "POLICIES",
    "WalkEngine",
    "WalkState",
]
