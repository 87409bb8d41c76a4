"""Monte Carlo pi: the canonical per-substream determinism demo.

Each substream ``i`` owns an independent expander walker bank seeded
with ``derive_seed(master_seed, i)`` and draws ``(x, y)`` points through
a stream-exact :class:`~repro.dist.DistStream`.  Two consequences worth
stating because they are exactly what the paper's on-demand model buys:

* **chunk invariance** -- a substream's hit count is identical whether
  its points are drawn in one call or a thousand, because ``uniform01``
  slices one well-defined variate sequence (fetch-split invariance);
* **schedule invariance** -- the estimate is a sum of per-substream hit
  counts, each a pure function of ``(master_seed, i, lanes)``, so it
  does not matter which worker runs which substream or in what order.

The estimator itself is the textbook quarter-circle one: ``x, y ~
U[0,1)``, a hit is ``x*x + y*y < 1``, and ``pi ~= 4 * hits / points``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.bitsource.counter import SplitMix64Source
from repro.core.parallel import ParallelExpanderPRNG
from repro.core.streams import derive_seed
from repro.dist import DistStream
from repro.utils.checks import check_positive

__all__ = ["PI_STREAM_LANES", "PiResult", "estimate_pi", "stream_hits"]

#: Walker lanes per substream.  Lane count is part of a bank's stream
#: identity, so it is pinned here: changing it changes every draw.
PI_STREAM_LANES = 16

#: Points drawn per chunk when a caller does not choose one.
DEFAULT_CHUNK = 65536


@dataclass
class PiResult:
    """Estimate plus the per-substream evidence it was assembled from."""

    estimate: float
    hits: int
    points: int
    per_stream_hits: List[int]
    per_stream_points: List[int]

    @property
    def error(self) -> float:
        """Absolute error against ``math.pi`` (well, numpy's)."""
        return abs(self.estimate - float(np.pi))


def stream_hits(
    master_seed: int,
    stream_index: int,
    points: int,
    chunk: int = DEFAULT_CHUNK,
    lanes: int = PI_STREAM_LANES,
) -> int:
    """Quarter-circle hits of one substream (pure function of the args).

    ``chunk`` only bounds peak memory: the hit count is identical for
    any chunking of the same ``points`` because the underlying variate
    stream is stream-exact.
    """
    check_positive("points", points)
    check_positive("chunk", chunk)
    stream = DistStream(
        ParallelExpanderPRNG(
            num_threads=lanes,
            bit_source=SplitMix64Source(derive_seed(master_seed, stream_index)),
            policy="mod",
        )
    )
    hits = 0
    remaining = points
    while remaining:
        n = min(remaining, chunk)
        xy = stream.uniform01(2 * n)
        x, y = xy[0::2], xy[1::2]
        hits += int(np.count_nonzero(x * x + y * y < 1.0))
        remaining -= n
    return hits


def estimate_pi(
    points: int,
    master_seed: int = 0,
    substreams: int = 8,
    chunk: int = DEFAULT_CHUNK,
    lanes: int = PI_STREAM_LANES,
) -> PiResult:
    """Estimate pi from ``points`` samples split across ``substreams``.

    The first ``points % substreams`` substreams take one extra point,
    so every requested point is drawn and the split is deterministic.
    """
    check_positive("points", points)
    check_positive("substreams", substreams)
    base, extra = divmod(points, substreams)
    per_points = [base + (1 if i < extra else 0) for i in range(substreams)]
    per_hits = [
        stream_hits(master_seed, i, n, chunk=chunk, lanes=lanes) if n else 0
        for i, n in enumerate(per_points)
    ]
    hits = sum(per_hits)
    return PiResult(
        estimate=4.0 * hits / points,
        hits=hits,
        points=points,
        per_stream_hits=per_hits,
        per_stream_points=per_points,
    )
