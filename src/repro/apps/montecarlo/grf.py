"""Per-pencil Gaussian random field: the zeldovich-PLT seeding scenario.

Realizing a Gaussian random field means filling a Fourier grid with
complex Gaussian modes and inverse-transforming.  The naive
parallelization hazards are exactly the ones zeldovich-PLT's meta-RNG
notes walk through: one RNG shared by all threads is irreproducible,
one RNG *per thread* makes the field depend on the thread count, and
one RNG per ky-plane breaks **oversampling** (regenerating the same
field at higher resolution), because a longer pencil leaves the plane's
RNG in a different spot for the next pencil.

The fix reproduced here is **one stream per pencil** (all ``kx`` for a
given ``ky``), keyed by the *signed* ``ky`` frequency so the key does
not depend on the grid size, with modes drawn in ``kx``-increasing
order.  Then:

* the field is independent of how pencils are scheduled across
  workers (each pencil's stream is a pure function of
  ``(master_seed, ky)``);
* a ``2n`` grid reproduces the interior modes of the ``n`` grid
  bit-for-bit -- a longer pencil just reads further into the same
  stream, and new ``|ky|`` pencils get fresh streams.

Draws go through :class:`repro.dist.DistStream`'s stream-exact ziggurat
(mode ``kx`` always consumes variates ``2*kx`` and ``2*kx + 1`` of its
pencil, however the calls are chunked), over a per-pencil expander bank
seeded via :func:`repro.core.streams.derive_seed`.

This is a 2-D demo (real ``n x n`` field, ``rfft2`` half-plane); the
3-D version is the same story with ``(ky, kz)`` pencil keys.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.bitsource.counter import SplitMix64Source
from repro.core.parallel import ParallelExpanderPRNG
from repro.core.streams import derive_seed
from repro.dist import DistStream
from repro.utils.checks import check_positive

__all__ = [
    "GRF_PENCIL_LANES",
    "gaussian_field_modes",
    "pencil_modes",
    "pencil_seed",
    "realize_field",
]

#: Walker lanes per pencil bank.  Part of every pencil's stream
#: identity (like the seed), so it is pinned as a module constant.
GRF_PENCIL_LANES = 16

#: Keeps pencil streams disjoint from other apps' ``derive_seed``
#: children of the same master seed (e.g. the pi substreams).
_PENCIL_SALT = 0x6772665F70656E63  # "grf_penc"


def _fold_ky(ky: int) -> int:
    """Signed frequency -> unique non-negative index (0,-1,1,-2,2...)."""
    return 2 * ky if ky >= 0 else -2 * ky - 1


def pencil_seed(master_seed: int, ky: int) -> int:
    """The feed seed of pencil ``ky`` (a *signed* frequency).

    Depends only on ``(master_seed, ky)`` -- never on the grid size --
    which is the whole oversampling story: the ``ky = 3`` pencil of a
    64-grid is the same stream as the ``ky = 3`` pencil of a 32-grid.
    """
    return derive_seed(derive_seed(master_seed, _PENCIL_SALT), _fold_ky(ky))


def pencil_modes(
    master_seed: int,
    ky: int,
    kx_count: int,
    lanes: int = GRF_PENCIL_LANES,
) -> np.ndarray:
    """The first ``kx_count`` unit complex Gaussian modes of a pencil.

    Mode ``kx`` is built from standard-normal variates ``2*kx`` and
    ``2*kx + 1`` of the pencil's stream as ``(re + 1j*im) / sqrt(2)``
    (unit variance per complex mode), so the result for a larger
    ``kx_count`` extends -- never reshuffles -- the result for a
    smaller one.
    """
    check_positive("kx_count", kx_count)
    stream = DistStream(
        ParallelExpanderPRNG(
            num_threads=lanes,
            bit_source=SplitMix64Source(pencil_seed(master_seed, ky)),
            policy="mod",
        )
    )
    z = stream.normal(2 * kx_count)
    return (z[0::2] + 1j * z[1::2]) / np.sqrt(2.0)


def gaussian_field_modes(n: int, master_seed: int = 0) -> np.ndarray:
    """Unit-variance mode grid for a real ``n x n`` field (rfft2 layout).

    Row ``r`` holds the pencil with signed frequency ``ky = r`` for
    ``r <= n//2`` and ``ky = r - n`` above; columns run ``kx = 0 ..
    n//2``.  The self-conjugate columns (``kx = 0`` and ``kx = n//2``)
    are Hermitian-symmetrized so the field is exactly real: negative-ky
    entries become conjugates of their positive-ky partners, and the
    four self-conjugate modes (DC and Nyquist corners) are projected to
    real with variance preserved.

    Oversampling: for ``m > n`` (both even), every mode with
    ``|ky| < n//2`` and ``kx < n//2`` of the ``m``-grid equals the
    corresponding mode of the ``n``-grid bit-for-bit; only the coarse
    grid's own Nyquist row/column (symmetrized there, interior here)
    differ.
    """
    check_positive("n", n)
    if n % 2:
        raise ValueError(f"grid size must be even, got {n}")
    half = n // 2
    modes = np.empty((n, half + 1), dtype=np.complex128)
    for r in range(n):
        ky = r if r <= half else r - n
        modes[r] = pencil_modes(master_seed, ky, half + 1)

    # Hermitian symmetry: F(-ky, kx) = conj(F(ky, kx)) on the two
    # self-conjugate columns; keep the positive-ky draw as authoritative
    # so the interior stays exactly what the pencils produced.
    for col in (0, half):
        for r in range(1, half):
            modes[n - r, col] = np.conj(modes[r, col])
        for r in (0, half):  # DC and Nyquist corners: real modes
            modes[r, col] = np.sqrt(2.0) * modes[r, col].real
    return modes


def realize_field(
    n: int,
    master_seed: int = 0,
    power: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> np.ndarray:
    """A real ``n x n`` Gaussian random field with spectrum ``power``.

    ``power`` maps an array of integer wavenumber magnitudes ``|k|`` to
    spectral power; the default is a ``P(k) = 1/k**2`` power law with
    ``P(0) = 0`` (zero-mean field).  Returns ``irfft2`` of the
    amplitude-scaled unit modes; no volume normalization is applied
    (this is a seeding demo, not a cosmology code).
    """
    modes = gaussian_field_modes(n, master_seed)
    ky = np.fft.fftfreq(n, d=1.0 / n)[:, None]
    kx = np.fft.rfftfreq(n, d=1.0 / n)[None, :]
    kmag = np.hypot(ky, kx)
    if power is None:
        amp = np.zeros_like(kmag)
        np.divide(1.0, kmag, out=amp, where=kmag > 0)
    else:
        amp = np.sqrt(np.maximum(power(kmag), 0.0))
        amp[kmag == 0] = 0.0
    return np.fft.irfft2(modes * amp, s=(n, n))
