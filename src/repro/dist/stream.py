"""``DistStream``: stateful, stream-exact variate sampling over words.

The repo's stream contract says a stream is *one* well-defined sequence
and fetches merely slice it -- ``generate(4); generate(4)`` equals
``generate(8)`` byte-for-byte.  This module lifts that contract from
uniform words to derived variates: for every sampler here,

    ``normal(4); normal(4)  ==  normal(8)``       (bit-identical)

no matter how requests are sized, because the variate sequence is a pure
function of the underlying word sequence.  Two mechanisms make that
true:

* **atomic attempts** -- each sampler consumes words in fixed-cost
  attempts processed in stream order (see
  :mod:`repro.dist.transforms`), so blocking never splits an attempt;
* **carry buffers** -- when an attempt yields more variates than the
  current request still needs (only possible for the pair-emitting
  Gaussian methods), the surplus is buffered on the stream, keyed by
  ``(distribution, method)``, and delivered first on the next request
  of the same kind.

Draws are *conservative*: a refill requests exactly
``ceil(remaining / max_yield)`` attempts, so yield-<=-1 samplers
(ziggurat, exponential, uniforms, bounded integers) can never overdraw
-- their carry is empty after **every** call.  That matters to serving:
the word offset after a ``VARIATE`` op is then a clean resume boundary,
and the existing words-consumed session journal needs no new record
types (see ``docs/serving.md``).

The word source is anything with the repo's ``generate(n) -> uint64``
shape (:class:`~repro.core.parallel.ParallelExpanderPRNG` under either
policy, a session draw hook, ...) or a bare callable ``n -> uint64
array``.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Union

import numpy as np

from repro.dist import transforms as tr
from repro.utils.checks import check_positive

__all__ = ["DistStream", "SERVE_DISTRIBUTIONS"]

#: Distributions the serve layer exposes through the VARIATE op.  All of
#: them are zero-carry (yield <= 1 per attempt under conservative
#: drawing), so a session's word offset is a clean journal/resume
#: boundary after every op.  Maps name -> required parameter names.
SERVE_DISTRIBUTIONS = {
    "uniform01": (),
    "normal": ("mean", "std"),
    "exponential": ("rate",),
    "integers": ("lo", "hi"),
}

#: Refill loops can only stall if the word source misbehaves (e.g.
#: returns constant words every ziggurat wedge rejects); bound them so
#: that surfaces as a loud error instead of a spin.
_MAX_REFILLS = 10_000

_EMPTY_F64 = np.empty(0, dtype=np.float64)


def _check_out(out: np.ndarray, dtype: np.dtype, what: str) -> None:
    """PR 6 ``*_into`` conventions: 1-D, C-contiguous, writable, typed."""
    if not isinstance(out, np.ndarray):
        raise TypeError(f"{what} must be a numpy array, got {type(out)!r}")
    if out.dtype != dtype:
        raise TypeError(f"{what} must have dtype {dtype}, got {out.dtype}")
    if out.ndim != 1:
        raise ValueError(f"{what} must be 1-D, got {out.ndim}-D")
    if not out.flags.c_contiguous:
        raise ValueError(f"{what} must be C-contiguous")
    if not out.flags.writeable:
        raise ValueError(f"{what} must be writable")


class DistStream:
    """Stream-exact variate sampling bound to one word stream.

    Parameters
    ----------
    source :
        The word stream: an object with ``generate(n) -> uint64 array``
        or a callable ``n -> uint64 array``.  The stream identity (and
        therefore every variate) is the source's; two ``DistStream``\\ s
        over byte-identical word streams produce byte-identical
        variates, whichever kernel variant produced the words.

    Notes
    -----
    Not thread-safe by itself; the serve layer serializes access per
    session exactly as it does for raw fetches.
    """

    def __init__(self, source: Union[Callable[[int], np.ndarray], object]):
        if callable(source) and not hasattr(source, "generate"):
            self._draw_words = source
        elif hasattr(source, "generate"):
            self._draw_words = source.generate
        else:
            raise TypeError(
                "source must provide generate(n) or be callable, got "
                f"{type(source)!r}"
            )
        #: Words drawn from the source through this stream.
        self.words_consumed = 0
        # Surplus variates per (distribution, method) key, delivered
        # before any new words are drawn for that key.
        self._carry: Dict[tuple, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _draw(self, n: int) -> np.ndarray:
        words = self._draw_words(n)
        self.words_consumed += n
        return words

    def reset_carry(self) -> None:
        """Drop all buffered surplus variates.

        Used when the underlying word stream is repositioned (seek /
        RESUME): buffered variates describe the pre-seek stream.
        """
        self._carry.clear()

    def carry_size(self, key: tuple) -> int:
        """Buffered variates for a ``(distribution, ...)`` key (tests)."""
        buf = self._carry.get(key)
        return 0 if buf is None else buf.size

    def _fill(
        self,
        out: np.ndarray,
        key: tuple,
        words_per_attempt: int,
        max_yield: int,
        kernel: Callable[[np.ndarray], np.ndarray],
    ) -> None:
        """Serve ``out`` from the carry, then conservative refills.

        Attempts arrive in stream order and every computed variate is
        either delivered or buffered -- never dropped -- which is the
        whole fetch-size-invariance argument in one sentence.
        """
        n = out.size
        pos = 0
        buf = self._carry.get(key)
        if buf is not None and buf.size:
            take = min(buf.size, n)
            out[:take] = buf[:take]
            self._carry[key] = buf[take:]
            pos = take
        refills = 0
        while pos < n:
            remaining = n - pos
            attempts = -(-remaining // max_yield)  # ceil
            vals = kernel(self._draw(attempts * words_per_attempt))
            take = min(vals.size, remaining)
            out[pos:pos + take] = vals[:take]
            if vals.size > take:
                self._carry[key] = vals[take:].copy()
            pos += take
            refills += 1
            if refills > _MAX_REFILLS:
                raise RuntimeError(
                    f"{key[0]} sampler made no progress after "
                    f"{_MAX_REFILLS} refills; word source is degenerate"
                )

    # ------------------------------------------------------------------
    # Uniform doubles
    # ------------------------------------------------------------------

    def uniform01_into(self, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` with doubles in [0, 1) (53 bits; 1 word each)."""
        _check_out(out, np.dtype(np.float64), "out")
        if out.size:
            tr_out = tr.uniform53(self._draw(out.size))
            out[:] = tr_out
        return out

    def uniform01(self, n: int) -> np.ndarray:
        """``n`` doubles uniform in [0, 1)."""
        check_positive("n", n)
        return self.uniform01_into(np.empty(n, dtype=np.float64))

    # ------------------------------------------------------------------
    # Gaussian
    # ------------------------------------------------------------------

    def normal_into(
        self,
        out: np.ndarray,
        mean: float = 0.0,
        std: float = 1.0,
        method: str = "ziggurat",
    ) -> np.ndarray:
        """Fill ``out`` with N(mean, std**2) variates.

        ``method`` selects the kernel -- ``"ziggurat"`` (default;
        2 words/attempt, yield <= 1, zero carry), ``"polar"`` or
        ``"boxmuller"`` (pair emitters; may buffer one variate).  The
        method is part of the variate stream's identity: different
        methods consume the same word stream differently.
        """
        _check_out(out, np.dtype(np.float64), "out")
        if std < 0:
            raise ValueError(f"std must be non-negative, got {std}")
        kernels = {
            "ziggurat": tr.ziggurat_normal,
            "polar": tr.polar_normal,
            "boxmuller": tr.boxmuller_normal,
        }
        if method not in kernels:
            raise ValueError(
                f"unknown normal method {method!r}; "
                f"choose from {sorted(kernels)}"
            )
        if out.size:
            self._fill(
                out,
                key=("normal", method),
                words_per_attempt=tr.WORDS_PER_ATTEMPT[f"{method}_normal"],
                max_yield=tr.MAX_YIELD[f"{method}_normal"],
                kernel=kernels[method],
            )
            # Scale in place after filling: the carry always holds
            # *standard* variates, so interleaved (mean, std) requests
            # on one stream stay exact.
            if std != 1.0:
                out *= std
            if mean != 0.0:
                out += mean
        return out

    def normal(
        self,
        n: int,
        mean: float = 0.0,
        std: float = 1.0,
        method: str = "ziggurat",
    ) -> np.ndarray:
        """``n`` Gaussian variates (see :meth:`normal_into`)."""
        check_positive("n", n)
        return self.normal_into(
            np.empty(n, dtype=np.float64), mean=mean, std=std, method=method
        )

    # ------------------------------------------------------------------
    # Exponential
    # ------------------------------------------------------------------

    def exponential_into(
        self, out: np.ndarray, rate: float = 1.0
    ) -> np.ndarray:
        """Fill ``out`` with Exp(rate) variates (inversion; 1 word each)."""
        _check_out(out, np.dtype(np.float64), "out")
        check_positive("rate", rate)
        if out.size:
            out[:] = tr.exponential_inverse(self._draw(out.size))
            if rate != 1.0:
                out /= rate
        return out

    def exponential(self, n: int, rate: float = 1.0) -> np.ndarray:
        """``n`` Exp(rate) variates by exact inversion."""
        check_positive("n", n)
        return self.exponential_into(np.empty(n, dtype=np.float64), rate=rate)

    # ------------------------------------------------------------------
    # Bounded integers
    # ------------------------------------------------------------------

    @staticmethod
    def _integers_dtype(lo: int, hi: int) -> np.dtype:
        """Result dtype rules shared with ``ParallelExpanderPRNG.integers``."""
        if hi <= lo:
            raise ValueError(f"empty range [{lo}, {hi})")
        if hi - lo > 2**64:
            raise ValueError(f"range [{lo}, {hi}) spans more than 2**64 values")
        if lo >= 0 and hi > 2**63:
            return np.dtype(np.uint64)
        if lo >= -(2**63) and hi <= 2**63:
            return np.dtype(np.int64)
        raise ValueError(f"range [{lo}, {hi}) fits neither int64 nor uint64")

    def integers_into(self, out: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Fill ``out`` with unbiased integers in ``[lo, hi)``.

        Lemire's multiply-shift bound (1 word/attempt, yield <= 1): no
        modulo bias, no rejection at all for power-of-two spans, and
        zero carry -- the serve layer's bounded-integer path.  ``out``
        must be int64 or uint64 matching the range's natural dtype.
        """
        dtype = self._integers_dtype(lo, hi)
        _check_out(out, dtype, "out")
        if not out.size:
            return out
        span = hi - lo
        offset = np.uint64(lo & (2**64 - 1))
        view = out.view(np.uint64)
        self._fill(
            view,
            key=("integers", lo, hi),
            words_per_attempt=1,
            max_yield=1,
            kernel=lambda w: tr.lemire_bounded(w, span),
        )
        if lo != 0:
            with np.errstate(over="ignore"):
                view += offset  # two's-complement wrap is intended
        return out

    def integers(self, n: int, lo: int, hi: int) -> np.ndarray:
        """``n`` unbiased integers uniform in ``[lo, hi)``."""
        check_positive("n", n)
        return self.integers_into(
            np.empty(n, dtype=self._integers_dtype(lo, hi)), lo, hi
        )

    # ------------------------------------------------------------------
    # Serve-facing dispatch
    # ------------------------------------------------------------------

    def sample(
        self, dist: str, n: int, params: Optional[dict] = None
    ) -> np.ndarray:
        """Named-distribution dispatch used by the VARIATE serve op.

        Only :data:`SERVE_DISTRIBUTIONS` are reachable here -- all
        zero-carry, so the word offset after this call is a clean resume
        boundary.  Unknown names or parameters raise ``ValueError``.
        """
        check_positive("n", n)
        params = dict(params or {})
        if dist not in SERVE_DISTRIBUTIONS:
            raise ValueError(
                f"unknown distribution {dist!r}; "
                f"choose from {sorted(SERVE_DISTRIBUTIONS)}"
            )
        allowed = set(SERVE_DISTRIBUTIONS[dist])
        unknown = set(params) - allowed
        if unknown:
            raise ValueError(
                f"{dist} takes parameters {sorted(allowed)}, "
                f"got unknown {sorted(unknown)}"
            )
        if dist == "uniform01":
            return self.uniform01(n)
        if dist == "normal":
            return self.normal(
                n,
                mean=float(params.get("mean", 0.0)),
                std=float(params.get("std", 1.0)),
                method="ziggurat",
            )
        if dist == "exponential":
            return self.exponential(n, rate=float(params.get("rate", 1.0)))
        lo = int(params.get("lo", 0))
        hi = int(params.get("hi", 2**63))
        return self.integers(n, lo, hi)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        pending = {k: v.size for k, v in self._carry.items() if v.size}
        return (
            f"DistStream(words_consumed={self.words_consumed}, "
            f"carry={pending})"
        )
