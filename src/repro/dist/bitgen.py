"""``ExpanderBitGen``: plug the expander-walk PRNG into NumPy's Generator.

NumPy's ``np.random.Generator`` accepts any object exposing a
``capsule`` wrapping a C ``bitgen_t`` struct plus a ``lock`` -- that is
the whole BitGenerator contract (see NumPy's "Extending" docs).  This
module builds that struct **in pure Python with ctypes**: the four
``next_*`` function pointers are ``CFUNCTYPE`` trampolines into a
buffered word stream from :class:`~repro.core.parallel
.ParallelExpanderPRNG`, and the capsule is created through
``PyCapsule_New`` with the ``"BitGenerator"`` name NumPy looks for.  No
compiled extension, no new dependency:

    >>> import numpy as np
    >>> from repro.dist import ExpanderBitGen
    >>> gen = np.random.Generator(ExpanderBitGen(seed=42))
    >>> gen.standard_normal(10**6)          # doctest: +SKIP

Two caveats, both documented in ``docs/distributions.md``:

* every ``next_uint64`` call crosses the C->Python trampoline, so this
  path trades speed for ecosystem compatibility -- bulk variate work
  should use :class:`~repro.dist.stream.DistStream`, which is
  vectorized end to end;
* NumPy's own samplers (its ziggurat tables, its bounded-integer
  algorithm) consume words their own way, so ``Generator`` output is
  *not* the repo's canonical variate stream -- it is simply correct.
  The canonical, serve-journaled variate stream is ``DistStream``'s.

:func:`expander_generator` returns ``np.random.Generator`` on the
capsule when the host NumPy accepts it and falls back to
:class:`ExpanderGenerator` -- a pure-Python object with the same core
method names backed by ``DistStream`` -- otherwise.
"""

from __future__ import annotations

import ctypes
import threading
from typing import Optional

import numpy as np

from repro.core.parallel import ParallelExpanderPRNG
from repro.dist.stream import DistStream

__all__ = ["ExpanderBitGen", "ExpanderGenerator", "expander_generator"]

#: Words fetched per refill of the trampoline buffer: one vectorized
#: bank call amortized over many scalar next_uint64() callbacks.
DEFAULT_BUFFER_WORDS = 4096

#: Lanes of the default word source (part of the stream identity).
DEFAULT_LANES = 64

_NEXT_U64 = ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)
_NEXT_U32 = ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)
_NEXT_DOUBLE = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)


class _BitGenStruct(ctypes.Structure):
    """Mirror of NumPy's C ``bitgen_t`` (numpy/random/bit_generator.h)."""

    _fields_ = [
        ("state", ctypes.c_void_p),
        ("next_uint64", _NEXT_U64),
        ("next_uint32", _NEXT_U32),
        ("next_double", _NEXT_DOUBLE),
        ("next_raw", _NEXT_U64),
    ]


class ExpanderBitGen:
    """A NumPy-compatible BitGenerator over the expander-walk PRNG.

    Parameters
    ----------
    seed : int
        Feed seed of the word source.
    lanes : int
        Walker lanes of the bank (stream identity, like everywhere else
        in the repo).
    buffer_words : int
        Words per vectorized refill of the trampoline buffer.
    prng : optional
        Pre-built word source with ``generate(n)``; overrides
        ``seed``/``lanes``.

    The produced word stream is exactly
    ``ParallelExpanderPRNG(num_threads=lanes, seed=seed, policy="mod")``'s
    stream; ``random_raw(n)`` exposes it for parity tests.
    """

    def __init__(
        self,
        seed: int = 1,
        lanes: int = DEFAULT_LANES,
        buffer_words: int = DEFAULT_BUFFER_WORDS,
        prng=None,
    ):
        if buffer_words < 1:
            raise ValueError(
                f"buffer_words must be positive, got {buffer_words}"
            )
        self.seed = seed
        self.lanes = lanes
        self.buffer_words = int(buffer_words)
        self.prng = prng if prng is not None else ParallelExpanderPRNG(
            num_threads=lanes, seed=seed, policy="mod"
        )
        #: Generator serializes through this lock (NumPy contract).
        self.lock = threading.Lock()
        # Buffered words as plain Python ints: .tolist() once per refill
        # is far cheaper than one ndarray scalar coercion per callback.
        self._buf: list = []
        self._pos = 0
        self._half: Optional[int] = None  # spare 32 bits for next_uint32
        # The CFUNCTYPE objects MUST outlive the capsule: ctypes does
        # not hold them, and a collected trampoline is a segfault.
        self._c_next64 = _NEXT_U64(self._next64)
        self._c_next32 = _NEXT_U32(self._next32)
        self._c_nextdouble = _NEXT_DOUBLE(self._nextdouble)
        self._c_nextraw = _NEXT_U64(self._next64)
        self._struct = _BitGenStruct(
            state=None,
            next_uint64=self._c_next64,
            next_uint32=self._c_next32,
            next_double=self._c_nextdouble,
            next_raw=self._c_nextraw,
        )
        self.capsule = self._make_capsule()

    def _make_capsule(self):
        new = ctypes.pythonapi.PyCapsule_New
        new.restype = ctypes.py_object
        new.argtypes = (ctypes.c_void_p, ctypes.c_char_p, ctypes.c_void_p)
        return new(
            ctypes.cast(ctypes.byref(self._struct), ctypes.c_void_p),
            b"BitGenerator",
            None,
        )

    # -- trampolines ---------------------------------------------------

    def _next64(self, _state) -> int:
        if self._pos >= len(self._buf):
            self._buf = self.prng.generate(self.buffer_words).tolist()
            self._pos = 0
        word = self._buf[self._pos]
        self._pos += 1
        return word

    def _next32(self, _state) -> int:
        # Split each word into two 32-bit halves, low half first, so no
        # entropy is discarded (matches NumPy's own splitting pattern).
        if self._half is not None:
            half, self._half = self._half, None
            return half
        word = self._next64(None)
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def _nextdouble(self, _state) -> float:
        return (self._next64(None) >> 11) * (1.0 / 9007199254740992.0)

    # -- introspection / tests -----------------------------------------

    def random_raw(self, n: int) -> np.ndarray:
        """The next ``n`` raw words (uint64), through the same buffer."""
        with self.lock:
            return np.array(
                [self._next64(None) for _ in range(n)], dtype=np.uint64
            )

    @property
    def state(self) -> dict:
        """Debug view (not a restorable state; streams restart by seed)."""
        return {
            "bit_generator": type(self).__name__,
            "seed": self.seed,
            "lanes": self.lanes,
            "buffered": len(self._buf) - self._pos,
            "words_generated": getattr(self.prng, "numbers_generated", None),
        }

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"ExpanderBitGen(seed={self.seed}, lanes={self.lanes})"


class ExpanderGenerator:
    """Pure-Python fallback with ``np.random.Generator``'s core methods.

    Backed by :class:`DistStream` (vectorized, stream-exact), so it is
    both the no-capsule fallback *and* the fast path for bulk variates.
    Implements the methods the repo's apps and docs rely on --
    ``random``, ``uniform``, ``standard_normal``, ``normal``,
    ``standard_exponential``, ``exponential``, ``integers`` -- with
    NumPy-style ``size=None`` scalar returns.
    """

    def __init__(
        self, seed: int = 1, lanes: int = DEFAULT_LANES, prng=None
    ):
        self.seed = seed
        self.lanes = lanes
        self.prng = prng if prng is not None else ParallelExpanderPRNG(
            num_threads=lanes, seed=seed, policy="mod"
        )
        self.dist = DistStream(self.prng)
        self.lock = threading.Lock()

    @staticmethod
    def _size(size) -> tuple[int, bool]:
        if size is None:
            return 1, True
        n = int(np.prod(size)) if np.iterable(size) else int(size)
        return n, False

    def _shaped(self, flat: np.ndarray, size, scalar: bool):
        if scalar:
            return flat[0]
        return flat.reshape(size) if np.iterable(size) else flat

    def random(self, size=None) -> np.ndarray:
        n, scalar = self._size(size)
        with self.lock:
            flat = self.dist.uniform01(n)
        return self._shaped(flat, size, scalar)

    def uniform(self, low=0.0, high=1.0, size=None):
        n, scalar = self._size(size)
        with self.lock:
            flat = self.dist.uniform01(n)
        flat = low + (high - low) * flat
        return self._shaped(flat, size, scalar)

    def standard_normal(self, size=None):
        n, scalar = self._size(size)
        with self.lock:
            flat = self.dist.normal(n)
        return self._shaped(flat, size, scalar)

    def normal(self, loc=0.0, scale=1.0, size=None):
        n, scalar = self._size(size)
        with self.lock:
            flat = self.dist.normal(n, mean=loc, std=scale)
        return self._shaped(flat, size, scalar)

    def standard_exponential(self, size=None):
        n, scalar = self._size(size)
        with self.lock:
            flat = self.dist.exponential(n)
        return self._shaped(flat, size, scalar)

    def exponential(self, scale=1.0, size=None):
        n, scalar = self._size(size)
        with self.lock:
            flat = self.dist.exponential(n, rate=1.0 / scale)
        return self._shaped(flat, size, scalar)

    def integers(self, low, high=None, size=None):
        if high is None:
            low, high = 0, low
        n, scalar = self._size(size)
        with self.lock:
            flat = self.dist.integers(n, int(low), int(high))
        return self._shaped(flat, size, scalar)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"ExpanderGenerator(seed={self.seed}, lanes={self.lanes})"


def expander_generator(
    seed: int = 1, lanes: int = DEFAULT_LANES
):
    """``np.random.Generator`` over the expander stream, or the fallback.

    Tries the ctypes capsule first (works on every NumPy with the
    documented BitGenerator interface); if the host NumPy rejects it,
    returns an :class:`ExpanderGenerator` with the same core methods.
    """
    try:
        return np.random.Generator(ExpanderBitGen(seed=seed, lanes=lanes))
    except (TypeError, ValueError, SystemError):  # pragma: no cover
        return ExpanderGenerator(seed=seed, lanes=lanes)
