"""One counter-based random source for every engine.

Every random decision in the simulator -- a vertex's private draws
(``ctx.rng``), crash hazards, message fates and async link delays -- is
a pure function of a key, never the state of a shared generator:

    hash64(seed, stream, w1, ..., wk)  ->  uint64
    u01(seed, stream, w1, ..., wk)     ->  float in [0, 1)

in the style of Salmon et al., *Parallel Random Numbers: As Easy as 1,
2, 3* (SC'11).  The hash folds the splitmix64 finaliser once per word:
``h <- fmix64((h ^ w) + GOLDEN)``, starting from ``h = 0``, with every
word taken modulo 2^64 (two's complement, so negative words are fine).
``u01`` keeps the top 53 bits: ``(h >> 11) * 2^-53``.

There are two forms with bit-identical results: the scalar one over
Python ints (:func:`hash64`, :func:`u01`) drives the generator engines,
and the numpy one over ``uint64`` arrays (:func:`hash64_many`,
:func:`u01_many`; words broadcast against each other) drives the
columnar kernels and the asynchronous timing pass.  Because every
engine calls the same function, the fast, reference and bulk engines
see the same draws by construction, in whatever order they evaluate
them.

The ``stream`` word separates the users: :data:`VERTEX` (per-vertex
program draws, words ``(id, k)`` for the k-th draw, k from 0),
:data:`CRASH` (``(round, v)``), :data:`MESSAGE` (``(round, src, dst,
copy, slot)``), :data:`DELAY` (``(src, dst, round)``) and :data:`INPUT`
(``(v,)``, seeded problem inputs such as consensus bits).
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = [
    "CRASH",
    "DELAY",
    "INPUT",
    "MESSAGE",
    "VERTEX",
    "VertexRng",
    "fold",
    "fold_many",
    "hash64",
    "hash64_many",
    "to_u01",
    "to_u01_many",
    "u01",
    "u01_many",
]

#: stream words: one per kind of draw
VERTEX = 1
CRASH = 2
MESSAGE = 3
DELAY = 4
INPUT = 5

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_INV53 = 1.0 / (1 << 53)

_U_GOLDEN = np.uint64(_GOLDEN)
_U_M1 = np.uint64(_M1)
_U_M2 = np.uint64(_M2)
_U30, _U27, _U31, _U11 = (np.uint64(s) for s in (30, 27, 31, 11))


def fold(h: int, *words: int) -> int:
    """Continue the hash from state ``h`` by folding ``words``.

    ``fold(fold(0, a), b) == fold(0, a, b)``, so a caller that draws many
    values under one prefix (one vertex, one round) folds it once.
    """
    for w in words:
        if type(w) is not int:
            w = int(w)
        # (h ^ w) + GOLDEN taken mod 2^64 equals the same with w mod 2^64
        z = (h ^ w) + _GOLDEN & _MASK
        z = (z ^ (z >> 30)) * _M1 & _MASK
        z = (z ^ (z >> 27)) * _M2 & _MASK
        h = z ^ (z >> 31)
    return h


def hash64(seed: int, stream: int, *words: int) -> int:
    """The keyed 64-bit hash of ``(seed, stream, *words)``."""
    return fold(0, seed, stream, *words)


def to_u01(h: int) -> float:
    """The top 53 bits of a hash as a float in [0, 1)."""
    return (h >> 11) * _INV53


def u01(seed: int, stream: int, *words: int) -> float:
    """A uniform float in [0, 1) keyed by ``(seed, stream, *words)``."""
    return (fold(0, seed, stream, *words) >> 11) * _INV53


def _as_u64(w: Any) -> np.ndarray:
    """A word (int or integer array) as uint64, modulo 2^64."""
    if isinstance(w, np.ndarray):
        if w.dtype == np.uint64:
            return w
        if w.dtype.kind == "i":
            return w.astype(np.int64, copy=False).view(np.uint64)
        if w.dtype.kind in "ub":
            return w.astype(np.uint64)
        raise TypeError(f"words must be integers, got dtype {w.dtype}")
    return np.uint64(int(w) & _MASK)


def _fold_many(h: np.ndarray, w: np.ndarray) -> np.ndarray:
    z = (h ^ w) + _U_GOLDEN
    z = (z ^ (z >> _U30)) * _U_M1
    z = (z ^ (z >> _U27)) * _U_M2
    return z ^ (z >> _U31)


def hash64_many(seed: int, stream: int, *words: Any) -> np.ndarray:
    """Vectorised :func:`hash64`: words are ints or integer arrays,
    broadcast against each other; the result is a ``uint64`` array."""
    words = (seed, stream) + words
    i = 0
    # fold the leading scalar words once, in Python ints
    while i < len(words) and not isinstance(words[i], np.ndarray):
        i += 1
    return fold_many(np.atleast_1d(np.uint64(fold(0, *words[:i]))), *words[i:])


def fold_many(h: np.ndarray, *words: Any) -> np.ndarray:
    """Vectorised :func:`fold`: continue the ``uint64`` hash states
    ``h`` by folding ``words`` (ints or integer arrays, broadcast)."""
    for w in words:
        h = _fold_many(h, _as_u64(w))
    return h


def to_u01_many(h: np.ndarray) -> np.ndarray:
    """Vectorised :func:`to_u01` (``float64`` array, bit-identical)."""
    return (h >> _U11).astype(np.float64) * _INV53


def u01_many(seed: int, stream: int, *words: Any) -> np.ndarray:
    """Vectorised :func:`u01` (``float64`` array, bit-identical)."""
    return to_u01_many(hash64_many(seed, stream, *words))


class VertexRng:
    """One vertex's private random source, ``ctx.rng``.

    Keyed once by ``(seed, id)``; its k-th :meth:`random` (k from 0) is
    ``u01(seed, VERTEX, id, k)``, so the columnar kernels reproduce any
    draw without replaying the stream.  Programs use only
    :meth:`random` and :meth:`randrange`.
    """

    __slots__ = ("_key", "_k")

    def __init__(self, seed: int, vid: int) -> None:
        self._key = fold(0, seed, VERTEX, vid)
        self._k = 0

    def random(self) -> float:
        k = self._k
        self._k = k + 1
        return (fold(self._key, k) >> 11) * _INV53

    def randrange(self, m: int) -> int:
        """A uniform integer in ``[0, m)`` from one :meth:`random` draw."""
        if m < 1:
            raise ValueError(f"randrange needs m >= 1, got {m}")
        return int(self.random() * m)
