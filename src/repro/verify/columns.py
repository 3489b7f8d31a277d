"""Columnar building blocks shared by the validators.

Every validator reads the graph through its cached CSR view
(``g.csr(dtype="auto")``) and the solution through integer columns built
from the result mapping in one pass, so validating a ``Graph.from_csr``
input never materialises the Python object layer (tuples, frozensets,
the edge list) that ``g.edges()`` / ``g.neighbors()`` would build.
"""

from __future__ import annotations

from typing import Collection, Hashable, Iterable

import numpy as np


def arcs(g) -> tuple[np.ndarray, np.ndarray]:
    """Both orientations of every edge as ``(src, dst)`` columns, in CSR
    order: rows ascending, each row's neighbors ascending.

    For a predicate symmetric in the two endpoints, the first flagged
    arc is ``(u, v)`` with ``u < v`` and is the lowest canonical edge
    of ``g.edges()`` order: the lower endpoint's row comes first.
    """
    offsets, indices = g.csr(dtype="auto")
    src = np.repeat(np.arange(g.n, dtype=indices.dtype), np.diff(offsets))
    return src, indices


def first(flags: np.ndarray) -> int | None:
    """The lowest index where ``flags`` is set, or ``None``."""
    if not flags.size:
        return None
    i = int(np.argmax(flags))
    return i if flags[i] else None


def vertex_mask(n: int, vertices: Collection[int]) -> np.ndarray:
    """A boolean column over ``0..n-1`` marking ``vertices``; members
    outside the vertex range are ignored."""
    ix = np.fromiter(vertices, dtype=np.int64, count=len(vertices))
    out = np.zeros(n, dtype=bool)
    out[ix[(ix >= 0) & (ix < n)]] = True
    return out


def factorize(values: Iterable[Hashable]) -> tuple[np.ndarray, int]:
    """Integer codes for hashable values (equal values, equal codes) and
    the number of distinct values, in one dict pass."""
    index: dict[Hashable, int] = {}
    codes = [index.setdefault(c, len(index)) for c in values]
    return np.array(codes, dtype=np.int64), len(index)
