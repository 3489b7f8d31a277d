"""Columnar building blocks shared by the validators.

Every validator reads the graph through its cached CSR view
(``g.csr(dtype="auto")``) and the solution through columns over the
vertices: :func:`key_mask` (which vertices the result mapping has) and
:func:`value_column` (each vertex's value, a fill where it has none).
Both are zero-copy for the :class:`~repro.runtime.bulk.ColumnMap` views
the bulk kernels return and one pass over a dict, so no validator
branches on the result type, and validating a ``Graph.from_csr`` input
never materialises the Python object layer (tuples, frozensets, the edge
list) that ``g.edges()`` / ``g.neighbors()`` would build.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Collection, Hashable, Iterable, Mapping

import numpy as np

from repro.runtime.bulk import ColumnMap


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


def vertex_mask(n: int, vertices: Collection[int] | np.ndarray) -> np.ndarray:
    """A boolean column over ``0..n-1`` marking ``vertices``; members
    outside the vertex range are ignored, and a boolean column over
    ``0..n-1`` passes through unchanged."""
    if isinstance(vertices, np.ndarray) and vertices.dtype == bool:
        if vertices.shape != (n,):
            raise ValueError(f"vertex mask has shape {vertices.shape}, want ({n},)")
        return vertices
    ix = np.fromiter(vertices, dtype=np.int64, count=len(vertices))
    out = np.zeros(n, dtype=bool)
    out[ix[(ix >= 0) & (ix < n)]] = True
    return out


def _view(n: int, m: Mapping) -> ColumnMap | None:
    return m if isinstance(m, ColumnMap) and m.column.shape[0] == n else None


def key_mask(n: int, m: Mapping[int, Any]) -> np.ndarray:
    """A boolean column over ``0..n-1`` marking the keys of ``m``."""
    view = _view(n, m)
    return view.mask if view is not None else vertex_mask(n, m.keys())


def value_column(n: int, m: Mapping[int, Any], fill: Any) -> np.ndarray:
    """``m.get(v, fill)`` for ``v`` in ``0..n-1`` as a column."""
    view = _view(n, m)
    if view is None:
        return np.array(list(map(m.get, range(n), repeat(fill))))
    return view.column if view.full else np.where(view.mask, view.column, fill)


def color_codes(n: int, coloring: Mapping[int, Hashable]) -> tuple[np.ndarray, np.ndarray]:
    """``(codes, colored)`` over ``0..n-1``: integer codes of the colors
    (equal colors, equal codes) and the vertices with a color that is
    not ``None``.  An integer color column is its own codes; other
    colors are factorized in one dict pass."""
    view = _view(n, coloring)
    if view is not None and view.column.dtype.kind in "biu":
        return view.column, view.mask
    colors = list(map(coloring.get, range(n)))
    codes, _ = factorize(colors)
    colored = np.fromiter((c is not None for c in colors), dtype=bool, count=n)
    return codes, colored


def distinct(col: np.ndarray) -> int:
    """The number of distinct values in an integer column: a bincount
    when they are small and non-negative, a sort otherwise."""
    if not col.size:
        return 0
    if int(col.min()) >= 0 and int(col.max()) <= 2 * col.size:
        return int(np.count_nonzero(np.bincount(col)))
    s = np.sort(col)
    return 1 + int(np.count_nonzero(s[1:] != s[:-1]))


def factorize(values: Iterable[Hashable]) -> tuple[np.ndarray, int]:
    """Integer codes for hashable values (equal values, equal codes) and
    the number of distinct values, in one dict pass."""
    index: dict[Hashable, int] = {}
    codes = [index.setdefault(c, len(index)) for c in values]
    return np.array(codes, dtype=np.int64), len(index)
