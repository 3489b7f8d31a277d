"""Validators for vertex colorings, edge colorings, list colorings and
defective colorings (problem definitions: Section 5 of the paper)."""

from __future__ import annotations

from typing import Hashable, Mapping

import numpy as np

from repro.graphs.graph import Graph, canonical_edge
from repro.runtime.bulk import ColumnMap
from repro.verify.columns import arcs, color_codes, distinct, first


class VerificationError(AssertionError):
    """A solution violates its specification; the message carries a witness."""


def _require_total(
    g: Graph, coloring: Mapping[int, Hashable], what: str
) -> np.ndarray:
    """Integer codes of the colors of ``0..n-1`` (equal colors, equal
    codes), or raise naming the uncolored."""
    codes, colored = color_codes(g.n, coloring)
    if not colored.all():
        missing = np.flatnonzero(~colored)[:10].tolist()
        raise VerificationError(f"{what}: vertices without a color: {missing}")
    return codes


def assert_proper_coloring(
    g: Graph,
    coloring: Mapping[int, Hashable],
    max_colors: int | None = None,
) -> None:
    """Every vertex colored; no edge monochromatic; optionally at most
    ``max_colors`` distinct colors used."""
    codes = _require_total(g, coloring, "proper coloring")
    src, dst = arcs(g)
    hit = first(codes[src] == codes[dst])
    if hit is not None:
        u, v = int(src[hit]), int(dst[hit])
        raise VerificationError(
            f"edge ({u}, {v}) is monochromatic with color {coloring[u]!r}"
        )
    if max_colors is not None and (used := distinct(codes)) > max_colors:
        raise VerificationError(
            f"coloring uses {used} colors, allowed at most {max_colors}"
        )


def assert_list_coloring(
    g: Graph,
    coloring: Mapping[int, Hashable],
    lists: Mapping[int, set],
) -> None:
    """A proper coloring where each vertex's color comes from its list."""
    assert_proper_coloring(g, coloring)
    for v in g.vertices():
        if coloring[v] not in lists[v]:
            raise VerificationError(
                f"vertex {v} colored {coloring[v]!r}, not in its list"
            )


def assert_proper_edge_coloring(
    g: Graph,
    coloring: Mapping[tuple[int, int], Hashable],
    max_colors: int | None = None,
) -> None:
    """Every edge colored; edges sharing an endpoint get distinct colors."""
    for e in g.edges():
        if e not in coloring or coloring[e] is None:
            raise VerificationError(f"edge {e} has no color")
    for v in g.vertices():
        seen: dict[Hashable, tuple[int, int]] = {}
        for u in g.neighbors(v):
            e = canonical_edge(u, v)
            c = coloring[e]
            if c in seen:
                raise VerificationError(
                    f"edges {seen[c]} and {e} share endpoint {v} and color {c!r}"
                )
            seen[c] = e
    if max_colors is not None:
        used = len(set(coloring[e] for e in g.edges()))
        if used > max_colors:
            raise VerificationError(
                f"edge coloring uses {used} colors, allowed at most {max_colors}"
            )


def defect_of(g: Graph, coloring: Mapping[int, Hashable], v: int) -> int:
    """The defect of v: number of neighbors sharing v's color."""
    offsets, indices = g.csr(dtype="auto")
    c = coloring[v]
    row = indices[offsets[v] : offsets[v + 1]].tolist()
    return sum(1 for u in row if coloring[u] == c)


def assert_defective_coloring(
    g: Graph,
    coloring: Mapping[int, Hashable],
    max_defect: int,
    max_colors: int | None = None,
) -> None:
    """A d-defective coloring: every vertex has at most ``max_defect``
    same-colored neighbors (Section 7.8)."""
    codes = _require_total(g, coloring, "defective coloring")
    src, dst = arcs(g)
    defect = np.bincount(src[codes[src] == codes[dst]], minlength=g.n)
    v = first(defect > max_defect)
    if v is not None:
        raise VerificationError(
            f"vertex {v} has defect {int(defect[v])} > allowed {max_defect}"
        )
    if max_colors is not None and (used := distinct(codes)) > max_colors:
        raise VerificationError(
            f"defective coloring uses {used} colors, allowed {max_colors}"
        )


def color_count(coloring: Mapping[Hashable, Hashable]) -> int:
    """The number of distinct colors used (read off the column of an
    integer :class:`~repro.runtime.bulk.ColumnMap`)."""
    if isinstance(coloring, ColumnMap) and coloring.column.dtype.kind in "biu":
        return distinct(coloring.values_array())
    return len(set(coloring.values()))
