"""Loop-form reference validators: the oracle the columnar validators in
``repro.verify`` and ``repro.zoo.checks`` are tested against.

Each function is the plain per-vertex / per-edge definition walking
``g.edges()`` and ``g.neighbors()``, with the same ``VerificationError``
messages as its library twin.  Vertex sets are walked in ascending order,
so the first witness is the lowest offending vertex (or the lowest
canonical edge, ``g.edges()`` being sorted).
"""

from __future__ import annotations

from typing import Collection, Hashable, Mapping

from repro.graphs.graph import Graph
from repro.verify import VerificationError


def _require_total(g: Graph, coloring: Mapping[int, Hashable], what: str) -> None:
    missing = [v for v in g.vertices() if v not in coloring or coloring[v] is None]
    if missing:
        raise VerificationError(f"{what}: vertices without a color: {missing[:10]}")


def assert_proper_coloring(
    g: Graph, coloring: Mapping[int, Hashable], max_colors: int | None = None
) -> None:
    _require_total(g, coloring, "proper coloring")
    for u, v in g.edges():
        if coloring[u] == coloring[v]:
            raise VerificationError(
                f"edge ({u}, {v}) is monochromatic with color {coloring[u]!r}"
            )
    if max_colors is not None:
        used = len(set(coloring[v] for v in g.vertices()))
        if used > max_colors:
            raise VerificationError(
                f"coloring uses {used} colors, allowed at most {max_colors}"
            )


def assert_defective_coloring(
    g: Graph,
    coloring: Mapping[int, Hashable],
    max_defect: int,
    max_colors: int | None = None,
) -> None:
    _require_total(g, coloring, "defective coloring")
    for v in g.vertices():
        c = coloring[v]
        d = sum(1 for u in g.neighbors(v) if coloring[u] == c)
        if d > max_defect:
            raise VerificationError(
                f"vertex {v} has defect {d} > allowed {max_defect}"
            )
    if max_colors is not None:
        used = len(set(coloring[v] for v in g.vertices()))
        if used > max_colors:
            raise VerificationError(
                f"defective coloring uses {used} colors, allowed {max_colors}"
            )


def assert_maximal_independent_set(g: Graph, mis: Collection[int]) -> None:
    s = set(mis)
    for v in s:
        if not 0 <= v < g.n:
            raise VerificationError(f"MIS contains non-vertex {v}")
    for u, v in g.edges():
        if u in s and v in s:
            raise VerificationError(f"MIS contains adjacent vertices {u}, {v}")
    for v in g.vertices():
        if v in s:
            continue
        if not any(u in s for u in g.neighbors(v)):
            raise VerificationError(
                f"vertex {v} is outside the MIS but has no MIS neighbor"
            )


def assert_h_partition(
    g: Graph,
    h_index: Mapping[int, int],
    degree_bound: float,
    subset: set[int] | None = None,
) -> None:
    vertices = sorted(subset) if subset is not None else list(g.vertices())
    members = set(vertices)
    for v in vertices:
        if v not in h_index:
            raise VerificationError(f"vertex {v} was never assigned an H-set")
        if h_index[v] < 1:
            raise VerificationError(f"vertex {v} has invalid H-index {h_index[v]}")
    for v in vertices:
        i = h_index[v]
        later = sum(
            1 for u in g.neighbors(v) if u in members and h_index[u] >= i
        )
        if later > degree_bound:
            raise VerificationError(
                f"vertex {v} in H_{i} has {later} neighbors in "
                f"H_{i} u H_{i+1} u ... > bound {degree_bound}"
            )


def check_vertex_coloring(g: Graph, res, alive: set[int]) -> None:
    colors = res.colors
    for v in sorted(alive):
        if v not in colors:
            raise VerificationError(
                f"surviving vertex {v} terminated without a color"
            )
    for u, v in g.edges():
        if u in alive and v in alive and colors[u] == colors[v]:
            raise VerificationError(
                f"surviving neighbors {u} and {v} share color {colors[u]!r}"
            )


def check_partition(g: Graph, res, alive: set[int]) -> None:
    for v in sorted(alive):
        if v not in res.h_index:
            raise VerificationError(
                f"surviving vertex {v} terminated without an H-index"
            )
    assert_h_partition(g, res.h_index, res.A, subset=alive)


def check_mis(g: Graph, res, alive: set[int]) -> None:
    mis = res.mis
    for v in sorted(alive):
        if v not in res.in_mis:
            raise VerificationError(
                f"surviving vertex {v} terminated without an MIS decision"
            )
    for u, v in g.edges():
        if u in alive and v in alive and u in mis and v in mis:
            raise VerificationError(
                f"surviving MIS vertices {u} and {v} are adjacent"
            )
