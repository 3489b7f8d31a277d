"""Validators for the paper's structural objects: H-partitions (Section 6.1),
forest decompositions (Section 7.1), acyclic orientations (Section 5) and
arbdefective colorings (Section 7.8)."""

from __future__ import annotations

from typing import Collection, Mapping, Sequence

import numpy as np

from repro.graphs.graph import Graph, canonical_edge
from repro.graphs.arboricity import arboricity_exact
from repro.graphs.orientation import Orientation
from repro.verify.colorings import VerificationError
from repro.verify.columns import arcs, first, value_column, vertex_mask


def assert_h_partition(
    g: Graph,
    h_index: Mapping[int, int],
    degree_bound: float,
    subset: Collection[int] | np.ndarray | None = None,
) -> None:
    """An H-partition H_1, ..., H_ell (Procedure Partition's output): every
    vertex belongs to exactly one H-set, and every vertex in H_i has at most
    ``degree_bound`` neighbors in H_i u H_{i+1} u ... (within ``subset`` --
    a vertex collection or a boolean column -- if given, else the whole
    graph)."""
    n = g.n
    checked = np.ones(n, dtype=bool) if subset is None else vertex_mask(n, subset)
    # an absent vertex reads as level 0, invalid like any level < 1
    level = value_column(n, h_index, 0)
    v = first(checked & (level < 1))
    if v is not None:
        if v not in h_index:
            raise VerificationError(f"vertex {v} was never assigned an H-set")
        raise VerificationError(f"vertex {v} has invalid H-index {h_index[v]}")
    src, dst = arcs(g)
    counts = level[dst] >= level[src]
    if subset is not None:
        counts &= checked[src] & checked[dst]
    later = np.bincount(src[counts], minlength=n)
    v = first(checked & (later > degree_bound))
    if v is not None:
        i = h_index[v]
        raise VerificationError(
            f"vertex {v} in H_{i} has {int(later[v])} neighbors in "
            f"H_{i} u H_{i+1} u ... > bound {degree_bound}"
        )


def assert_acyclic_orientation(
    o: Orientation,
    max_out_degree: int | None = None,
    max_length: int | None = None,
    require_total: bool = True,
) -> None:
    """The orientation is acyclic, with optional out-degree/length bounds."""
    if require_total and not o.is_total():
        raise VerificationError(
            f"orientation covers {o.num_oriented()} of {o.graph.m} edges"
        )
    if not o.is_acyclic():
        raise VerificationError("orientation contains a directed cycle")
    if max_out_degree is not None:
        d = o.max_out_degree()
        if d > max_out_degree:
            raise VerificationError(
                f"orientation out-degree {d} > bound {max_out_degree}"
            )
    if max_length is not None:
        ln = o.length()
        if ln > max_length:
            raise VerificationError(f"orientation length {ln} > bound {max_length}")


def assert_forest_decomposition(
    g: Graph,
    labels: Mapping[tuple[int, int], int],
    max_forests: int | None = None,
    orientation: Orientation | None = None,
) -> None:
    """The edge labelling partitions E into forests F_1, ..., F_k.

    If an orientation is supplied, additionally checks the defining local
    property: each vertex has at most one *outgoing* edge per label (each
    forest is a rooted pseudo-forest of out-edges -- Procedure
    Forest-Decomposition labels each vertex's out-edges distinctly).
    """
    for e in g.edges():
        if e not in labels:
            raise VerificationError(f"edge {e} has no forest label")
    by_label: dict[int, list[tuple[int, int]]] = {}
    for e, lab in labels.items():
        by_label.setdefault(lab, []).append(e)
    if max_forests is not None and len(by_label) > max_forests:
        raise VerificationError(
            f"decomposition uses {len(by_label)} forests, allowed {max_forests}"
        )
    for lab, edges in by_label.items():
        sub = Graph(g.n, edges)
        if not sub.is_forest():
            raise VerificationError(f"label {lab} does not induce a forest")
    if orientation is not None:
        for v in g.vertices():
            seen: set[int] = set()
            for p in orientation.parents(v):
                lab = labels[canonical_edge(v, p)]
                if lab in seen:
                    raise VerificationError(
                        f"vertex {v} has two outgoing edges labelled {lab}"
                    )
                seen.add(lab)


def assert_arbdefective_coloring(
    g: Graph,
    coloring: Mapping[int, int],
    max_arboricity: int,
    max_colors: int | None = None,
) -> None:
    """A b-arbdefective c-coloring: the subgraph induced by each color class
    has arboricity at most b (Section 7.8).  Exact arboricity check --
    intended for test-sized graphs."""
    classes: dict[int, list[int]] = {}
    for v in g.vertices():
        if v not in coloring:
            raise VerificationError(f"vertex {v} has no arbdefective color")
        classes.setdefault(coloring[v], []).append(v)
    if max_colors is not None and len(classes) > max_colors:
        raise VerificationError(
            f"arbdefective coloring uses {len(classes)} colors, allowed {max_colors}"
        )
    for c, vs in classes.items():
        sub, _ = g.subgraph(vs)
        arb = arboricity_exact(sub)
        if arb > max_arboricity:
            raise VerificationError(
                f"color class {c} induces arboricity {arb} > bound {max_arboricity}"
            )


def assert_partition_covers(
    n: int, parts: Sequence[Sequence[int]], what: str = "partition"
) -> None:
    """The parts are disjoint and cover 0..n-1."""
    seen: set[int] = set()
    total = 0
    for part in parts:
        for v in part:
            if v in seen:
                raise VerificationError(f"{what}: vertex {v} appears twice")
            seen.add(v)
        total += len(part)
    if total != n or len(seen) != n:
        raise VerificationError(f"{what}: covers {len(seen)} of {n} vertices")
