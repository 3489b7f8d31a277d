"""Validators for maximal independent sets and maximal matchings
(problem definitions: Section 5 of the paper)."""

from __future__ import annotations

from typing import Collection

import numpy as np

from repro.graphs.graph import Graph, canonical_edge
from repro.verify.colorings import VerificationError
from repro.verify.columns import arcs, first, vertex_mask


def assert_maximal_independent_set(
    g: Graph, mis: Collection[int] | np.ndarray
) -> None:
    """I is independent (no edge inside) and maximal (every outside vertex
    has a neighbor inside).  ``mis`` is a vertex collection or a boolean
    column over the vertices."""
    n = g.n
    if not isinstance(mis, np.ndarray):
        mis = set(mis)
        if mis and not (0 <= min(mis) and max(mis) < n):
            v = next(v for v in mis if not 0 <= v < n)
            raise VerificationError(f"MIS contains non-vertex {v}")
    inside = vertex_mask(n, mis)
    src, dst = arcs(g)
    hit = first(inside[src] & inside[dst])
    if hit is not None:
        raise VerificationError(
            f"MIS contains adjacent vertices {int(src[hit])}, {int(dst[hit])}"
        )
    covered = inside.copy()
    covered[src[inside[dst]]] = True
    v = first(~covered)
    if v is not None:
        raise VerificationError(
            f"vertex {v} is outside the MIS but has no MIS neighbor"
        )


def assert_maximal_matching(g: Graph, matching: Collection[tuple[int, int]]) -> None:
    """M is a matching (pairwise vertex-disjoint edges of G) and maximal
    (every edge of G intersects M)."""
    edges = [canonical_edge(u, v) for u, v in matching]
    if len(set(edges)) != len(edges):
        raise VerificationError("matching contains a repeated edge")
    matched: set[int] = set()
    for u, v in edges:
        if not g.has_edge(u, v):
            raise VerificationError(f"matching edge ({u}, {v}) is not in G")
        if u in matched or v in matched:
            raise VerificationError(
                f"matching edges intersect at ({u}, {v})"
            )
        matched.add(u)
        matched.add(v)
    for u, v in g.edges():
        if u not in matched and v not in matched:
            raise VerificationError(
                f"edge ({u}, {v}) could be added: matching is not maximal"
            )
