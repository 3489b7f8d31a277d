"""Forest decompositions (Sections 6.1 and 7.1).

Procedure Forest-Decomposition ([8]; the worst-case baseline) partitions the
vertices with Procedure Partition, orients every edge towards the endpoint
in the higher H-set (ties broken towards the higher ID), and has every
vertex label its outgoing edges distinctly from {1, ..., d_out}; the edges
with label l form the directed forest F_l.  Worst case: Theta(log n) rounds
for *everyone*.

Procedure Parallelized-Forest-Decomposition (Section 7.1, Theorem 7.1)
performs the orientation and labelling *immediately upon formation of each
H-set*, so a vertex terminates right after joining: vertex-averaged
complexity O(1).

Faithfulness note: a vertex cannot distinguish same-round joiners from
later joiners at its joining round, so it finalises its labels one round
after joining (r(v) = i + 1 instead of i).  This costs a constant factor
and preserves every bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Sequence

from repro.core.common import JOIN, LocalView, degree_bound, partition_length_bound
from repro.core.partition import join_h_set
from repro.graphs.graph import Graph, canonical_edge
from repro.graphs.orientation import Orientation
from repro.runtime.context import Context
from repro.runtime.metrics import RoundMetrics
from repro.runtime.network import SyncNetwork


@dataclass(frozen=True)
class VertexForestInfo:
    """A vertex's local share of the forest decomposition."""

    h: int
    parents: tuple[int, ...]
    labels: dict[int, int]  # parent -> label in 1..len(parents)


@dataclass(frozen=True)
class ForestDecomposition:
    """A distributed O(a)-forests-decomposition."""

    graph: Graph
    h_index: dict[int, int]
    info: dict[int, VertexForestInfo]
    A: int
    metrics: RoundMetrics

    @property
    def num_forests(self) -> int:
        return max(
            (max(i.labels.values()) for i in self.info.values() if i.labels),
            default=0,
        )

    def edge_labels(self) -> dict[tuple[int, int], int]:
        """Forest label per edge (assigned by the edge's tail)."""
        out: dict[tuple[int, int], int] = {}
        for v, inf in self.info.items():
            for p, lab in inf.labels.items():
                out[canonical_edge(v, p)] = lab
        return out

    def orientation(self) -> Orientation:
        o = Orientation(self.graph)
        for v, inf in self.info.items():
            for p in inf.parents:
                o.orient(v, p, p)
        return o


def forest_info_step(
    ctx: Context, view: LocalView, h: int
) -> Generator[None, None, VertexForestInfo]:
    """After joining H_h (announcement in flight), wait one round to learn
    same-round joiners, then orient and label.  Parents: neighbors in
    strictly later sets (== still unannounced) and same-set neighbors of
    higher ID."""
    yield
    view.absorb(ctx)
    joined = view.get(JOIN)
    my_id = ctx.id
    nid = ctx.neighbor_ids
    parents = []
    for u in ctx.neighbors:
        hu = joined.get(u)
        if hu is None or hu > h or (hu == h and nid[u] > my_id):
            parents.append(u)
    parents.sort(key=nid.__getitem__)
    labels = {u: i + 1 for i, u in enumerate(parents)}
    return VertexForestInfo(h=h, parents=tuple(parents), labels=labels)


def run_parallelized_forest_decomposition(
    graph: Graph,
    a: int,
    eps: float = 1.0,
    ids: Sequence[int] | None = None,
    seed: int = 0,
) -> ForestDecomposition:
    """Procedure Parallelized-Forest-Decomposition (Theorem 7.1):
    O(a)-forests-decomposition with O(1) vertex-averaged complexity."""
    A = degree_bound(a, eps)

    def program(ctx: Context):
        view = LocalView()
        h = yield from join_h_set(ctx, view, A)
        info = yield from forest_info_step(ctx, view, h)
        return info

    net = SyncNetwork(graph, ids=ids, seed=seed, config={"a": a, "eps": eps, "A": A})
    res = net.run(program, max_rounds=partition_length_bound(graph.n, eps) + 8)
    info = dict(res.outputs)
    return ForestDecomposition(
        graph=graph,
        h_index={v: inf.h for v, inf in info.items()},
        info=info,
        A=A,
        metrics=res.metrics,
    )


def run_worstcase_forest_decomposition(
    graph: Graph,
    a: int,
    eps: float = 1.0,
    ids: Sequence[int] | None = None,
    seed: int = 0,
) -> ForestDecomposition:
    """Procedure Forest-Decomposition with the original [8] schedule: the
    orientation/labelling step runs only after the *entire* partition has
    finished (after the worst-case ell = O(log n) iteration bound), so every
    vertex pays Theta(log n) rounds.  This is the baseline shape that
    Theorem 7.1 improves on; the produced decomposition is identical."""
    A = degree_bound(a, eps)
    ell = partition_length_bound(graph.n, eps)

    def program(ctx: Context):
        view = LocalView()
        h = yield from join_h_set(ctx, view, A)
        # Idle until the global partition bound has elapsed, as in the
        # non-parallelized procedure (everyone orients together).
        while ctx.round < ell + 1:
            yield
            view.absorb(ctx)
        joined = view.get(JOIN)
        my_id = ctx.id
        nid = ctx.neighbor_ids
        parents = []
        for u in ctx.neighbors:
            hu = joined.get(u)
            if hu is None or hu > h or (hu == h and nid[u] > my_id):
                parents.append(u)
        parents.sort(key=nid.__getitem__)
        labels = {u: i + 1 for i, u in enumerate(parents)}
        return VertexForestInfo(h=h, parents=tuple(parents), labels=labels)

    net = SyncNetwork(graph, ids=ids, seed=seed, config={"a": a, "eps": eps, "A": A})
    res = net.run(program, max_rounds=ell + 8)
    info = dict(res.outputs)
    return ForestDecomposition(
        graph=graph,
        h_index={v: inf.h for v, inf in info.items()},
        info=info,
        A=A,
        metrics=res.metrics,
    )
