"""Worst-case-scheduled arboricity colorings: the [8] comparison rows.

The prior algorithms (Barenboim-Elkin [8]) run Procedure
Forest-Decomposition to completion -- Theta(log n) rounds for *every*
vertex -- before any coloring happens.  These baselines reproduce that
schedule exactly (using the same primitives as the averaged algorithms, so
the comparison isolates the scheduling discipline):

* :func:`run_arb_linial_worstcase` -- forest decomposition, then iterated
  Arb-Linial to the O(a^2) fixpoint: O(a^2) colors in
  Theta(log n + log* n) rounds, average == worst.  (Table 1's
  "O(log n) (Det.) [8]" column for the O(a^2)-flavoured rows.)
* :func:`run_arb_color_worstcase` -- Procedure Arb-Color: forest
  decomposition, then the "wait for your parents" recoloring wave over the
  whole H-partition: O(a) colors in Theta(log n) + wave rounds, matching
  the O(a log n) [8] column of the O(a)-flavoured rows.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.arb_linial import arb_linial_steps, priority_wave
from repro.core.coloring import ColoringResult
from repro.core.common import JOIN, LocalView, degree_bound, partition_length_bound
from repro.core.coverfree import palette_schedule
from repro.core.partition import join_h_set
from repro.graphs.graph import Graph
from repro.runtime.context import Context
from repro.runtime.network import SyncNetwork


def _worstcase_preamble(ctx: Context, view: LocalView, A: int, ell: int):
    """Join an H-set, then idle until the global partition bound has
    elapsed (the [8] schedule: the decomposition is a barrier)."""
    h = yield from join_h_set(ctx, view, A)
    while ctx.round < ell + 1:
        yield
        view.absorb(ctx)
    joined = dict(view.get(JOIN))
    my_id = ctx.id
    nid = ctx.neighbor_ids
    parents = [
        u
        for u in ctx.neighbors
        if joined.get(u, ell + 1) > h
        or (joined.get(u) == h and nid[u] > my_id)
    ]
    return h, parents


def run_arb_linial_worstcase(
    graph: Graph,
    a: int,
    eps: float = 1.0,
    ids: Sequence[int] | None = None,
    seed: int = 0,
) -> ColoringResult:
    """O(a^2)-coloring on the worst-case schedule (avg == worst ==
    Theta(log n))."""
    A = degree_bound(a, eps)
    ell = partition_length_bound(graph.n, eps)

    def program(ctx: Context):
        schedule = ctx.config["schedule"]
        view = LocalView()
        h, parents = yield from _worstcase_preamble(ctx, view, A, ell)
        color = yield from arb_linial_steps(ctx, view, parents, schedule, tag="wl")
        return (h, color)

    net = SyncNetwork(graph, ids=ids, seed=seed, config={"a": a, "eps": eps})
    schedule = palette_schedule(net.config["id_space"], A)
    net.config["schedule"] = schedule
    fixpoint = schedule[-1].ground_size if schedule else net.config["id_space"]
    res = net.run(program, max_rounds=ell + 4 * len(schedule) + 64)
    return ColoringResult(
        colors={v: c for v, (h, c) in res.outputs.items()},
        h_index={v: h for v, (h, c) in res.outputs.items()},
        metrics=res.metrics,
        palette_bound=fixpoint,
    )


def run_arb_color_worstcase(
    graph: Graph,
    a: int,
    eps: float = 1.0,
    ids: Sequence[int] | None = None,
    seed: int = 0,
) -> ColoringResult:
    """Procedure Arb-Color's shape ([8] Theorem 5.15): O(a) colors via the
    recoloring wave over the complete H-partition, on the worst-case
    schedule.  The wave runs backward from H_ell, so a vertex's rounds are
    Theta(log n) + its wave depth: the O(a log n) comparison column."""
    A = degree_bound(a, eps)
    ell = partition_length_bound(graph.n, eps)

    def program(ctx: Context):
        view = LocalView()
        h, parents = yield from _worstcase_preamble(ctx, view, A, ell)

        def choose(pred: dict[int, int]) -> int:
            used = set(pred.values())
            for col in range(A + 1):
                if col not in used:
                    return col
            raise AssertionError("palette {0..A} exhausted")

        color = yield from priority_wave(ctx, view, parents, "wc", choose)
        return (h, color)

    net = SyncNetwork(graph, ids=ids, seed=seed, config={"a": a, "eps": eps})
    res = net.run(program, max_rounds=ell * (A + 3) + graph.n + 64)
    return ColoringResult(
        colors={v: c for v, (h, c) in res.outputs.items()},
        h_index={v: h for v, (h, c) in res.outputs.items()},
        metrics=res.metrics,
        palette_bound=A + 1,
    )
