"""The extension-from-any-partial-solution framework (Section 8).

Theorem 8.2 converts a worst-case f(Delta, n) algorithm for any problem
whose partial solutions extend (vertex coloring, MIS, edge coloring,
maximal matching) into a vertex-averaged O(f(a, n)) algorithm: run
Procedure Partition; as each H-set H_i forms, solve the problem on G(H_i)
(algorithm A) extending the solution already fixed on H_1 u ... u H_{i-1},
handling cross edges with algorithm B where the problem labels edges.
Within an H-set the maximum degree is at most A = (2+eps)a, so the
worst-case subroutine runs with a in place of Delta.

This module implements the framework for the two vertex problems:

* :func:`run_delta_plus_one_coloring` -- Corollary 8.3, (Delta+1) colors.
* :func:`run_mis` -- Corollary 8.4, maximal independent set.

(The edge problems -- Corollaries 8.6 and 8.8 -- live in
:mod:`repro.core.edgealgo`, which builds the shared edge-decision wave.)

Both use the substituted (deg+1)-list-coloring of DESIGN.md #1 (Linial
reduction + greedy pick-wave) as algorithm A, and run event-driven: a
vertex commits its output as soon as every neighbor that precedes it in
the global acyclic priority (H-index, within-set Linial color) has
committed -- never later than the paper's blocked schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

from repro.core.arb_linial import arb_linial_steps, greedy_from_list, _step_tag
from repro.core.coloring import ColoringResult
from repro.core.common import JOIN, LocalView, degree_bound, partition_length_bound
from repro.core.coverfree import palette_schedule
from repro.core.partition import join_h_set
from repro.graphs.graph import Graph
from repro.runtime.bulk import ColumnMap
from repro.runtime.context import Context
from repro.runtime.metrics import RoundMetrics, TimeMetrics
from repro.runtime.network import SyncNetwork


def _preamble(
    ctx: Context,
    view: LocalView,
    A: int,
    ell: int,
    schedule,
    worstcase_schedule: bool = False,
):
    """Shared opening of every extension algorithm: join an H-set, learn
    the same-set membership, run the within-set Linial reduction to a temp
    color, exchange temps, and classify the neighborhood.

    With ``worstcase_schedule`` the vertex idles until the full partition
    bound has elapsed first -- the prior work's schedule, for baselines.

    Returns (h, temp, same_smaller, same_larger, earlier, later) where
    ``earlier``/``later`` are neighbors in strictly earlier/later H-sets
    and same_* splits the same-set neighbors by temp color.
    """
    h = yield from join_h_set(ctx, view, A)
    if worstcase_schedule:
        while ctx.round < ell + 1:
            yield
            view.absorb(ctx)
    yield
    view.absorb(ctx)
    same = [u for u in ctx.neighbors if view.value(JOIN, u) == h]
    temp = yield from arb_linial_steps(ctx, view, same, schedule, tag="x")
    last = _step_tag("x", len(schedule))
    ctx.broadcast((last, temp))
    temps = yield from view.wait_for(ctx, last, same)
    same_smaller = [u for u in same if temps[u] < temp]
    same_larger = [u for u in same if temps[u] > temp]
    # Earlier-set neighbors are fully known (they announced before we
    # joined); everything not announced with index <= h is later.
    joined = view.get(JOIN)
    earlier = [u for u in ctx.neighbors if joined.get(u, h + 1) < h]
    later = [
        u for u in ctx.neighbors if u not in set(same) and joined.get(u, h + 1) > h
    ]
    return h, temp, same_smaller, same_larger, earlier, later


# ---------------------------------------------------------------------------
# Corollary 8.3: (Delta + 1)-vertex-coloring
# ---------------------------------------------------------------------------


def run_delta_plus_one_coloring(
    graph: Graph,
    a: int,
    eps: float = 1.0,
    ids: Sequence[int] | None = None,
    seed: int = 0,
    worstcase_schedule: bool = False,
) -> ColoringResult:
    """Corollary 8.3: color with the global palette {0 .. Delta}.

    Algorithm A is (deg+1)-list-coloring of G(H_i) where each vertex's list
    is {0..Delta} minus the final colors of its already-colored neighbors
    in earlier sets; the greedy pick happens in global priority order
    (H-index, within-set temp color), so at most deg(v) colors are ever
    forbidden and the palette always suffices.
    """
    A = degree_bound(a, eps)
    ell = partition_length_bound(graph.n, eps)
    delta = graph.max_degree()
    PICK = "dp:p"

    def program(ctx: Context):
        schedule = ctx.config["schedule"]
        view = LocalView()
        h, temp, smaller, _larger, earlier, _later = yield from _preamble(
            ctx, view, A, ell, schedule, worstcase_schedule
        )
        preds = smaller + earlier
        picks = yield from view.wait_for(ctx, PICK, preds)
        forbidden = {picks[u] for u in preds}
        color = greedy_from_list(range(delta + 1), forbidden)
        ctx.broadcast((PICK, color))
        return (h, color)

    net = SyncNetwork(graph, ids=ids, seed=seed, config={"a": a, "eps": eps})
    schedule = palette_schedule(net.config["id_space"], A)
    net.config["schedule"] = schedule
    fixpoint = schedule[-1].ground_size if schedule else net.config["id_space"]
    budget = (ell + 2) * (len(schedule) + fixpoint + 4) + 64
    res = net.run(program, max_rounds=budget)
    return ColoringResult(
        colors={v: c for v, (h, c) in res.outputs.items()},
        h_index={v: h for v, (h, c) in res.outputs.items()},
        metrics=res.metrics,
        palette_bound=delta + 1,
    )


# ---------------------------------------------------------------------------
# Corollary 8.4: maximal independent set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MISResult:
    """A maximal independent set with its round accounting."""

    #: vertex -> joined?; ColumnMap views on the bulk engine
    in_mis: Mapping[int, bool]
    h_index: Mapping[int, int]
    metrics: RoundMetrics
    #: virtual-time accounting; only asynchronous-mode runs fill this in
    times: "TimeMetrics | None" = None

    @property
    def mis(self) -> set[int]:
        m = self.in_mis
        if isinstance(m, ColumnMap):
            return set(m.keys_array()[m.values_array().astype(bool)].tolist())
        return {v for v, flag in m.items() if flag}


def run_mis(
    graph: Graph,
    a: int,
    eps: float = 1.0,
    ids: Sequence[int] | None = None,
    seed: int = 0,
    worstcase_schedule: bool = False,
) -> MISResult:
    """Corollary 8.4: greedy MIS along the global acyclic priority
    (H-index, within-set temp color): a vertex joins the MIS iff none of
    its predecessors did.  This realises the paper's reduction from MIS to
    (Delta+1)-coloring-within-the-H-set with color-class sweeps, in the
    event-driven form: a color class *is* a priority level."""
    A = degree_bound(a, eps)
    ell = partition_length_bound(graph.n, eps)
    DECIDE = "mis:d"

    def program(ctx: Context):
        schedule = ctx.config["schedule"]
        view = LocalView()
        h, temp, smaller, _larger, earlier, _later = yield from _preamble(
            ctx, view, A, ell, schedule, worstcase_schedule
        )
        preds = smaller + earlier
        decided = yield from view.wait_for(ctx, DECIDE, preds)
        in_mis = not any(decided[u] for u in preds)
        ctx.broadcast((DECIDE, in_mis))
        return (h, in_mis)

    net = SyncNetwork(graph, ids=ids, seed=seed, config={"a": a, "eps": eps})
    schedule = palette_schedule(net.config["id_space"], A)
    net.config["schedule"] = schedule
    fixpoint = schedule[-1].ground_size if schedule else net.config["id_space"]
    budget = (ell + 2) * (len(schedule) + fixpoint + 4) + 64
    res = net.run(program, max_rounds=budget)
    return MISResult(
        in_mis={v: flag for v, (h, flag) in res.outputs.items()},
        h_index={v: h for v, (h, flag) in res.outputs.items()},
        metrics=res.metrics,
        times=res.times,
    )
