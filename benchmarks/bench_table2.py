"""Table 2 -- MIS, (2 Delta - 1)-edge-coloring and maximal matching:
vertex-averaged O(a + log* n)-flavoured algorithms vs the worst-case
schedules of previous work (DESIGN.md T2.R1 - T2.R3)."""

import repro
from repro import zoo
from repro.bench import make_workload, render_rows, sweep
from repro.verify import (
    assert_maximal_independent_set,
    assert_maximal_matching,
    assert_proper_edge_coloring,
)
from _common import SWEEP_MED, emit, time_once

WL = make_workload("forest_union_a3")
EPS = 0.5


def test_row_mis(benchmark):
    """T2.R1: MIS in O(a + log* n) avg vs the Theta(log n)-schedule
    deterministic previous work, plus Luby as the classic randomized
    reference."""
    ours = sweep(
        "MIS via extension (8.4)",
        lambda g, a, ids, s: repro.run_mis(g, a=a, eps=EPS, ids=ids),
        WL,
        SWEEP_MED,
    )
    base = sweep(
        "MIS, worst-case schedule",
        lambda g, a, ids, s: repro.run_mis(
            g, a=a, eps=EPS, ids=ids, worstcase_schedule=True
        ),
        WL,
        SWEEP_MED,
    )
    luby = sweep(
        "Luby MIS (rand.)",
        lambda g, a, ids, s: repro.run_luby_mis(g, ids=ids, seed=s),
        WL,
        SWEEP_MED,
        seeds=3,
    )
    emit(
        "table2_row_mis",
        render_rows("Table 2 row: MIS", ours, base)
        + "\n\n"
        + render_rows("reference: Luby (randomized, worst case O(log n))", luby),
    )
    assert zoo.get("mis").claim.fits(ours.fit_avg(), base.fit_avg())
    assert base.points[-1].avg_mean > 2 * ours.points[-1].avg_mean
    # Luby's *worst case* grows; our average stays flat.
    assert luby.points[-1].worst_mean > luby.points[0].worst_mean
    g, a = WL(SWEEP_MED[-1], 0)
    res = repro.run_mis(g, a=a, eps=EPS)
    assert_maximal_independent_set(g, res.mis)
    time_once(benchmark, lambda: repro.run_mis(g, a=a, eps=EPS))


def test_row_edge_coloring(benchmark):
    """T2.R2: (2 Delta - 1)-edge-coloring, averaged vs worst-case
    schedule (the [6, 7] O(a + log n) shape)."""
    ours = sweep(
        "(2D-1)-edge-color (8.6)",
        lambda g, a, ids, s: repro.run_edge_coloring(g, a=a, eps=EPS, ids=ids),
        WL,
        SWEEP_MED,
        colors_of=lambda r: r.colors_used,
    )
    base = sweep(
        "(2D-1)-edge-color, worst-case schedule",
        lambda g, a, ids, s: repro.run_edge_coloring(
            g, a=a, eps=EPS, ids=ids, worstcase_schedule=True
        ),
        WL,
        SWEEP_MED,
        colors_of=lambda r: r.colors_used,
    )
    emit(
        "table2_row_edge_coloring",
        render_rows("Table 2 row: (2Delta-1)-edge-coloring", ours, base),
    )
    assert zoo.get("edge-coloring").claim.fits(ours.fit_avg(), base.fit_avg())
    assert base.points[-1].avg_mean > ours.points[-1].avg_mean
    g, a = WL(SWEEP_MED[-1], 0)
    res = repro.run_edge_coloring(g, a=a, eps=EPS)
    assert_proper_edge_coloring(g, res.edge_colors, max_colors=res.palette_bound)
    time_once(benchmark, lambda: repro.run_edge_coloring(g, a=a, eps=EPS))


def test_row_mm(benchmark):
    """T2.R3: maximal matching, averaged vs worst-case schedule."""
    ours = sweep(
        "MM (8.8)",
        lambda g, a, ids, s: repro.run_maximal_matching(g, a=a, eps=EPS, ids=ids),
        WL,
        SWEEP_MED,
    )
    base = sweep(
        "MM, worst-case schedule",
        lambda g, a, ids, s: repro.run_maximal_matching(
            g, a=a, eps=EPS, ids=ids, worstcase_schedule=True
        ),
        WL,
        SWEEP_MED,
    )
    emit("table2_row_mm", render_rows("Table 2 row: maximal matching", ours, base))
    assert zoo.get("matching").claim.fits(ours.fit_avg(), base.fit_avg())
    assert base.points[-1].avg_mean > ours.points[-1].avg_mean
    g, a = WL(SWEEP_MED[-1], 0)
    res = repro.run_maximal_matching(g, a=a, eps=EPS)
    assert_maximal_matching(g, res.matching)
    time_once(benchmark, lambda: repro.run_maximal_matching(g, a=a, eps=EPS))
