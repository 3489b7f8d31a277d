"""Tests for the edge-decision wave: (2 Delta - 1)-edge-coloring and
maximal matching (Corollaries 8.6 / 8.8)."""

import pytest

from repro.core.edgealgo import run_edge_coloring, run_maximal_matching
from repro.faults import FaultPlan, MessageFaults
from repro.graphs import generators as gen
from repro.obs import EventBus, MemorySink
from repro.runtime.session import session
from repro.verify import assert_maximal_matching, assert_proper_edge_coloring


class TestEdgeColoring:
    def test_valid_on_suite(self, named_graph):
        name, g, a = named_graph
        if g.n == 0:
            return
        res = run_edge_coloring(g, a=a)
        assert_proper_edge_coloring(g, res.edge_colors, max_colors=res.palette_bound)
        assert set(res.edge_colors) == set(g.edges())

    def test_palette_is_2delta_minus_one(self):
        g = gen.grid(6, 6)  # Delta = 4
        res = run_edge_coloring(g, a=2)
        assert res.palette_bound == 7
        assert all(0 <= c < 7 for c in res.edge_colors.values())

    def test_star_needs_delta_colors(self):
        g = gen.star(10)
        res = run_edge_coloring(g, a=1)
        assert res.colors_used == 9  # all edges share the hub

    def test_random_ids(self, forest_union_200):
        ids = gen.random_ids(forest_union_200.n, seed=5)
        res = run_edge_coloring(forest_union_200, a=3, ids=ids)
        assert_proper_edge_coloring(
            forest_union_200, res.edge_colors, max_colors=res.palette_bound
        )

    def test_worstcase_schedule_slower_same_quality(self):
        g = gen.union_of_forests(300, 3, seed=6)
        fast = run_edge_coloring(g, a=3)
        slow = run_edge_coloring(g, a=3, worstcase_schedule=True)
        assert_proper_edge_coloring(g, slow.edge_colors, max_colors=slow.palette_bound)
        assert slow.metrics.vertex_averaged > fast.metrics.vertex_averaged

    def test_deterministic(self):
        g = gen.union_of_forests(120, 2, seed=7)
        assert (
            run_edge_coloring(g, a=2).edge_colors
            == run_edge_coloring(g, a=2).edge_colors
        )


    def test_delayed_stale_cursor_does_not_deadlock(self):
        # A delayed PROG snapshot carrying an older cursor used to
        # overwrite a newer one at the head, which then waited on the
        # stale cursor until the watchdog fired, on both engines.
        g = gen.union_of_forests(100, 3, seed=0)
        ids = gen.random_ids(g.n, seed=1000)
        plan = FaultPlan(seed=9, messages=MessageFaults(delay=0.1, max_delay=2))
        runs = {}
        for engine in ("fast", "reference"):
            sink = MemorySink()
            with session(engine=engine, faults=plan, bus=EventBus(sink)):
                res = run_edge_coloring(g, a=3, ids=ids)
            assert_proper_edge_coloring(g, res.edge_colors, max_colors=res.palette_bound)
            assert set(res.edge_colors) == set(g.edges())
            runs[engine] = (res, sink.events)
        (fast, ev_fast), (ref, ev_ref) = runs["fast"], runs["reference"]
        assert any(e.kind == "fault_delay" for e in ev_fast)
        assert fast.edge_colors == ref.edge_colors
        assert fast.metrics == ref.metrics
        assert ev_fast == ev_ref


class TestMaximalMatching:
    def test_valid_on_suite(self, named_graph):
        name, g, a = named_graph
        if g.n == 0:
            return
        res = run_maximal_matching(g, a=a)
        assert_maximal_matching(g, res.matching)

    def test_path_matching_size(self):
        g = gen.path(10)
        res = run_maximal_matching(g, a=1)
        # any maximal matching on P_10 has between 3 and 5 edges
        assert 3 <= len(res.matching) <= 5

    def test_star_matches_exactly_one(self):
        g = gen.star(12)
        res = run_maximal_matching(g, a=1)
        assert len(res.matching) == 1

    def test_complete_graph_perfect(self):
        g = gen.complete(8)
        res = run_maximal_matching(g, a=4)
        assert len(res.matching) == 4  # maximal on K_8 is perfect

    def test_random_ids(self, forest_union_200):
        ids = gen.random_ids(forest_union_200.n, seed=8)
        res = run_maximal_matching(forest_union_200, a=3, ids=ids)
        assert_maximal_matching(forest_union_200, res.matching)

    def test_worstcase_schedule_flag(self):
        g = gen.union_of_forests(300, 3, seed=9)
        fast = run_maximal_matching(g, a=3)
        slow = run_maximal_matching(g, a=3, worstcase_schedule=True)
        assert_maximal_matching(g, slow.matching)
        assert slow.metrics.vertex_averaged > fast.metrics.vertex_averaged

    def test_average_flat_across_scale(self):
        avgs = []
        for n in (200, 1600):
            g = gen.union_of_forests(n, 2, seed=10)
            res = run_maximal_matching(g, a=2)
            avgs.append(res.metrics.vertex_averaged)
        assert abs(avgs[1] - avgs[0]) < 4.0
