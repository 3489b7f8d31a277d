"""Tests for the worst-case baselines (comparison columns of Tables 1-2)."""

import pytest

from repro.baselines import (
    run_arb_color_worstcase,
    run_arb_linial_worstcase,
    run_delta_plus_one_worstcase,
    run_linial_coloring,
    run_luby_mis,
    run_ring_three_coloring,
)
from repro.baselines.cole_vishkin import _cv_reduce, _cv_steps
from repro.core.common import partition_length_bound
from repro.graphs import generators as gen
from repro.verify import assert_maximal_independent_set, assert_proper_coloring


class TestLinial:
    def test_proper(self):
        g = gen.union_of_forests(1000, 2, seed=1)
        res = run_linial_coloring(g)
        assert_proper_coloring(g, res.colors, max_colors=res.palette_bound)

    def test_fixpoint_palette_quadratic_in_delta(self):
        g = gen.ring(1000)  # Delta = 2
        res = run_linial_coloring(g)
        assert res.palette_bound <= 49  # (2*2+1 -> prime 5)^2 = 25-49 range

    def test_average_equals_worst_shape(self):
        """The pre-paper situation: everyone runs the full log* schedule."""
        g = gen.ring(2000)
        m = run_linial_coloring(g).metrics
        assert m.worst_case - m.vertex_averaged < 1.0

    def test_custom_degree_bound(self):
        g = gen.ring(500)
        res = run_linial_coloring(g, degree_bound=4)
        assert_proper_coloring(g, res.colors, max_colors=res.palette_bound)


class TestDeltaPlusOneWorstcase:
    def test_proper_with_budget(self):
        g = gen.union_of_forests(500, 3, seed=2)
        res = run_delta_plus_one_worstcase(g, ids=gen.random_ids(500, seed=1))
        assert_proper_coloring(g, res.colors, max_colors=g.max_degree() + 1)

    def test_on_grid(self):
        g = gen.grid(12, 12)
        res = run_delta_plus_one_worstcase(g)
        assert_proper_coloring(g, res.colors, max_colors=5)


class TestLuby:
    def test_valid_mis(self):
        g = gen.union_of_forests(600, 3, seed=3)
        res = run_luby_mis(g, seed=4)
        assert_maximal_independent_set(g, res.mis)

    def test_isolated_vertices(self):
        from repro.graphs.graph import Graph

        g = Graph(5, [(0, 1)])
        res = run_luby_mis(g, seed=1)
        assert {2, 3, 4} <= res.mis

    def test_seeds_vary_solution(self):
        g = gen.gnp(120, 0.05, seed=5)
        assert run_luby_mis(g, seed=1).mis != run_luby_mis(g, seed=2).mis

    def test_worst_case_grows_with_n(self):
        worsts = []
        for n in (200, 6400):
            g = gen.union_of_forests(n, 3, seed=6)
            worsts.append(run_luby_mis(g, seed=7).metrics.worst_case)
        assert worsts[1] > worsts[0]


class TestColeVishkin:
    def test_three_colors_ring(self):
        for n in (3, 10, 101, 1024):
            g = gen.ring(n)
            res = run_ring_three_coloring(g, ids=gen.random_ids(n, seed=n))
            assert_proper_coloring(g, res.colors, max_colors=3)

    def test_log_star_shape_and_avg_equals_worst(self):
        """The [12] negative result's exhibit: on rings, average == worst
        (every vertex runs the same log* n + O(1) schedule)."""
        g = gen.ring(5000)
        m = run_ring_three_coloring(g).metrics
        assert m.vertex_averaged == m.worst_case
        assert m.worst_case <= _cv_steps(5000) + 3 + 1

    def test_cv_reduce_breaks_ties(self):
        # distinct inputs stay distinct through a step
        for a in range(8):
            for b in range(8):
                if a != b:
                    # reduce(a, b) encodes a bit position where a and b
                    # differ, plus a's bit there -- so adjacent vertices
                    # (which have distinct colors) stay distinct.
                    r = _cv_reduce(a, b)
                    i, bit = r // 2, r % 2
                    assert (a >> i) & 1 == bit
                    assert (b >> i) & 1 != bit

    def test_bad_successor_rejected(self):
        g = gen.ring(5)
        with pytest.raises(ValueError, match="not a neighbor"):
            run_ring_three_coloring(g, successor=[2, 3, 4, 0, 1])

    def test_bad_successor_names_the_first_offender(self):
        g = gen.ring(6)
        with pytest.raises(ValueError, match=r"successor\[3\] = 5 "):
            run_ring_three_coloring(g, successor=[1, 2, 3, 5, 5, 0])

    def test_bulk_run_on_csr_ring_never_builds_the_object_layer(self):
        from repro.graphs.graph import Graph
        from repro.runtime.session import session

        n = 500
        offsets, indices = gen.ring(n).csr()
        g = Graph.from_csr(offsets.copy(), indices.copy())
        with session(engine="bulk"):
            res = run_ring_three_coloring(g, ids=gen.permutation_ids(n, seed=4))
        assert g._adj is None
        assert_proper_coloring(gen.ring(n), res.colors, max_colors=3)


class TestArbWorstcase:
    def test_arb_linial_worstcase_valid(self):
        g = gen.union_of_forests(400, 3, seed=8)
        res = run_arb_linial_worstcase(g, a=3)
        assert_proper_coloring(g, res.colors, max_colors=res.palette_bound)

    def test_arb_linial_worstcase_pays_log_n_for_everyone(self):
        g = gen.union_of_forests(400, 3, seed=8)
        res = run_arb_linial_worstcase(g, a=3)
        ell = partition_length_bound(g.n, 1.0)
        assert res.metrics.vertex_averaged >= ell
        assert res.metrics.worst_case - res.metrics.vertex_averaged < 3

    def test_arb_color_worstcase_valid_and_frugal(self):
        g = gen.union_of_forests(400, 3, seed=9)
        res = run_arb_color_worstcase(g, a=3, ids=gen.random_ids(400, seed=2))
        assert_proper_coloring(g, res.colors, max_colors=res.palette_bound)
        assert res.palette_bound == int(3 * 3) + 1

    def test_worstcase_average_grows_with_n(self):
        avgs = []
        for n in (200, 3200):
            g = gen.union_of_forests(n, 3, seed=10)
            avgs.append(run_arb_linial_worstcase(g, a=3).metrics.vertex_averaged)
        assert avgs[1] > avgs[0] + 2  # Theta(log n) growth
