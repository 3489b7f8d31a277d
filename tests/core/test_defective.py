"""Tests for defective colorings, the asynchronous H-partition, and the
arbdefective decision rule (Section 7.8.1 machinery)."""

import pytest

from repro.core.common import LocalView, degree_bound
from repro.core.defective import (
    arbdefective_choose,
    arbdefective_class_bound,
    async_h_partition,
    defective_schedule,
    run_defective_coloring,
)
from repro.core.partition import run_partition
from repro.graphs import generators as gen
from repro.runtime.network import SyncNetwork
from repro.verify import assert_defective_coloring, assert_h_partition


class TestDefectiveColoring:
    def test_defect_bound_holds(self):
        g = gen.union_of_forests(800, 4, seed=1)
        for d in (0, 1, 3):
            res = run_defective_coloring(g, d=d)
            assert_defective_coloring(
                g, res.colors, max_defect=d, max_colors=res.palette_bound
            )

    def test_fast_engine_accepts_numpy_ids(self):
        # permutation_ids is an int64 array, so the ID space the schedule
        # is built for arrives as a numpy integer
        g = gen.union_of_forests(300, 3, seed=5)
        ids = gen.permutation_ids(g.n, seed=6)
        res = run_defective_coloring(g, d=2, ids=ids)
        assert res.colors == run_defective_coloring(g, d=2, ids=ids.tolist()).colors
        assert_defective_coloring(g, res.colors, max_defect=2)

    def test_palette_shrinks_with_defect_budget(self):
        g = gen.union_of_forests(1500, 4, seed=2)
        bounds = [run_defective_coloring(g, d=d).palette_bound for d in (0, 2, 8)]
        assert bounds[0] >= bounds[1] >= bounds[2]
        assert bounds[2] < bounds[0]

    def test_custom_degree_limit(self):
        g = gen.grid(10, 10)
        res = run_defective_coloring(g, d=1, degree_limit=4)
        assert_defective_coloring(g, res.colors, max_defect=1)

    def test_schedule_slack_totals_at_most_d(self):
        for d in (1, 3, 7, 16):
            sched = defective_schedule(10**6, 6, d)
            assert sum(f.slack for f in sched) <= d

    def test_zero_defect_equals_proper_schedule(self):
        sched = defective_schedule(10**6, 5, 0)
        assert all(f.slack == 0 for f in sched)


class TestAsyncHPartition:
    def _run(self, g, A, stagger=None):
        def program(ctx):
            view = LocalView()
            if stagger:
                for _ in range(stagger(ctx.v)):
                    yield
                    view.absorb(ctx)
            h = yield from async_h_partition(ctx, view, ctx.neighbors, A, tag="t")
            return h

        return SyncNetwork(g).run(program, max_rounds=20 * g.n + 100)

    def test_matches_synchronous_partition(self):
        """The async fixpoint equals the synchronous peeling exactly."""
        g = gen.union_of_forests(200, 3, seed=3)
        A = degree_bound(3, 1.0)
        sync = run_partition(g, a=3)
        res = self._run(g, A)
        assert dict(res.outputs) == sync.h_index

    def test_h_partition_property(self):
        g = gen.gnp(120, 0.06, seed=4)
        A = 7
        res = self._run(g, A)
        assert_h_partition(g, dict(res.outputs), A)

    def test_robust_to_staggered_starts(self):
        """Vertices entering the protocol at different rounds (as inside the
        Section 7.8 recursions) still compute the same decomposition."""
        g = gen.union_of_forests(150, 3, seed=5)
        A = degree_bound(3, 1.0)
        aligned = self._run(g, A)
        staggered = self._run(g, A, stagger=lambda v: v % 5)
        assert aligned.outputs == staggered.outputs

    def test_isolated_vertex(self):
        g = gen.star_forest(2, 1)  # tiny stars
        res = self._run(g, A=3)
        assert all(h == 1 for h in res.outputs.values())


class TestArbdefectiveRule:
    def test_choose_min_usage(self):
        assert arbdefective_choose(3, [0, 0, 1]) == 2
        assert arbdefective_choose(2, [0, 1, 0, 1]) == 0  # tie -> smallest
        assert arbdefective_choose(4, []) == 0

    def test_class_bound(self):
        assert arbdefective_class_bound(9, 3) == 3
        assert arbdefective_class_bound(10, 3) == 4
        assert arbdefective_class_bound(10, 3, defect=2) == 6

    def test_choose_respects_bound(self):
        """With <= A parents and k colors, the chosen color is used by at
        most ceil(A/k) parents -- the arbdefective guarantee."""
        import random

        rng = random.Random(0)
        for _ in range(200):
            A, k = rng.randint(1, 12), rng.randint(1, 6)
            parents = [rng.randrange(k) for _ in range(rng.randint(0, A))]
            c = arbdefective_choose(k, parents)
            assert parents.count(c) <= arbdefective_class_bound(A, k)


class TestStandaloneArbdefective:
    def test_class_arboricity_bound_exact(self):
        """The headline guarantee, checked with the exact arboricity
        oracle: every color class induces arboricity <= ceil(A/k)."""
        from repro.core.defective import run_arbdefective_coloring
        from repro.verify import assert_arbdefective_coloring

        g = gen.union_of_forests(150, 4, seed=21)
        for k in (2, 3, 6):
            res = run_arbdefective_coloring(g, a=4, k=k)
            assert set(res.colors) == set(g.vertices())
            assert all(0 <= c < k for c in res.colors.values())
            assert_arbdefective_coloring(
                g, res.colors, max_arboricity=res.arboricity_bound, max_colors=k
            )

    def test_k_one_is_trivial(self):
        from repro.core.defective import run_arbdefective_coloring

        g = gen.grid(6, 6)
        res = run_arbdefective_coloring(g, a=2, k=1)
        assert set(res.colors.values()) == {0}
        assert res.arboricity_bound >= 2  # the whole graph in one class

    def test_larger_k_smaller_class_arboricity(self):
        from repro.core.defective import run_arbdefective_coloring

        g = gen.union_of_forests(120, 5, seed=22)
        b2 = run_arbdefective_coloring(g, a=5, k=2).arboricity_bound
        b8 = run_arbdefective_coloring(g, a=5, k=8).arboricity_bound
        assert b8 < b2

    def test_invalid_k(self):
        from repro.core.defective import run_arbdefective_coloring

        with pytest.raises(ValueError):
            run_arbdefective_coloring(gen.ring(5), a=2, k=0)
