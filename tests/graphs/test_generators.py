"""Tests for the workload generators: sizes, structure, and the
properties (arboricity, degree) each family is chosen for."""

import pytest

from repro.graphs import generators as gen
from repro.graphs.arboricity import arboricity_exact


class TestDeterministicFamilies:
    def test_ring(self):
        g = gen.ring(7)
        assert g.n == 7 and g.m == 7
        assert g.max_degree() == 2
        assert not g.is_forest()

    def test_ring_too_small(self):
        with pytest.raises(ValueError):
            gen.ring(2)

    def test_path(self):
        g = gen.path(6)
        assert g.m == 5 and g.is_forest()

    def test_star(self):
        g = gen.star(10)
        assert g.degree(0) == 9 and g.is_forest()

    def test_complete(self):
        g = gen.complete(6)
        assert g.m == 15 and g.max_degree() == 5

    def test_complete_bipartite(self):
        g = gen.complete_bipartite(2, 4)
        assert g.m == 8
        assert g.degree(0) == 4 and g.degree(2) == 2

    def test_binary_tree(self):
        g = gen.binary_tree(15)
        assert g.is_forest() and g.m == 14
        assert g.max_degree() == 3

    def test_grid(self):
        g = gen.grid(3, 4)
        assert g.n == 12 and g.m == 3 * 3 + 2 * 4
        assert g.max_degree() <= 4
        assert arboricity_exact(g) == 2

    def test_triangular_grid(self):
        g = gen.triangular_grid(4, 4)
        assert g.max_degree() <= 6
        assert arboricity_exact(g) <= 3

    def test_hypercube(self):
        g = gen.hypercube(3)
        assert g.n == 8 and g.m == 12
        assert all(g.degree(v) == 3 for v in g.vertices())

    def test_caterpillar(self):
        g = gen.caterpillar(5, 3)
        assert g.n == 5 + 15 and g.is_forest()
        assert g.max_degree() == 5  # spine degree 2 + 3 legs

    def test_star_forest(self):
        g = gen.star_forest(3, 4)
        assert g.n == 15 and g.m == 12
        assert g.is_forest()
        assert len(g.connected_components()) == 3


class TestRandomFamilies:
    def test_random_tree_is_tree(self):
        g = gen.random_tree(50, seed=1)
        assert g.is_forest() and g.m == 49
        assert len(g.connected_components()) == 1

    def test_random_tree_preferential(self):
        g = gen.random_tree(50, seed=1, attachment="preferential")
        assert g.is_forest() and g.m == 49

    def test_random_tree_bad_attachment(self):
        with pytest.raises(ValueError):
            gen.random_tree(10, attachment="bogus")

    def test_random_forest_components(self):
        g = gen.random_forest(40, trees=5, seed=2)
        assert g.is_forest()
        assert len(g.connected_components()) == 5

    def test_union_of_forests_arboricity(self):
        for a in (1, 2, 4):
            g = gen.union_of_forests(60, a, seed=3)
            assert arboricity_exact(g) <= a

    def test_union_of_forests_is_dense_enough(self):
        g = gen.union_of_forests(200, 3, seed=4)
        # Close to 3*(n-1) edges up to collision loss.
        assert g.m > 2.2 * (g.n - 1)

    def test_union_of_forests_density_param(self):
        sparse = gen.union_of_forests(100, 3, seed=5, density=0.3)
        dense = gen.union_of_forests(100, 3, seed=5, density=1.0)
        assert sparse.m < dense.m

    def test_union_of_forests_bad_a(self):
        with pytest.raises(ValueError):
            gen.union_of_forests(10, 0)

    def test_gnp_determinism(self):
        assert gen.gnp(50, 0.1, seed=6) == gen.gnp(50, 0.1, seed=6)
        assert gen.gnp(50, 0.1, seed=6) != gen.gnp(50, 0.1, seed=7)

    def test_gnp_extremes(self):
        assert gen.gnp(10, 0.0).m == 0
        assert gen.gnp(10, 1.0).m == 45

    def test_gnp_bad_p(self):
        with pytest.raises(ValueError):
            gen.gnp(10, 1.5)

    def test_gnp_expected_density(self):
        g = gen.gnp(400, 0.02, seed=8)
        expected = 0.02 * 400 * 399 / 2
        assert 0.6 * expected < g.m < 1.4 * expected

    def test_random_regular(self):
        g = gen.random_regular(20, 3, seed=9)
        assert g.n == 20
        assert max(g.degree_sequence()) <= 3

    def test_random_regular_parity(self):
        with pytest.raises(ValueError):
            gen.random_regular(5, 3)

    def test_planted_partition_ring(self):
        g = gen.planted_partition_ring(50, 10, seed=10)
        assert g.n == 50 and g.m >= 50

    def test_disjoint_union(self):
        g = gen.disjoint_union([gen.ring(4), gen.path(3)])
        assert g.n == 7 and g.m == 4 + 2
        assert len(g.connected_components()) == 2


class TestIDAssignments:
    def test_sequential_ids(self):
        assert gen.sequential_ids(4) == [0, 1, 2, 3]

    def test_random_ids_permutation(self):
        ids = gen.random_ids(100, seed=1)
        assert sorted(ids) == list(range(100))
        assert ids != list(range(100))

    def test_random_ids_large_space(self):
        ids = gen.random_ids(50, seed=2, id_space=10**6)
        assert len(set(ids)) == 50
        assert all(0 <= i < 10**6 for i in ids)

    def test_random_ids_space_too_small(self):
        with pytest.raises(ValueError):
            gen.random_ids(10, id_space=5)

    def test_adversarial_ids(self):
        g = gen.star(8)
        ids = gen.adversarial_ids_descending_degree(g)
        assert ids[0] == 7  # the hub gets the highest ID
        assert sorted(ids) == list(range(8))


class TestForestUnionCsr:
    """The CSR-direct arboricity-a workload behind the n = 10^7 cell."""

    def test_structure_and_dtype(self):
        import numpy as np

        g = gen.forest_union_csr(500, 3, seed=0)
        offsets, indices = g.csr(dtype="auto")
        assert offsets.dtype == np.int32 and indices.dtype == np.int32
        assert g.n == 500
        # a union of a spanning-ish forests: close to a*(n-1) edges, with
        # only cross-forest duplicates collapsed
        assert 500 - 1 <= g.m <= 3 * (500 - 1)
        # symmetric, simple adjacency with sorted rows
        for v in range(g.n):
            row = indices[offsets[v] : offsets[v + 1]]
            assert np.all(np.diff(row) > 0)  # sorted, no duplicates
            assert v not in row  # no self loops
            for u in row:
                urow = indices[offsets[u] : offsets[u + 1]]
                assert v in urow

    def test_arboricity_bound_holds(self):
        g = gen.forest_union_csr(60, 2, seed=1)
        assert arboricity_exact(g) <= 2

    def test_deterministic_and_seed_sensitive(self):
        import numpy as np

        a = gen.forest_union_csr(200, 2, seed=7).csr()
        b = gen.forest_union_csr(200, 2, seed=7).csr()
        c = gen.forest_union_csr(200, 2, seed=8).csr()
        assert np.array_equal(a[1], b[1])
        assert not np.array_equal(a[1], c[1])

    @pytest.mark.parametrize(
        "n,a,seed",
        [(0, 1, 0), (1, 3, 0), (2, 1, 5), (3, 1, 0), (50, 1, 2), (300, 3, 7),
         (2000, 4, 1), (70000, 2, 3)],
    )
    def test_sorted_dedup_matches_the_hash_unique_formulation(self, n, a, seed):
        """The sort-based build is byte-identical to the earlier one,
        kept here as the oracle: ``np.unique`` over the packed edge codes
        and a lexsort of the arcs by (src, dst)."""
        import numpy as np

        from repro.graphs.graph import Graph, csr_index_dtype

        def oracle():
            if n < 2:
                return Graph(n)
            rng = np.random.default_rng(seed)
            lo_parts, hi_parts = [], []
            for _ in range(a):
                perm = rng.permutation(n)
                j = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
                u, v = perm[j], perm[1:]
                lo_parts.append(np.minimum(u, v))
                hi_parts.append(np.maximum(u, v))
            lo, hi = np.concatenate(lo_parts), np.concatenate(hi_parts)
            codes = np.unique(lo.astype(np.int64) * n + hi)
            lo, hi = codes // n, codes % n
            src, dst = np.concatenate((lo, hi)), np.concatenate((hi, lo))
            order = np.lexsort((dst, src))
            want = csr_index_dtype(n, src.size, "auto")
            offsets = np.zeros(n + 1, dtype=want)
            offsets[1:] = np.cumsum(np.bincount(src, minlength=n)).astype(want)
            return Graph.from_csr(offsets, dst[order].astype(want))

        got = gen.forest_union_csr(n, a, seed=seed).csr(dtype="auto")
        want = oracle().csr(dtype="auto")
        for x, y in zip(got, want):
            assert x.dtype == y.dtype
            assert x.tobytes() == y.tobytes()

    def test_tiny_and_invalid(self):
        assert gen.forest_union_csr(1, 3).n == 1
        assert gen.forest_union_csr(0, 1).n == 0
        with pytest.raises(ValueError):
            gen.forest_union_csr(10, 0)


class TestPermutationIds:
    def test_is_a_permutation(self):
        import numpy as np

        ids = gen.permutation_ids(1000, seed=3)
        assert ids.dtype == np.int64
        assert np.array_equal(np.sort(ids), np.arange(1000))

    def test_deterministic(self):
        import numpy as np

        assert np.array_equal(
            gen.permutation_ids(64, seed=5), gen.permutation_ids(64, seed=5)
        )
