"""Unit tests for the static graph substrate."""

import pytest

from repro.graphs.graph import Graph, canonical_edge


class TestConstruction:
    def test_empty_graph(self):
        g = Graph(0)
        assert g.n == 0 and g.m == 0
        assert g.max_degree() == 0
        assert list(g.vertices()) == []

    def test_vertices_without_edges(self):
        g = Graph(5)
        assert g.n == 5 and g.m == 0
        assert all(g.degree(v) == 0 for v in g.vertices())

    def test_basic_edges(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.m == 3
        assert g.neighbors(1) == (0, 2)
        assert g.degree(1) == 2 and g.degree(0) == 1

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1
        assert g.degree(0) == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, 3)])

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            Graph(-1)

    def test_canonical_edge(self):
        assert canonical_edge(3, 1) == (1, 3)
        assert canonical_edge(1, 3) == (1, 3)

    def test_edges_sorted_canonical(self):
        g = Graph(4, [(3, 2), (1, 0)])
        assert g.edges() == ((0, 1), (2, 3))


class TestAccessors:
    def test_has_edge(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)

    def test_neighbor_set(self):
        g = Graph(4, [(0, 1), (0, 2)])
        assert g.neighbor_set(0) == frozenset({1, 2})

    def test_max_degree(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.max_degree() == 3

    def test_degree_sequence(self):
        g = Graph(3, [(0, 1)])
        assert g.degree_sequence() == [1, 1, 0]

    def test_equality_and_hash(self):
        g1 = Graph(3, [(0, 1)])
        g2 = Graph(3, [(1, 0)])
        g3 = Graph(3, [(0, 2)])
        assert g1 == g2 and hash(g1) == hash(g2)
        assert g1 != g3
        assert g1 != "not a graph"

    def test_repr(self):
        assert repr(Graph(3, [(0, 1)])) == "Graph(n=3, m=1)"


class TestDerived:
    def test_subgraph_reindexes(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        sub, index = g.subgraph([1, 2, 4])
        assert sub.n == 3
        assert index == {1: 0, 2: 1, 4: 2}
        assert sub.edges() == ((0, 1),)  # only (1,2) survives

    def test_subgraph_empty_selection(self):
        g = Graph(3, [(0, 1)])
        sub, index = g.subgraph([])
        assert sub.n == 0 and index == {}

    def test_edge_subgraph_degrees(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        degs = g.edge_subgraph_degrees([0, 1, 2])
        assert degs == {0: 1, 1: 2, 2: 1}

    def test_line_graph_neighbors(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert set(g.line_graph_neighbors((1, 2))) == {(0, 1), (2, 3)}

    def test_connected_components(self):
        g = Graph(5, [(0, 1), (2, 3)])
        comps = g.connected_components()
        assert comps == [[0, 1], [2, 3], [4]]

    def test_is_forest_true(self):
        assert Graph(4, [(0, 1), (1, 2), (1, 3)]).is_forest()
        assert Graph(3).is_forest()

    def test_is_forest_false(self):
        assert not Graph(3, [(0, 1), (1, 2), (0, 2)]).is_forest()


class TestInterop:
    def test_networkx_roundtrip(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert Graph.from_networkx(g.to_networkx()) == g

    def test_from_networkx_relabels(self):
        import networkx as nx

        nxg = nx.Graph()
        nxg.add_edge("b", "a")
        g = Graph.from_networkx(nxg)
        assert g.n == 2 and g.m == 1

    def test_from_adjacency_mapping(self):
        g = Graph.from_adjacency({0: [1], 1: [0, 2], 2: [1]})
        assert g.n == 3 and g.m == 2

    def test_from_adjacency_list(self):
        g = Graph.from_adjacency([[1], [0]])
        assert g.n == 2 and g.m == 1


class TestCSR:
    def test_csr_matches_neighbors(self):
        from repro.graphs import generators as gen

        g = gen.gnp(60, 0.1, seed=2)
        offsets, indices = g.csr()
        assert offsets.shape == (g.n + 1,)
        assert indices.shape == (2 * g.m,)
        assert int(offsets[0]) == 0 and int(offsets[-1]) == 2 * g.m
        for v in range(g.n):
            row = indices[int(offsets[v]) : int(offsets[v + 1])]
            assert tuple(int(u) for u in row) == g.neighbors(v)

    def test_csr_rows_match_and_are_cached(self):
        g = Graph(5, [(0, 1), (0, 2), (3, 4)])
        rows = g.csr_rows()
        assert rows == [list(g.neighbors(v)) for v in range(5)]
        # cached: same objects on repeated access (the engine's
        # halt-notice fan-out reads these shared rows)
        assert g.csr_rows() is rows
        assert g.csr() is g.csr()

    def test_csr_empty_and_isolated(self):
        empty = Graph(0)
        offsets, indices = empty.csr()
        assert offsets.shape == (1,) and indices.shape == (0,)
        assert empty.csr_rows() == []

        iso = Graph(3, [(0, 1)])
        assert iso.csr_rows() == [[1], [0], []]

    def test_csr_row_ints_are_native(self):
        # object-level engine loops index dicts/lists with these values;
        # they must be plain Python ints, not numpy scalars
        g = Graph(2, [(0, 1)])
        assert all(type(u) is int for row in g.csr_rows() for u in row)


class TestCsrDtype:
    """The int32/int64 CSR layout selection behind the n = 10^7 cell."""

    def test_auto_picks_int32_when_it_fits(self):
        import numpy as np

        from repro.graphs.graph import csr_index_dtype

        assert csr_index_dtype(10, 18, "auto") == np.dtype(np.int32)
        assert csr_index_dtype(2**31, 4, "auto") == np.dtype(np.int64)
        assert csr_index_dtype(4, 2**31, "auto") == np.dtype(np.int64)

    def test_forced_int32_overflow_is_loud(self):
        from repro.graphs.graph import csr_index_dtype

        with pytest.raises(ValueError, match="int32"):
            csr_index_dtype(2**31, 4, "int32")
        with pytest.raises(ValueError, match="unknown CSR dtype"):
            csr_index_dtype(4, 4, "int16")

    def test_graph_csr_dtype_variants_agree(self):
        import numpy as np

        g = Graph(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
        o64, i64 = g.csr()  # default int64
        oa, ia = g.csr(dtype="auto")
        assert o64.dtype == np.int64 and i64.dtype == np.int64
        assert oa.dtype == np.int32 and ia.dtype == np.int32
        assert np.array_equal(o64, oa) and np.array_equal(i64, ia)
        # each dtype is cached independently
        assert g.csr(dtype="auto") is g.csr(dtype="auto")


class TestFromCsr:
    """CSR-direct construction: the object layer stays unmaterialised."""

    def test_roundtrip_matches_object_graph(self):
        import numpy as np

        g = Graph(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
        offsets, indices = g.csr(dtype="auto")
        h = Graph.from_csr(offsets, indices)
        assert h.n == g.n and h.m == g.m
        ho, hi = h.csr(dtype="auto")
        assert np.array_equal(ho, offsets) and np.array_equal(hi, indices)
        # lazy object layer materialises on demand and agrees
        assert [h.neighbors(v) for v in h.vertices()] == [
            g.neighbors(v) for v in g.vertices()
        ]

    def test_invalid_csr_rejected(self):
        import numpy as np

        with pytest.raises(ValueError, match="offsets"):
            Graph.from_csr(np.array([1, 2]), np.array([0, 1]))
        with pytest.raises(ValueError, match="does not match"):
            Graph.from_csr(np.array([0, 1, 3]), np.array([1, 0]))
        with pytest.raises(ValueError, match="even length"):
            Graph.from_csr(np.array([0, 1]), np.array([0]))
        with pytest.raises(ValueError, match="non-decreasing"):
            Graph.from_csr(np.array([0, 2, 1, 4]), np.array([1, 2, 0, 0]))
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_csr(np.array([0, 1, 2]), np.array([1, 5]))


# ---------------------------------------------------------------------------
# The numpy constructor against the object-layer constructor it replaced
# ---------------------------------------------------------------------------
class ObjectGraph:
    """The former Python constructor, kept as the oracle: per-vertex
    lists deduplicated through a set of canonical edges, then the CSR
    arrays read back off the sorted rows."""

    def __init__(self, n, edges):
        import numpy as np

        adj = [[] for _ in range(n)]
        seen = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            e = canonical_edge(u, v)
            if e in seen:
                continue
            seen.add(e)
            adj[u].append(v)
            adj[v].append(u)
        self.adj = tuple(tuple(sorted(nbrs)) for nbrs in adj)
        self.adj_sets = tuple(frozenset(nbrs) for nbrs in self.adj)
        self.edges = tuple(sorted(seen))
        self.m = len(self.edges)
        self.offsets = np.zeros(n + 1, dtype=np.int64)
        self.offsets[1:] = np.cumsum([len(nbrs) for nbrs in self.adj], dtype=np.int64)
        self.indices = np.array([u for nbrs in self.adj for u in nbrs], dtype=np.int64)


def _outcome(build):
    """What ``build()`` raised, as (type, message), or None."""
    try:
        build()
    except (TypeError, ValueError) as e:
        return type(e), str(e)
    return None


def _as_form(form, pairs):
    """A fresh iterable of ``pairs`` in one of the accepted input forms."""
    import numpy as np

    if form == "list":
        return list(pairs)
    if form == "tuple":
        return tuple(pairs)
    if form == "generator":
        return (p for p in pairs)
    if form == "int64":
        return np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return np.array(pairs, dtype=np.int32).reshape(-1, 2)


FORMS = ("list", "tuple", "generator", "int64", "int32")


def _pairs(n):
    from hypothesis import strategies as st

    if n < 2:
        return st.just([])
    v = st.integers(0, n - 1)
    return st.lists(st.tuples(v, v).filter(lambda e: e[0] != e[1]), max_size=3 * n)


def _with_duplicates(draw, pairs):
    """``pairs`` plus repeats of some of them, in either orientation."""
    from hypothesis import strategies as st

    extra = []
    for u, v in pairs:
        k = draw(st.integers(0, 2))
        extra += [(v, u)] * (k == 1) + [(u, v)] * (k == 2)
    return draw(st.permutations(pairs + extra))


def _check_against_oracle(n, pairs, form):
    import numpy as np

    want = ObjectGraph(n, pairs)
    g = Graph(n, _as_form(form, pairs))
    assert g.n == n and g.m == want.m
    o64, i64 = g.csr()
    assert o64.tobytes() == want.offsets.tobytes()
    assert i64.tobytes() == want.indices.tobytes()
    oa, ia = g.csr(dtype="auto")
    assert oa.dtype == ia.dtype == np.int32
    assert np.array_equal(oa, want.offsets) and np.array_equal(ia, want.indices)
    assert g.degree_sequence() == [len(r) for r in want.adj]
    assert g.max_degree() == max((len(r) for r in want.adj), default=0)
    assert g.edges() == want.edges
    assert all(g.neighbors(v) == want.adj[v] for v in range(n))
    assert all(g.neighbor_set(v) == want.adj_sets[v] for v in range(n))
    # equal to the same graph stored as int64 CSR, and hashed alike
    h = Graph.from_csr(want.offsets, want.indices)
    assert g == h and hash(g) == hash(h)
    return g


class TestConstructorOracle:
    """``Graph(n, edges)`` builds exactly the graph the former object-layer
    constructor did, from every accepted input form, and rejects the
    same first offender with the same error."""

    def test_property(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @st.composite
        def cases(draw):
            n = draw(st.integers(0, 12))
            pairs = _with_duplicates(draw, draw(_pairs(n)))
            return n, pairs, draw(st.sampled_from(FORMS))

        @settings(max_examples=300, deadline=None)
        @given(cases(), cases())
        def check(a, b):
            g = _check_against_oracle(*a)
            (na, pa, _), (nb, pb, _) = a, b
            same = na == nb and ObjectGraph(na, pa).edges == ObjectGraph(nb, pb).edges
            assert (g == Graph(nb, pb)) == same

        check()

    @pytest.mark.parametrize("form", FORMS)
    def test_duplicates_and_isolated_vertices(self, form):
        pairs = [(0, 1), (1, 0), (0, 1), (4, 2), (2, 4), (3, 4)]
        g = _check_against_oracle(7, pairs, form)
        assert g.m == 3 and g.degree(5) == g.degree(6) == 0

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("form", FORMS)
    def test_tiny(self, n, form):
        g = _check_against_oracle(n, [], form)
        assert g.m == 0 and g.max_degree() == 0

    def test_errors_property(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @st.composite
        def cases(draw):
            n = draw(st.integers(0, 6))
            v = st.integers(-2, n + 1)
            item = st.one_of(
                st.tuples(v, v),
                st.tuples(v, v),
                st.tuples(v, v),
                st.tuples(v),
                st.tuples(v, v, v),
                v,
            )
            return n, draw(st.lists(item, max_size=8))

        @settings(max_examples=300, deadline=None)
        @given(cases())
        def check(case):
            n, items = case
            want = _outcome(lambda: ObjectGraph(n, items))
            assert _outcome(lambda: Graph(n, items)) == want
            assert _outcome(lambda: Graph(n, iter(items))) == want

        check()

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1), (2, 2), (0, 5)],  # self-loop first
            [(0, 1), (0, 5), (2, 2)],  # out-of-range first
            [(0, 1), (-1, 2)],
            [(4, 4)],  # a self-loop outside the range reports the loop
            [(0, 1), (1,)],
            [(0, 1), (1, 2, 0)],
            [(0, 1), 3],
            [(1, 1), (2,)],  # the offender before a non-pair wins
        ],
    )
    @pytest.mark.parametrize("form", ["list", "generator"])
    def test_first_offender_message(self, edges, form):
        want = _outcome(lambda: ObjectGraph(3, edges))
        assert want is not None
        assert _outcome(lambda: Graph(3, _as_form(form, edges))) == want

    @pytest.mark.parametrize("dtype", ["int64", "int32", "uint8"])
    def test_first_offender_in_a_numpy_array(self, dtype):
        import numpy as np

        for rows in ([[0, 1], [2, 2], [0, 7]], [[0, 1], [0, 7], [2, 2]]):
            arr = np.array(rows, dtype=dtype)
            want = _outcome(lambda: ObjectGraph(3, arr))
            assert want is not None
            assert _outcome(lambda: Graph(3, arr)) == want
        # a numpy array that is not a column of pairs
        for arr in (np.arange(4, dtype=dtype), np.zeros((2, 3), dtype=dtype)):
            assert _outcome(lambda: Graph(3, arr)) == _outcome(
                lambda: ObjectGraph(3, arr)
            )

    def test_non_integer_endpoints_rejected(self):
        with pytest.raises(TypeError, match="integers"):
            Graph(3, [(0.0, 1.0)])
        with pytest.raises(TypeError):
            Graph(3, [("0", "1")])


class TestLazyObjectLayer:
    """CSR is the only stored adjacency: the object layer is built on the
    first object-level call, and CSR readers add no dtype copy."""

    def test_constructor_builds_no_object_layer(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        assert g._adj is None
        assert g.degree(1) == 2 and g.max_degree() == 2
        assert g.csr_rows() == [[1], [0, 2], [1], [4], [3]]
        assert g == Graph(5, [(4, 3), (2, 1), (1, 0)])
        assert g._adj is None
        assert g.neighbors(1) == (0, 2)
        assert g._adj is not None

    def test_csr_readers_add_no_int64_copy(self):
        from repro.graphs import generators as gen

        g = gen.forest_union_csr(500, 3, seed=0)
        assert sorted(g._csr) == ["int32"]
        g.max_degree()
        g.degree(7)
        g.degree_sequence()
        g.csr_rows()
        assert sorted(g._csr) == ["int32"]
        assert g._adj is None
