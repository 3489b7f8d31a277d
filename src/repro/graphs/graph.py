"""Immutable undirected graphs.

The network graph ``G = (V, E)`` of the distributed message-passing model.
Vertices are the integers ``0 .. n-1``; symmetry-breaking identifiers (the
``ID`` assignment ``I`` over which the vertex-averaged complexity measure
maximizes) are stored separately, so the same topology can be re-run under
many ID assignments.

The adjacency is stored once, in CSR form: an ``offsets`` array of length
``n + 1`` and an ``indices`` array of length ``2m`` holding every row
sorted ascending, built in numpy and kept in int32 whenever it fits.  The
columnar engines and validators read those arrays directly, and
``degree(v)`` is an offsets difference.  The Python-object layer the
generator engines iterate (``neighbors(v)`` tuples, per-vertex frozensets
for O(1) ``has_edge``, the sorted edge tuple) is built from the CSR only
on the first object-level call, so an n = 10^6 graph that only runs on
the bulk engine never pays for millions of tuples.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

#: largest value an int32 CSR array can address (offsets run to 2m,
#: indices to n - 1)
INT32_MAX = 2**31 - 1


def canonical_edge(u: int, v: int) -> tuple[int, int]:
    """Return the canonical ``(min, max)`` form of the undirected edge."""
    return (u, v) if u < v else (v, u)


def csr_index_dtype(n: int, m2: int, dtype: str = "auto"):
    """Resolve a CSR dtype request to a concrete numpy dtype.

    ``"auto"`` selects int32 when both the vertex ids (up to ``n - 1``)
    and the offset values (up to ``m2 = 2m``) fit, int64 otherwise --
    halving the columnar layout's footprint for every graph below ~2^31
    directed edges, which is what makes the n = 10^7 sweep cell fit in
    cache-friendly memory.  Forcing ``"int32"`` on an oversized graph is
    a loud error, never a silent overflow.
    """
    fits32 = n <= INT32_MAX and m2 <= INT32_MAX
    if dtype == "auto":
        return np.dtype(np.int32) if fits32 else np.dtype(np.int64)
    if dtype == "int32":
        if not fits32:
            raise ValueError(
                f"int32 CSR forced on an oversized graph: n={n}, 2m={m2} "
                f"exceed the int32 range ({INT32_MAX}); use dtype='auto' "
                "or dtype='int64'"
            )
        return np.dtype(np.int32)
    if dtype == "int64":
        return np.dtype(np.int64)
    raise ValueError(
        f"unknown CSR dtype {dtype!r}; expected 'auto', 'int32' or 'int64'"
    )


def _check_pair(n: int, u, v) -> None:
    """Raise the error for edge ``(u, v)`` if it is a self-loop or has an
    endpoint outside ``0 .. n-1``."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u} is not allowed")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u}, {v}) out of range for n={n}")


def _edge_pairs(n: int, edges):
    """``edges`` as a checked ``(k, 2)`` integer array.

    A ``(k, 2)`` integer numpy array is taken as it is; any other
    iterable is read pair by pair into int64.  The first offending edge
    in iteration order raises, with the message a Python loop of
    ``for u, v in edges`` plus :func:`_check_pair` would give: that loop
    is run only when the columnar read fails, to find and report the
    offender (non-pairs raise the unpacking error).
    """
    if not (
        isinstance(edges, np.ndarray)
        and edges.ndim == 2
        and edges.shape[1] == 2
        and edges.dtype.kind in "iu"
    ):
        if not isinstance(edges, (list, tuple)):
            edges = list(edges)
        try:
            if set(map(len, edges)) - {2}:
                raise ValueError("not all edges are pairs")
            flat = array("q", chain.from_iterable(edges))
        except (TypeError, ValueError, OverflowError):
            for u, v in edges:
                _check_pair(n, u, v)
            raise TypeError("edge endpoints must be integers") from None
        edges = np.frombuffer(flat, dtype=np.int64).reshape(-1, 2)
    u, v = edges[:, 0], edges[:, 1]
    if edges.size and (edges.min() < 0 or edges.max() >= n or (u == v).any()):
        bad = (u == v) | (u < 0) | (u >= n) | (v < 0) | (v >= n)
        _check_pair(n, *edges[int(np.argmax(bad))].tolist())
    return edges


class Graph:
    """An immutable, simple, undirected graph on vertices ``0 .. n-1``.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        Iterable of ``(u, v)`` pairs, or an ``(m, 2)`` integer numpy
        array.  Self-loops are rejected; duplicate edges (in either
        orientation) are collapsed.
    """

    __slots__ = ("_n", "_m", "_offsets", "_indices", "_csr", "_csr_rows",
                 "_adj", "_adj_sets", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        pairs = _edge_pairs(n, edges).astype(np.int64, copy=False)
        u, v = pairs[:, 0], pairs[:, 1]
        # dedup the packed (min, max) edge codes by a sort and an
        # adjacent compare (n = 0 admits no edge, so nothing divides by 0)
        codes = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
        codes = np.concatenate((codes[:1], codes[1:][codes[1:] != codes[:-1]]))
        lo, hi = codes // n, codes % n
        # both arc directions, ordered by (src, dst) through one packed key
        keys = np.sort(np.concatenate((codes, hi * n + lo)))
        want = csr_index_dtype(n, keys.size)
        offsets = np.zeros(n + 1, dtype=want)
        offsets[1:] = np.cumsum(np.bincount(keys // n, minlength=n))
        self._set_csr(offsets, (keys % n).astype(want))

    def _set_csr(self, offsets, indices) -> None:
        """Store the CSR arrays; the object layer stays unbuilt."""
        self._n = offsets.size - 1
        self._m = indices.size // 2
        self._offsets = offsets
        self._indices = indices
        self._csr = {offsets.dtype.name: (offsets, indices)}
        self._csr_rows = None
        self._adj = None
        self._adj_sets = None
        self._edges = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    def vertices(self) -> range:
        """The vertex set as a range object."""
        return range(self._n)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges in canonical ``(min, max)`` form, sorted."""
        self._materialize_objects()
        return self._edges

    def neighbors(self, v: int) -> tuple[int, ...]:
        """The sorted neighbors of ``v``."""
        self._materialize_objects()
        return self._adj[v]

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Every vertex's sorted neighbors: ``adjacency()[v] ==
        neighbors(v)``, in one call."""
        self._materialize_objects()
        return self._adj

    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        """Every vertex's neighbor set: ``neighbor_sets()[v] ==
        neighbor_set(v)``, in one call."""
        self._materialize_objects()
        return self._adj_sets

    def neighbor_set(self, v: int) -> frozenset[int]:
        """The neighbors of ``v`` as a frozenset (O(1) membership)."""
        self._materialize_objects()
        return self._adj_sets[v]

    def degree(self, v: int) -> int:
        """deg(v): the number of edges incident on ``v``."""
        return int(self._offsets[v + 1] - self._offsets[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge."""
        self._materialize_objects()
        return v in self._adj_sets[u]

    def max_degree(self) -> int:
        """Delta(G), the maximum degree (0 for the empty graph)."""
        return int(np.diff(self._offsets).max()) if self._n else 0

    def degree_sequence(self) -> list[int]:
        """All vertex degrees, indexed by vertex."""
        return np.diff(self._offsets).tolist()

    # ------------------------------------------------------------------
    # CSR adjacency view (the round engine's fast path)
    # ------------------------------------------------------------------
    def csr(self, dtype: str = "int64"):
        """The adjacency structure in CSR form: ``(offsets, indices)``.

        ``offsets`` is an array of length ``n + 1`` and ``indices`` an
        array of length ``2m``; the neighbors of ``v`` are
        ``indices[offsets[v]:offsets[v+1]]``, sorted ascending.  The
        stored arrays are returned as they are when their dtype is the
        one asked for; any other dtype is cast once and cached for the
        lifetime of the graph (the graph is immutable).

        ``dtype`` selects the index width: ``"int64"`` (the default,
        always valid), ``"int32"`` (loud :class:`ValueError` if ``n`` or
        ``2m`` exceed the int32 range), or ``"auto"`` (int32 when it
        fits, int64 otherwise — see :func:`csr_index_dtype`).
        """
        want = csr_index_dtype(self._n, 2 * self._m, dtype)
        view = self._csr.get(want.name)
        if view is None:
            view = (self._offsets.astype(want), self._indices.astype(want))
            self._csr[want.name] = view
        return view

    def csr_rows(self) -> list[list[int]]:
        """Per-vertex neighbor rows sliced out of the CSR arrays.

        A cached list-of-lists mirror of the CSR arrays holding plain
        Python ints, which is what the engine's halt-notice fan-out
        iterates: indexing containers with native ints is markedly faster
        than with numpy scalars.  The rows are shared -- callers must treat them as
        immutable and copy before mutating.
        """
        if self._csr_rows is None:
            off = self._offsets.tolist()
            idx = self._indices.tolist()
            self._csr_rows = [
                idx[off[v] : off[v + 1]] for v in range(self._n)
            ]
        return self._csr_rows

    @classmethod
    def from_csr(cls, offsets, indices) -> "Graph":
        """Build a graph directly from CSR arrays.

        ``offsets`` must be non-decreasing with ``offsets[0] == 0`` and
        ``offsets[-1] == len(indices)``; ``indices`` holds both
        orientations of every edge with each row sorted ascending (the
        invariants :meth:`csr` guarantees).  The arrays are stored as
        given, in their own dtype.
        """
        offsets = np.ascontiguousarray(offsets)
        indices = np.ascontiguousarray(indices)
        if offsets.ndim != 1 or offsets.size < 1 or offsets[0] != 0:
            raise ValueError("offsets must be 1-D with offsets[0] == 0")
        n = offsets.size - 1
        if int(offsets[-1]) != indices.size:
            raise ValueError(
                f"offsets[-1]={int(offsets[-1])} does not match "
                f"len(indices)={indices.size}"
            )
        if indices.size % 2:
            raise ValueError("indices must hold both orientations (even length)")
        if np.any(np.diff(offsets) < 0):
            raise ValueError("offsets must be non-decreasing")
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise ValueError(f"indices out of range for n={n}")
        g = cls.__new__(cls)
        g._set_csr(offsets, indices)
        return g

    def _materialize_objects(self) -> None:
        """Build the Python-object adjacency layer from CSR if absent."""
        if self._adj is not None:
            return
        rows = self.csr_rows()
        self._adj = tuple(tuple(r) for r in rows)
        self._adj_sets = tuple(frozenset(r) for r in rows)
        self._edges = tuple(
            (v, u) for v in range(self._n) for u in self._adj[v] if v < u
        )

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, vertices: Iterable[int]) -> tuple["Graph", dict[int, int]]:
        """The subgraph induced by ``vertices``.

        Returns the induced graph (re-indexed ``0..k-1``) together with the
        mapping from original vertex to new index.
        """
        self._materialize_objects()
        vs = sorted(set(vertices))
        index = {v: i for i, v in enumerate(vs)}
        keep = set(vs)
        edges = [
            (index[u], index[v])
            for u, v in self._edges
            if u in keep and v in keep
        ]
        return Graph(len(vs), edges), index

    def edge_subgraph_degrees(self, vertices: Iterable[int]) -> dict[int, int]:
        """Degrees of ``vertices`` inside the induced subgraph, without
        materialising it."""
        self._materialize_objects()
        keep = set(vertices)
        return {
            v: sum(1 for u in self._adj[v] if u in keep) for v in keep
        }

    def line_graph_neighbors(self, edge: tuple[int, int]) -> list[tuple[int, int]]:
        """Edges adjacent to ``edge`` in the line graph (sharing an endpoint)."""
        self._materialize_objects()
        u, v = edge
        out: list[tuple[int, int]] = []
        for w in self._adj[u]:
            if w != v:
                out.append(canonical_edge(u, w))
        for w in self._adj[v]:
            if w != u:
                out.append(canonical_edge(v, w))
        return out

    def connected_components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists (iterative DFS)."""
        self._materialize_objects()
        seen = [False] * self._n
        comps: list[list[int]] = []
        for s in range(self._n):
            if seen[s]:
                continue
            stack = [s]
            seen[s] = True
            comp = []
            while stack:
                v = stack.pop()
                comp.append(v)
                for u in self._adj[v]:
                    if not seen[u]:
                        seen[u] = True
                        stack.append(u)
            comps.append(sorted(comp))
        return comps

    def is_forest(self) -> bool:
        """Whether the graph is acyclic (a forest)."""
        return self._m == self._n - len(self.connected_components())

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    @classmethod
    def from_networkx(cls, g) -> "Graph":
        """Build from a :mod:`networkx` graph with arbitrary hashable nodes.

        Nodes are relabelled ``0..n-1`` in sorted-by-string order.
        """
        nodes = sorted(g.nodes(), key=str)
        index = {node: i for i, node in enumerate(nodes)}
        return cls(len(nodes), ((index[u], index[v]) for u, v in g.edges()))

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph`."""
        import networkx as nx

        self._materialize_objects()
        g = nx.Graph()
        g.add_nodes_from(range(self._n))
        g.add_edges_from(self._edges)
        return g

    @classmethod
    def from_adjacency(cls, adj: Mapping[int, Sequence[int]] | Sequence[Sequence[int]]) -> "Graph":
        """Build from an adjacency mapping or list."""
        if isinstance(adj, Mapping):
            n = (max(adj) + 1) if adj else 0
            items: Iterator[tuple[int, Sequence[int]]] = iter(adj.items())
        else:
            n = len(adj)
            items = iter(enumerate(adj))
        edges = []
        for v, nbrs in items:
            n = max(n, v + 1, *(u + 1 for u in nbrs)) if nbrs else max(n, v + 1)
            for u in nbrs:
                edges.append((v, u))
        return cls(n, edges)

    # ------------------------------------------------------------------
    # Dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._n == other._n
            and np.array_equal(self._offsets, other._offsets)
            and np.array_equal(self._indices, other._indices)
        )

    def __hash__(self) -> int:
        # the "auto" dtype is a function of (n, m), so equal graphs hash
        # the same bytes whatever dtype they were stored in
        return hash((self._n, self.csr(dtype="auto")[1].tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self._m})"
