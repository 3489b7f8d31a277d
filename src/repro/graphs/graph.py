"""Immutable undirected graphs.

The network graph ``G = (V, E)`` of the distributed message-passing model.
Vertices are the integers ``0 .. n-1``; symmetry-breaking identifiers (the
``ID`` assignment ``I`` over which the vertex-averaged complexity measure
maximizes) are stored separately, so the same topology can be re-run under
many ID assignments.

The representation is optimised for the access pattern of the round
simulator: ``neighbors(v)`` is a tuple lookup, ``degree(v)`` is O(1), and
edge-set membership is O(1) via per-vertex frozensets.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

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
    import numpy as np

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


class Graph:
    """An immutable, simple, undirected graph on vertices ``0 .. n-1``.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        Iterable of ``(u, v)`` pairs.  Self-loops are rejected; duplicate
        edges (in either orientation) are collapsed.
    """

    __slots__ = ("_n", "_adj", "_adj_sets", "_edges", "_m", "_csr", "_csr_rows")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        self._n = n
        self._csr = {}
        self._csr_rows = None
        adj: list[list[int]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
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
        self._adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(nbrs)) for nbrs in adj
        )
        self._adj_sets: tuple[frozenset[int], ...] = tuple(
            frozenset(nbrs) for nbrs in self._adj
        )
        self._edges: tuple[tuple[int, int], ...] = tuple(sorted(seen))
        self._m = len(self._edges)

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

    def neighbor_set(self, v: int) -> frozenset[int]:
        """The neighbors of ``v`` as a frozenset (O(1) membership)."""
        self._materialize_objects()
        return self._adj_sets[v]

    def degree(self, v: int) -> int:
        """deg(v): the number of edges incident on ``v``."""
        if self._adj is None:
            offsets, _ = self.csr()
            return int(offsets[v + 1] - offsets[v])
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge."""
        self._materialize_objects()
        return v in self._adj_sets[u]

    def max_degree(self) -> int:
        """Delta(G), the maximum degree (0 for the empty graph)."""
        if self._n == 0:
            return 0
        if self._adj is None:
            import numpy as np

            offsets, _ = self.csr()
            return int(np.max(np.diff(offsets)))
        return max(len(nbrs) for nbrs in self._adj)

    def degree_sequence(self) -> list[int]:
        """All vertex degrees, indexed by vertex."""
        if self._adj is None:
            import numpy as np

            offsets, _ = self.csr()
            return np.diff(offsets).tolist()
        return [len(nbrs) for nbrs in self._adj]

    # ------------------------------------------------------------------
    # CSR adjacency view (the round engine's fast path)
    # ------------------------------------------------------------------
    def csr(self, dtype: str = "int64"):
        """The adjacency structure in CSR form: ``(offsets, indices)``.

        ``offsets`` is an array of length ``n + 1`` and ``indices`` an
        array of length ``2m``; the neighbors of ``v`` are
        ``indices[offsets[v]:offsets[v+1]]``, sorted ascending.  Built
        lazily on first use and cached per index dtype for the lifetime
        of the graph (the graph is immutable), so repeated executions
        over the same topology share one flat adjacency encoding.

        ``dtype`` selects the index width: ``"int64"`` (the default,
        always valid), ``"int32"`` (loud :class:`ValueError` if ``n`` or
        ``2m`` exceed the int32 range), or ``"auto"`` (int32 when it
        fits, int64 otherwise — see :func:`csr_index_dtype`).
        """
        import numpy as np

        want = csr_index_dtype(self._n, 2 * self._m, dtype)
        cached = self._csr.get(want.name)
        if cached is not None:
            return cached
        if self._csr:
            # Cast an already-built view rather than rebuilding from the
            # object layer (which may not exist for from_csr graphs).
            offsets, indices = next(iter(self._csr.values()))
            view = (offsets.astype(want), indices.astype(want))
        else:
            offsets = np.zeros(self._n + 1, dtype=want)
            if self._n:
                offsets[1:] = np.cumsum(
                    np.fromiter(
                        (len(nbrs) for nbrs in self._adj),
                        dtype=want,
                        count=self._n,
                    )
                )
            indices = np.fromiter(
                (u for nbrs in self._adj for u in nbrs),
                dtype=want,
                count=2 * self._m,
            )
            view = (offsets, indices)
        self._csr[want.name] = view
        return view

    def csr_rows(self) -> list[list[int]]:
        """Per-vertex neighbor rows sliced out of :meth:`csr`.

        A cached list-of-lists mirror of the CSR arrays holding plain
        Python ints, which is what the engine's object-level loops
        (broadcast fan-out, halt-notice delivery) iterate: indexing
        containers with native ints is markedly faster than with numpy
        scalars.  The rows are shared -- callers must treat them as
        immutable and copy before mutating.
        """
        if self._csr_rows is None:
            offsets, indices = self.csr()
            off = offsets.tolist()
            idx = indices.tolist()
            self._csr_rows = [
                idx[off[v] : off[v + 1]] for v in range(self._n)
            ]
        return self._csr_rows

    @classmethod
    def from_csr(cls, offsets, indices) -> "Graph":
        """Build a graph directly from CSR arrays, skipping the object layer.

        ``offsets`` must be non-decreasing with ``offsets[0] == 0`` and
        ``offsets[-1] == len(indices)``; ``indices`` holds both
        orientations of every edge with each row sorted ascending (the
        invariants :meth:`csr` guarantees).  The Python-object adjacency
        (tuples, frozensets, the edge list) is materialised lazily only
        if an object-level accessor is called, so columnar-only pipelines
        can hold an n = 10^7 graph in a few hundred MB instead of tens of
        GB of tuples.
        """
        import numpy as np

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
        g._n = n
        g._m = indices.size // 2
        g._adj = None
        g._adj_sets = None
        g._edges = None
        g._csr_rows = None
        g._csr = {np.dtype(offsets.dtype).name: (offsets, indices)}
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
        self._materialize_objects()
        other._materialize_objects()
        return self._n == other._n and self._edges == other._edges

    def __hash__(self) -> int:
        self._materialize_objects()
        return hash((self._n, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self._m})"
