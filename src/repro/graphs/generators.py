"""Workload generators: the graph families the paper's claims quantify over.

The paper's results are parameterised by the number of vertices ``n``, the
arboricity ``a`` and the maximum degree ``Delta``.  The generators here cover:

* the *constant-arboricity* families the introduction motivates (rings,
  trees, planar grids, graphs of bounded genus stand-ins),
* *prescribed-arboricity* families built as unions of random spanning
  forests (arboricity <= a by construction; tests verify it is close to a),
* *high-degree, low-arboricity* families (star forests, caterpillars) where
  the paper's a-vs-Delta separation is largest, and
* general graphs (G(n, p), random regular) for the Delta+1 results.

All randomised generators take an explicit ``seed`` and are deterministic
given it.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.graphs.graph import Graph, canonical_edge

# ---------------------------------------------------------------------------
# Deterministic families
# ---------------------------------------------------------------------------


def ring(n: int) -> Graph:
    """The n-cycle C_n (arboricity 2, Delta = 2).  Requires n >= 3."""
    if n < 3:
        raise ValueError("a ring needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    """The n-vertex path P_n (a tree; arboricity 1)."""
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star(n: int) -> Graph:
    """A star with one hub and n-1 leaves (arboricity 1, Delta = n-1)."""
    return Graph(n, [(0, i) for i in range(1, n)])


def complete(n: int) -> Graph:
    """K_n (arboricity ceil(n/2))."""
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(p: int, q: int) -> Graph:
    """K_{p,q} (arboricity ceil(pq / (p+q-1)))."""
    return Graph(p + q, [(i, p + j) for i in range(p) for j in range(q)])


def binary_tree(n: int) -> Graph:
    """The complete-binary-tree-shaped tree on n vertices (heap layout)."""
    return Graph(n, [((i - 1) // 2, i) for i in range(1, n)])


def kary_tree(n: int, k: int) -> Graph:
    """The complete k-ary tree on n vertices (heap layout).

    With branching k > A = (2+eps)a this is the canonical *slow-peeling*
    workload: Procedure Partition removes exactly one leaf layer per round
    (internal vertices keep degree k+1 > A until their children leave), so
    the H-partition has Theta(log_k n) sets while the arboricity stays 1 --
    the worst-case/averaged gap in its purest form.
    """
    if k < 1:
        raise ValueError("branching factor must be >= 1")
    return Graph(n, [((i - 1) // k, i) for i in range(1, n)])


def grid(rows: int, cols: int) -> Graph:
    """The rows x cols planar grid (arboricity 2, Delta <= 4)."""
    n = rows * cols
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(n, edges)


def triangular_grid(rows: int, cols: int) -> Graph:
    """Grid plus one diagonal per cell: planar, arboricity <= 3, Delta <= 6."""
    n = rows * cols
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
            if c + 1 < cols and r + 1 < rows:
                edges.append((v, v + cols + 1))
    return Graph(n, edges)


def hypercube(dim: int) -> Graph:
    """The dim-dimensional hypercube Q_dim (n = 2^dim, Delta = dim)."""
    n = 1 << dim
    edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(dim) if v < v ^ (1 << b)]
    return Graph(n, edges)


def caterpillar(spine: int, legs: int) -> Graph:
    """A caterpillar tree: a spine path where every spine vertex carries
    ``legs`` pendant leaves.  Arboricity 1, Delta = legs + 2."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for s in range(spine):
        for _ in range(legs):
            edges.append((s, nxt))
            nxt += 1
    return Graph(nxt, edges)


def star_forest(stars: int, leaves: int) -> Graph:
    """A disjoint union of ``stars`` stars with ``leaves`` leaves each.
    Arboricity 1, Delta = leaves: maximal a-vs-Delta separation."""
    edges = []
    per = leaves + 1
    for s in range(stars):
        hub = s * per
        edges.extend((hub, hub + i) for i in range(1, per))
    return Graph(stars * per, edges)


# ---------------------------------------------------------------------------
# Randomised families
# ---------------------------------------------------------------------------


def random_tree(n: int, seed: int = 0, attachment: str = "uniform") -> Graph:
    """A random tree via random attachment.

    ``attachment='uniform'`` attaches vertex i to a uniformly random earlier
    vertex (random recursive tree, Delta = O(log n) w.h.p.).
    ``attachment='preferential'`` biases towards high-degree vertices
    (heavier-tailed degrees).
    """
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    endpoints: list[int] = [0]
    for v in range(1, n):
        if attachment == "uniform":
            u = rng.randrange(v)
        elif attachment == "preferential":
            u = rng.choice(endpoints)
        else:
            raise ValueError(f"unknown attachment {attachment!r}")
        edges.append((u, v))
        endpoints.append(u)
        endpoints.append(v)
    return Graph(n, edges)


def random_forest(n: int, trees: int, seed: int = 0) -> Graph:
    """A uniform-attachment forest on n vertices with ``trees`` components."""
    if not 1 <= trees <= max(n, 1):
        raise ValueError("component count out of range")
    rng = random.Random(seed)
    roots = list(range(trees))
    edges = []
    for v in range(trees, n):
        edges.append((rng.randrange(v), v))
    return Graph(n, edges) if n else Graph(0)


def union_of_forests(n: int, a: int, seed: int = 0, density: float = 1.0) -> Graph:
    """A graph with arboricity <= a, built as the union of ``a`` independent
    random spanning forests on a shared vertex set.

    ``density`` in (0, 1] keeps that fraction of each forest's edges.  With
    density 1 the graph has close to a*(n-1) edges, so its Nash-Williams
    density is close to a: the prescribed arboricity is essentially tight
    (verified by tests).  This is the canonical bounded-arboricity workload
    for Tables 1-2.
    """
    if a < 1:
        raise ValueError("arboricity must be >= 1")
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    for _ in range(a):
        perm = list(range(n))
        rng.shuffle(perm)
        for i in range(1, n):
            if density < 1.0 and rng.random() > density:
                continue
            u = perm[rng.randrange(i)]
            v = perm[i]
            edges.add(canonical_edge(u, v))
    return Graph(n, edges)


def forest_union_csr(n: int, a: int, seed: int = 0) -> Graph:
    """A prescribed-arboricity forest union sampled columnar.

    Numpy-vectorised sibling of :func:`union_of_forests` for graphs too
    large for a Python edge set (n >= 10^6): each of the ``a`` forests
    attaches ``perm[i]`` to ``perm[j]`` for a random ``j < i`` under an
    independent permutation, and the pairs go to :class:`Graph` as one
    array, which collapses the duplicates across forests.  Arboricity
    <= a by construction; the edge sample differs from
    ``union_of_forests`` at equal seeds (different RNG), so treat the
    two as distinct workloads.
    """
    import numpy as np

    if a < 1:
        raise ValueError("arboricity must be >= 1")
    if n < 2:
        return Graph(n)
    rng = np.random.default_rng(seed)
    us, vs = [], []
    for _ in range(a):
        perm = rng.permutation(n)
        j = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
        us.append(perm[j])
        vs.append(perm[1:])
    # an (m, 2) view of two contiguous rows: no interleaving copy
    return Graph(n, np.stack((np.concatenate(us), np.concatenate(vs))).T)


def permutation_ids(n: int, seed: int = 0):
    """A random permutation ID assignment as an int64 numpy array.

    Vectorised sibling of :func:`random_ids` for columnar runs at
    n >= 10^6 (the Python-list shuffle is the bottleneck there).  Uses
    numpy's Generator, so the permutation differs from ``random_ids`` at
    equal seeds.
    """
    import numpy as np

    return np.random.default_rng(seed).permutation(n).astype(np.int64)


def gnp(n: int, p: float, seed: int = 0) -> Graph:
    """Erdos-Renyi G(n, p) via geometric skipping (O(m) expected time)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    rng = random.Random(seed)
    edges = []
    if p > 0:
        import math

        log_q = math.log1p(-p) if p < 1.0 else None
        limit = float(n) * n + 1  # a skip beyond every remaining pair
        v, w = 1, -1
        while v < n:
            if p >= 1.0:
                w += 1
            else:
                gap = math.log(1.0 - rng.random()) / log_q
                if gap >= limit:
                    break
                w += 1 + int(gap)
            while w >= v and v < n:
                w -= v
                v += 1
            if v < n:
                edges.append((w, v))
    return Graph(n, edges)


def random_regular(n: int, d: int, seed: int = 0, retries: int = 200) -> Graph:
    """An (approximately) d-regular simple graph via the configuration model
    with rejection of self-loops/multi-edges.  ``n * d`` must be even."""
    if (n * d) % 2 != 0:
        raise ValueError("n * d must be even")
    rng = random.Random(seed)
    for _ in range(retries):
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or canonical_edge(u, v) in edges:
                ok = False
                break
            edges.add(canonical_edge(u, v))
        if ok:
            return Graph(n, edges)
    # Fall back to a near-regular graph: drop conflicting stubs.
    stubs = [v for v in range(n) for _ in range(d)]
    rng.shuffle(stubs)
    edges = set()
    for i in range(0, len(stubs), 2):
        u, v = stubs[i], stubs[i + 1]
        if u != v:
            edges.add(canonical_edge(u, v))
    return Graph(n, edges)


def planted_partition_ring(n: int, chords: int, seed: int = 0) -> Graph:
    """A ring with ``chords`` random chords: still arboricity <= 3 when
    chords <= n, but with shortcuts that exercise non-local structure."""
    rng = random.Random(seed)
    g_edges = [(i, (i + 1) % n) for i in range(n)]
    for _ in range(chords):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            g_edges.append((u, v))
    return Graph(n, g_edges)


def disjoint_union(graphs: Iterable[Graph]) -> Graph:
    """The disjoint union of several graphs (vertex-shifted)."""
    edges: list[tuple[int, int]] = []
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges())
        offset += g.n
    return Graph(offset, edges)


# ---------------------------------------------------------------------------
# ID assignments
# ---------------------------------------------------------------------------


def sequential_ids(n: int) -> list[int]:
    """The identity ID assignment (vertex v has ID v)."""
    return list(range(n))


def random_ids(n: int, seed: int = 0, id_space: int | None = None) -> list[int]:
    """Distinct IDs drawn as a random subset of ``range(id_space)``.

    The vertex-averaged measure maximizes over ID assignments; benchmarks
    approximate the max by sampling several random assignments.  By default
    the ID space is ``n`` (a permutation); a larger space stresses the
    palette machinery, whose color counts depend on the ID range.
    """
    rng = random.Random(seed)
    if id_space is None:
        ids = list(range(n))
        rng.shuffle(ids)
        return ids
    if id_space < n:
        raise ValueError("ID space smaller than vertex count")
    return rng.sample(range(id_space), n)


def adversarial_ids_descending_degree(g: Graph) -> list[int]:
    """Give the highest IDs to the highest-degree vertices.

    For orientation-by-ID algorithms this concentrates out-edges at hubs,
    a (mildly) adversarial assignment used in robustness tests.
    """
    order = sorted(g.vertices(), key=lambda v: (g.degree(v), v))
    ids = [0] * g.n
    for rank, v in enumerate(order):
        ids[v] = rank
    return ids
