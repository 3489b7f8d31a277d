"""Differential property: the columnar validators against the loop oracle.

Small random graphs (the empty graph and isolated vertices included)
carry a valid or a deliberately corrupted solution.  The validators of
``repro.verify`` and the survivor checks of ``repro.zoo.checks``, run on
a CSR-only copy of the graph, must accept and reject exactly the cases
the loop-form oracle in ``tests/verify/oracle.py`` does, with the same
``VerificationError`` message, and must never build the copy's Python
object layer.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

from hypothesis import example, given, settings, strategies as st

from repro import verify
from repro.graphs.graph import Graph
from repro.verify import VerificationError
from repro.zoo import checks
from tests.verify import oracle

MAX_N = 20

CORRUPTIONS = (
    "none",
    "flip-mis-bit",
    "copy-neighbor-color",
    "lower-h-index",
    "drop-key",
    "add-out-of-range-vertex",
    "shrink-survivors",
)


def _outcome(check, *args):
    try:
        check(*args)
    except VerificationError as e:
        return str(e)
    return None


def _greedy_mis(g):
    mis: set[int] = set()
    for v in g.vertices():
        if not any(u in mis for u in g.neighbors(v)):
            mis.add(v)
    return mis


def _greedy_colors(g, rng):
    shape = rng.choice([lambda c: c, lambda c: (c, "t"), lambda c: f"c{c}"])
    raw: dict[int, int] = {}
    for v in g.vertices():
        taken = {raw[u] for u in g.neighbors(v) if u in raw}
        raw[v] = min(c for c in range(g.n + 1) if c not in taken)
    return {v: shape(c) for v, c in raw.items()}


def _peel(g, bound):
    """H-indices by peeling vertices of remaining degree <= bound; when
    peeling stalls, the rest share the last level (an invalid partition)."""
    h: dict[int, int] = {}
    level = 0
    while len(h) < g.n:
        level += 1
        rest = [v for v in g.vertices() if v not in h]
        peel = [
            v for v in rest
            if sum(1 for u in g.neighbors(v) if u not in h) <= bound
        ] or rest
        for v in peel:
            h[v] = level
    return h


def _solution(g, rng):
    n = g.n
    mis = _greedy_mis(g)
    colors = _greedy_colors(g, rng)
    used = len(set(colors.values()))
    crashed = set(rng.sample(range(n), rng.randint(0, n // 4))) if n else set()
    return SimpleNamespace(
        in_mis={v: v in mis for v in g.vertices()},
        colors=colors,
        max_colors=rng.choice([None, used, max(used - 1, 0)]),
        defective={v: rng.randrange(3) for v in g.vertices()},
        max_defect=rng.randint(0, 2),
        A=rng.randint(1, 3),
        h_index=None,
        alive=set(g.vertices()) - crashed,
    )


def _corrupt(sol, kind, g, rng):
    n = g.n
    if kind == "none" or (n == 0 and kind != "add-out-of-range-vertex"):
        return
    v = rng.randrange(n) if n else 0
    if kind == "flip-mis-bit":
        sol.in_mis[v] = not sol.in_mis[v]
    elif kind == "copy-neighbor-color":
        nbrs = g.neighbors(v)
        if nbrs:
            u = rng.choice(nbrs)
            sol.colors[v] = sol.colors[u]
            sol.defective[v] = sol.defective[u]
    elif kind == "lower-h-index":
        sol.h_index[v] -= rng.randint(1, 2)
    elif kind == "drop-key":
        for mapping in (sol.in_mis, sol.colors, sol.defective, sol.h_index):
            mapping.pop(v, None)
    elif kind == "add-out-of-range-vertex":
        w = rng.choice([n, n + 3, -1])
        sol.in_mis[w] = True
        sol.colors[w] = sol.defective[w] = 0
        sol.h_index[w] = 1
    elif kind == "shrink-survivors":
        sol.alive -= set(rng.sample(sorted(sol.alive), len(sol.alive) // 2))


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=MAX_N),
    density=st.floats(min_value=0.0, max_value=0.6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(CORRUPTIONS),
)
@example(n=0, density=0.0, seed=0, kind="none")
@example(n=0, density=0.0, seed=1, kind="add-out-of-range-vertex")
@example(n=4, density=0.0, seed=2, kind="none")
@example(n=5, density=1.0, seed=3, kind="none")  # K5: peeling stalls
def test_columnar_validators_match_loop_oracle(n, density, seed, kind):
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, [e for e in pairs if rng.random() < density])
    offsets, indices = g.csr()
    cg = Graph.from_csr(offsets.copy(), indices.copy())

    sol = _solution(g, rng)
    sol.h_index = _peel(g, sol.A)
    _corrupt(sol, kind, g, rng)
    mis = {v for v, flag in sol.in_mis.items() if flag}
    res = SimpleNamespace(
        colors=sol.colors, h_index=sol.h_index, A=sol.A, in_mis=sol.in_mis, mis=mis
    )

    cases = [
        (verify.assert_maximal_independent_set, oracle.assert_maximal_independent_set, (mis,)),
        (verify.assert_proper_coloring, oracle.assert_proper_coloring, (sol.colors, sol.max_colors)),
        (
            verify.assert_defective_coloring,
            oracle.assert_defective_coloring,
            (sol.defective, sol.max_defect, sol.max_colors),
        ),
        (verify.assert_h_partition, oracle.assert_h_partition, (sol.h_index, sol.A)),
        (verify.assert_h_partition, oracle.assert_h_partition, (sol.h_index, sol.A, sol.alive)),
        (checks.check_mis, oracle.check_mis, (res, sol.alive)),
        (checks.check_vertex_coloring, oracle.check_vertex_coloring, (res, sol.alive)),
        (checks.check_partition, oracle.check_partition, (res, sol.alive)),
    ]
    for columnar, loop, args in cases:
        assert _outcome(columnar, cg, *args) == _outcome(loop, g, *args), (
            columnar.__name__, kind
        )
    assert cg._adj is None
