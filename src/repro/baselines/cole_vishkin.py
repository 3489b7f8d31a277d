"""Cole-Vishkin deterministic 3-coloring of oriented rings [10].

This is the algorithm behind the paper's reference point from [12]: on
rings, O(1)-coloring takes Theta(log* n) rounds in the worst case *and* in
the vertex-averaged sense -- no improvement is possible (Feuilloley), in
contrast to the general-graph results of this paper.  We include it both
as that negative-result exhibit and as a classic substrate algorithm.

The ring must come with a sense of direction (each vertex knows its
successor); :func:`run_ring_three_coloring` derives it from the canonical
layout of :func:`repro.graphs.generators.ring`.

Each Cole-Vishkin step: compare your color with your successor's as bit
strings, find the lowest differing bit index i with your bit b, and take
2*i + b as the new color.  The palette drops from B bits to
2 ceil(log2 B) + ... ~ log-fold per step, reaching {0..5} in log* n steps;
three final rounds recolor classes 5, 4, 3 greedily into {0, 1, 2}.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.coloring import ColoringResult
from repro.core.common import LocalView
from repro.graphs.graph import Graph
from repro.runtime.context import Context
from repro.runtime.network import SyncNetwork
from repro.runtime.session import current


def _cv_steps(id_space: int) -> int:
    """Number of Cole-Vishkin halving steps until the palette is <= 6."""
    p = max(id_space, 2)
    steps = 0
    while p > 6:
        bits = max((p - 1).bit_length(), 1)
        p = 2 * bits
        steps += 1
        if steps > 64:  # pragma: no cover - defensive
            break
    return steps


def _cv_reduce(c_self: int, c_succ: int) -> int:
    diff = c_self ^ c_succ
    i = (diff & -diff).bit_length() - 1  # lowest differing bit
    b = (c_self >> i) & 1
    return 2 * i + b


def _check_successor(graph: Graph, successor: Sequence[int] | np.ndarray) -> np.ndarray:
    """The successor map as an int64 column; raise unless every
    ``successor[v]`` is a neighbor of ``v``.

    Checked against the CSR arrays, so a ``Graph.from_csr`` ring never
    builds its Python adjacency just to be validated.
    """
    n = graph.n
    succ = np.asarray(successor, dtype=np.int64).reshape(-1)
    if succ.size != n:
        raise ValueError(f"successor has {succ.size} entries for {n} vertices")
    offsets, indices = graph.csr(dtype="auto")
    deg = (offsets[1:] - offsets[:-1]).astype(np.int64)
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    ok = np.zeros(n, dtype=bool)
    ok[src[indices == succ[src]]] = True
    bad = np.flatnonzero(~ok)
    if bad.size:
        v = int(bad[0])
        raise ValueError(f"successor[{v}] = {successor[v]} is not a neighbor")
    return succ


def run_ring_three_coloring(
    graph: Graph,
    successor: Sequence[int] | None = None,
    ids: Sequence[int] | None = None,
    seed: int = 0,
) -> ColoringResult:
    """3-color an oriented ring in Theta(log* n) rounds (avg == worst).

    ``successor[v]`` must be a neighbor of v and the successor map must
    form a single directed cycle; defaults to v -> (v+1) mod n, matching
    :func:`repro.graphs.generators.ring`.
    """
    n = graph.n
    if successor is None:
        successor = np.roll(np.arange(n, dtype=np.int64), -1)
    succ = _check_successor(graph, successor)
    if current().engine == "bulk":
        from repro.core.bulk import bulk_ring_three_coloring

        return bulk_ring_three_coloring(graph, succ, ids=ids, seed=seed)

    def program(ctx: Context):
        succ = ctx.config["successor"][ctx.v]
        steps = ctx.config["cv_steps"]
        view = LocalView()
        c = ctx.id
        for k in range(steps):
            tag = f"cv#{k}"
            ctx.broadcast((tag, c))
            yield
            view.absorb(ctx)
            cm = view.value(tag, succ)
            if cm is not None and cm != c:
                # keep the current color when the successor's step went
                # missing (crashed sender / dropped copy) or collided
                # with ours (possible once a step has been skipped):
                # the step degrades gracefully instead of crashing the
                # program, at the cost of the coloring invariant
                # (detected by the validators as a `violation` outcome).
                c = _cv_reduce(c, cm)
        # Reduce {0..5} -> {0..2}: classes 5, 4, 3 recolor greedily, one
        # class per exchange (a color class is an independent set).
        for cls in (5, 4, 3):
            tag = f"cvr{cls}"
            ctx.broadcast((tag, c))
            yield
            view.absorb(ctx)
            if c == cls:
                used = set(view.get(tag).values())
                c = next(col for col in (0, 1, 2) if col not in used)
        return (1, c)

    net = SyncNetwork(graph, ids=ids, seed=seed)
    net.config["successor"] = succ.tolist()
    net.config["cv_steps"] = _cv_steps(net.config["id_space"])
    res = net.run(program, max_rounds=net.config["cv_steps"] + 16)
    return ColoringResult(
        colors={v: c for v, (h, c) in res.outputs.items()},
        h_index={v: h for v, (h, c) in res.outputs.items()},
        metrics=res.metrics,
        palette_bound=3,
    )
