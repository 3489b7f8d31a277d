"""Procedure Partition (Section 6.1) and the composition of Corollary 6.4.

Procedure Partition splits V into H-sets H_1, ..., H_ell such that every
vertex in H_i has at most A = (2 + eps) * a neighbors in H_i u H_{i+1} u ...
Its worst-case running time is Theta(log n) rounds, but -- Theorem 6.3 --
its vertex-averaged complexity is O(1), because at least an eps/(2+eps)
fraction of the active vertices joins (and terminates) every round.

The reusable generator :func:`join_h_set` participates in Partition until
the vertex joins a set; compositions keep the vertex alive afterwards.  The
iteration -> round mapping is injectable so the blocking composition of
Corollary 6.4 / Theorem 8.2 (one Partition decision every 1 + T_A + T_B
rounds) reuses the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Mapping, Sequence

import numpy as np

from repro.core.common import JOIN, LocalView, degree_bound, partition_length_bound
from repro.graphs.graph import Graph
from repro.runtime.bulk import ColumnMap
from repro.runtime.context import Context
from repro.runtime.metrics import RoundMetrics, TimeMetrics
from repro.runtime.network import RunResult, SyncNetwork
from repro.runtime.session import current


def join_h_set(
    ctx: Context,
    view: LocalView,
    A: int,
    decision_round: Callable[[int], int] = lambda i: i,
    join_tag: str = JOIN,
) -> Generator[None, None, int]:
    """Run Procedure Partition until this vertex joins an H-set.

    In iteration i (scheduled at global round ``decision_round(i)``, a
    strictly increasing function) the vertex joins H_i iff at most ``A`` of
    its neighbors are still un-joined, and broadcasts ``(join_tag, i)``.
    Returns the H-index i; the broadcast is in flight (delivered next
    round), so same-round joiners become visible one round later.
    """
    i = 0
    while True:
        i += 1
        target = decision_round(i)
        if target <= ctx.round and i > 1:
            raise ValueError("decision rounds must be strictly increasing")
        while ctx.round < target:
            yield
            view.absorb(ctx)
        joined = view.get(join_tag)
        unjoined = ctx.degree - len(joined)
        if unjoined <= A:
            ctx.broadcast((join_tag, i))
            return i


@dataclass(frozen=True)
class PartitionResult:
    """Output of running pure Procedure Partition."""

    #: vertex -> H-set index; a ColumnMap view on the bulk engine
    h_index: Mapping[int, int]
    A: int
    metrics: RoundMetrics
    #: virtual-time accounting; only asynchronous-mode runs fill this in
    times: "TimeMetrics | None" = None

    @property
    def num_sets(self) -> int:
        h = self.h_index
        if isinstance(h, ColumnMap):
            return int(h.values_array().max(initial=0))
        return max(h.values(), default=0)

    def h_sets(self) -> list[list[int]]:
        """H_1, ..., H_ell as vertex lists (index 0 = H_1)."""
        h = self.h_index
        if isinstance(h, ColumnMap):
            level = h.values_array()
            order = np.argsort(level, kind="stable")
            cuts = np.searchsorted(level[order], np.arange(2, self.num_sets + 1))
            parts = np.split(h.keys_array()[order], cuts) if level.size else []
            return [part.tolist() for part in parts]
        out: list[list[int]] = [[] for _ in range(self.num_sets)]
        for v, i in h.items():
            out[i - 1].append(v)
        return out


def run_partition(
    graph: Graph,
    a: int,
    eps: float = 1.0,
    ids: Sequence[int] | None = None,
    seed: int = 0,
) -> PartitionResult:
    """Execute pure Procedure Partition: each vertex terminates the moment
    it joins its H-set (this is the O(1) vertex-averaged primitive that
    Theorem 6.3 analyses)."""
    if current().engine == "bulk":
        from repro.core.bulk import bulk_partition

        return bulk_partition(graph, a, eps=eps, ids=ids, seed=seed)
    A = degree_bound(a, eps)

    def program(ctx: Context):
        view = LocalView()
        i = yield from join_h_set(ctx, view, A)
        return i

    net = SyncNetwork(graph, ids=ids, seed=seed, config={"a": a, "eps": eps, "A": A})
    res = net.run(program, max_rounds=partition_length_bound(graph.n, eps) + 4)
    return PartitionResult(
        h_index=dict(res.outputs), A=A, metrics=res.metrics, times=res.times
    )


# ---------------------------------------------------------------------------
# Unknown arboricity: Procedure General-Partition ([8], referenced in §6.1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneralPartitionResult:
    """Output of the unknown-arboricity reduction."""

    h_index: dict[int, int]  # globally ordered H-set index
    phase: dict[int, int]  # doubling phase (arboricity guess 2^j) per vertex
    a_estimate: int  # the largest guess any vertex needed (< 4a)
    A: int  # the degree bound corresponding to a_estimate
    metrics: RoundMetrics


def run_general_partition(
    graph: Graph,
    eps: float = 1.0,
    ids: Sequence[int] | None = None,
    seed: int = 0,
) -> GeneralPartitionResult:
    """The standard reduction from unknown to known arboricity the paper
    points to (Procedure General-Partition of [8]): run Partition in
    *doubling phases* with arboricity guesses a_j = 2^j, each for the full
    iteration budget of its guess.  Phases with a_j < a(G) may stall --
    vertices that fail to join simply carry over -- and once a_j >= a(G)
    the usual guarantee kicks in, so every vertex joins by phase
    ceil(log2 a) at a constant-factor cost in rounds and in the degree
    bound (A <= (2+eps) * 2a).

    The resulting sets, ordered phase-major, still satisfy the H-partition
    property: a vertex joining with guess a_j had at most (2+eps) a_j
    un-joined neighbors at its decision, and all later sets (of this or
    any later phase) are subsets of those.
    """
    n = graph.n

    def program(ctx: Context):
        view = LocalView()
        offset = 0
        j = 0
        global_index = 0
        while True:
            a_j = 1 << j
            A_j = degree_bound(a_j, eps)
            budget = partition_length_bound(n, eps)
            for local in range(1, budget + 1):
                global_index = offset + local
                target = global_index  # one decision per round, phase-major
                while ctx.round < target:
                    yield
                    view.absorb(ctx)
                joined = view.get(JOIN)
                if ctx.degree - len(joined) <= A_j:
                    ctx.broadcast((JOIN, global_index))
                    return (global_index, j, a_j)
            offset += budget
            j += 1
            if (1 << j) > max(n, 1):  # pragma: no cover - defensive
                raise AssertionError("arboricity guess exceeded n")

    net = SyncNetwork(graph, ids=ids, seed=seed, config={"eps": eps})
    budget = partition_length_bound(n, eps)
    max_rounds = budget * (max(n, 2).bit_length() + 2) + 16
    res = net.run(program, max_rounds=max_rounds)
    phases = {v: out[1] for v, out in res.outputs.items()}
    a_est = max((out[2] for out in res.outputs.values()), default=1)
    return GeneralPartitionResult(
        h_index={v: out[0] for v, out in res.outputs.items()},
        phase=phases,
        a_estimate=a_est,
        A=degree_bound(a_est, eps),
        metrics=res.metrics,
    )


# ---------------------------------------------------------------------------
# Corollary 6.4: composing Partition with a per-H-set algorithm
# ---------------------------------------------------------------------------


def blocking_schedule(period: int) -> Callable[[int], int]:
    """The Corollary 6.4 schedule: iteration i of Partition decides at round
    (i - 1) * period + 1, leaving ``period - 1`` rounds for the auxiliary
    algorithm to run on the newly formed H-set before the next iteration."""
    if period < 1:
        raise ValueError("period must be >= 1")
    return lambda i: (i - 1) * period + 1


def compose_with_algorithm(
    graph: Graph,
    a: int,
    per_set_algorithm: Callable[
        [Context, LocalView, int, dict[int, int]], Generator[None, None, object]
    ],
    t_aux: int,
    eps: float = 1.0,
    ids: Sequence[int] | None = None,
    seed: int = 0,
    extra_config: dict | None = None,
    max_rounds: int | None = None,
) -> RunResult:
    """The algorithm "C" of Corollary 6.4.

    In each iteration, one Partition decision round forms H_i; its members
    then run ``per_set_algorithm`` on G(H_i) for at most ``t_aux`` rounds
    and terminate with its return value.  Iterations are sequential: the
    next decision round is scheduled ``t_aux + 1`` rounds later, and
    not-yet-joined vertices idle (and keep paying rounds) meanwhile --
    exactly the accounting of the corollary.

    ``per_set_algorithm(ctx, view, h_index, same_set_neighbors)`` receives
    the neighbors that joined the same H-set, as a neighbor -> H-index map
    in ``ctx.neighbors`` order; neighbors absent from it are in other sets.
    """
    A = degree_bound(a, eps)
    period = t_aux + 2  # decision + 1 round to learn same-round joiners + t_aux

    def program(ctx: Context):
        view = LocalView()
        i = yield from join_h_set(ctx, view, A, blocking_schedule(period))
        # One round so simultaneous joiners' announcements arrive.
        yield
        view.absorb(ctx)
        joined = view.get(JOIN)
        same = {u: i for u in ctx.neighbors if joined.get(u) == i}
        out = yield from per_set_algorithm(ctx, view, i, same)
        return out

    config = {"a": a, "eps": eps, "A": A}
    if extra_config:
        config.update(extra_config)
    net = SyncNetwork(graph, ids=ids, seed=seed, config=config)
    if max_rounds is None:
        max_rounds = (partition_length_bound(graph.n, eps) + 2) * period + 8
    return net.run(program, max_rounds=max_rounds)
