"""Procedure One-Plus-Eta-Arb-Col and Procedure Legal-Coloring
(Section 7.8.2): O(a^{1+eta})-vertex-coloring with vertex-averaged
complexity O(log a log log n).

Recursion structure (paper, steps 1-3):

* If the current arboricity bound is below the constant C, color the
  subgraph directly (*base*: H-partition + within-set Linial + "wait for
  your parents" recolor wave, O(A) colors -- the Theorem 5.15 / [8]
  machinery).
* Otherwise, compute an H-partition of the subgraph and let H be the union
  of its first r = ceil(2 log log n) H-sets.  The vertices of H run
  Procedure H-Arbdefective-Coloring -- pick the color of {1..k} used by the
  fewest parents under the (H-index, psi) orientation -- and recurse, each
  color class being a subgraph of arboricity <= ceil(A / k) ~ a / C.  The
  leftover V \\ H (only ~n / log^2 n vertices, Lemma 7.20) runs Procedure
  Legal-Coloring: the same arbdefective splitting iterated over the *full*
  partition until the arboricity drops to p, then base-colored.

Every subgraph of every recursion level is identified by its *path* (the
sequence of branch decisions); vertices announce their decision lists, so
each vertex always knows which neighbors share its current subgraph.  All
structure inside a subgraph is computed with the clock-free primitives of
:mod:`repro.core.defective` (asynchronous H-partition) and
:mod:`repro.core.arb_linial` (self-paced Linial steps, priority waves).

Substitutions (DESIGN.md #4): psi is a *proper* within-set coloring
(defect 0), so the arbdefective classes are even cleaner than the paper's
(no a/t defect term) at the cost of an O(A^2)-long wave per level instead
of O(t^2) -- identical asymptotics for constant t, and the arbdefective
quality is verified exactly by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Generator, Hashable, Sequence

from repro.analysis.logstar import ilog
from repro.core.arb_linial import arb_linial_steps, priority_wave, _step_tag
from repro.core.coloring import ColoringResult
from repro.core.common import LocalView, degree_bound, partition_length_bound
from repro.core.coverfree import palette_schedule
from repro.core.defective import arbdefective_choose, async_h_partition
from repro.graphs.graph import Graph
from repro.runtime.context import Context
from repro.runtime.network import SyncNetwork

DEC = "opx:dec"  # broadcast: tuple of this vertex's branch decisions so far


class _ScheduleCache:
    """Shared, deterministic cache of Linial family schedules per degree
    bound (common knowledge: a pure function of (id_space, A))."""

    def __init__(self, id_space: int) -> None:
        self.id_space = id_space
        self._cache: dict[int, list] = {}

    def get(self, A: int):
        if A not in self._cache:
            self._cache[A] = palette_schedule(self.id_space, A)
        return self._cache[A]


def _await_members(
    ctx: Context, view: LocalView, path: tuple
) -> Generator[None, None, list[int]]:
    """Wait until every neighbor's relation to ``path`` is settled: the
    neighbor has announced at least len(path) decisions, or its announced
    decisions already diverge.  Returns the neighbors sharing the path."""
    level = len(path)

    def unsettled(dec: tuple | None) -> bool:
        if dec is None:
            return level > 0  # nothing announced yet but decisions pending
        if len(dec) < level and dec == path[: len(dec)]:
            return True  # proper prefix: could still join this subgraph
        return False

    while True:
        decs = view.get(DEC)
        pending = [u for u in ctx.neighbors if unsettled(decs.get(u))]
        if not pending:
            break
        yield
        view.absorb(ctx)
    decs = view.get(DEC)
    return [
        u
        for u in ctx.neighbors
        if (d := decs.get(u)) is not None
        and len(d) >= level
        and d[:level] == path
    ] if level > 0 else list(ctx.neighbors)


def _structure(
    ctx: Context,
    view: LocalView,
    members: list[int],
    A: int,
    path: tuple,
    schedules: _ScheduleCache,
):
    """H-partition + within-set psi of the subgraph on ``members``:
    returns (h, psi, exact_h per member, psi per same-set member)."""
    tagp = f"hp{path}"
    h = yield from async_h_partition(ctx, view, members, A, tag=tagp)
    bucket = yield from view.wait_for(ctx, tagp + "x", members)
    exacts = {u: bucket[u] for u in members}
    same = [u for u in members if exacts[u] == h]
    schedule = schedules.get(A)
    psi = yield from arb_linial_steps(ctx, view, same, schedule, tag=f"ps{path}")
    last = _step_tag(f"ps{path}", len(schedule))
    ctx.broadcast((last, psi))
    bucket = yield from view.wait_for(ctx, last, same)
    psis = {u: bucket[u] for u in same}
    return h, psi, exacts, psis


def _wave_parents(
    ctx: Context,
    h: int,
    psi: int,
    exacts: dict[int, int],
    psis: dict[int, int],
    members: Sequence[int],
    h_cap: int | None = None,
) -> list[int]:
    """Parents under the (H-index, psi) acyclic orientation, optionally
    restricted to H-sets with index <= h_cap."""
    parents = []
    for u in members:
        hu = exacts[u]
        if h_cap is not None and hu > h_cap:
            continue
        if hu > h or (hu == h and psis[u] > psi):
            parents.append(u)
    return parents


def one_plus_eta_program_factory(
    a: int, C: int, eps: float, n: int, r_override: int | None = None
):
    """Build the vertex program of Procedure One-Plus-Eta-Arb-Col.

    ``r_override`` replaces the paper's r = ceil(2 log log n) H-set cutoff;
    it exists so tests can force the V \\ H -> Legal-Coloring branch on
    graphs small enough to verify exhaustively (the branch only triggers
    naturally when the peeling depth exceeds 2 log log n).
    """
    k = int(ceil((3.0 + eps) * C))
    p_legal = k
    r = r_override if r_override is not None else max(1, int(ceil(2 * ilog(n, 2))))

    def program(ctx: Context):
        schedules = ctx.config["opx_schedules"]
        view = LocalView()
        decisions: list = []
        path: tuple = ()
        a_lvl = a
        mode = "eta"
        inherited = None  # (h', exacts', psi, psis, members) for legal lvl 1
        ctx.broadcast((DEC, ()))

        while True:
            members = yield from _await_members(ctx, view, path)
            A_lvl = degree_bound(a_lvl, eps)
            base = (mode == "eta" and a_lvl < C) or (
                mode == "legal" and a_lvl <= p_legal
            )
            if inherited is not None:
                h, psi, exacts, psis = inherited
                exacts = {u: exacts[u] for u in members}
                psis = {u: c for u, c in psis.items() if u in exacts}
                inherited = None
                # Indices shift by r but only the relative order matters.
            else:
                h, psi, exacts, psis = yield from _structure(
                    ctx, view, members, A_lvl, path, schedules
                )

            if base:
                parents = _wave_parents(ctx, h, psi, exacts, psis, members)

                def choose(pred: dict[int, int]) -> int:
                    used = set(pred.values())
                    for col in range(A_lvl + 1):
                        if col not in used:
                            return col
                    raise AssertionError("base palette exhausted")

                color = yield from priority_wave(
                    ctx, view, parents, f"bw{path}", choose
                )
                decision = ("b", color)
                decisions.append(decision)
                ctx.broadcast((DEC, tuple(decisions)))
                return (path, color)

            if mode == "eta" and h > r:
                # V \ H: switch to Legal-Coloring, inheriting the partition
                # (indices > r are a valid H-partition of the leftover) and
                # the within-set psi.
                decision = ("L",)
                decisions.append(decision)
                ctx.broadcast((DEC, tuple(decisions)))
                path = path + (decision,)
                mode = "legal"
                inherited = (h, psi, exacts, psis)
                continue

            # Arbdefective split: H-members only in eta mode.
            kk = k if mode == "eta" else p_legal
            cap = r if mode == "eta" else None
            parents = _wave_parents(
                ctx, h, psi, exacts, psis, members, h_cap=cap
            )
            j = yield from priority_wave(
                ctx,
                view,
                parents,
                f"aw{path}",
                lambda pred: arbdefective_choose(kk, pred.values()),
            )
            decision = ("s", j)
            decisions.append(decision)
            ctx.broadcast((DEC, tuple(decisions)))
            path = path + (decision,)
            a_lvl = max(1, -(-A_lvl // kk))
            # mode stays: eta classes recurse in eta mode; legal in legal.

    return program, k, r


def run_one_plus_eta_coloring(
    graph: Graph,
    a: int,
    C: int = 4,
    eps: float = 1.0,
    ids: Sequence[int] | None = None,
    seed: int = 0,
    r_override: int | None = None,
) -> ColoringResult:
    """Theorem 7.21: O(a^{1+eta})-coloring (eta ~ 6 / log C) in
    O(log a log log n) vertex-averaged rounds."""
    if C < 2:
        raise ValueError("C must be >= 2")
    program, k, r = one_plus_eta_program_factory(a, C, eps, graph.n, r_override)
    net = SyncNetwork(graph, ids=ids, seed=seed, config={"a": a, "eps": eps})
    net.config["opx_schedules"] = _ScheduleCache(net.config["id_space"])
    ell = partition_length_bound(graph.n, eps)
    # Generous cap: depth O(log_C a) levels, each bounded by partition +
    # Linial + wave lengths.
    import math

    depth = max(1, int(math.log(max(a, 2), max(C, 2))) + 2) * 3
    fix = 4 * (degree_bound(a, eps) * 2 + 3) ** 2
    budget = depth * (ell + fix + 64) * 4 + 512
    res = net.run(program, max_rounds=budget)
    colors = {v: out for v, out in res.outputs.items()}
    # palette bound: base leaves use A_leaf + 1 colors per distinct path.
    paths = {out[0] for out in res.outputs.values()}
    bound = sum(1 for _ in paths) * (degree_bound(a, eps) + 1)
    return ColoringResult(
        colors=colors,
        h_index={v: 0 for v in res.outputs},
        metrics=res.metrics,
        palette_bound=max(bound, 1),
    )


def run_legal_coloring(
    graph: Graph,
    a: int,
    p: int | None = None,
    eps: float = 1.0,
    ids: Sequence[int] | None = None,
    seed: int = 0,
) -> ColoringResult:
    """Procedure Legal-Coloring ([5]; paper Algorithm 3) as a standalone
    worst-case algorithm: arbdefective splits with arity p until the
    arboricity bound drops to p, then base-color each leaf subgraph with
    its own palette.  This is the comparison column of Table 1 row 3
    (O(log a log n) worst case)."""
    if p is None:
        p = max(4, int(ceil((3.0 + eps) * 4)))

    def program_factory():
        def program(ctx: Context):
            schedules = ctx.config["opx_schedules"]
            view = LocalView()
            decisions: list = []
            path: tuple = ()
            a_lvl = a
            ctx.broadcast((DEC, ()))
            while True:
                members = yield from _await_members(ctx, view, path)
                A_lvl = degree_bound(a_lvl, eps)
                h, psi, exacts, psis = yield from _structure(
                    ctx, view, members, A_lvl, path, schedules
                )
                parents = _wave_parents(ctx, h, psi, exacts, psis, members)
                if a_lvl <= p:
                    def choose(pred: dict[int, int]) -> int:
                        used = set(pred.values())
                        for col in range(A_lvl + 1):
                            if col not in used:
                                return col
                        raise AssertionError("base palette exhausted")

                    color = yield from priority_wave(
                        ctx, view, parents, f"bw{path}", choose
                    )
                    decisions.append(("b", color))
                    ctx.broadcast((DEC, tuple(decisions)))
                    return (path, color)
                j = yield from priority_wave(
                    ctx,
                    view,
                    parents,
                    f"aw{path}",
                    lambda pred: arbdefective_choose(p, pred.values()),
                )
                decisions.append(("s", j))
                ctx.broadcast((DEC, tuple(decisions)))
                path = path + (("s", j),)
                a_lvl = max(1, -(-A_lvl // p))

        return program

    net = SyncNetwork(graph, ids=ids, seed=seed, config={"a": a, "eps": eps})
    net.config["opx_schedules"] = _ScheduleCache(net.config["id_space"])
    ell = partition_length_bound(graph.n, eps)
    import math

    depth = max(1, int(math.log(max(a, 2), max(p, 2))) + 2) * 3
    fix = 4 * (degree_bound(a, eps) * 2 + 3) ** 2
    budget = depth * (ell + fix + 64) * 4 + 512
    res = net.run(program_factory(), max_rounds=budget)
    paths = {out[0] for out in res.outputs.values()}
    bound = len(paths) * (degree_bound(a, eps) + 1)
    return ColoringResult(
        colors=dict(res.outputs),
        h_index={v: 0 for v in res.outputs},
        metrics=res.metrics,
        palette_bound=max(bound, 1),
    )
