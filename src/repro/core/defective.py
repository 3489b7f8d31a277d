"""Defective and arbdefective colorings (Section 7.8.1) plus the
asynchronous, subgraph-scoped H-partition the recursive algorithms need.

Asynchronous H-partition
------------------------
Procedure Partition peels the graph in synchronous rounds; inside the
recursions of Section 7.8 different subgraphs reach the same recursion
level at different global rounds, so no common clock exists.  The H-index
is nevertheless a static quantity -- the peeling depth

    H_1 = { v : deg_S(v) <= A },   H_i = { v : deg after removing H_{<i} <= A }

-- and :func:`async_h_partition` computes it by monotone bound propagation:
a vertex announces increasing lower bounds on its index ("my index > i",
justified once more than A neighbors are confirmed to have index >= i) and
fixes its exact index once at most A neighbors could still be at or above
it.  Both moves are conservative, the fixpoint equals the synchronous
peeling exactly, and the protocol needs no shared round numbering.

Defective coloring
------------------
:func:`defective_coloring_steps` computes a d-defective coloring via
coverage-slack cover-free families (see :mod:`repro.core.coverfree`):
proper Linial steps shrink the palette to the O(A^2) fixpoint, after which
slack steps with geometrically split defect budgets d/2, d/4, ... shrink it
further; each slack step adds at most its budget to any vertex's defect
(equal-color neighbors are excluded from the counting, so previously
conflicting pairs are not re-counted).  The palette reached is
O((A/d)^2 polylog A) -- DESIGN.md substitution #4; the defect bound d is
exact and verified by tests.

Arbdefective coloring
---------------------
:func:`arbdefective_choose` is the decision rule of Procedure
Arbdefective-Coloring (paper Algorithm 2): given the colors of the at most
``A`` parents under an acyclic orientation, take the color of {1..k} used
by the fewest parents.  Each color class then has an acyclic orientation
of out-degree <= ceil(A/k) + d (d = the defect of the underlying coloring;
0 when a proper psi is used), hence arboricity at most that bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Iterable, Mapping, Sequence

from repro.core.common import LocalView, degree_bound
from repro.core.coverfree import PolyFamily, build_family, palette_schedule
from repro.graphs.graph import Graph
from repro.runtime.context import Context
from repro.runtime.metrics import RoundMetrics
from repro.runtime.network import SyncNetwork
from repro.runtime.session import current
from repro.verify.colorings import color_count


# ---------------------------------------------------------------------------
# Asynchronous H-partition
# ---------------------------------------------------------------------------


def async_h_partition(
    ctx: Context,
    view: LocalView,
    members: Sequence[int],
    A: int,
    tag: str,
) -> Generator[None, None, int]:
    """Compute this vertex's H-index within the subgraph induced on
    ``members`` (+ itself), without a shared clock.

    Message protocol (all scoped by ``tag``):
      ``tag + 'b'`` : payload j   -- "my index is > j" (monotone bounds)
      ``tag + 'x'`` : payload i   -- "my index is exactly i" (final)

    Returns the exact peeling index (>= 1).  Also leaves every member's
    final index observable in ``view.get(tag + 'x')`` for later phases.
    """
    tag_b = tag + "b"
    tag_x = tag + "x"
    member_list = list(members)
    if not member_list:
        ctx.broadcast((tag_x, 1))
        return 1
    lb = 1
    announced_lb = 0
    while True:
        exact = view.get(tag_x)
        bounds = view.get(tag_b)

        def known_lb(u: int) -> int:
            if u in exact:
                return exact[u]
            return bounds.get(u, 0) + 1  # "index > j" => lower bound j + 1

        # Raise our own lower bound while justified: index > lb requires
        # more than A members confirmed at >= lb.
        while sum(1 for u in member_list if known_lb(u) >= lb) > A:
            lb += 1
        # Fix the index once at most A members can still reach >= lb
        # (a member not yet fixed below lb counts as potentially >= lb).
        potential = sum(
            1 for u in member_list if not (u in exact and exact[u] < lb)
        )
        if potential <= A:
            ctx.broadcast((tag_x, lb))
            return lb
        if lb > announced_lb + 1:
            ctx.broadcast((tag_b, lb - 1))
            announced_lb = lb - 1
        yield
        view.absorb(ctx)


# ---------------------------------------------------------------------------
# Defective coloring
# ---------------------------------------------------------------------------


def defective_schedule(
    start_palette: int, A: int, d: int, max_steps: int = 64
) -> list[PolyFamily]:
    """Family schedule for a d-defective coloring: proper steps to the
    proper fixpoint, then slack steps with budgets d/2, d/4, ..., stopping
    when no further palette shrink is possible.  Total slack <= d."""
    schedule = list(palette_schedule(start_palette, A, slack=0, max_steps=max_steps))
    p = schedule[-1].ground_size if schedule else start_palette
    budget = d
    while budget >= 1 and len(schedule) < max_steps:
        # Spend the smallest slack that still shrinks the palette, so the
        # budget buys as many shrinking steps as possible.
        chosen = None
        for step in range(1, budget + 1):
            fam = build_family(p, A, slack=step)
            if fam.ground_size < p:
                chosen = (step, fam)
                break
        if chosen is None:
            break
        step, fam = chosen
        schedule.append(fam)
        p = fam.ground_size
        budget -= step
    return schedule


def defective_coloring_steps(
    ctx: Context,
    view: LocalView,
    members: Sequence[int],
    schedule: Sequence[PolyFamily],
    tag: str,
    color0: int | None = None,
) -> Generator[None, None, int]:
    """Self-synchronizing defective-coloring iteration: like
    :func:`repro.core.arb_linial.arb_linial_steps` but against *all*
    members, allowing each family's coverage slack.  Defect accounting:
    a slack-s step lets at most s members share the chosen point, and
    members already sharing our color are skipped by the family's pick, so
    the total defect is bounded by the sum of slacks."""
    c = ctx.id if color0 is None else color0
    for k, fam in enumerate(schedule):
        step_tag = f"{tag}#{k}"
        ctx.broadcast((step_tag, c))
        bucket = yield from view.wait_for(ctx, step_tag, members)
        c = fam.pick(c, [bucket[u] for u in members])
    return c


@dataclass(frozen=True)
class DefectiveColoringResult:
    #: vertex -> color; a ColumnMap view on the bulk engine
    colors: Mapping[int, int]
    metrics: RoundMetrics
    palette_bound: int
    defect_bound: int

    @property
    def colors_used(self) -> int:
        return color_count(self.colors)


def run_defective_coloring(
    graph: Graph,
    d: int,
    degree_limit: int | None = None,
    ids: Sequence[int] | None = None,
    seed: int = 0,
) -> DefectiveColoringResult:
    """Standalone d-defective coloring of a whole graph (degree bound
    ``degree_limit``, default Delta): the building block Procedure
    Partial-Orientation invokes on each H-set."""
    if current().engine == "bulk":
        from repro.core.bulk import bulk_defective_coloring

        return bulk_defective_coloring(
            graph, d, degree_limit=degree_limit, ids=ids, seed=seed
        )
    A = degree_limit if degree_limit is not None else graph.max_degree()
    A = max(A, 1)

    def program(ctx: Context):
        schedule = ctx.config["schedule"]
        view = LocalView()
        c = yield from defective_coloring_steps(
            ctx, view, ctx.neighbors, schedule, tag="df"
        )
        return c

    net = SyncNetwork(graph, ids=ids, seed=seed)
    schedule = defective_schedule(net.config["id_space"], A, d)
    net.config["schedule"] = schedule
    bound = schedule[-1].ground_size if schedule else net.config["id_space"]
    res = net.run(program, max_rounds=4 * len(schedule) + 64)
    return DefectiveColoringResult(
        colors=dict(res.outputs),
        metrics=res.metrics,
        palette_bound=bound,
        defect_bound=d,
    )


# ---------------------------------------------------------------------------
# Arbdefective decision rule (paper Algorithm 2, step 2)
# ---------------------------------------------------------------------------


def arbdefective_choose(k: int, parent_colors: Iterable[int]) -> int:
    """The color of {0..k-1} used by the fewest parents (ties: smallest)."""
    counts = [0] * k
    for c in parent_colors:
        counts[c] += 1
    return min(range(k), key=lambda c: (counts[c], c))


def arbdefective_class_bound(A: int, k: int, defect: int = 0) -> int:
    """Arboricity bound of each color class: ceil(A / k) + defect (the
    orientation within a class has out-degree at most that, and an acyclic
    orientation of out-degree b yields b forests)."""
    return -(-A // k) + defect


# ---------------------------------------------------------------------------
# Standalone Procedure Arbdefective-Coloring (paper Algorithms 1-2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArbdefectiveColoringResult:
    """A b-arbdefective k-coloring with its round accounting."""

    colors: dict[int, int]
    metrics: RoundMetrics
    k: int
    arboricity_bound: int  # b: per-class arboricity guarantee


def run_arbdefective_coloring(
    graph: Graph,
    a: int,
    k: int,
    eps: float = 1.0,
    ids: Sequence[int] | None = None,
    seed: int = 0,
) -> ArbdefectiveColoringResult:
    """Procedure Arbdefective-Coloring (paper Algorithms 1-2), standalone:
    H-partition + within-set proper psi (Partial-Orientation with a
    defect-0 coloring, DESIGN.md #4) + the "color used by the fewest
    parents" wave.  Each color class gets an acyclic orientation of
    out-degree <= ceil(A / k), hence arboricity <= ceil(A / k) -- verified
    exactly by tests via :func:`repro.verify.assert_arbdefective_coloring`.
    """
    from repro.core.arb_linial import arb_linial_steps, priority_wave, _step_tag
    from repro.core.common import JOIN, partition_length_bound
    from repro.core.coverfree import palette_schedule
    from repro.core.partition import join_h_set

    if k < 1:
        raise ValueError("k must be >= 1")
    A = degree_bound(a, eps)
    ell = partition_length_bound(graph.n, eps)

    def program(ctx: Context):
        schedule = ctx.config["schedule"]
        view = LocalView()
        h = yield from join_h_set(ctx, view, A)
        yield
        view.absorb(ctx)
        same = [u for u in ctx.neighbors if view.value(JOIN, u) == h]
        psi = yield from arb_linial_steps(ctx, view, same, schedule, tag="ad")
        last = _step_tag("ad", len(schedule))
        ctx.broadcast((last, psi))
        psis = yield from view.wait_for(ctx, last, same)
        # Parents: later H-sets (including the still-unjoined) and same-set
        # higher psi -- the Partial-Orientation of paper Algorithm 1.
        joined = view.get(JOIN)
        parents = []
        for u in ctx.neighbors:
            hu = joined.get(u)
            if hu is None or hu > h:
                parents.append(u)
            elif hu == h and psis[u] > psi:
                parents.append(u)
        color = yield from priority_wave(
            ctx, view, parents, "adw",
            lambda pred: arbdefective_choose(k, pred.values()),
        )
        return color

    net = SyncNetwork(graph, ids=ids, seed=seed, config={"a": a, "eps": eps})
    schedule = palette_schedule(net.config["id_space"], A)
    net.config["schedule"] = schedule
    fixpoint = schedule[-1].ground_size if schedule else net.config["id_space"]
    budget = (ell + 2) * (len(schedule) + fixpoint + 4) + 64
    res = net.run(program, max_rounds=budget)
    return ArbdefectiveColoringResult(
        colors=dict(res.outputs),
        metrics=res.metrics,
        k=k,
        arboricity_bound=arbdefective_class_bound(A, k),
    )
