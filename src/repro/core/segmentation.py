"""The segmentation scheme (Section 7.5) and its instantiations:
O(k a^2)-coloring in O(log^(k) n) vertex-averaged rounds (Section 7.6) and
O(k a)-coloring in O(a log^(k) n) vertex-averaged rounds (Section 7.7).

The vertex set is split into k *segments*: segment k is formed first and
consists of the first ~c log^(k) n H-sets, segment k-1 of the next
~c log^(k-1) n H-sets, ..., segment 1 of everything that remains.  Because
the number of active vertices decays exponentially with the H-index
(Lemma 6.1), only ~n / log^(i) n vertices survive into segment i, so
segment i can afford an algorithm-C phase costing T_{C,i} rounds as long as
T_{C,i} / log^(i) n stays bounded -- the accounting of Lemma 7.11.

Each segment is colored with its own disjoint palette (of size alpha =
O(a^2) in 7.6, alpha = A + 1 = O(a) in 7.7), giving O(k * alpha) colors
total.  For k = rho(n) (the largest useful k, Section 7.5) the two
corollaries 7.14 / 7.17 follow: O(a^2 log* n) colors in O(log* n) rounds
and O(a log* n) colors in O(a log* n) rounds.

Execution is event-driven: Partition makes one decision per round
throughout, segment membership is a deterministic function of the H-index,
and each segment's algorithm C self-synchronizes -- an execution at least
as fast as the paper's blocked schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Hashable, Sequence

from repro.analysis.logstar import ilog, rho
from repro.core.arb_linial import arb_linial_steps, list_coloring_steps, priority_wave
from repro.core.coloring import ColoringResult
from repro.core.common import JOIN, LocalView, degree_bound, partition_length_bound
from repro.core.coverfree import palette_schedule
from repro.core.partition import join_h_set
from repro.graphs.graph import Graph
from repro.runtime.context import Context
from repro.runtime.network import SyncNetwork


@dataclass(frozen=True)
class SegmentPlan:
    """The segment layout: segment i (i = k..1) covers H-set indices
    (cut[i], cut[i-1]]; segment 1 is unbounded above."""

    k: int
    #: boundaries[j] = last H-index of segment k-j (len k-1; segment 1 open)
    boundaries: tuple[int, ...]

    def segment_of(self, h: int) -> int:
        """The segment index (k..1) containing H-set h."""
        for j, b in enumerate(self.boundaries):
            if h <= b:
                return self.k - j
        return 1

    def upper_bound(self, seg: int, ell: int) -> int:
        """The last H-index of ``seg`` (ell for the open segment 1)."""
        if seg == 1:
            return ell
        return self.boundaries[self.k - seg]

    def lower_bound(self, seg: int) -> int:
        """The first H-index of ``seg``."""
        if seg == self.k:
            return 1
        return self.boundaries[self.k - seg - 1] + 1


def make_segment_plan(n: int, k: int, eps: float) -> SegmentPlan:
    """Segment sizes c * log^(i) n for i = k..2 (segment 1 takes the rest),
    with c = 2 / eps as in step 1(a) of the scheme."""
    if k < 1:
        raise ValueError("k must be >= 1")
    c = 2.0 / eps
    cuts = []
    acc = 0
    for i in range(k, 1, -1):
        size = max(1, int(ceil(c * ilog(n, i))))
        acc += size
        cuts.append(acc)
    return SegmentPlan(k=k, boundaries=tuple(cuts))


def _segment_neighbors(
    ctx: Context,
    joined: dict[int, int],
    h: int,
    lo: int,
    hi_open: bool,
    hi: int,
) -> tuple[list[int], list[int]]:
    """(parents, same_set) of this vertex within its segment [lo, hi]:
    parents are later-set or same-set-higher-ID neighbors; an unannounced
    neighbor lies beyond the learning boundary, hence in this segment only
    when the segment is open-ended."""
    my_id = ctx.id
    nid = ctx.neighbor_ids
    parents: list[int] = []
    same: list[int] = []
    for u in ctx.neighbors:
        hu = joined.get(u)
        if hu is None:
            if hi_open:
                parents.append(u)
            continue
        if not (lo <= hu <= hi):
            continue
        if hu > h or (hu == h and nid[u] > my_id):
            parents.append(u)
        if hu == h:
            same.append(u)
    return parents, same


def _learn_until(ctx: Context, view: LocalView, boundary: int):
    """Wait until every neighbor's H-index is known relative to
    ``boundary``: all joined, or the announcements through round
    ``boundary`` have been absorbed (we are past round boundary + 1)."""
    while True:
        joined = view.get(JOIN)
        if len(joined) == ctx.degree or ctx.round > boundary + 1:
            return dict(joined)
        yield
        view.absorb(ctx)


# ---------------------------------------------------------------------------
# Section 7.6: O(k a^2) colors in O(log^(k) n) vertex-averaged rounds
# ---------------------------------------------------------------------------


def run_ka2_coloring(
    graph: Graph,
    a: int,
    k: int | None = None,
    eps: float = 1.0,
    ids: Sequence[int] | None = None,
    seed: int = 0,
) -> ColoringResult:
    """Theorem 7.13 (k given) / Corollary 7.14 (k = rho(n), the default):
    algorithm A is null, algorithm B is the per-H-set forest orientation
    (free: a function of H-indices and IDs), algorithm C is the iterated
    Arb-Linial-Coloring on each segment's subgraph with the segment's own
    palette copy."""
    n = graph.n
    if k is None:
        k = rho(n)
    if not 1 <= k:
        raise ValueError("k must be >= 1")
    A = degree_bound(a, eps)
    ell = partition_length_bound(n, eps)
    plan = make_segment_plan(n, k, eps)

    def program(ctx: Context):
        schedule = ctx.config["schedule"]
        view = LocalView()
        h = yield from join_h_set(ctx, view, A)
        seg = plan.segment_of(h)
        hi = plan.upper_bound(seg, ell)
        joined = yield from _learn_until(ctx, view, hi)
        parents, _ = _segment_neighbors(
            ctx, joined, h, plan.lower_bound(seg), seg == 1, hi
        )
        color = yield from arb_linial_steps(
            ctx, view, parents, schedule, tag=f"s{seg}"
        )
        return (h, (color, seg))

    net = SyncNetwork(graph, ids=ids, seed=seed, config={"a": a, "eps": eps})
    schedule = palette_schedule(net.config["id_space"], A)
    net.config["schedule"] = schedule
    fixpoint = schedule[-1].ground_size if schedule else net.config["id_space"]
    res = net.run(program, max_rounds=(ell + 2) * (len(schedule) + 2) + 32)
    return ColoringResult(
        colors={v: c for v, (h, c) in res.outputs.items()},
        h_index={v: h for v, (h, c) in res.outputs.items()},
        metrics=res.metrics,
        palette_bound=k * fixpoint,
    )


# ---------------------------------------------------------------------------
# Section 7.7: O(k a) colors in O(a log^(k) n) vertex-averaged rounds
# ---------------------------------------------------------------------------


def run_ka_coloring(
    graph: Graph,
    a: int,
    k: int | None = None,
    eps: float = 1.0,
    ids: Sequence[int] | None = None,
    seed: int = 0,
) -> ColoringResult:
    """Theorem 7.16 (k given) / Corollary 7.17 (k = rho(n), the default):
    algorithm A is the (Delta+1)-coloring of each H-set (substituted
    Linial + greedy pick-wave, DESIGN.md #2), algorithm B orients same-set
    edges towards the higher A-color, algorithm C is the per-segment
    recoloring wave with palette {(seg-1)(A+1) .. seg(A+1)-1}."""
    n = graph.n
    if k is None:
        k = rho(n)
    A = degree_bound(a, eps)
    ell = partition_length_bound(n, eps)
    plan = make_segment_plan(n, k, eps)

    def program(ctx: Context):
        schedule = ctx.config["schedule"]
        view = LocalView()
        h = yield from join_h_set(ctx, view, A)
        # Learn same-set membership (one round).
        yield
        view.absorb(ctx)
        same_now = [u for u in ctx.neighbors if view.value(JOIN, u) == h]
        # Algorithm A: (Delta+1)-color G(H_h) with palette {0..A}.
        psi = yield from list_coloring_steps(
            ctx, view, members=same_now, palette=range(A + 1),
            schedule=schedule, tag=f"hc{h}",
        )
        seg = plan.segment_of(h)
        hi = plan.upper_bound(seg, ell)
        joined = yield from _learn_until(ctx, view, hi)
        parents, same = _segment_neighbors(
            ctx, joined, h, plan.lower_bound(seg), seg == 1, hi
        )
        # Algorithm B: orient same-set edges by psi (announce psi so
        # same-set neighbors can classify the edge).
        psi_tag = f"psi{h}"
        ctx.broadcast((psi_tag, psi))
        psis = yield from view.wait_for(ctx, psi_tag, same)
        wave_parents = [u for u in parents if joined.get(u, ell + 1) > h] + [
            u for u in same if psis[u] > psi
        ]
        base = (seg - 1) * (A + 1)
        palette = range(base, base + A + 1)

        def choose(pred_colors: dict[int, int]) -> int:
            used = set(pred_colors.values())
            for col in palette:
                if col not in used:
                    return col
            raise AssertionError("segment palette exhausted in recolor wave")

        color = yield from priority_wave(ctx, view, wave_parents, f"w{seg}", choose)
        return (h, color)

    net = SyncNetwork(graph, ids=ids, seed=seed, config={"a": a, "eps": eps})
    schedule = palette_schedule(net.config["id_space"], A)
    net.config["schedule"] = schedule
    fixpoint = schedule[-1].ground_size if schedule else net.config["id_space"]
    budget = (ell + 2) * (len(schedule) + fixpoint + A + 6) + 64
    res = net.run(program, max_rounds=budget)
    return ColoringResult(
        colors={v: c for v, (h, c) in res.outputs.items()},
        h_index={v: h for v, (h, c) in res.outputs.items()},
        metrics=res.metrics,
        palette_bound=k * (A + 1),
    )


# ---------------------------------------------------------------------------
# Figure 1: the execution trace of the scheme
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SegmentTraceRow:
    """One segment's occupancy/timing in a Figure-1-style trace."""

    segment: int
    first_h: int
    last_h: int  # realised last H-index (may undershoot the plan)
    num_h_sets: int
    vertices: int
    fraction: float
    mean_rounds: float


def segmentation_trace(
    result: ColoringResult, plan: SegmentPlan, ell: int
) -> list[SegmentTraceRow]:
    """Per-segment occupancy and running times: the quantitative content of
    the paper's Figure 1 (segments of log^(i) n H-sets each, population
    decaying as n / log^(i) n, per-segment phases)."""
    n = len(result.colors)
    by_seg: dict[int, list[int]] = {}
    for v, h in result.h_index.items():
        by_seg.setdefault(plan.segment_of(h), []).append(v)
    rows = []
    for seg in range(plan.k, 0, -1):
        vs = by_seg.get(seg, [])
        hs = [result.h_index[v] for v in vs]
        rounds = [result.metrics.rounds[v] for v in vs]
        rows.append(
            SegmentTraceRow(
                segment=seg,
                first_h=plan.lower_bound(seg),
                last_h=max(hs) if hs else plan.lower_bound(seg) - 1,
                num_h_sets=len(set(hs)),
                vertices=len(vs),
                fraction=len(vs) / n if n else 0.0,
                mean_rounds=sum(rounds) / len(rounds) if rounds else 0.0,
            )
        )
    return rows
