"""The deterministic vertex-coloring algorithms of Sections 7.2 - 7.4.

* :func:`run_a2logn_coloring` -- O(a^2 log n) colors, O(1) vertex-averaged
  rounds (Theorem 7.2): Parallelized-Forest-Decomposition + a single
  Arb-Linial pick against the parents' IDs (which are known locally, so the
  pick costs no extra communication).
* :func:`run_a2_coloring` -- O(a^2) colors, O(log log n) vertex-averaged
  rounds (Theorem 7.6): two phases split at t ~ c' log log n H-sets, full
  iterated Arb-Linial per phase, phase-disjoint palettes.
* :func:`run_oa_coloring` -- O(a) colors, O(a log log n) vertex-averaged
  rounds (Theorem 7.9): per-H-set (Delta+1)-coloring, orientation by color,
  and a "wait for your parents" recoloring wave per phase with palette
  {1..A+1} x {phase}.

All three run Procedure Partition at one decision per round and are
event-driven (see :mod:`repro.core.arb_linial`), so measured averages track
each vertex's causal depth rather than global worst-case schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor, log2
from typing import Generator, Hashable, Mapping, Sequence

from repro.analysis.logstar import ilog
from repro.core.arb_linial import arb_linial_steps, list_coloring_steps, priority_wave
from repro.core.common import (
    JOIN,
    LocalView,
    degree_bound,
    partition_length_bound,
)
from repro.core.coverfree import build_family, palette_schedule
from repro.core.forests import forest_info_step
from repro.core.partition import join_h_set
from repro.graphs.graph import Graph
from repro.runtime.context import Context
from repro.runtime.metrics import RoundMetrics
from repro.runtime.network import SyncNetwork
from repro.verify.colorings import color_count


@dataclass(frozen=True)
class ColoringResult:
    """A vertex coloring with its round accounting."""

    #: vertex -> color; ColumnMap views on the bulk engine
    colors: Mapping[int, Hashable]
    h_index: Mapping[int, int]
    metrics: RoundMetrics
    palette_bound: int  # a-priori bound on the number of colors

    @property
    def colors_used(self) -> int:
        return color_count(self.colors)


# ---------------------------------------------------------------------------
# Section 7.2: O(a^2 log n) colors in O(1) vertex-averaged rounds
# ---------------------------------------------------------------------------


def run_a2logn_coloring(
    graph: Graph,
    a: int,
    eps: float = 1.0,
    ids: Sequence[int] | None = None,
    seed: int = 0,
) -> ColoringResult:
    """Theorem 7.2: one Arb-Linial step per H-set, executed in the round
    after joining.  A vertex's color is a point of F_{ID(v)} avoided by the
    cover-free sets of all its parents' IDs; parents pick later and avoid
    F_{ID(v)} in turn, so every edge is bichromatic."""
    A = degree_bound(a, eps)

    def program(ctx: Context):
        family = ctx.config["family"]
        view = LocalView()
        h = yield from join_h_set(ctx, view, A)
        info = yield from forest_info_step(ctx, view, h)
        nid = ctx.neighbor_ids
        color = family.pick(ctx.id, [nid[u] for u in info.parents])
        return (h, color)

    net = SyncNetwork(graph, ids=ids, seed=seed, config={"a": a, "eps": eps})
    family = build_family(net.config["id_space"], A)
    net.config["family"] = family
    res = net.run(program, max_rounds=partition_length_bound(graph.n, eps) + 8)
    return ColoringResult(
        colors={v: c for v, (h, c) in res.outputs.items()},
        h_index={v: h for v, (h, c) in res.outputs.items()},
        metrics=res.metrics,
        palette_bound=family.ground_size,
    )


# ---------------------------------------------------------------------------
# Shared phase plumbing for Sections 7.3 / 7.4
# ---------------------------------------------------------------------------


def _learn_neighbor_sets(
    ctx: Context, view: LocalView, boundary: int
) -> Generator[None, None, dict[int, int]]:
    """Wait until the H-index of every neighbor is determined *relative to
    the phase boundary*: either the neighbor announced its join, or round
    ``boundary`` has passed (an unannounced neighbor then surely joins a
    set of index > boundary).  Returns the known joins."""
    while True:
        joined = view.get(JOIN)
        if len(joined) == ctx.degree or ctx.round > boundary:
            return dict(joined)
        yield
        view.absorb(ctx)


def _phase_parents(
    ctx: Context,
    h: int,
    joined: dict[int, int],
    lo: int,
    hi: int,
    boundary_known: bool,
) -> list[int]:
    """Parents of this vertex inside the phase covering H-sets lo..hi:
    neighbors in strictly later sets of the phase, or same-set with a
    higher ID.  Neighbors with unknown H-index are in sets beyond
    ``boundary_known`` rounds, i.e. in later phases."""
    my_id = ctx.id
    nid = ctx.neighbor_ids
    parents = []
    for u in ctx.neighbors:
        hu = joined.get(u)
        if hu is None:
            # Joins after the boundary: inside this phase only if the phase
            # is unbounded above, which callers encode with hi = None.
            if hi is None:
                parents.append(u)
            continue
        if not (lo <= hu and (hi is None or hu <= hi)):
            continue
        if hu > h or (hu == h and nid[u] > my_id):
            parents.append(u)
    return parents


def two_phase_split(n: int, eps: float, scale: float = 1.0) -> int:
    """The phase-1 length t = floor(c' * log log n) with
    c' = scale / log2((2+eps)/2), chosen (Lemma 7.5) so that at most
    n / log n vertices survive into phase 2."""
    if n < 4:
        return 1
    c_prime = scale / log2((2.0 + eps) / 2.0)
    return max(1, floor(c_prime * ilog(n, 2)))


# ---------------------------------------------------------------------------
# Section 7.3: O(a^2) colors in O(log log n) vertex-averaged rounds
# ---------------------------------------------------------------------------


def run_a2_coloring(
    graph: Graph,
    a: int,
    eps: float = 1.0,
    ids: Sequence[int] | None = None,
    seed: int = 0,
) -> ColoringResult:
    """Theorem 7.6: phase 1 = the first t ~ c' log log n H-sets, phase 2 =
    the rest.  Each phase runs the full iterated Arb-Linial-Coloring on the
    union of its H-sets (O(log* n) self-paced steps to an O(a^2) palette);
    final colors are tagged with the phase, doubling the palette."""
    A = degree_bound(a, eps)
    n = graph.n
    ell = partition_length_bound(n, eps)
    t = two_phase_split(n, eps)

    def program(ctx: Context):
        schedule = ctx.config["schedule"]
        view = LocalView()
        h = yield from join_h_set(ctx, view, A)
        phase = 1 if h <= t else 2
        boundary = t + 1 if phase == 1 else ell + 1
        joined = yield from _learn_neighbor_sets(ctx, view, boundary)
        if phase == 1:
            parents = _phase_parents(ctx, h, joined, 1, t, True)
        else:
            parents = _phase_parents(ctx, h, joined, t + 1, None, True)
        color = yield from arb_linial_steps(
            ctx, view, parents, schedule, tag=f"al{phase}"
        )
        return (h, (color, phase))

    net = SyncNetwork(graph, ids=ids, seed=seed, config={"a": a, "eps": eps})
    schedule = palette_schedule(net.config["id_space"], A)
    net.config["schedule"] = schedule
    fixpoint = schedule[-1].ground_size if schedule else net.config["id_space"]
    res = net.run(program, max_rounds=ell + len(schedule) * (ell + 2) + 16)
    return ColoringResult(
        colors={v: c for v, (h, c) in res.outputs.items()},
        h_index={v: h for v, (h, c) in res.outputs.items()},
        metrics=res.metrics,
        palette_bound=2 * fixpoint,
    )


# ---------------------------------------------------------------------------
# Section 7.4: O(a) colors in O(a log log n) vertex-averaged rounds
# ---------------------------------------------------------------------------


def run_oa_coloring(
    graph: Graph,
    a: int,
    eps: float = 1.0,
    ids: Sequence[int] | None = None,
    seed: int = 0,
) -> ColoringResult:
    """Theorem 7.9: per H-set (Delta+1)-coloring (substituted Linial + sweep,
    see DESIGN.md #2), orientation by that coloring within the set and
    towards later sets across sets, then a per-phase recoloring wave with
    palette {0..A} x {phase}: each vertex waits for its phase-parents and
    takes a free color; A+1 colors always suffice because a vertex has at
    most A neighbors in its own and later sets."""
    A = degree_bound(a, eps)
    n = graph.n
    ell = partition_length_bound(n, eps)
    t = two_phase_split(n, eps)

    def program(ctx: Context):
        schedule = ctx.config["schedule"]
        view = LocalView()
        h = yield from join_h_set(ctx, view, A)
        info = yield from forest_info_step(ctx, view, h)
        same = [
            u for u in ctx.neighbors if view.value(JOIN, u) == h
        ]
        # Algorithm A of the section: (Delta+1)-color G(H_h); the palette
        # {0..A} works since deg within the H-set is at most A.
        psi = yield from list_coloring_steps(
            ctx,
            view,
            members=same,
            palette=range(A + 1),
            schedule=schedule,
            tag=f"hc{h}",
        )
        phase = 1 if h <= t else 2
        boundary = t + 1 if phase == 1 else ell + 1
        joined = yield from _learn_neighbor_sets(ctx, view, boundary)
        lo, hi = (1, t) if phase == 1 else (t + 1, None)
        # Parents under the combined acyclic orientation: same-set edges
        # towards the higher psi (exchange happened inside the list
        # coloring -- re-announce psi for the wave), cross-set edges towards
        # the later set; restricted to this phase.
        ctx.broadcast((f"psi{phase}", psi))
        same_phase_later: list[int] = []
        same_set: list[int] = []
        for u in ctx.neighbors:
            hu = joined.get(u)
            if hu is None:
                if hi is None:
                    same_phase_later.append(u)
                continue
            if not (lo <= hu and (hi is None or hu <= hi)):
                continue
            if hu > h:
                same_phase_later.append(u)
            elif hu == h:
                same_set.append(u)
        psis = yield from view.wait_for(ctx, f"psi{phase}", same_set)
        parents = same_phase_later + [u for u in same_set if psis[u] > psi]
        wave_tag = f"wave{phase}"

        def choose(pred_colors: dict[int, int]) -> int:
            used = set(pred_colors.values())
            for col in range(A + 1):
                if col not in used:
                    return col
            raise AssertionError("palette {0..A} exhausted in recolor wave")

        color = yield from priority_wave(ctx, view, parents, wave_tag, choose)
        return (h, (color, phase))

    net = SyncNetwork(graph, ids=ids, seed=seed, config={"a": a, "eps": eps})
    schedule = palette_schedule(net.config["id_space"], A)
    net.config["schedule"] = schedule
    fixpoint = schedule[-1].ground_size if schedule else net.config["id_space"]
    budget = ell + (len(schedule) + fixpoint + 4) * (ell + 2) + A * ell + 64
    res = net.run(program, max_rounds=budget)
    return ColoringResult(
        colors={v: c for v, (h, c) in res.outputs.items()},
        h_index={v: h for v, (h, c) in res.outputs.items()},
        metrics=res.metrics,
        palette_bound=2 * (A + 1),
    )
