"""The randomized algorithms of Section 9.

* :func:`run_rand_delta_plus_one` -- Procedure Rand-Delta-Plus1 (Section
  9.2, a variant of Luby's algorithm): every vertex repeatedly flips a coin
  and, on heads, proposes a uniformly random color from {0..Delta} minus
  its neighbors' final colors; a proposal becomes final if no neighbor
  proposed or holds the same color.  Each attempt succeeds with probability
  >= 1/4, so the number of active vertices decays geometrically and the
  vertex-averaged complexity is O(1) w.h.p. (Theorem 9.1).

* :func:`run_aloglogn_coloring` -- the O(a log log n)-coloring of Section
  9.3: phase 1 runs Rand-Delta-Plus1 independently inside each of the
  first t = floor(2 log log n) H-sets with per-set palettes {0..A} x {i};
  phase 2 colors the remaining sets with a single shared palette
  {A+1 .. 2A+1}, each vertex first waiting for its neighbors in *higher*
  phase-2 sets to finalize (the paper's descending loop j = ell .. t+1).
  O(1) vertex-averaged rounds w.h.p. (Theorem 9.2).

Conflict rule (desynchronisation-safe): a proposal made in round R-1 is
finalised in round R unless (a) the color appears among the final colors
known by the end of round R, or (b) a conflicting neighbor's proposal was
delivered in round R.  If two adjacent vertices finalise the same color,
the later one must have seen the earlier one's final (contradiction), and
on a tie both saw each other's proposals (contradiction) -- so the rule is
safe even when neighbors run their attempt loops out of phase.
"""

from __future__ import annotations

from typing import Generator, Hashable, Sequence

from repro.core.coloring import ColoringResult
from repro.core.common import JOIN, LocalView, degree_bound, partition_length_bound
from repro.core.partition import join_h_set
from repro.graphs.graph import Graph
from repro.runtime.context import Context
from repro.runtime.network import SyncNetwork


def rand_color_attempts(
    ctx: Context,
    view: LocalView,
    members: Sequence[int],
    palette: Sequence[int],
    forbidden: set[int],
    tag: str,
) -> Generator[None, None, int]:
    """Luby-style random coloring against ``members`` with list
    ``palette`` minus ``forbidden`` (updated in place as members finalise).

    Two rounds per attempt: propose, then resolve.  Returns the final
    color; the caller is responsible for broadcasting it is not needed --
    the final is broadcast here under ``tag + 'f'``.
    """
    tag_p = tag + "p"
    tag_f = tag + "f"
    member_set = set(members)

    def absorb_finals() -> None:
        for u, c in view.get(tag_f).items():
            if u in member_set:
                forbidden.add(c)

    absorb_finals()
    while True:
        proposal: int | None = None
        if ctx.rng.random() < 0.5:
            avail = [c for c in palette if c not in forbidden]
            if not avail:
                raise AssertionError(
                    f"vertex {ctx.v}: random-coloring palette exhausted"
                )
            proposal = avail[ctx.rng.randrange(len(avail))]
            ctx.broadcast((tag_p, proposal))
        yield  # resolve round
        view.absorb(ctx)
        absorb_finals()
        if proposal is None:
            yield  # keep attempts two rounds wide regardless of the coin
            view.absorb(ctx)
            absorb_finals()
            continue
        conflict = proposal in forbidden
        if not conflict:
            for u, (mtag, payload) in ctx.mail:
                if mtag == tag_p and payload == proposal and u in member_set:
                    conflict = True
                    break
        if not conflict:
            ctx.broadcast((tag_f, proposal))
            return proposal
        yield
        view.absorb(ctx)
        absorb_finals()


def run_rand_delta_plus_one(
    graph: Graph,
    ids: Sequence[int] | None = None,
    seed: int = 0,
    max_rounds: int | None = None,
) -> ColoringResult:
    """Theorem 9.1: (Delta+1)-coloring with O(1) vertex-averaged rounds
    w.h.p.  (Its *worst case* is Theta(log n) w.h.p. -- the same execution
    measured two ways, which is the row's comparison.)"""
    delta = graph.max_degree()
    palette = range(delta + 1)

    def program(ctx: Context):
        view = LocalView()
        color = yield from rand_color_attempts(
            ctx, view, ctx.neighbors, palette, set(), tag="r"
        )
        return (1, color)

    net = SyncNetwork(graph, ids=ids, seed=seed)
    if max_rounds is None:
        max_rounds = 64 * (graph.n.bit_length() + 4) + 64
    res = net.run(program, max_rounds=max_rounds)
    return ColoringResult(
        colors={v: c for v, (h, c) in res.outputs.items()},
        h_index={v: h for v, (h, c) in res.outputs.items()},
        metrics=res.metrics,
        palette_bound=delta + 1,
    )


def run_aloglogn_coloring(
    graph: Graph,
    a: int,
    eps: float = 1.0,
    ids: Sequence[int] | None = None,
    seed: int = 0,
) -> ColoringResult:
    """Theorem 9.2: O(a log log n) colors, O(1) vertex-averaged rounds
    w.h.p.

    Phase 1 (H-sets 1..t, t = floor(2 log log n)): random (A+1)-coloring of
    each G(H_i) with palette {0..A}, final color tagged <c, i>.
    Phase 2 (H-sets t+1..ell): shared palette {A+1..2A+1}; each vertex
    waits for its neighbors in higher phase-2 sets to finalise (at most A
    of them, so a free color remains), then runs the same attempt loop
    against its same-set neighbors."""
    from math import floor

    from repro.analysis.logstar import ilog

    A = degree_bound(a, eps)
    n = graph.n
    ell = partition_length_bound(n, eps)
    t = max(1, floor(2 * ilog(n, 2)))

    def program(ctx: Context):
        view = LocalView()
        h = yield from join_h_set(ctx, view, A)
        yield
        view.absorb(ctx)
        same = [u for u in ctx.neighbors if view.value(JOIN, u) == h]
        if h <= t:
            color = yield from rand_color_attempts(
                ctx, view, same, range(A + 1), set(), tag=f"s{h}:"
            )
            return (h, (color, h))
        # Phase 2: learn all H-indices (all joins happen by round ell),
        # then wait for the finals of higher phase-2 neighbors.
        while len(view.get(JOIN)) < ctx.degree:
            yield
            view.absorb(ctx)
        joined = view.get(JOIN)
        higher = [u for u in ctx.neighbors if joined[u] > h]
        finals = yield from view.wait_for(ctx, "p2:f", higher)
        forbidden = {finals[u] for u in higher}
        palette = range(A + 1, 2 * A + 2)
        color = yield from rand_color_attempts(
            ctx, view, same, palette, forbidden, tag="p2:"
        )
        return (h, color)

    net = SyncNetwork(graph, ids=ids, seed=seed, config={"a": a, "eps": eps})
    budget = 64 * (n.bit_length() + 4) + 8 * ell + 256
    res = net.run(program, max_rounds=budget)
    return ColoringResult(
        colors={v: c for v, (h, c) in res.outputs.items()},
        h_index={v: h for v, (h, c) in res.outputs.items()},
        metrics=res.metrics,
        palette_bound=(t + 1) * (A + 1),
    )
