"""Procedure Arb-Linial-Coloring (Section 7.2) and the Linial-style
list-coloring machinery used wherever the paper invokes a worst-case
coloring subroutine ([13], [7], [24] -- see DESIGN.md substitutions).

Execution style: *self-synchronizing*.  Every message carries its step
index, and a vertex advances to step k as soon as it has heard the step
k-1 colors of all the neighbors it must avoid.  This realises the paper's
event-driven compositions ("algorithm A is invoked on H_{i+1} only after
..." / "each vertex first waits for all of its parents ...") without global
barriers: a vertex's running time is determined by its own causal
dependencies, which is exactly what the vertex-averaged measure rewards.
Lockstep execution is the special case where everyone starts together.

Subroutines
-----------
``arb_linial_steps``   iterated cover-free color reduction against a fixed
                       parent set; O(log* n) self-paced steps to an O(A^2)
                       palette.
``priority_wave``      the generic "wait for all predecessors, then choose
                       and announce" wave (the paper's recoloring steps).
``list_coloring_steps``  (deg+1)-list-coloring: Linial reduction against all
                       participating neighbors, then a greedy pick-wave in
                       temp-color order.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, Sequence

from repro.core.common import LocalView
from repro.core.coverfree import PolyFamily
from repro.runtime.context import Context


def _step_tag(tag: str, k: int) -> str:
    return f"{tag}#{k}"


def arb_linial_steps(
    ctx: Context,
    view: LocalView,
    parents: Sequence[int],
    schedule: Sequence[PolyFamily],
    tag: str,
    color0: int | None = None,
) -> Generator[None, None, int]:
    """Iterated Arb-Linial color reduction against ``parents``.

    Step k (k = 0 .. len(schedule)): broadcast the current color under tag
    ``tag#k``; to compute the step k+1 color, wait until every parent's
    ``tag#k`` color has arrived, then pick a point of our cover-free set
    avoided by all parents' sets.  Properness is per-step: distinct current
    colors on an edge yield distinct next colors, with the child doing the
    avoiding.  Initial colors are the (distinct) IDs.

    Returns the final color, a point of ``schedule[-1]``'s ground set
    (O(A^2) colors).  The number of *rounds* consumed is at most
    ``len(schedule)`` plus the waiting imposed by slower parents.
    """
    c = ctx.id if color0 is None else color0
    for k, fam in enumerate(schedule):
        want = _step_tag(tag, k)
        ctx.broadcast((want, c))
        bucket = yield from view.wait_for(ctx, want, parents)
        c = fam.pick(c, [bucket[u] for u in parents])
    return c


def priority_wave(
    ctx: Context,
    view: LocalView,
    predecessors: Iterable[int],
    tag: str,
    choose: Callable[[dict[int, Any]], Any],
) -> Generator[None, None, Any]:
    """Wait until every predecessor has announced under ``tag``; then call
    ``choose(pred_values)``, broadcast the result under ``tag`` and return
    it.

    This is the paper's recoloring wave ("each vertex first waits for all
    of its parents ... to first choose a color, and then chooses a new
    color for itself"): along any acyclic predecessor relation the wave
    completes in (length of the relation) rounds.
    """
    preds = list(predecessors)
    bucket = yield from view.wait_for(ctx, tag, preds)
    value = choose({u: bucket[u] for u in preds})
    ctx.broadcast((tag, value))
    return value


def greedy_from_list(palette: Sequence[int], forbidden: set[int]) -> int:
    """The smallest palette color not forbidden."""
    for col in palette:
        if col not in forbidden:
            return col
    raise AssertionError("palette exhausted: deg+1 feasibility violated")


def list_coloring_steps(
    ctx: Context,
    view: LocalView,
    members: Sequence[int],
    palette: Sequence[int],
    schedule: Sequence[PolyFamily],
    tag: str,
    external_predecessors: Iterable[int] = (),
    external_tag: str | None = None,
) -> Generator[None, None, int]:
    """(deg+1)-list-coloring of the subgraph induced on this vertex and its
    participating ``members``.

    Phase 1: iterated Linial reduction against *all* members (a proper
    coloring of a graph needs every neighbor avoided, and within an H-set
    the degree is at most A, so the same cover-free machinery applies) down
    to a temp color in an O(A^2) palette.

    Phase 2: greedy pick-wave in temp-color order: wait for members with a
    smaller temp color -- and for ``external_predecessors`` (e.g. neighbors
    in earlier H-sets, announcing under ``external_tag``) -- then take the
    smallest list color none of them took.

    Feasibility: the list must be longer than the number of predecessors
    plus members, which every call site guarantees via the deg+1 property.
    """
    tag_tmp = tag + ":t"
    tag_pick = tag + ":p"
    ext_tag = external_tag or tag_pick
    tmp = yield from arb_linial_steps(ctx, view, members, schedule, tag=tag_tmp)
    # Exchange temp colors (final step colors already broadcast under the
    # last step tag; reuse them).
    last = _step_tag(tag_tmp, len(schedule))
    ctx.broadcast((last, tmp))
    member_list = list(members)
    temps = yield from view.wait_for(ctx, last, member_list)
    smaller = [u for u in member_list if temps[u] < tmp]
    # Wait for smaller-temp members (under tag_pick) and external
    # predecessors (under ext_tag), then choose greedily.
    ext = list(external_predecessors)

    def ready() -> bool:
        return all(view.heard(tag_pick, u) for u in smaller) and all(
            view.heard(ext_tag, u) for u in ext
        )

    while not ready():
        yield
        view.absorb(ctx)
    forbidden: set[int] = set()
    for u in smaller:
        forbidden.add(view.value(tag_pick, u))
    for u in ext:
        forbidden.add(view.value(ext_tag, u))
    chosen = greedy_from_list(palette, forbidden)
    ctx.broadcast((tag_pick, chosen))
    return chosen
