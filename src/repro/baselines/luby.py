"""Luby's randomized MIS algorithm [22] -- the classic O(log n) w.h.p.
baseline for Table 2.

Per attempt (three rounds): every active vertex draws a random priority
and broadcasts it; a vertex that beats all its active neighbors joins the
MIS, announces, and terminates; vertices hearing an MIS neighbor leave,
announce, and terminate.  A constant fraction of *edges* disappears per
attempt in expectation, giving O(log n) rounds w.h.p. -- for both the
worst case and (up to constants) the average, since the survival
probability decays per attempt, not per vertex neighborhood-size class.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.common import LocalView
from repro.core.extension import MISResult
from repro.graphs.graph import Graph
from repro.runtime.context import Context
from repro.runtime.network import SyncNetwork
from repro.runtime.session import current

PRIO = "lp"
STATE = "ls"  # payload: True (joined MIS) / False (left: neighbor joined)


def run_luby_mis(
    graph: Graph,
    ids: Sequence[int] | None = None,
    seed: int = 0,
    max_rounds: int | None = None,
) -> MISResult:
    """Run Luby's randomized MIS; returns the MIS with round accounting
    (worst case O(log n) w.h.p. -- the Table 2 randomized reference)."""
    if current().engine == "bulk":
        from repro.core.bulk import bulk_luby_mis

        return bulk_luby_mis(graph, ids=ids, seed=seed, max_rounds=max_rounds)

    def program(ctx: Context):
        view = LocalView()
        active = set(ctx.neighbors)
        attempt = 0
        while True:
            attempt += 1
            prio = (ctx.rng.random(), ctx.id)
            ctx.broadcast((PRIO, (attempt, prio)))
            yield
            view.absorb(ctx)
            # Process state announcements first (from the previous attempt).
            for u, st in view.get(STATE).items():
                if u in active:
                    active.discard(u)
                    if st is True:
                        ctx.broadcast((STATE, False))
                        return (attempt, False)
            prios = view.get(PRIO)
            wins = all(
                u in prios and prios[u][0] <= attempt and (
                    prios[u][0] < attempt or prios[u][1] < prio
                )
                for u in active
            )
            if wins:
                ctx.broadcast((STATE, True))
                return (attempt, True)
            yield
            view.absorb(ctx)
            for u, st in view.get(STATE).items():
                if u in active:
                    active.discard(u)
                    if st is True:
                        ctx.broadcast((STATE, False))
                        return (attempt, False)

    net = SyncNetwork(graph, ids=ids, seed=seed)
    if max_rounds is None:
        max_rounds = 64 * (graph.n.bit_length() + 4) + 64
    res = net.run(program, max_rounds=max_rounds)
    return MISResult(
        in_mis={v: flag for v, (att, flag) in res.outputs.items()},
        h_index={v: att for v, (att, flag) in res.outputs.items()},
        metrics=res.metrics,
        times=res.times,
    )
