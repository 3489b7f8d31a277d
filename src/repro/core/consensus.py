"""Crash-tolerant binary consensus by zero-flooding (flood-min).

Every vertex starts with an input bit.  The protocol floods the minimum:
a vertex that *knows* 0 (its own input, or a received announcement)
commits the decision 0, announces it once to all neighbors, and halts one
round later; a vertex that only ever sees 1 listens until a fixed horizon
and then decides 1.  Because the only two values are 0 and 1, flooding
the zero bit is the whole of flood-min.

Crash tolerance (crash-stop, the model of :mod:`repro.faults`): a crashed
vertex simply stops participating at a round boundary -- it either
announced its zero to every then-alive neighbor or it never announced at
all, so knowledge among *survivors* is monotone and announced-on-first-
learn.  Agreement therefore holds per connected component of the
**surviving** subgraph: if any survivor of a component ever knows 0, that
knowledge is at most ``n`` hops of crashed carriers away from its
originating input plus at most ``n - 1`` hops of surviving relays, so a
horizon of ``2n + 4`` rounds guarantees every survivor of the component
learns it in time; otherwise every survivor of the component decides 1.
Validity is the usual flood-min validity: a decision is always some
vertex's input in the decider's original component (0 cannot be
invented, and 1 is everyone's fallback only when no 0 was ever heard).

Vertex-averaged story (why this lives in a vertex-averaged-complexity
repo): a vertex with input 0 commits in round 1, and a vertex at distance
d from the nearest zero commits in round d + 1, while *termination* of
the all-ones listeners takes the full Theta(n) horizon -- another
instance of the committed-output average (Feuilloley's first definition,
:meth:`repro.runtime.context.Context.commit`) being exponentially
smaller than the worst case.  In an async run session
(``session(mode="async")``) the same program yields the vertex-averaged
*output time* analogue via :attr:`repro.runtime.network.RunResult.times`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro import rng
from repro.graphs.graph import Graph
from repro.runtime.context import Context
from repro.runtime.metrics import RoundMetrics, TimeMetrics
from repro.runtime.network import SyncNetwork

#: message tag: ``(EST, 0)`` announces knowledge of a zero input
EST = "est"


def decision_horizon(n: int) -> int:
    """Rounds after which a vertex that never heard 0 may decide 1.

    A zero travels one hop per round; the worst chain is at most ``n``
    crashed carriers followed by at most ``n - 1`` surviving relays, so
    every survivor that can still learn 0 has learned it strictly before
    round ``2n``; the ``+4`` is slack, not load-bearing.
    """
    return 2 * n + 4


@dataclass(frozen=True)
class ConsensusResult:
    """Decisions plus both round accountings (and times, when async)."""

    decisions: dict[int, int]
    #: the input bit of every vertex (decision validity is judged
    #: against these)
    values: tuple[int, ...]
    metrics: RoundMetrics          # termination-based (Theta(n) for 1-deciders)
    output_metrics: RoundMetrics   # commit-based (distance-to-nearest-zero)
    times: TimeMetrics | None = None  # virtual-time accounting (async runs)


def run_consensus(
    graph: Graph,
    ids: Sequence[int] | None = None,
    seed: int = 0,
    values: Sequence[int] | None = None,
) -> ConsensusResult:
    """Binary consensus among crash-stop survivors of ``graph``.

    ``values`` fixes the input bits explicitly; otherwise vertex ``v``'s
    bit is the low bit of ``repro.rng.hash64(seed, INPUT, v)``, so a fuzz
    case's seed pins the instance completely.
    """
    n = graph.n
    if values is None:
        values = tuple(rng.hash64(seed, rng.INPUT, v) & 1 for v in range(n))
    else:
        values = tuple(int(v) for v in values)
        if len(values) != n:
            raise ValueError(
                f"got {len(values)} input values for {n} vertices"
            )
        if any(v not in (0, 1) for v in values):
            raise ValueError("consensus inputs must be binary (0 or 1)")
    horizon = decision_horizon(n)

    def program(ctx: Context):
        if ctx.config["values"][ctx.v] == 0:
            ctx.commit(0)
            ctx.broadcast((EST, 0))
            yield  # the announcement is delivered next round
            return 0
        # Input 1: listen for a zero until the horizon.
        for _ in range(2, horizon + 1):
            yield
            if any(val == 0 for _u, (_tag, val) in ctx.mail):
                ctx.commit(0)
                ctx.broadcast((EST, 0))
                yield  # relay before halting
                return 0
        ctx.commit(1)
        return 1

    net = SyncNetwork(graph, ids=ids, seed=seed)
    net.config["values"] = values
    res = net.run(program, max_rounds=horizon + 8)
    return ConsensusResult(
        decisions=dict(res.outputs),
        values=values,
        metrics=res.metrics,
        output_metrics=res.output_metrics,
        times=res.times,
    )
