"""Leader election on rings with O(log n) vertex-averaged *output* time
(Feuilloley [12]; paper Sections 2-3).

Algorithm: Hirschberg-Sinclair probe doubling on a bidirectional oriented
ring.  In phase i every surviving candidate sends probes 2^i hops in both
directions; a relay forwards a probe only if its origin ID beats the
relay's own, the turnaround vertex echoes it back, and a candidate that
receives both echoes survives into phase i+1.  A probe that travels full
circle identifies the leader, which circulates an "elected" token; every
vertex terminates when the token passes.

The measure-theoretic point (why this lives here): termination takes
Theta(n) rounds for *everyone* (the token must tour the ring), but a vertex
can *commit* its output -- "non-leader" -- the moment it first sees an ID
larger than its own, which for most vertices happens within a couple of
rounds.  A candidate beaten in phase i commits after O(2^i) rounds and at
most ~n/2^i candidates survive i phases, so the committed-output average is
O(log n): the exponential average/worst gap of [12], under Feuilloley's
first definition (choose the output, keep relaying), which
:meth:`repro.runtime.context.Context.commit` implements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.graphs.graph import Graph
from repro.runtime.context import WAIT, Context
from repro.runtime.metrics import RoundMetrics, TimeMetrics
from repro.runtime.network import SyncNetwork

PROBE = "probe"      # (origin_id, direction, remaining_hops)
ECHO = "echo"        # (origin_id, direction)
ELECTED = "elected"  # (leader_id, remaining_hops)

CW, CCW = 0, 1  # clockwise probes travel successor-wards


@dataclass(frozen=True)
class LeaderElectionResult:
    """The elected leader plus both round accountings (termination-based
    and commit-based)."""

    leader: int  # vertex index of the leader
    outputs: dict[int, str]
    metrics: RoundMetrics          # termination-based (Theta(n) for all)
    output_metrics: RoundMetrics   # commit-based (O(log n) averaged)
    times: TimeMetrics | None = None  # virtual-time accounting (async runs)


def run_leader_election(
    graph: Graph,
    successor: Sequence[int] | None = None,
    ids: Sequence[int] | None = None,
    seed: int = 0,
) -> LeaderElectionResult:
    """Elect the maximum-ID vertex of an oriented ring."""
    n = graph.n
    if n < 3:
        raise ValueError("leader election needs a ring of >= 3 vertices")
    if successor is None:
        successor = [(v + 1) % n for v in range(n)]
    predecessor = [0] * n
    for v, s in enumerate(successor):
        if not graph.has_edge(v, s):
            raise ValueError(f"successor[{v}] = {s} is not a neighbor")
        predecessor[s] = v

    def program(ctx: Context):
        succ = ctx.config["successor"][ctx.v]
        pred = ctx.config["predecessor"][ctx.v]
        n = ctx.n
        my = ctx.id

        def out_link(direction: int) -> int:
            return succ if direction == CW else pred

        def back_link(direction: int) -> int:
            return pred if direction == CW else succ

        phase = 0
        candidate = True
        echoes = {CW: False, CCW: False}

        def launch(ph: int) -> None:
            hops = min(1 << ph, n)
            ctx.send(succ, (PROBE, (my, CW, hops)))
            ctx.send(pred, (PROBE, (my, CCW, hops)))

        launch(0)
        leader_seen: int | None = None
        while True:
            # Everything below reacts to mail only: sleep through quiet
            # rounds (most of the Theta(n) rounds after committing).
            yield WAIT
            # The grouped inbox, not ctx.mail: this loop returns mid-way
            # and sends as it goes, so its processing order is observable,
            # and only the grouped order is the same on every engine when
            # a fault-delayed copy joins a sender's normal one.
            for sender, payloads in ctx.inbox.items():
                for tag, payload in payloads:
                    if tag == PROBE:
                        origin, direction, hops = payload
                        if origin == my:
                            # full circle: we are the leader
                            leader_seen = my
                            continue
                        if origin > my:
                            if candidate:
                                candidate = False
                            if not ctx.committed:
                                ctx.commit("non-leader")
                            if hops > 1:
                                ctx.send(out_link(direction), (PROBE, (origin, direction, hops - 1)))
                            else:
                                ctx.send(back_link(direction), (ECHO, (origin, direction)))
                        # origin < my: swallow the probe.
                    elif tag == ECHO:
                        origin, direction = payload
                        if origin == my:
                            echoes[direction] = True
                        else:
                            if origin > my and not ctx.committed:
                                ctx.commit("non-leader")
                            ctx.send(back_link(direction), (ECHO, (origin, direction)))
                    elif tag == ELECTED:
                        leader_id, hops = payload
                        if not ctx.committed:
                            ctx.commit("non-leader")
                        if hops > 1:
                            ctx.send(succ, (ELECTED, (leader_id, hops - 1)))
                        return None  # committed value is the output
            if leader_seen is not None:
                # Leader: announce and terminate.
                ctx.commit("leader")
                ctx.send(succ, (ELECTED, (my, n - 1)))
                return None
            if candidate and echoes[CW] and echoes[CCW]:
                phase += 1
                echoes = {CW: False, CCW: False}
                launch(phase)

    net = SyncNetwork(graph, ids=ids, seed=seed)
    net.config["successor"] = list(successor)
    net.config["predecessor"] = predecessor
    res = net.run(program, max_rounds=8 * n + 64)
    leaders = [v for v, out in res.outputs.items() if out == "leader"]
    if len(leaders) != 1:
        raise AssertionError(f"expected exactly one leader, got {leaders}")
    return LeaderElectionResult(
        leader=leaders[0],
        outputs=dict(res.outputs),
        metrics=res.metrics,
        output_metrics=res.output_metrics,
        times=res.times,
    )
