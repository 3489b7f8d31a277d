"""``yield WAIT``: the fast engine skips a waiting vertex in quiet rounds.

A program that yields :data:`repro.runtime.WAIT` promises that resuming
it in a round with an empty inbox and no new halt notice would change
nothing.  The fast engine therefore resumes it only when mail (delayed
fault copies included) or a halt notice arrives; the reference engine
and the asynchronous executor step it every round.  The skip must be
unobservable: both sync engines produce equal :class:`RunResult`\\ s.
"""

import pytest

from repro.faults import FaultPlan, MessageFaults
from repro.graphs import generators as gen
from repro.runtime import (
    WAIT,
    ReferenceSyncNetwork,
    SyncNetwork,
    run_async,
)

N = 6
#: rounds in which vertex 0 sends a tick down the path
TICKS = (2, 5, 6)
#: vertex 0 sends "stop" and returns in this round
LAST = 9


def make_relay(log):
    """Vertex 0 ticks at fixed rounds, then sends "stop" and returns;
    every other vertex relays each message one hop down the path with
    ``yield WAIT`` in between, and returns after relaying "stop".  Its
    predecessor's halt notice wakes it once more before the (possibly
    delayed) "stop" arrives.  ``log`` records every resumption as
    ``(v, round, had mail or a new halt notice)``."""

    def program(ctx):
        v = ctx.v
        if v == 0:
            while ctx.round < LAST:
                if ctx.round in TICKS:
                    ctx.send(1, ("tick", ctx.round))
                yield
            ctx.send(1, ("stop", LAST))
            return "clock"
        heard = []
        while True:
            yield WAIT
            log.append((v, ctx.round, bool(ctx.inbox or ctx.newly_halted)))
            for msgs in ctx.inbox.values():
                for msg in msgs:
                    heard.append(msg)
                    if v + 1 < N:
                        ctx.send(v + 1, msg)
            if heard and heard[-1][0] == "stop":
                return tuple(heard)

    return program


PLANS = {
    "clean": None,
    # every copy is held for 1..3 rounds: sleepers must wake for
    # delayed copies too
    "delayed": FaultPlan(seed=3, messages=MessageFaults(delay=1.0)),
}


@pytest.mark.parametrize("plan", sorted(PLANS))
def test_fast_engine_resumes_waiters_only_for_mail_or_notices(plan):
    g = gen.path(N)
    faults = PLANS[plan]
    logs, results = {}, {}
    for cls in (SyncNetwork, ReferenceSyncNetwork):
        log = logs[cls] = []
        results[cls] = cls(g).run(make_relay(log), faults=faults)

    fast, ref = results[SyncNetwork], results[ReferenceSyncNetwork]
    assert fast.outputs == ref.outputs
    assert fast.metrics == ref.metrics
    assert fast.output_rounds == ref.output_rounds
    assert fast.crashed == ref.crashed
    assert all(len(ref.outputs[v]) == len(TICKS) + 1 for v in range(1, N))

    # fast: every resumption had mail or a notice, and none was skipped
    assert all(woke for _v, _r, woke in logs[SyncNetwork])
    assert [e for e in logs[ReferenceSyncNetwork] if e[2]] == logs[SyncNetwork]
    # reference: every round from 2 to termination, quiet ones included
    for v in range(1, N):
        rounds = [r for u, r, _ in logs[ReferenceSyncNetwork] if u == v]
        assert rounds == list(range(2, ref.metrics.rounds[v] + 1))
    assert len(logs[SyncNetwork]) < len(logs[ReferenceSyncNetwork])


def test_async_executor_steps_waiters_every_round():
    g = gen.path(N)
    log = []
    res = run_async(SyncNetwork(g), make_relay(log))
    ref = ReferenceSyncNetwork(g).run(make_relay([]))
    assert res.outputs == ref.outputs
    assert res.metrics.rounds == ref.metrics.rounds
    for v in range(1, N):
        rounds = [r for u, r, _ in log if u == v]
        assert rounds == list(range(2, res.metrics.rounds[v] + 1))


def prog_yields_value(ctx):
    ctx.broadcast("wake")  # mail next round: the fast engine resumes too
    yield WAIT
    yield 5


@pytest.mark.parametrize("engine", ["fast", "reference", "async"])
def test_other_yielded_values_still_raise(engine):
    net = SyncNetwork(gen.ring(4))
    with pytest.raises(RuntimeError, match="yielded 5"):
        if engine == "async":
            run_async(net, prog_yields_value)
        elif engine == "reference":
            ReferenceSyncNetwork.run(net, prog_yields_value)
        else:
            net.run(prog_yields_value)
