"""``yield WAIT``: the fast engine skips a waiting vertex in quiet rounds.

A program that yields :data:`repro.runtime.WAIT` promises that resuming
it in a round with an empty inbox and no new halt notice would change
nothing.  The fast engine therefore resumes it only when mail (delayed
fault copies included) or a halt notice arrives; the reference engine
and the event-queue oracle (``async_oracle.py``) step it every round.  The skip must be
unobservable: both sync engines produce equal :class:`RunResult`\\ s.
"""

import pytest

from repro.faults import CrashSpec, FaultPlan, MessageFaults
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.obs import EventBus, MemorySink
from repro.runtime import WAIT, ReferenceSyncNetwork, SyncNetwork
from repro.runtime.session import session

from tests.runtime.async_oracle import run_async

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
        with session(faults=faults):
            results[cls] = cls(g).run(make_relay(log))

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


# ---------------------------------------------------------------------------
# The wake list's edge cases
# ---------------------------------------------------------------------------
#
# The fast engine steps only the running vertices (last yield bare) and the
# sleepers woken by mail or a halt notice.  Crashes remove vertices from
# both sets, and a sleeper woken twice over must still be resumed once.

CLOCK = 0
#: rounds in which the clock sends a tick to every neighbor
CAST_TICKS = (2, 6)
#: the clock broadcasts "stop" and returns in this round
CAST_LAST = 8


def make_cast(runners, log):
    """Vertex ``CLOCK`` ticks in ``CAST_TICKS`` and broadcasts "stop" in
    ``CAST_LAST``.  Runner ``v`` yields bare, broadcasts in even rounds
    and returns in round ``runners[v]`` without sending.  Everyone else
    sleeps on ``yield WAIT``, stays awake for one bare-yield round after
    a new halt notice, and returns what it heard once "stop" arrives.
    ``log`` records every resumption of a sleeper as ``(v, round, had
    mail, had a new halt notice, last yield was WAIT)``."""

    def program(ctx):
        v = ctx.v
        if v == CLOCK:
            while ctx.round < CAST_LAST:
                if ctx.round in CAST_TICKS:
                    ctx.broadcast(("tick", ctx.round))
                yield
            ctx.broadcast(("stop", CAST_LAST))
            return "clock"
        if v in runners:
            while ctx.round < runners[v]:
                if ctx.round % 2 == 0:
                    ctx.broadcast(("run", ctx.round))
                yield
            return "runner"
        heard = []
        wait = True
        while True:
            yield WAIT if wait else None
            log.append(
                (v, ctx.round, bool(ctx.mail), bool(ctx.newly_halted), wait)
            )
            heard.extend(sorted(ctx.mail))
            if any(msg[0] == "stop" for _u, msg in ctx.mail):
                return tuple(heard)
            wait = not ctx.newly_halted

    return program


def _surface(res):
    return (res.outputs, res.metrics, res.output_rounds, res.crashed, res.times)


def _assert_engines_agree(g, runners, plan, runs=1):
    """Run the cast ``runs`` times through one fault session (a fresh
    injector from ``plan``) on each sync engine, and check equal results
    and event streams, and that the fast engine resumed exactly the
    reference's woken or running sleepers.  Returns the fast engine's
    sleeper log and its last result surface."""
    logs, outs = {}, {}
    for cls in (SyncNetwork, ReferenceSyncNetwork):
        injector = None if plan is None else plan.injector()
        log = logs[cls] = []
        out = outs[cls] = []
        for _ in range(runs):
            sink = MemorySink()
            with session(bus=EventBus(sink), faults=injector):
                res = cls(g).run(make_cast(runners, log))
            out.append((_surface(res), sink.events))
    assert outs[SyncNetwork] == outs[ReferenceSyncNetwork]
    assert logs[SyncNetwork] == [
        e for e in logs[ReferenceSyncNetwork] if e[2] or e[3] or not e[4]
    ]
    return logs[SyncNetwork], outs[SyncNetwork][-1][0]


def test_sleeper_crashed_with_mail_pending():
    # the clock's round-2 tick to vertex 2 is in its slot when the
    # adversary crashes it at the start of round 3; the clock and the
    # runner keep sending to it afterwards
    plan = FaultPlan(seed=0, crashes=CrashSpec(at={2: 3}))
    log, (outputs, _m, _o, crashed, _t) = _assert_engines_agree(
        gen.complete(4), {1: CAST_LAST}, plan
    )
    assert crashed == (2,)
    assert 2 not in outputs and 3 in outputs
    assert all(e[1] < 3 for e in log if e[0] == 2)


def test_running_vertex_crashed_mid_run():
    # after the runner crashes, one running and one sleeping vertex are
    # left: the crashed runner must neither be stepped nor count as
    # running, or the sleeper's wake-up by the round-6 tick is lost
    plan = FaultPlan(seed=0, crashes=CrashSpec(at={1: 4}))
    log, (outputs, _m, _o, crashed, _t) = _assert_engines_agree(
        gen.complete(3), {1: CAST_LAST}, plan
    )
    assert crashed == (1,)
    assert (CLOCK, ("tick", 6)) in outputs[2]
    assert (2, 7, True, False, True) in log


def test_vertices_pre_crashed_by_an_earlier_run():
    # the second run of one injector session starts with vertices 1 (a
    # runner) and 3 (a sleeper) already crashed
    plan = FaultPlan(seed=0, crashes=CrashSpec(at={1: 2, 3: 2}))
    _log, (outputs, _m, _o, crashed, _t) = _assert_engines_agree(
        gen.complete(4), {1: CAST_LAST}, plan, runs=2
    )
    assert crashed == (1, 3)
    assert set(outputs) == {CLOCK, 2}


#: the runner borders the clock and sleeper 2 only, so sleeper 3 sleeps
#: on while 2 is awake
KITE = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])


@pytest.mark.parametrize("plan", sorted(PLANS))
def test_sleeper_woken_by_mail_and_notice_is_resumed_once(plan):
    # Round 6: the runner's halt notice alone wakes sleeper 2, which stays
    # awake for a bare-yield round 7 and gets the round-6 tick in it.
    # Round 9: each sleeper gets "stop" and the clock's halt notice.
    log, (outputs, *_rest) = _assert_engines_agree(KITE, {1: 5}, PLANS[plan])
    assert len({e[:2] for e in log}) == len(log)
    if plan == "clean":
        assert (2, 6, False, True, True) in log
        assert (2, 7, True, False, False) in log
        for v in (2, 3):
            assert (v, CAST_LAST + 1, True, True, True) in log
            assert outputs[v][-1] == (CLOCK, ("stop", CAST_LAST))
