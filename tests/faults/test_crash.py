"""Crash-stop semantics at the engine level.

A crashed vertex is removed at the *start* of its crash round: it
performs no computation that round, produces no output, announces
nothing (neighbors never see it halt), and its recorded running time is
the last round it completed.  The paper's Equation (1) accounting
(``check_active_trace``) must survive all of this.
"""

import pytest

import repro
from repro.faults import CrashSpec, FaultPlan, MessageFaults
from repro.graphs import generators as gen
from repro.obs import EventBus, MemorySink
from repro.runtime.network import SyncNetwork
from repro.runtime.reference import ReferenceSyncNetwork
from repro.runtime.session import session

ENGINES = (SyncNetwork, ReferenceSyncNetwork)


def prog_count_three(ctx):
    for r in range(3):
        ctx.broadcast(("r", r))
        yield
    return ("done", ctx.v)


@pytest.mark.parametrize("engine", ENGINES)
def test_crashed_vertex_has_no_output_and_truncated_rounds(engine):
    g = gen.ring(8)
    plan = FaultPlan(seed=0, crashes=CrashSpec(at={3: 2}))
    with session(faults=plan):
        res = engine(g).run(prog_count_three)
    assert res.crashed == (3,)
    assert 3 not in res.outputs
    assert set(res.outputs) == set(range(8)) - {3}
    # crashed in round 2 => it completed only round 1
    assert res.metrics.rounds[3] == 1
    # survivors: 3 yields + the terminating resume = 4 rounds
    assert all(res.metrics.rounds[v] == 4 for v in res.outputs)


@pytest.mark.parametrize("engine", ENGINES)
def test_crash_is_not_a_halt_announcement(engine):
    """Neighbors of a crashed vertex never see it in ctx.halted."""
    seen = {}

    def prog(ctx):
        for r in range(4):
            ctx.broadcast("x")
            yield
        seen[ctx.v] = dict(ctx.halted)
        return ctx.v

    g = gen.ring(6)
    plan = FaultPlan(seed=0, crashes=CrashSpec(at={2: 2}))
    with session(faults=plan):
        res = engine(g).run(prog)
    assert res.crashed == (2,)
    for v, halted in seen.items():
        assert 2 not in halted


@pytest.mark.parametrize("engine", ENGINES)
def test_active_trace_accounting_survives_crashes(engine):
    g = gen.union_of_forests(40, 2, seed=3)
    plan = FaultPlan(seed=4, crashes=CrashSpec(hazard=0.05))
    with session(faults=plan):
        res = engine(g).run(prog_count_three)
    assert res.crashed  # hazard 5% over 3 rounds x 40 vertices: ~certain
    assert res.metrics.check_active_trace()  # Equation (1) still holds


@pytest.mark.parametrize("engine", ENGINES)
def test_pre_crashed_vertices_removed_before_round_one(engine):
    """Session persistence: a vertex crashed in a previous run of the
    same session never executes in the next run."""
    g = gen.ring(6)
    plan = FaultPlan(seed=0, crashes=CrashSpec(at={1: 2}))
    with session(faults=plan):
        first = engine(g).run(prog_count_three)
        assert first.crashed == (1,)
        second = engine(g).run(prog_count_three)
    assert second.crashed == (1,)
    assert 1 not in second.outputs
    assert second.metrics.rounds[1] == 0  # never ran at all
    # the active trace starts below n
    assert second.metrics.active_trace[0] == 5


@pytest.mark.parametrize("engine", ENGINES)
def test_crash_events_emitted_once_per_vertex(engine):
    g = gen.ring(8)
    plan = FaultPlan(seed=0, crashes=CrashSpec(at={2: 1, 5: 3}))
    sink = MemorySink()
    with session(bus=EventBus(sink), faults=plan):
        res = engine(g).run(prog_count_three)
    crashes = [(e.round, e.v) for e in sink.by_kind("fault_crash")]
    assert crashes == [(1, 2), (3, 5)]
    assert res.crashed == (2, 5)


@pytest.mark.parametrize("engine", ENGINES)
def test_empty_plan_is_the_null_adversary(engine):
    g = gen.ring(8)
    clean = engine(g).run(prog_count_three)
    with session(faults=FaultPlan(seed=99)):
        faulted = engine(g).run(prog_count_three)
    assert faulted.outputs == clean.outputs
    assert faulted.metrics.rounds == clean.metrics.rounds
    assert faulted.crashed == ()


def test_multi_phase_driver_sees_persistent_crashes():
    """A crash during run_partition's phases persists: the final result
    is missing exactly the crashed vertices' outputs."""
    g = gen.union_of_forests(60, 2, seed=1)
    plan = FaultPlan(seed=123, crashes=CrashSpec(at={10: 1}))
    with session(faults=plan) as rs:
        inj = rs.injector
        res = repro.run_partition(g, a=2)
        assert 10 in inj.crashed
    assert 10 not in res.h_index
    assert set(res.h_index) == set(range(60)) - {10}


def test_message_faults_require_no_crash_component():
    g = gen.ring(10)
    plan = FaultPlan(seed=7, messages=MessageFaults(drop=0.2))
    with session(faults=plan):
        res = SyncNetwork(g).run(prog_count_three)
    assert res.crashed == ()
    assert set(res.outputs) == set(range(10))
