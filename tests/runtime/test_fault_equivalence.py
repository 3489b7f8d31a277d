"""Differential equivalence *under faults*: the seeded adversary must
perturb both engines bit-identically.

Every fault decision is a counter-based draw -- a pure function of
``(plan.seed, round, vertex)`` or ``(plan.seed, round, src, dst, copy)``
-- so replaying the same :class:`~repro.faults.FaultPlan` through the
fast engine and the reference engine must produce identical
:class:`~repro.runtime.network.RunResult` surfaces (outputs, per-vertex
rounds, active/message traces, crashed sets) *and* identical typed event
streams, fault events included.  This is the fault layer's analogue of
``test_equivalence.py``.
"""

import pytest

from repro import zoo
from repro.bench.workloads import WORKLOADS
from repro.faults import CrashSpec, FaultPlan, MessageFaults
from repro.graphs import generators as gen
from repro.obs import EventBus, MemorySink
from repro.runtime.network import SyncNetwork
from repro.runtime.reference import ReferenceSyncNetwork
from repro.runtime.scheduler import SyncBarrierScheduler
from repro.runtime.session import session

FAMILIES = ("forest_union_a3", "planar_grid", "caterpillar", "gnp_sparse", "ring")
SEEDS = (0, 1, 2)
N = 100


# Bounded-round programs: they terminate even when neighbors crash or
# messages are dropped, so faulted runs still complete and the full
# RunResult surface is comparable.

def prog_bounded_chatter(ctx):
    lifetime = 2 + ctx.rng.randrange(5)
    digest = 0
    for r in range(lifetime):
        ctx.broadcast(("beat", ctx.id, r))
        nbrs = ctx.active_neighbors()
        if nbrs:
            ctx.send(nbrs[r % len(nbrs)], ("poke", r))
        yield
        for u, msgs in sorted(ctx.inbox.items()):
            digest += len(msgs) + u
    return (ctx.id, digest)


def prog_bounded_commit(ctx):
    commit_at = 1 + ctx.rng.randrange(3)
    for r in range(commit_at):
        ctx.broadcast(("pre", r))
        yield
    ctx.commit(("out", ctx.id, sorted(ctx.inbox)))
    for _ in range(ctx.rng.randrange(3)):
        ctx.broadcast("linger")
        yield
    return None


PLANS = {
    "crash_at": FaultPlan(seed=5, crashes=CrashSpec(at={1: 1, 4: 2, 9: 3})),
    "crash_hazard": FaultPlan(seed=6, crashes=CrashSpec(hazard=0.03)),
    "msg_drop": FaultPlan(seed=7, messages=MessageFaults(drop=0.08)),
    "msg_dup": FaultPlan(seed=8, messages=MessageFaults(duplicate=0.1)),
    "msg_delay": FaultPlan(seed=9, messages=MessageFaults(delay=0.1, max_delay=2)),
    "everything": FaultPlan(
        seed=10,
        crashes=CrashSpec(at={2: 2}, hazard=0.01),
        messages=MessageFaults(drop=0.04, duplicate=0.04, delay=0.04),
    ),
}


def _run_both(family, seed, program, plan):
    wl = WORKLOADS[family]
    g, _a = wl(N, seed=seed)
    ids = gen.random_ids(g.n, seed=1000 + seed)
    results, streams = [], []
    for cls in (SyncNetwork, ReferenceSyncNetwork):
        sink = MemorySink()
        with session(bus=EventBus(sink), faults=plan):
            res = cls(g, ids=ids, seed=seed).run(program)
        results.append(res)
        streams.append(sink.events)
    return results, streams


def _assert_identical(fast, ref, ev_fast, ev_ref):
    assert fast.outputs == ref.outputs
    assert fast.metrics.rounds == ref.metrics.rounds
    assert fast.metrics.active_trace == ref.metrics.active_trace
    assert fast.metrics.messages_per_round == ref.metrics.messages_per_round
    assert fast.output_rounds == ref.output_rounds
    assert fast.crashed == ref.crashed
    assert ev_fast == ev_ref
    # the paper's Equation (1) accounting survives fault injection
    assert fast.metrics.check_active_trace()
    assert ref.metrics.check_active_trace()


@pytest.mark.parametrize("plan_name", sorted(PLANS))
@pytest.mark.parametrize("family", FAMILIES)
def test_engines_agree_under_faults(plan_name, family):
    (fast, ref), (ev_f, ev_r) = _run_both(
        family, 0, prog_bounded_chatter, PLANS[plan_name]
    )
    _assert_identical(fast, ref, ev_f, ev_r)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", ("forest_union_a3", "gnp_sparse"))
def test_engines_agree_under_combined_faults_across_seeds(family, seed):
    (fast, ref), (ev_f, ev_r) = _run_both(
        family, seed, prog_bounded_chatter, PLANS["everything"]
    )
    _assert_identical(fast, ref, ev_f, ev_r)


@pytest.mark.parametrize("plan_name", ("crash_at", "msg_delay", "everything"))
def test_commit_semantics_agree_under_faults(plan_name):
    (fast, ref), (ev_f, ev_r) = _run_both(
        "forest_union_a3", 1, prog_bounded_commit, PLANS[plan_name]
    )
    _assert_identical(fast, ref, ev_f, ev_r)


def test_fault_events_present_and_identical():
    (fast, ref), (ev_f, ev_r) = _run_both(
        "gnp_sparse", 0, prog_bounded_chatter, PLANS["everything"]
    )
    kinds = {e.kind for e in ev_f}
    assert ev_f == ev_r
    # the adversary actually did something, and narrated it
    assert kinds & {"fault_crash", "fault_drop", "fault_dup", "fault_delay"}


def test_crashed_vertices_recorded_identically():
    plan = PLANS["crash_at"]
    (fast, ref), _ = _run_both("ring", 0, prog_bounded_chatter, plan)
    assert fast.crashed == ref.crashed == (1, 4, 9)
    # a crashed vertex produced no output and stopped counting rounds
    for v in fast.crashed:
        assert v not in fast.outputs


# ---------------------------------------------------------------------------
# Registry programs built on LocalView
# ---------------------------------------------------------------------------
#
# ``LocalView.absorb`` reads ``ctx.mail``, whose order differs between the
# engines in one case: a delayed copy arriving in the same round as its
# sender's normal copy (only the per-sender order agrees).  These runs pin
# that the programs' executions do not depend on that order, under the
# delay plans.  Edge coloring also pins its label wait, which used to
# sleep through a round that a label absorbed earlier let proceed.  No
# validation step: Luby MIS is not delay-tolerant, and equality of the
# two engines is the point.

REGISTRY_PROGRAMS = ("partition", "luby-mis", "ka", "edge-coloring")


def _execute_both(name, family, plan, monkeypatch):
    g, a = WORKLOADS[family](N, seed=0)
    ids = gen.random_ids(g.n, seed=1000)
    finish = SyncBarrierScheduler.finish
    out = []
    for engine in ("fast", "reference"):
        runs = []

        def recording_finish(self, runs=runs):
            res = finish(self)
            runs.append(res)
            return res

        monkeypatch.setattr(SyncBarrierScheduler, "finish", recording_finish)
        sink = MemorySink()
        with session(bus=EventBus(sink)):
            ex = zoo.execute(
                name, g, a, ids, 0, engine=engine, faults=plan,
                capture_errors=True,
            )
        out.append((ex, runs, sink.events))
    return out


@pytest.mark.parametrize("plan_name", ("msg_delay", "everything"))
@pytest.mark.parametrize("family", ("forest_union_a3", "gnp_sparse"))
@pytest.mark.parametrize("name", REGISTRY_PROGRAMS)
def test_registry_programs_agree_under_delays(name, family, plan_name, monkeypatch):
    (fast, runs_f, ev_f), (ref, runs_r, ev_r) = _execute_both(
        name, family, PLANS[plan_name], monkeypatch
    )
    assert type(fast.error) is type(ref.error)
    assert (fast.watchdog is None) == (ref.watchdog is None)
    if fast.watchdog is not None:
        assert fast.watchdog.active == ref.watchdog.active
    assert fast.crashed == ref.crashed
    assert fast.result == ref.result
    assert len(runs_f) == len(runs_r)
    for f, r in zip(runs_f, runs_r):
        _assert_identical(f, r, ev_f, ev_r)
    assert ev_f == ev_r
    # the plan actually delayed copies
    assert any(e.kind == "fault_delay" for e in ev_f)
