"""Tests for the execution tracer."""

import pytest

from repro.core.common import LocalView
from repro.core.partition import join_h_set
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.obs.events import EventBus
from repro.runtime.network import SyncNetwork
from repro.runtime.reference import ReferenceSyncNetwork
from repro.runtime.trace import Trace, TraceRecorder


def test_trace_records_terminations_per_round():
    g = gen.path(4)

    def program(ctx):
        for _ in range(ctx.v):
            yield
        return None

    rec = TraceRecorder()
    res = SyncNetwork(g).run(program, bus=EventBus(rec))
    trace = rec.trace
    assert trace.terminations_per_round() == [1, 1, 1, 1]
    assert trace.termination_rounds() == {0: 1, 1: 2, 2: 3, 3: 4}
    # the trace agrees with the metrics
    assert trace.termination_rounds() == {
        v: r for v, r in enumerate(res.metrics.rounds)
    }


def test_trace_counts_messages():
    g = gen.ring(4)

    def program(ctx):
        ctx.broadcast("x")
        yield
        return None

    rec = TraceRecorder()
    SyncNetwork(g).run(program, bus=EventBus(rec))
    assert rec.trace.messages_per_round()[0] == 8


def test_trace_records_commits():
    g = Graph(2, [(0, 1)])

    def program(ctx):
        yield
        ctx.commit("v")
        yield
        return None

    rec = TraceRecorder()
    SyncNetwork(g).run(program, bus=EventBus(rec))
    assert sorted(rec.trace.records[1].committed) == [0, 1]


def test_trace_partition_matches_decay():
    """Per-round terminations of Partition mirror the active-trace decay
    the averaged analysis rests on."""
    g = gen.union_of_forests(300, 3, seed=1)
    rec = TraceRecorder()
    from repro.core.common import degree_bound

    A = degree_bound(3, 1.0)

    def program(ctx):
        view = LocalView()
        h = yield from join_h_set(ctx, view, A)
        return h

    res = SyncNetwork(g).run(program, bus=EventBus(rec))
    per_round = rec.trace.terminations_per_round()
    assert sum(per_round) == g.n
    # reconstruct n_i from the trace and compare with the engine's record
    actives = []
    alive = g.n
    for t in per_round:
        actives.append(alive)
        alive -= t
    assert tuple(actives) == res.metrics.active_trace


def test_record_out_of_order_access_stays_dense():
    """record() fills any missing earlier rounds: the sequence can never
    gap or duplicate however rounds are first touched."""
    trace = Trace()
    trace.record(3).terminated.append(7)
    trace.record(1).messages += 2
    trace.record(5)
    trace.record(3).terminated.append(8)
    assert [rec.round for rec in trace.records] == [1, 2, 3, 4, 5]
    assert trace.records[2].terminated == [7, 8]
    assert trace.messages_per_round() == [2, 0, 0, 0, 0]
    assert len(trace.records) == 5  # re-access created nothing new


def test_record_rejects_non_positive_rounds():
    """The old unchecked indexing silently aliased records[-1] for round
    0; it is now an error."""
    trace = Trace()
    trace.record(2)
    with pytest.raises(ValueError, match="1-based"):
        trace.record(0)
    with pytest.raises(ValueError, match="1-based"):
        trace.record(-1)
    assert [rec.round for rec in trace.records] == [1, 2]


def test_trace_recorder_matches_across_engines():
    """The sink path builds the same trace under both engines: one
    termination per vertex at its metrics round, and the odd vertices'
    commits in the round after their last broadcast."""
    g = gen.union_of_forests(60, 3, seed=4)

    def program(ctx):
        lifetime = 1 + ctx.v % 4
        for r in range(lifetime):
            ctx.broadcast(("r", r))
            yield
        if ctx.v % 2:
            ctx.commit(ctx.v)
            yield
        return None

    traces = []
    for cls in (SyncNetwork, ReferenceSyncNetwork):
        rec = TraceRecorder()
        res = cls(g).run(program, bus=EventBus(rec))
        trace = rec.trace
        assert trace.termination_rounds() == dict(enumerate(res.metrics.rounds))
        committed = {v: r.round for r in trace.records for v in r.committed}
        assert committed == {v: 2 + v % 4 for v in range(g.n) if v % 2}
        assert sum(trace.messages_per_round()) > 0
        traces.append(trace.records)
    assert traces[0] == traces[1]


def test_narrative_renders():
    g = gen.path(3)

    def program(ctx):
        yield
        return None

    rec = TraceRecorder()
    SyncNetwork(g).run(program, bus=EventBus(rec))
    text = rec.trace.narrative()
    assert "round" in text and "terminated" in text
