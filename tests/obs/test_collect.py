"""MetricsCollector: per-vertex/per-round aggregation and the Lemma 6.1
shape check, pinned against the engine's own RoundMetrics."""

import pytest

import repro
from repro import obs
from repro.faults import CrashSpec, FaultPlan, MessageFaults
from repro.graphs import generators as gen
from repro.obs.collect import MetricsCollector
from repro.obs.events import Broadcast, EventBus, Halt, RoundEnd, RoundStart
from repro.runtime.network import SyncNetwork
from repro.runtime.session import session


def test_collector_matches_engine_metrics_on_partition():
    g = gen.union_of_forests(300, 3, seed=1)
    with obs.collecting() as col:
        res = repro.run_partition(g, a=3)
    m = res.metrics
    assert col.decay_curve() == list(m.active_trace)
    assert col.delivered == list(m.messages_per_round)
    assert col.vertex_averaged() == m.vertex_averaged
    assert col.worst_case() == m.worst_case
    assert col.n == g.n
    assert sorted(col.termination_round.items()) == [
        (v, r) for v, r in enumerate(m.rounds)
    ]


def test_round_histogram_and_terminations():
    g = gen.path(4)

    def program(ctx):
        for _ in range(ctx.v):
            yield
        return None

    col = MetricsCollector()
    with session(bus=EventBus(col)):
        SyncNetwork(g).run(program)
    assert col.round_histogram() == {1: 1, 2: 1, 3: 1, 4: 1}
    assert col.terminations_per_round() == [1, 1, 1, 1]
    assert col.worst_case() == 4
    assert col.vertex_averaged() == 2.5


def test_commit_rounds_follow_feuilloley_definition():
    g = gen.ring(4)

    def program(ctx):
        yield
        ctx.commit(ctx.v * 10)
        yield
        yield
        return None

    col = MetricsCollector()
    with session(bus=EventBus(col)):
        res = SyncNetwork(g).run(program)
    assert set(col.commit_round.values()) == {2}
    assert col.commits_per_round() == [0, 4]
    assert res.output_rounds == (2, 2, 2, 2)


def test_sent_vs_delivered_vs_dropped_accounting():
    """sent counts program payloads; delivered is the engine's traffic
    (net of same-round drops, plus halt notices); dropped explains the
    difference."""
    g = gen.path(3)

    def program(ctx):
        if ctx.v == 0:
            return None
            yield
        ctx.broadcast("x")
        yield
        return None

    col = MetricsCollector()
    with session(bus=EventBus(col)):
        res = SyncNetwork(g).run(program)
    # Vertices 1 and 2 broadcast in round 1 (2 + 1 payloads); vertex 0
    # halts the same round, so the payload addressed to it is dropped.
    assert col.total_sent() == 3
    assert col.total_dropped() == 1
    assert col.total_delivered() == 5  # 2 surviving payloads + 3 halt notices
    assert col.delivered == list(res.metrics.messages_per_round)


def test_decay_shape_check():
    col = MetricsCollector()
    for rnd, active in enumerate([100, 40, 12, 3, 1], start=1):
        col.emit(RoundStart(rnd, active))
    assert col.decay_curve() == [100, 40, 12, 3, 1]
    ratios = col.decay_ratios()
    assert ratios[0] == 0.4
    # round 4 -> 5 ratio is 1/3 <= 1/2; everything passes at warmup 0
    assert col.check_decay(warmup=0, ratio=0.5)
    # tighter ratio fails on the first transition but passes after warm-up
    assert not col.check_decay(warmup=0, ratio=0.35)
    assert col.check_decay(warmup=1, ratio=0.35)


def test_decay_check_rejects_non_monotone():
    col = MetricsCollector()
    for rnd, active in enumerate([10, 4, 6, 1], start=1):
        col.emit(RoundStart(rnd, active))
    assert not col.check_decay(warmup=10, ratio=1.0)


def test_inbox_occupancy():
    col = MetricsCollector()
    col.emit(RoundStart(1, 4))
    col.emit(Broadcast(1, 0, 3))
    col.emit(Broadcast(1, 1, 3))
    col.emit(RoundEnd(1, 6, 3, 0))
    col.emit(RoundStart(2, 4))
    col.emit(RoundEnd(2, 0, 0, 4))
    for v in range(4):
        col.emit(Halt(2, v))
    assert col.inbox_occupancy() == [2.0, 0.0]
    assert col.receivers == [3, 0]


def test_summary_renders():
    g = gen.star(5)

    def program(ctx):
        ctx.broadcast("m")
        yield
        return None

    col = MetricsCollector()
    with session(bus=EventBus(col)):
        SyncNetwork(g).run(program)
    s = col.summary()
    assert "n=5" in s and "avg=" in s and "sent=" in s


def test_round_sends_is_authoritative_no_double_count():
    """An aggregate ``round_sends`` record owns its round: per-call
    send/broadcast events for the same round are ignored whether they
    arrive before or after it, so mixed-granularity streams never
    double-count."""
    from repro.obs.events import RoundSends, Send

    col = MetricsCollector()
    col.emit(RoundStart(1, 3))
    col.emit(Broadcast(1, 0, 2))
    col.emit(Send(1, 1, 0))
    col.emit(RoundEnd(1, 3, 2, 1))
    col.emit(RoundStart(2, 2))
    col.emit(Broadcast(2, 0, 5))  # before the aggregate: overwritten
    col.emit(RoundSends(2, 7))
    col.emit(Broadcast(2, 1, 5))  # after the aggregate: ignored
    col.emit(Send(2, 1, 0))
    col.emit(RoundEnd(2, 7, 1, 2))
    assert col.sent == [3, 7]
    assert col.total_sent() == 10


def test_aggregate_only_stream_supports_per_vertex_accessors():
    """A pure aggregate-granularity trace (the bulk engine: no per-vertex
    ``halt`` events at all) still answers every per-vertex question from
    the ``round_end.halts`` counts."""
    from repro.obs.events import RoundSends

    col = MetricsCollector()
    col.emit(RoundStart(1, 4))
    col.emit(RoundSends(1, 6))
    col.emit(RoundEnd(1, 6, 3, 1))
    col.emit(RoundStart(2, 3))
    col.emit(RoundSends(2, 4))
    col.emit(RoundEnd(2, 4, 0, 3))
    assert col.n == 4
    assert col.round_histogram() == {1: 1, 2: 3}
    assert col.terminations_per_round() == [1, 3]
    assert col.vertex_averaged() == (1 * 1 + 2 * 3) / 4
    assert col.worst_case() == 2
    assert col.decay_curve() == [4, 3]
    assert col.sent == [6, 4] and col.delivered == [6, 4]


def test_mixed_granularity_rounds_histogram_totals():
    """A stream that switches granularity *between rounds* -- per-vertex
    events in round 1, pure aggregates in round 2, both granularities in
    round 3 -- must keep the send totals and the termination-round
    histogram exact: every vertex counted exactly once, sends never
    double-counted."""
    from repro.obs.events import RoundSends, Send

    col = MetricsCollector()
    # round 1: per-vertex granularity (generator engines)
    col.emit(RoundStart(1, 6))
    col.emit(Broadcast(1, 0, 3))
    col.emit(Send(1, 1, 0))
    col.emit(Halt(1, 5))
    col.emit(RoundEnd(1, 4, 2, 1))
    # round 2: aggregate granularity (bulk engine)
    col.emit(RoundStart(2, 5))
    col.emit(RoundSends(2, 8))
    col.emit(RoundEnd(2, 8, 3, 2))
    # round 3: both -- the aggregate owns sends, per-vertex halts win
    col.emit(RoundStart(3, 3))
    col.emit(Broadcast(3, 0, 4))  # ignored: RoundSends is authoritative
    col.emit(RoundSends(3, 5))
    col.emit(Halt(3, 0))
    col.emit(Halt(3, 1))
    col.emit(Halt(3, 2))
    col.emit(RoundEnd(3, 5, 0, 3))
    assert col.sent == [4, 8, 5]
    assert col.total_sent() == 17
    # histogram totals: 6 vertices, each terminating exactly once
    hist = col.round_histogram()
    assert hist == {1: 1, 2: 2, 3: 3}
    assert sum(hist.values()) == col.n == 6
    assert col.terminations_per_round() == [1, 2, 3]
    assert col.vertex_averaged() == (1 * 1 + 2 * 2 + 3 * 3) / 6
    assert col.worst_case() == 3


def test_per_vertex_halts_take_precedence_over_aggregate_halts():
    """When both granularities are present (a generator-engine trace:
    ``halt`` events *and* ``round_end.halts``), the per-vertex record wins
    and nothing is counted twice."""
    col = MetricsCollector()
    col.emit(RoundStart(1, 2))
    col.emit(Halt(1, 0))
    col.emit(Halt(1, 1))
    col.emit(RoundEnd(1, 2, 0, 2))
    assert col.n == 2
    assert col.terminations_per_round() == [2]
    assert col.round_histogram() == {1: 2}
    assert col.vertex_averaged() == 1.0


def test_bulk_and_fast_traces_collect_identically():
    """End-to-end: collecting a bulk run and a fast run of the same
    driver yields the same statistics despite the different event
    granularities."""
    g = gen.union_of_forests(300, 3, seed=1)
    with obs.collecting() as col_fast:
        repro.run_partition(g, a=3)
    with session(engine="bulk"):
        with obs.collecting() as col_bulk:
            repro.run_partition(g, a=3)
    assert col_bulk.decay_curve() == col_fast.decay_curve()
    assert col_bulk.sent == col_fast.sent
    assert col_bulk.delivered == col_fast.delivered
    assert col_bulk.receivers == col_fast.receivers
    assert col_bulk.n == col_fast.n
    assert col_bulk.vertex_averaged() == col_fast.vertex_averaged()
    assert col_bulk.worst_case() == col_fast.worst_case()
    assert (
        col_bulk.terminations_per_round() == col_fast.terminations_per_round()
    )
    # same-round drops: one ``drop`` per receiver on the fast engine, one
    # ``round_drops`` aggregate per round on the bulk engine
    assert col_fast.total_dropped() == sum(col_fast.sent) - sum(
        d - h for d, h in zip(col_fast.delivered, col_fast.halts)
    )
    assert col_fast.total_dropped() > 0
    assert col_bulk.dropped == col_fast.dropped


def _traffic_identity_holds(col):
    """Per round: delivered = sent - dropped - fault drops + fault dups
    + halts (a delayed copy counts in the round it was sent)."""

    def at(lst, i):
        return lst[i] if i < len(lst) else 0

    return all(
        at(col.delivered, i)
        == at(col.sent, i)
        - at(col.dropped, i)
        - at(col.fault_drops, i)
        + at(col.fault_dups, i)
        + at(col.halts, i)
        for i in range(col.rounds)
    )


@pytest.mark.parametrize(
    "messages",
    [
        MessageFaults(drop=0.05),
        MessageFaults(duplicate=0.05),
        MessageFaults(delay=0.05, max_delay=3),
    ],
    ids=["drop", "duplicate", "delay"],
)
def test_traffic_identity_under_message_faults(messages):
    """The documented traffic identity on a fast-engine trace of a
    crash-plus-message-fault run, round by round (docs/observability.md):
    without the fault terms it is off by exactly the fault counts."""
    g = gen.union_of_forests(400, 3, seed=1)
    ids = gen.random_ids(g.n, seed=1001)
    plan = FaultPlan(seed=7, crashes=CrashSpec(hazard=0.01), messages=messages)
    col = MetricsCollector()
    with session(faults=plan, bus=EventBus(col)):
        repro.run_partition(g, a=3, ids=ids)
    assert col.crash_round and sum(
        col.fault_drops + col.fault_dups + col.fault_delays
    )
    assert col.total_dropped() > 0
    assert _traffic_identity_holds(col)
    off = sum(col.sent) - col.total_dropped() + sum(col.halts) - sum(col.delivered)
    assert off == sum(col.fault_drops) - sum(col.fault_dups)


def test_traffic_identity_on_the_bulk_engine():
    """The bulk trace's aggregates satisfy the same identity."""
    g = gen.union_of_forests(400, 3, seed=1)
    ids = gen.random_ids(g.n, seed=1001)
    plan = FaultPlan(
        seed=7, crashes=CrashSpec(hazard=0.01), messages=MessageFaults(drop=0.05)
    )
    col = MetricsCollector()
    with session(engine="bulk", faults=plan, bus=EventBus(col)):
        repro.run_partition(g, a=3, ids=ids)
    assert sum(col.fault_drops) and col.total_dropped()
    assert _traffic_identity_holds(col)
