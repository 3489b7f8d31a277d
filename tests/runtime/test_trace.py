"""Per-round engine behaviour as seen through the event stream.

A :class:`repro.obs.MetricsCollector` attached to a run records which
vertices terminated or committed each round and how many messages the
programs sent; these tests pin what the engines put on that stream.
"""

from repro.core.common import LocalView
from repro.core.partition import join_h_set
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.obs.collect import MetricsCollector
from repro.obs.events import EventBus
from repro.obs.report import narrative
from repro.runtime.network import SyncNetwork
from repro.runtime.reference import ReferenceSyncNetwork
from repro.runtime.session import session


def _collect(network, program):
    col = MetricsCollector()
    with session(bus=EventBus(col)):
        res = network.run(program)
    return col, res


def test_trace_records_terminations_per_round():
    g = gen.path(4)

    def program(ctx):
        for _ in range(ctx.v):
            yield
        return None

    col, res = _collect(SyncNetwork(g), program)
    assert col.terminations_per_round() == [1, 1, 1, 1]
    assert col.termination_round == {0: 1, 1: 2, 2: 3, 3: 4}
    # the stream agrees with the metrics
    assert col.termination_round == dict(enumerate(res.metrics.rounds))


def test_trace_counts_messages():
    g = gen.ring(4)

    def program(ctx):
        ctx.broadcast("x")
        yield
        return None

    col, _ = _collect(SyncNetwork(g), program)
    assert col.sent[0] == 8


def test_trace_records_commits():
    g = Graph(2, [(0, 1)])

    def program(ctx):
        yield
        ctx.commit("v")
        yield
        return None

    col, _ = _collect(SyncNetwork(g), program)
    assert sorted(col.committed[1]) == [0, 1]
    assert col.commit_round == {0: 2, 1: 2}


def test_trace_partition_matches_decay():
    """Per-round terminations of Partition mirror the active-trace decay
    the averaged analysis rests on."""
    from repro.core.common import degree_bound

    g = gen.union_of_forests(300, 3, seed=1)
    A = degree_bound(3, 1.0)

    def program(ctx):
        view = LocalView()
        h = yield from join_h_set(ctx, view, A)
        return h

    col, res = _collect(SyncNetwork(g), program)
    per_round = col.terminations_per_round()
    assert sum(per_round) == g.n
    # reconstruct n_i from the terminations and compare with the engine's
    # record and with the collector's own decay curve
    actives = []
    alive = g.n
    for t in per_round:
        actives.append(alive)
        alive -= t
    assert tuple(actives) == res.metrics.active_trace
    assert tuple(col.decay_curve()) == res.metrics.active_trace


def test_trace_recorder_matches_across_engines():
    """Both engines put the same per-round record on the stream: one
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

    records = []
    for cls in (SyncNetwork, ReferenceSyncNetwork):
        col, res = _collect(cls(g), program)
        assert col.termination_round == dict(enumerate(res.metrics.rounds))
        assert col.commit_round == {v: 2 + v % 4 for v in range(g.n) if v % 2}
        assert col.total_sent() > 0
        records.append((col.terminated, col.committed, col.sent))
    assert records[0] == records[1]


def test_narrative_renders():
    g = gen.path(3)

    def program(ctx):
        yield
        return None

    col, _ = _collect(SyncNetwork(g), program)
    text = narrative(col)
    assert "round" in text and "terminated" in text
