"""Tests for the synchronous round engine: the model semantics every
complexity measurement rests on."""

import pytest

from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.runtime.network import MaxRoundsExceeded, SyncNetwork
from repro.runtime.session import session


def test_immediate_termination_is_one_round():
    g = Graph(3, [(0, 1), (1, 2)])

    def program(ctx):
        return ctx.id
        yield  # pragma: no cover

    res = SyncNetwork(g).run(program)
    assert res.metrics.rounds == (1, 1, 1)
    assert res.outputs == {0: 0, 1: 1, 2: 2}


def test_rounds_count_yields_plus_one():
    g = Graph(2, [(0, 1)])

    def program(ctx):
        yield
        yield
        return "done"

    res = SyncNetwork(g).run(program)
    assert res.metrics.rounds == (3, 3)


def test_message_delivered_next_round():
    g = Graph(2, [(0, 1)])
    log = {}

    def program(ctx):
        ctx.send(1 - ctx.v, f"hello from {ctx.v}")
        assert ctx.inbox == {}  # nothing before the first round ends
        yield
        log[ctx.v] = dict(ctx.inbox)
        return None

    SyncNetwork(g).run(program)
    assert log[0] == {1: ["hello from 1"]}
    assert log[1] == {0: ["hello from 0"]}


def test_multiple_sends_bundle_in_order():
    g = Graph(2, [(0, 1)])
    seen = {}

    def program(ctx):
        ctx.send(1 - ctx.v, "a")
        ctx.send(1 - ctx.v, "b")
        yield
        seen[ctx.v] = ctx.inbox[1 - ctx.v]
        return None

    SyncNetwork(g).run(program)
    assert seen[0] == ["a", "b"]


def test_broadcast_reaches_all_active_neighbors():
    g = gen.star(4)
    got = {}

    def program(ctx):
        if ctx.v == 0:
            ctx.broadcast("ping")
        yield
        got[ctx.v] = ctx.inbox.get(0)
        return None

    SyncNetwork(g).run(program)
    assert got[1] == got[2] == got[3] == ["ping"]
    assert got[0] is None


def test_termination_notice_carries_output():
    g = Graph(2, [(0, 1)])
    observed = {}

    def program(ctx):
        if ctx.v == 0:
            return "final-0"
        yield
        observed["halted"] = dict(ctx.halted)
        observed["newly"] = set(ctx.newly_halted)
        return "final-1"

    SyncNetwork(g).run(program)
    assert observed["halted"] == {0: "final-0"}
    assert observed["newly"] == {0}


def test_newly_halted_cleared_after_one_round():
    g = Graph(2, [(0, 1)])
    snaps = []

    def program(ctx):
        if ctx.v == 0:
            return None
        yield
        snaps.append(set(ctx.newly_halted))
        yield
        snaps.append(set(ctx.newly_halted))
        return None

    SyncNetwork(g).run(program)
    assert snaps == [{0}, set()]


def test_sends_to_halted_neighbors_dropped():
    g = Graph(2, [(0, 1)])

    def program(ctx):
        if ctx.v == 0:
            return None
        yield
        ctx.send(0, "too late")  # 0 already terminated
        yield
        return None

    res = SyncNetwork(g).run(program)
    # no crash; the message never counts as delivered to a live vertex
    assert res.outputs[1] is None


def test_active_degree_tracks_halting():
    g = gen.star(4)
    seen = []

    def program(ctx):
        if ctx.v != 0:
            return None
        seen.append(ctx.active_degree())
        yield
        seen.append(ctx.active_degree())
        return None

    SyncNetwork(g).run(program)
    assert seen == [3, 0]


def test_message_sent_in_final_round_is_delivered():
    g = Graph(2, [(0, 1)])
    got = {}

    def program(ctx):
        if ctx.v == 0:
            ctx.broadcast("parting gift")
            return None
        yield
        got["msg"] = ctx.inbox.get(0)
        return None

    SyncNetwork(g).run(program)
    assert got["msg"] == ["parting gift"]


def test_active_trace_and_roundsum_consistency():
    g = gen.path(6)

    def program(ctx):
        # vertex v terminates in round v + 1
        for _ in range(ctx.v):
            yield
        return None

    res = SyncNetwork(g).run(program)
    m = res.metrics
    assert m.rounds == (1, 2, 3, 4, 5, 6)
    assert m.active_trace == (6, 5, 4, 3, 2, 1)
    assert m.check_active_trace()
    assert m.round_sum == 21
    assert m.vertex_averaged == 3.5
    assert m.worst_case == 6


def test_distinct_ids_required():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValueError, match="distinct"):
        SyncNetwork(g, ids=[1, 1])


def test_id_length_checked():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValueError, match="length"):
        SyncNetwork(g, ids=[1])


def test_custom_ids_visible_to_programs():
    g = Graph(2, [(0, 1)])
    seen = {}

    def program(ctx):
        seen[ctx.v] = (ctx.id, dict(ctx.neighbor_ids))
        return None
        yield  # pragma: no cover

    SyncNetwork(g, ids=[10, 20]).run(program)
    assert seen[0] == (10, {1: 20})
    assert seen[1] == (20, {0: 10})


def test_config_defaults():
    g = Graph(3, [(0, 1)])
    net = SyncNetwork(g, ids=[5, 9, 2], config={"a": 7})
    assert net.config["n"] == 3
    assert net.config["id_space"] == 10
    assert net.config["a"] == 7


def test_max_rounds_guard():
    g = Graph(1)

    def forever(ctx):
        while True:
            yield

    with pytest.raises(MaxRoundsExceeded):
        SyncNetwork(g).run(forever, max_rounds=10)


def test_non_generator_program_rejected():
    g = Graph(1)
    with pytest.raises(TypeError):
        SyncNetwork(g).run(lambda ctx: 42)


def test_empty_graph_run():
    res = SyncNetwork(Graph(0)).run(lambda ctx: iter(()))
    assert res.outputs == {}
    assert res.metrics.vertex_averaged == 0.0


def test_determinism_same_seed():
    g = gen.gnp(30, 0.1, seed=1)

    def program(ctx):
        vals = []
        for _ in range(3):
            ctx.broadcast(ctx.rng.random())
            yield
            vals.append(tuple(sorted((u, tuple(m)) for u, m in ctx.inbox.items())))
        return (ctx.rng.random(), tuple(vals))

    r1 = SyncNetwork(g, seed=42).run(program)
    r2 = SyncNetwork(g, seed=42).run(program)
    r3 = SyncNetwork(g, seed=43).run(program)
    assert r1.outputs == r2.outputs
    assert r1.outputs != r3.outputs


def test_per_vertex_rng_independent():
    g = Graph(2)

    def program(ctx):
        return ctx.rng.random()
        yield  # pragma: no cover

    res = SyncNetwork(g).run(program)
    assert res.outputs[0] != res.outputs[1]


def test_message_counts():
    g = gen.ring(4)

    def program(ctx):
        ctx.broadcast("x")
        yield
        return None

    res = SyncNetwork(g).run(program)
    # round 1: 4 vertices x 2 neighbors = 8; round 2: 4 halt notices
    assert res.metrics.messages_per_round[0] == 8
    assert res.metrics.total_messages >= 8


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_messages_to_same_round_terminators_are_dropped(engine):
    """A message routed to a vertex that terminates in the same round can
    never be delivered; it must be dropped at routing time, not linger
    undelivered while inflating msg_count (regression: the seed engine
    accumulated such messages in ``pending`` forever and counted them)."""
    from repro.runtime.reference import ReferenceSyncNetwork

    cls = SyncNetwork if engine == "fast" else ReferenceSyncNetwork
    g = Graph(2, [(0, 1)])

    def program(ctx):
        if ctx.v == 0:
            return "gone"  # terminates during round 1
        ctx.send(0, "too late")  # sent in round 1: 0's halt not yet known
        yield
        return None

    res = cls(g).run(program)
    # round 1: vertex 1's send to the just-terminated vertex 0 is dropped
    # and NOT counted; round 2: only vertex 1's own halt notice
    assert res.metrics.messages_per_round == (1, 1)
    assert res.outputs == {0: "gone", 1: None}


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_broadcast_to_same_round_terminators_partially_dropped(engine):
    """Broadcasts count only the copies addressed to receivers that did
    not terminate in the sending round."""
    from repro.runtime.reference import ReferenceSyncNetwork

    cls = SyncNetwork if engine == "fast" else ReferenceSyncNetwork
    g = gen.path(3)  # 1 is the middle vertex

    def program(ctx):
        if ctx.v == 0:
            return None  # halts in round 1
        if ctx.v == 1:
            ctx.broadcast("x")  # 2 copies sent; the one to 0 is dropped
            yield
            return None
        yield
        return None

    res = cls(g).run(program)
    # round 1: only the 1->2 copy counts (+ vertex 0's halt notice)
    assert res.metrics.messages_per_round[0] == 1 + 1


def test_fast_and_reference_count_identically_under_churn():
    from repro.runtime.reference import ReferenceSyncNetwork

    g = gen.gnp(40, 0.12, seed=3)

    def program(ctx):
        for r in range(1 + ctx.v % 4):
            ctx.broadcast(("r", r))
            yield
        return None

    fast = SyncNetwork(g).run(program)
    ref = ReferenceSyncNetwork(g).run(program)
    assert fast.metrics.messages_per_round == ref.metrics.messages_per_round


# ---------------------------------------------------------------------------
# The wired routing state: each receiver is listed once per round
# ---------------------------------------------------------------------------

def test_router_lists_each_receiver_once_and_counts_every_copy():
    """Two wired broadcasts and a wired send reaching the same receivers
    append each receiver to ``RouterState.dirty`` once (when its slot
    goes from empty to non-empty), while ``msgs`` counts every copy."""
    from repro.runtime.context import RouterState

    g = gen.complete(3)
    rt = RouterState()
    rt.slots_next = [[] for _ in range(g.n)]
    contexts = SyncNetwork(g).make_contexts()
    for ctx in contexts:
        ctx._router = rt
    contexts[1].broadcast("b")  # to 0 and 2
    contexts[2].broadcast("c")  # to 0 and 1
    contexts[2].send(0, "s")
    assert rt.dirty == [0, 2, 1]
    assert rt.msgs == 5
    assert rt.slots_next[0] == [(1, "b"), (2, "c"), (2, "s")]
    assert rt.slots_next[1] == [(2, "c")]
    assert rt.slots_next[2] == [(1, "b")]


def test_delayed_copy_joins_a_listed_receiver_once(monkeypatch):
    """A broadcast, a send and an adversary-delayed copy all reach vertex 0
    in round 3 of a fast-engine run: the round's receiver list holds 0
    once, its mail holds all three copies, and the traffic trace counts
    every copy in its send round."""
    import repro.runtime.network as network
    from repro.faults import FaultInjector, FaultPlan, MessageFaults
    from repro.runtime.context import RouterState

    routers = []

    class RecordingRouter(RouterState):
        """Remembers every list the engine installs as ``dirty``."""

        def __init__(self):
            self.installed = []
            super().__init__()
            routers.append(self)

        @property
        def dirty(self):
            return RouterState.dirty.__get__(self)

        @dirty.setter
        def dirty(self, lst):
            self.installed.append(lst)
            RouterState.dirty.__set__(self, lst)

    class DelayEarly(FaultInjector):
        """Delays 2 -> 0 in round 1 by one extra round; delivers the rest."""

        def fate(self, rnd, src, dst):
            return (1,) if (rnd, src, dst) == (1, 2, 0) else (0,)

    monkeypatch.setattr(network, "RouterState", RecordingRouter)
    seen = {}

    def program(ctx):
        if ctx.v == 2:
            ctx.send(0, "early")  # held; due in round 3
        yield
        if ctx.v == 1:
            ctx.broadcast("b")
        if ctx.v == 2:
            ctx.send(0, "s")
        yield
        if ctx.v == 0:
            # the receiver list of this round's mail (delayed copies
            # included) is the one installed before the current one
            seen["dirty"] = list(routers[0].installed[-2])
            seen["mail"] = list(ctx.mail)
        return None

    injector = DelayEarly(FaultPlan(seed=0, messages=MessageFaults(delay=0.5)))
    with session(faults=injector):
        res = SyncNetwork(gen.complete(3)).run(program)
    assert seen["dirty"] == [0, 2]
    assert seen["mail"] == [(1, "b"), (2, "s"), (2, "early")]
    # round 1: the held copy; round 2: the broadcast's two copies and
    # the send; round 3: the three halt notices
    assert res.metrics.messages_per_round == (1, 3, 3)
