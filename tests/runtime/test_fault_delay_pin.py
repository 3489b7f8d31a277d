"""Pin of the fault-delay semantics on the fast engine.

The async-scheduler refactor generalises :class:`repro.faults.FaultPlan`
delay draws into a delivery-time model.  These tests freeze the *current*
behavior first -- delivery offsets, ``fault_delay`` obs events, and the
traffic accounting of held copies -- so the generalisation is drift-gated:
any change to when a delayed copy leaves its sender, when it arrives, or
how it is counted shows up here before it can silently shift every
downstream metric.

Pinned semantics (the contract):

* a copy delayed by ``d`` extra rounds, sent in round ``r``, is delivered
  at the start of round ``r + 1 + d`` (normal delivery is ``r + 1``);
* the delaying draw is a pure function of ``(plan.seed, round, src, dst,
  copy index)`` -- replaying the plan replays the schedule bit-identically;
* a held copy counts as traffic of its *send* round (it left the sender),
  via ``FaultInjector.take_delayed_count``;
* every delay emits one ``fault_delay`` event carrying the extra-round
  count, in routing order.
"""

from repro.faults import FaultPlan, MessageFaults
from repro.graphs import generators as gen
from repro.obs import EventBus, MemorySink
from repro.runtime.network import SyncNetwork
from repro.runtime.session import session

#: every copy delayed by exactly one extra round: the deterministic plan
DELAY_ALL_BY_1 = FaultPlan(seed=0, messages=MessageFaults(delay=1.0, max_delay=1))

#: seeded probabilistic plan used for the replay/schedule pins
DELAY_SOME = FaultPlan(seed=9, messages=MessageFaults(delay=0.3, max_delay=3))


def _pipe_prog(ctx):
    """v0 sends one token per round for three rounds; v1 logs its inbox
    for six rounds.  The receiver's log *is* the delivery schedule."""
    if ctx.v == 0:
        for r in (1, 2, 3):
            ctx.send(1, ("tok", r))
            yield
        return "sender-done"
    log = []
    for _ in range(5):
        log.append(
            (ctx.round, tuple(sorted((u, tuple(ms)) for u, ms in ctx.inbox.items())))
        )
        yield
    log.append(
        (ctx.round, tuple(sorted((u, tuple(ms)) for u, ms in ctx.inbox.items())))
    )
    return tuple(log)


def _chatter_prog(ctx):
    """Oblivious sender: broadcasts in rounds 1..3 regardless of inbox
    (so the traffic pattern cannot react to the faults), digests whatever
    arrives, and stays quiet one round before terminating."""
    digest = []
    for r in (1, 2, 3):
        ctx.broadcast(("beat", ctx.v, r))
        yield
        digest.append(
            (ctx.round, tuple(sorted((u, len(ms)) for u, ms in ctx.inbox.items())))
        )
    yield
    return (ctx.v, tuple(digest))


def _run(graph, program, plan, seed=0):
    sink = MemorySink()
    with session(bus=EventBus(sink), faults=plan):
        res = SyncNetwork(graph, seed=seed).run(program)
    return res, sink.events


class TestDeliveryOffsets:
    def test_delay_1_shifts_delivery_to_r_plus_2(self):
        res, events = _run(gen.path(2), _pipe_prog, DELAY_ALL_BY_1)
        # token sent in round r arrives at the start of round r + 2
        assert res.outputs[1] == (
            (1, ()),
            (2, ()),
            (3, ((0, (("tok", 1),)),)),
            (4, ((0, (("tok", 2),)),)),
            (5, ((0, (("tok", 3),)),)),
            (6, ()),
        )
        assert res.outputs[0] == "sender-done"
        assert res.metrics.rounds == (4, 6)

    def test_unfaulted_delivery_is_r_plus_1(self):
        # the baseline the offset is measured against
        res, _ = _run(gen.path(2), _pipe_prog, FaultPlan())
        assert res.outputs[1] == (
            (1, ()),
            (2, ((0, (("tok", 1),)),)),
            (3, ((0, (("tok", 2),)),)),
            (4, ((0, (("tok", 3),)),)),
            (5, ()),
            (6, ()),
        )


class TestDelayEvents:
    def test_every_copy_emits_one_fault_delay_with_offset(self):
        _, events = _run(gen.path(2), _pipe_prog, DELAY_ALL_BY_1)
        delays = [e for e in events if e.kind == "fault_delay"]
        assert [(e.round, e.src, e.dst, e.delay) for e in delays] == [
            (1, 0, 1, 1),
            (2, 0, 1, 1),
            (3, 0, 1, 1),
        ]

    def test_send_intent_precedes_the_fault_narration(self):
        _, events = _run(gen.path(2), _pipe_prog, DELAY_ALL_BY_1)
        kinds = [e.kind for e in events if e.kind in ("send", "fault_delay")]
        assert kinds == ["send", "fault_delay"] * 3


class TestTrafficAccounting:
    def test_held_copies_count_in_their_send_round(self):
        res, _ = _run(gen.path(2), _pipe_prog, DELAY_ALL_BY_1)
        # rounds 1-3: one held copy each; round 4: v0's halt notice;
        # round 5: silence; round 6: v1's halt notice
        assert res.metrics.messages_per_round == (1, 1, 1, 1, 0, 1)

    def test_oblivious_traffic_matches_the_unfaulted_run(self):
        """Delay never creates or destroys copies: an oblivious program's
        per-round totals are identical with and without the delay plan,
        because a held copy is tallied when it leaves its sender."""
        g = gen.ring(8)
        clean, _ = _run(g, _chatter_prog, FaultPlan())
        delayed, _ = _run(g, _chatter_prog, DELAY_ALL_BY_1)
        assert (
            delayed.metrics.messages_per_round
            == clean.metrics.messages_per_round
        )
        assert delayed.metrics.rounds == clean.metrics.rounds
        assert delayed.metrics.active_trace == clean.metrics.active_trace

    def test_delay_1_shifts_every_observation_by_one_round(self):
        g = gen.ring(8)
        clean, _ = _run(g, _chatter_prog, FaultPlan())
        delayed, _ = _run(g, _chatter_prog, DELAY_ALL_BY_1)
        for v in range(g.n):
            _, clean_digest = clean.outputs[v]
            _, delayed_digest = delayed.outputs[v]
            # a beat observed in round r clean is observed in round r + 1
            # delayed; the last beat falls off the digest horizon (the
            # digest covers rounds 2..4)
            shifted = [
                (r + 1, obs) for r, obs in clean_digest if r + 1 <= 4
            ]
            assert [(r, o) for r, o in delayed_digest if o] == [
                (r, o) for r, o in shifted if o
            ]


class TestSeededSchedule:
    def test_probabilistic_plan_replays_bit_identically(self):
        g = gen.ring(12)
        first, ev_first = _run(g, _chatter_prog, DELAY_SOME, seed=3)
        again, ev_again = _run(g, _chatter_prog, DELAY_SOME, seed=3)
        assert first.outputs == again.outputs
        assert first.metrics == again.metrics
        assert ev_first == ev_again

    def test_seeded_schedule_concrete_pin(self):
        """The exact delay schedule of DELAY_SOME on ring(12): a change in
        the draw function, the copy-index counter, or the offset range
        moves these literals."""
        _, events = _run(gen.ring(12), _chatter_prog, DELAY_SOME, seed=3)
        delays = sorted(
            (e.round, e.src, e.dst, e.delay)
            for e in events
            if e.kind == "fault_delay"
        )
        assert delays == PINNED_SCHEDULE

    def test_seed_changes_the_schedule(self):
        g = gen.ring(12)
        _, ev_a = _run(g, _chatter_prog, DELAY_SOME, seed=3)
        other = FaultPlan(seed=10, messages=DELAY_SOME.messages)
        _, ev_b = _run(g, _chatter_prog, other, seed=3)
        sched_a = [e for e in ev_a if e.kind == "fault_delay"]
        sched_b = [e for e in ev_b if e.kind == "fault_delay"]
        assert sched_a != sched_b


#: literal pin of DELAY_SOME's schedule, recorded from the counter-based
#: message stream of repro.rng (regenerate deliberately, never to paper
#: over a drift)
PINNED_SCHEDULE = [
    (1, 4, 3, 2),
    (1, 6, 7, 1),
    (1, 7, 6, 3),
    (1, 7, 8, 1),
    (1, 8, 7, 3),
    (1, 10, 9, 3),
    (1, 11, 0, 3),
    (2, 2, 1, 1),
    (2, 4, 3, 2),
    (2, 4, 5, 2),
    (2, 5, 4, 3),
    (2, 9, 8, 3),
    (2, 9, 10, 2),
    (2, 11, 0, 3),
    (3, 3, 2, 1),
    (3, 3, 4, 3),
    (3, 5, 4, 3),
    (3, 5, 6, 2),
    (3, 7, 6, 1),
    (3, 9, 10, 3),
    (3, 10, 9, 1),
]
