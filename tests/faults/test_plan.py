"""FaultPlan / FaultInjector unit semantics: validation, serialisation,
counter-based determinism, and the session lifecycle."""

import random

import numpy as np
import pytest

from repro.faults import (
    CrashSpec,
    FaultInjector,
    FaultPlan,
    MessageFaults,
)
from repro.faults.plan import drop_fate, drop_many, message_fates
from repro.runtime.session import current, session


class TestSpecs:
    def test_plan_empty_detection(self):
        assert FaultPlan().empty
        assert FaultPlan(seed=9).empty
        assert FaultPlan(crashes=CrashSpec()).empty
        assert FaultPlan(messages=MessageFaults()).empty
        assert not FaultPlan(crashes=CrashSpec(hazard=0.1)).empty
        assert not FaultPlan(crashes=CrashSpec(at={3: 1})).empty
        assert not FaultPlan(messages=MessageFaults(drop=0.1)).empty

    def test_crash_spec_validation(self):
        with pytest.raises(ValueError):
            CrashSpec(hazard=1.5)
        with pytest.raises(ValueError):
            CrashSpec(at={2: 0})  # rounds are 1-based

    def test_message_faults_validation(self):
        with pytest.raises(ValueError):
            MessageFaults(drop=-0.1)
        with pytest.raises(ValueError):
            MessageFaults(delay=0.5, max_delay=0)

    def test_scheduled_crash_strikes_at_first_active_round_past_at(self):
        spec = CrashSpec(at={4: 3})
        assert not spec.strikes(0, 2, 4)
        assert spec.strikes(0, 3, 4)
        assert spec.strikes(0, 7, 4)  # still striking if it stayed active
        assert not spec.strikes(0, 3, 5)  # other vertices unaffected

    def test_hazard_is_deterministic_in_seed_round_vertex(self):
        spec = CrashSpec(hazard=0.5)
        draws = [spec.strikes(42, r, v) for r in range(1, 20) for v in range(20)]
        again = [spec.strikes(42, r, v) for r in range(1, 20) for v in range(20)]
        assert draws == again
        assert any(draws) and not all(draws)
        other = [spec.strikes(43, r, v) for r in range(1, 20) for v in range(20)]
        assert draws != other  # the seed matters

    def test_strikes_many_is_the_vectorised_strikes(self):
        spec = CrashSpec(at={4: 3, 9: 1, 150: 2}, hazard=0.3)
        vs = np.arange(200)
        for rnd in (1, 2, 3, 5):
            assert spec.strikes_many(42, rnd, vs).tolist() == [
                spec.strikes(42, rnd, v) for v in range(200)
            ]
        assert CrashSpec(at={3: 2}).strikes_many(0, 2, vs[:0]).size == 0


class TestMessageDraws:
    def test_drop_many_is_the_vectorised_drop_fate(self):
        src = np.array([0, 5, 5, 17, 3, 2**40])
        dst = np.array([1, 4, 6, 16, 3, 7])
        for k in (0, 2):
            assert drop_many(9, 4, src, dst, k, 0.5).tolist() == [
                drop_fate(9, 4, int(u), int(w), k, 0.5) for u, w in zip(src, dst)
            ]
        ks = np.array([0, 1, 2, 0, 1, 2])
        assert drop_many(9, 4, src, dst, ks, 0.5).tolist() == [
            drop_fate(9, 4, int(u), int(w), int(k), 0.5)
            for u, w, k in zip(src, dst, ks)
        ]

    def test_message_fates_draws_drop_first(self):
        # the fate draw's first counter is exactly the drop draw
        mf = MessageFaults(drop=0.4, delay=0.5, duplicate=0.5, max_delay=3)
        for src in range(30):
            for k in range(3):
                dropped = message_fates(mf, 11, 2, src, src + 1, k) == ()
                assert dropped == drop_fate(11, 2, src, src + 1, k, 0.4)

    def test_fate_frequencies_match_the_probabilities(self):
        mf = MessageFaults(drop=0.2, delay=0.3, duplicate=0.1, max_delay=3)
        fates = [message_fates(mf, 5, 1, u, u + 1, 0) for u in range(20000)]
        kept = [f for f in fates if f]
        assert abs(1 - len(kept) / len(fates) - 0.2) < 0.02
        assert abs(sum(1 for f in kept if f[0]) / len(kept) - 0.3) < 0.02
        assert abs(sum(1 for f in kept if len(f) == 2) / len(kept) - 0.1) < 0.02
        assert {f[0] for f in kept} == {0, 1, 2, 3}


class TestSerialisation:
    def test_round_trip(self):
        plan = FaultPlan(
            seed=11,
            crashes=CrashSpec(at={7: 2, 3: 9}, hazard=0.01),
            messages=MessageFaults(drop=0.1, duplicate=0.2, delay=0.3, max_delay=5),
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_round_trip_through_json_string_keys(self):
        import json

        plan = FaultPlan(seed=1, crashes=CrashSpec(at={12: 4}))
        rec = json.loads(json.dumps(plan.to_dict()))
        assert FaultPlan.from_dict(rec) == plan

    def test_partial_dicts_fill_defaults(self):
        plan = FaultPlan.from_dict({"crashes": {"hazard": 0.2}})
        assert plan.seed == 0
        assert plan.crashes.hazard == 0.2
        assert plan.messages is None

    def test_describe_names_components(self):
        text = FaultPlan(
            seed=3,
            crashes=CrashSpec(at={1: 2}),
            messages=MessageFaults(drop=0.1),
        ).describe()
        assert "seed=3" in text and "crash@{1:r2}" in text and "drop=0.1" in text
        assert "no faults" in FaultPlan().describe()


class TestInjector:
    def test_fate_is_order_independent(self):
        """The same (round, src, dst, k) draws the same fate no matter the
        interleaving -- the property both engines' equivalence rests on."""
        plan = FaultPlan(
            seed=5, messages=MessageFaults(drop=0.3, duplicate=0.3, delay=0.3)
        )
        pairs = [(s, d) for s in range(6) for d in range(6) if s != d]

        def collect(order):
            inj = plan.injector()
            inj.begin_run(None)
            inj.on_round(1, [])
            return {p: inj.fate(1, *p) for p in order}

        forward = collect(pairs)
        backward = collect(list(reversed(pairs)))
        assert forward == backward

    def test_duplicate_sends_draw_independent_fates(self):
        plan = FaultPlan(seed=2, messages=MessageFaults(drop=0.5))
        inj = plan.injector()
        inj.begin_run(None)
        inj.on_round(1, [])
        fates = [inj.fate(1, 0, 1) for _ in range(40)]
        assert () in fates and (0,) in fates  # the copy counter decorrelates

    def test_hold_and_due_delivery_round(self):
        plan = FaultPlan(seed=0, messages=MessageFaults(delay=1.0))
        inj = plan.injector()
        inj.begin_run(None)
        inj.on_round(1, [])
        inj.hold(2, 0, 1, "late")
        assert inj.take_delayed_count() == 1
        assert inj.on_round(2, []) == ([], [])
        assert inj.on_round(3, []) == ([], [])
        _, due = inj.on_round(4, [])
        assert due == [(0, 1, "late")]

    def test_due_filters_crashed_receivers(self):
        plan = FaultPlan(seed=0, crashes=CrashSpec(at={1: 2}))
        inj = plan.injector()
        inj.begin_run(None)
        inj.on_round(1, [0, 1, 2])
        inj.hold(1, 0, 1, "x")  # due in round 3 (one extra round late)
        inj.hold(1, 0, 2, "y")
        crashes, _ = inj.on_round(2, [0, 1, 2])
        assert crashes == [1]
        _, due = inj.on_round(3, [0, 2])
        assert due == [(0, 2, "y")]  # the copy to crashed 1 is gone

    def test_crash_state_is_session_persistent_but_delay_buffer_is_not(self):
        plan = FaultPlan(seed=0, crashes=CrashSpec(at={3: 1}))
        inj = plan.injector()
        assert inj.begin_run(None) == frozenset()
        inj.on_round(1, [0, 3])
        inj.hold(1, 0, 3, "lost-with-the-network")
        # second engine run in the same session
        assert inj.begin_run(None) == frozenset({3})
        assert inj.on_round(2, [0]) == ([], [])  # held copy discarded

    def test_emit_narrates_crashes(self):
        events = []
        plan = FaultPlan(seed=0, crashes=CrashSpec(at={2: 1}))
        inj = plan.injector()
        inj.begin_run(events.append)
        crashes, _ = inj.on_round(1, [0, 1, 2])
        assert crashes == [2]
        assert [e.kind for e in events] == ["fault_crash"]
        assert events[0].v == 2


class TestSession:
    def test_session_installs_and_restores(self):
        assert current().injector is None
        plan = FaultPlan(seed=1, crashes=CrashSpec(hazard=0.1))
        with session(faults=plan) as rs:
            inj = rs.injector
            assert current().injector is inj
            assert isinstance(inj, FaultInjector)
        assert current().injector is None

    def test_session_accepts_prebuilt_injector(self):
        inj = FaultPlan(seed=1, crashes=CrashSpec(at={0: 1})).injector()
        with session(faults=inj) as rs:
            got = rs.injector
            assert got is inj

    def test_sessions_nest_and_unwind(self):
        a = FaultPlan(seed=1, crashes=CrashSpec(hazard=0.1))
        b = FaultPlan(seed=2, crashes=CrashSpec(hazard=0.1))
        with session(faults=a) as sa:
            ia = sa.injector
            with session(faults=b) as sb:
                ib = sb.injector
                assert current().injector is ib
            assert current().injector is ia
        assert current().injector is None
