"""The run session: one frozen record of engine, mode, delays, bus and
fault injector, entered with ``session(...)`` and read with ``current()``.

The engine field's delegation is pinned in ``test_engine_selection.py``;
a passed injector keeping its crash set and round counter across runs
is pinned by ``test_fault_matrix.py::
test_session_state_persists_across_bulk_runs``.
"""

import pytest

from repro.faults import CrashSpec, FaultPlan, MessageFaults
from repro.obs import EventBus, MemorySink
from repro.runtime import DelaySpec, RunSession
from repro.runtime.session import current, session


def test_defaults_outside_any_session():
    assert current() == RunSession(
        engine="fast", mode="sync", delays=None, bus=None, injector=None
    )


def test_nested_session_inherits_unset_fields():
    bus = EventBus(MemorySink())
    delays = DelaySpec(dist="exp", seed=3)
    plan = FaultPlan(seed=1, crashes=CrashSpec(hazard=0.1))
    with session(engine="reference", mode="async", delays=delays, bus=bus,
                 faults=plan) as outer:
        with session(engine="bulk") as inner:
            assert inner is current()
            assert inner.engine == "bulk"
            assert inner.mode == "async"
            assert inner.delays is delays
            assert inner.bus is bus
            assert inner.injector is outer.injector
        with session(bus=None, faults=None) as inner:
            assert inner.bus is None and inner.injector is None
            assert inner.engine == "reference" and inner.delays is delays
        assert current() is outer
    assert current() == RunSession()


def test_sync_session_drops_inherited_delays():
    delays = DelaySpec(dist="uniform")
    with session(mode="async", delays=delays):
        with session(mode="sync") as inner:
            assert inner.delays is None
        assert current().delays is delays


def test_enclosing_session_restored_when_body_raises():
    with session(engine="reference") as outer:
        with pytest.raises(RuntimeError, match="boom"):
            with session(engine="bulk", mode="async"):
                raise RuntimeError("boom")
        assert current() is outer
    assert current() == RunSession()


def test_unknown_engine_rejected():
    with pytest.raises(
        ValueError,
        match=r"^unknown engine 'turbo'; expected one of "
        r"\('fast', 'reference', 'bulk'\)$",
    ):
        with session(engine="turbo"):
            pass
    assert current() == RunSession()


def test_unknown_mode_rejected():
    with pytest.raises(
        ValueError,
        match=r"^unknown mode 'warp'; expected one of \('sync', 'async'\)$",
    ):
        with session(mode="warp"):
            pass


@pytest.mark.parametrize("outer", ["sync", "async"])
def test_delays_in_sync_mode_rejected(outer):
    with session(mode=outer):
        with pytest.raises(
            ValueError,
            match=r"^delays is an async-mode parameter; sync runs have no "
            r"link-delay model$",
        ):
            with session(mode="sync", delays=DelaySpec()):
                pass


def test_delays_rejected_under_an_inherited_sync_mode():
    with pytest.raises(ValueError, match="delays is an async-mode parameter"):
        with session(delays=DelaySpec()):
            pass


@pytest.mark.parametrize(
    "plan",
    [
        FaultPlan(),
        FaultPlan(seed=9, crashes=CrashSpec(), messages=MessageFaults()),
    ],
    ids=["bare", "inactive-parts"],
)
def test_empty_plan_installs_no_injector(plan):
    outer = FaultPlan(seed=1, crashes=CrashSpec(hazard=0.1))
    with session(faults=outer):
        with session(faults=plan) as rs:
            assert rs.injector is None


def test_plan_compiles_once_per_session():
    plan = FaultPlan(seed=1, crashes=CrashSpec(hazard=0.1))
    with session(faults=plan) as a, session(faults=plan) as b:
        assert a.injector is not None and b.injector is not None
        assert a.injector is not b.injector
        assert a.injector.plan is plan


def test_session_is_frozen():
    with pytest.raises(AttributeError):
        current().engine = "bulk"
