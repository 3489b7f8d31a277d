"""Differential search: the bulk Cole-Vishkin and defective-coloring
kernels against the fast engine.

Hypothesis draws small rings (Cole-Vishkin) and small rings or forest
unions with a multi-step defective schedule (ID spaces up to 10^6), a
random ID assignment and a fault setting: no session (a clean run), the
empty plan, or crash strikes, a crash hazard and message drops in
combination.  Both engines must agree on the colors, the metrics surface
(rounds, active trace, messages per round), the crashed set, the fault
event stream and the per-round ``sent`` counts a collector reads -- or,
on legitimate non-termination, on the watchdog's active set.  The fixed family x seed matrices of
``test_equivalence.py`` and ``test_fault_matrix.py`` stay; this searches
the space between them.
"""

from hypothesis import given, settings, strategies as st

import repro
from repro.core.defective import run_defective_coloring
from repro.faults import CrashSpec, FaultPlan, MessageFaults
from repro.graphs import generators as gen
from repro.obs.events import EventBus, FaultCrash, FaultDrop, RoundEnd, RoundStart
from repro.obs.collect import MetricsCollector
from repro.obs.sinks import MemorySink
from repro.runtime import RoundLimitExceeded
from repro.runtime.session import session

KINDS = ("none", "empty", "crash", "drop", "crash-drop")


@st.composite
def fault_plans(draw, n: int):
    """``None`` (no session) or a plan over vertices ``0..n-1``."""
    kind = draw(st.sampled_from(KINDS))
    if kind == "none":
        return None
    crashes = messages = None
    if "crash" in kind:
        at = draw(
            st.dictionaries(st.integers(0, n - 1), st.integers(1, 8), max_size=3)
        )
        crashes = CrashSpec(at=at, hazard=draw(st.sampled_from([0.0, 0.02, 0.1])))
    if "drop" in kind:
        messages = MessageFaults(drop=draw(st.sampled_from([0.01, 0.05, 0.2])))
    return FaultPlan(
        seed=draw(st.integers(0, 2**16)), crashes=crashes, messages=messages
    )


def _outcome(run, plan, engine):
    """What a run under ``plan`` on ``engine`` shows from outside."""
    sink, col = MemorySink(), MetricsCollector()
    inj = plan.injector() if plan is not None else None
    with session(engine=engine, faults=inj, bus=EventBus(sink, col)):
        try:
            res = run()
        except RoundLimitExceeded as e:
            return ("watchdog", sorted(e.active))
    m = res.metrics
    events = [
        e.to_record()
        for e in sink.events
        if isinstance(e, (FaultCrash, FaultDrop, RoundStart, RoundEnd))
    ]
    return (
        "ok",
        sorted(res.colors.items()),
        (m.rounds, m.active_trace, m.messages_per_round),
        sorted(inj.crashed) if inj is not None else [],
        events,
        col.sent,
    )


def _assert_bulk_is_fast(run, plan):
    fast = _outcome(run, plan, "fast")
    bulk = _outcome(run, plan, "bulk")
    assert bulk[0] == fast[0], "one engine watchdogged, the other completed"
    assert bulk[1:] == fast[1:]


def _ids(draw, n):
    space = draw(st.sampled_from([n, 10**4, 10**6]))
    return gen.random_ids(n, seed=draw(st.integers(0, 2**16)), id_space=space)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cole_vishkin_bulk_matches_fast(data):
    n = data.draw(st.integers(3, 40), label="n")
    g = gen.ring(n)
    ids = _ids(data.draw, n)
    plan = data.draw(fault_plans(n), label="plan")
    _assert_bulk_is_fast(lambda: repro.run_ring_three_coloring(g, ids=ids), plan)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_defective_bulk_matches_fast(data):
    n = data.draw(st.integers(3, 40), label="n")
    if data.draw(st.booleans(), label="ring"):
        g = gen.ring(n)
    else:
        g = gen.union_of_forests(
            n,
            data.draw(st.integers(1, 3), label="a"),
            seed=data.draw(st.integers(0, 2**16)),
            density=data.draw(st.sampled_from([1.0, 0.5])),
        )
    d = data.draw(st.integers(1, 3), label="d")
    ids = _ids(data.draw, n)
    plan = data.draw(fault_plans(n), label="plan")
    _assert_bulk_is_fast(lambda: run_defective_coloring(g, d, ids=ids), plan)
