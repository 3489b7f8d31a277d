"""Differential search: the fast generator engine against the reference.

Hypothesis draws a small graph (empty, isolated vertices, a clique, a
star or a forest union), an ID permutation, a program (one of
``test_equivalence.PROGRAMS``, or a wave whose waiters sleep on
``yield WAIT``) and a fault setting: none, crash strikes or a crash
hazard, message drops, duplicates or delays.  Both engines must return
equal :class:`~repro.runtime.network.RunResult`\\ s (outputs, per-vertex
rounds, traces, commit rounds, crashed set) -- or trip the watchdog on
the same vertices -- and emit equal event streams, fault events
included.  The fixed family x seed matrices of
``test_equivalence.py`` and ``test_fault_equivalence.py`` stay; this
searches the space between them.
"""

from hypothesis import given, settings, strategies as st

from repro.faults import CrashSpec, FaultPlan, MessageFaults
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.obs.events import EventBus
from repro.obs.sinks import MemorySink
from repro.runtime import WAIT
from repro.runtime.network import RoundLimitExceeded, SyncNetwork
from repro.runtime.session import session
from repro.runtime.reference import ReferenceSyncNetwork

from tests.runtime.test_equivalence import PROGRAMS


def prog_wait_wave(ctx):
    """A wave started by every local ID minimum, which lingers a few
    rounds before it halts.  The other vertices sleep on ``yield WAIT``
    until mail or a halt notice reaches them, then forward the wave and
    halt.  A crashed starter can leave its waiters asleep until the
    watchdog fires, on both engines alike."""
    if all(ctx.id < i for i in ctx.neighbor_ids.values()):
        ctx.broadcast(("wave", ctx.id))
        for _ in range(1 + ctx.rng.randrange(4)):
            yield
        return ("start", ctx.round)
    while not ctx.mail and not ctx.newly_halted:
        yield WAIT
    ctx.broadcast(("wave", ctx.id))
    return ("relay", ctx.round, len(ctx.mail), len(ctx.halted))

SHAPES = ("empty", "isolated", "clique", "star", "forest")
PLANS = ("none", "crash-at", "crash-hazard", "drop", "duplicate", "delay")


@st.composite
def graphs(draw) -> Graph:
    shape = draw(st.sampled_from(SHAPES))
    if shape == "empty":
        return Graph(0)
    if shape == "isolated":
        return Graph(draw(st.integers(1, 6)))
    if shape == "clique":
        return gen.complete(draw(st.integers(2, 7)))
    if shape == "star":
        return gen.star(draw(st.integers(2, 12)))
    return gen.union_of_forests(
        draw(st.integers(2, 30)),
        draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**16)),
    )


@st.composite
def fault_plans(draw, n: int):
    """``None`` (a fault-free run) or a plan over vertices ``0..n-1``."""
    kind = draw(st.sampled_from(PLANS))
    if kind == "none":
        return None
    seed = draw(st.integers(0, 2**16))
    if kind == "crash-at":
        at = draw(
            st.dictionaries(st.integers(0, max(n - 1, 0)), st.integers(1, 6),
                            max_size=3)
        )
        return FaultPlan(seed=seed, crashes=CrashSpec(at=at))
    if kind == "crash-hazard":
        return FaultPlan(seed=seed, crashes=CrashSpec(hazard=0.05))
    rate = draw(st.sampled_from([0.05, 0.2, 0.5]))
    if kind == "drop":
        messages = MessageFaults(drop=rate)
    elif kind == "duplicate":
        messages = MessageFaults(duplicate=rate)
    else:
        messages = MessageFaults(delay=rate, max_delay=draw(st.integers(1, 3)))
    return FaultPlan(seed=seed, messages=messages)


def _assert_engines_agree(data, program):
    g = data.draw(graphs(), label="graph")
    ids = data.draw(st.permutations(range(g.n)), label="ids")
    plan = data.draw(fault_plans(g.n), label="plan")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    results, streams = [], []
    for cls in (SyncNetwork, ReferenceSyncNetwork):
        sink = MemorySink()
        try:
            with session(bus=EventBus(sink), faults=plan):
                res = cls(g, ids=ids, seed=seed).run(
                    program,
                    max_rounds=2 * g.n + 16,
                )
        except RoundLimitExceeded as e:
            res = ("watchdog", e.active)
        results.append(res)
        streams.append(sink.events)
    fast, ref = results
    assert fast == ref
    assert streams[0] == streams[1]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_fast_matches_reference(data):
    name = data.draw(st.sampled_from(sorted(PROGRAMS)), label="program")
    _assert_engines_agree(data, PROGRAMS[name])


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_fast_matches_reference_with_sleepers(data):
    """The fast engine leaves a vertex asleep on ``yield WAIT`` untouched
    until mail (delayed copies included) or a halt notice wakes it."""
    _assert_engines_agree(data, prog_wait_wave)
