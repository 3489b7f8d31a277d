"""Max-rounds exhaustion: the typed non-termination watchdog.

Both engines must convert a run that exceeds ``max_rounds`` into a
:class:`~repro.runtime.network.RoundLimitExceeded` -- a subclass of the
legacy :class:`MaxRoundsExceeded` -- that names the still-active vertices
and carries a per-vertex state summary (round, active/halted neighbor
counts, committed flag), so a hung run is a diagnosis, not a mystery.
"""

import pytest

from repro.faults import CrashSpec, FaultPlan
from repro.graphs import generators as gen
from repro.runtime import (
    MaxRoundsExceeded,
    ReferenceSyncNetwork,
    WAIT,
    RoundLimitExceeded,
    SyncNetwork,
    default_max_rounds,
)
from repro.runtime.session import session

ENGINES = (SyncNetwork, ReferenceSyncNetwork)


def prog_forever(ctx):
    while True:
        ctx.broadcast("ping")
        yield


def prog_half_commit_then_spin(ctx):
    if ctx.id % 2 == 0:
        ctx.commit(("stuck", ctx.id))
    while True:
        yield


@pytest.mark.parametrize("engine", ENGINES)
def test_watchdog_fires_with_typed_error(engine):
    g = gen.ring(8)
    with pytest.raises(RoundLimitExceeded) as exc:
        engine(g).run(prog_forever, max_rounds=5)
    err = exc.value
    assert err.limit == 5
    assert sorted(err.active) == list(range(8))
    # per-vertex summaries: (v, round, active_degree, halted, committed)
    assert len(err.summaries) == 8
    for v, rnd, active_deg, halted, committed in err.summaries:
        assert rnd == 5  # the budget: every straggler ran all 5 rounds
        assert active_deg == 2
        assert halted == 0
        assert committed is False
    assert "8 vertices still active after 5 rounds" in str(err)
    assert "v0" in str(err)


@pytest.mark.parametrize("engine", ENGINES)
def test_watchdog_is_a_max_rounds_exceeded(engine):
    # backward compatibility: existing handlers catch MaxRoundsExceeded
    g = gen.ring(6)
    with pytest.raises(MaxRoundsExceeded):
        engine(g).run(prog_forever, max_rounds=3)


@pytest.mark.parametrize("engine", ENGINES)
def test_watchdog_default_limit_scales_with_n(engine):
    g = gen.ring(16)
    with pytest.raises(RoundLimitExceeded) as exc:
        engine(g).run(prog_forever)
    assert exc.value.limit == default_max_rounds(16)


@pytest.mark.parametrize("engine", ENGINES)
def test_summary_reports_commit_state(engine):
    g = gen.ring(8)
    ids = list(range(8))
    with pytest.raises(RoundLimitExceeded) as exc:
        engine(g, ids=ids).run(prog_half_commit_then_spin, max_rounds=4)
    committed = {v for v, _, _, _, c in exc.value.summaries if c}
    assert committed == {0, 2, 4, 6}


@pytest.mark.parametrize("engine", ENGINES)
def test_summary_caps_listed_vertices(engine):
    g = gen.ring(40)
    with pytest.raises(RoundLimitExceeded) as exc:
        engine(g).run(prog_forever, max_rounds=2)
    msg = str(exc.value)
    assert "40 vertices still active" in msg
    assert "... 28 more" in msg  # 12 shown, the rest summarized
    assert len(exc.value.summaries) == 40  # the data itself is complete


class TestLazySummaries:
    """Large-n behavior of the watchdog error (the n >= 10^6 audit): the
    exception must be cheap to *construct* -- message from the first few
    vertices only, per-vertex summaries built lazily and capped."""

    def test_contexts_none_summaries_degrade_gracefully(self):
        err = RoundLimitExceeded(7, [3, 1, 4], contexts=None)
        assert err.limit == 7 and err.active == (3, 1, 4)
        assert err.summaries == ((3, 7, None, None, None), (1, 7, None, None, None), (4, 7, None, None, None))
        assert "3 vertices still active after 7 rounds" in str(err)
        assert "v3" in str(err)

    def test_message_built_from_prefix_only(self):
        active = list(range(1_000_000))
        err = RoundLimitExceeded(5, active, contexts=None)
        msg = str(err)
        assert "1000000 vertices still active after 5 rounds" in msg
        assert f"... {1_000_000 - 12} more" in msg
        # the message names only the 12-vertex prefix
        assert "v11" in msg and "v12" not in msg

    def test_summaries_lazy_and_capped(self):
        active = list(range(RoundLimitExceeded.SUMMARY_CAP + 5))
        err = RoundLimitExceeded(2, active, contexts=None)
        assert err._summaries is None  # nothing materialized yet
        s = err.summaries
        assert len(s) == RoundLimitExceeded.SUMMARY_CAP
        assert s is err.summaries  # cached after first access

    def test_construction_never_touches_contexts_beyond_prefix(self):
        """The engine hands the live context dict over; building the
        exception must read only the message prefix, so a million-vertex
        failure costs O(shown), not O(n)."""
        reads = []

        class StubCtx:
            round = 9
            halted = {}
            committed = False

            def active_degree(self):
                return 0

        class CountingContexts(dict):
            def __getitem__(self, key):
                reads.append(key)
                return StubCtx()

        active = list(range(50_000))
        err = RoundLimitExceeded(9, active, contexts=CountingContexts())
        assert len(reads) == RoundLimitExceeded._SHOWN
        assert "v0 (round 9, 0 active / 0 halted nbrs)" in str(err)


@pytest.mark.parametrize("engine", ENGINES)
def test_crash_induced_nontermination_names_survivors(engine):
    """A crashed hub leaves its leaf neighbors waiting forever: the
    watchdog names exactly the still-active survivors."""

    def prog_wait_for_hub(ctx):
        # leaves wait for the hub's value; the hub answers in round 2
        if ctx.degree > 1:
            ctx.broadcast("hub-here")
            yield
            ctx.broadcast("answer")
            return "hub"
        while True:
            for msgs in ctx.inbox.values():
                if "answer" in msgs:
                    return "leaf-done"
            yield

    g = gen.star_forest(1, 5)  # one hub (v0), five leaves
    plan = FaultPlan(seed=1, crashes=CrashSpec(at={0: 2}))
    with pytest.raises(RoundLimitExceeded) as exc, session(faults=plan):
        engine(g).run(prog_wait_for_hub, max_rounds=10)
    err = exc.value
    assert sorted(err.active) == [1, 2, 3, 4, 5]
    # the summaries show each leaf still waiting on its (dead) neighbor
    for v, _rnd, active_deg, halted, _c in err.summaries:
        assert active_deg == 1  # the crashed hub never announced halting
        assert halted == 0


@pytest.mark.parametrize("engine", ENGINES)
def test_crash_induced_nontermination_with_wait_matches_reference(engine):
    """The same crashed-hub star with the leaves waiting on ``yield
    WAIT``: the fast engine stops resuming them after round 2, yet the
    watchdog error must read the same as the reference engine's (every
    straggler was active for the whole budget)."""

    def prog_wait_for_hub(ctx):
        if ctx.degree > 1:
            ctx.broadcast("hub-here")
            yield
            ctx.broadcast("answer")
            return "hub"
        while True:
            for msgs in ctx.inbox.values():
                if "answer" in msgs:
                    return "leaf-done"
            yield WAIT

    g = gen.star_forest(1, 5)
    plan = FaultPlan(seed=1, crashes=CrashSpec(at={0: 2}))
    errors = []
    for cls in (engine, ReferenceSyncNetwork):
        with pytest.raises(RoundLimitExceeded) as exc, session(faults=plan):
            cls(g).run(prog_wait_for_hub, max_rounds=10)
        errors.append(exc.value)
    err, ref = errors
    assert err.summaries == ref.summaries
    assert str(err) == str(ref)
    assert sorted(err.active) == [1, 2, 3, 4, 5]
    for v, rnd, active_deg, halted, committed in err.summaries:
        assert (rnd, active_deg, halted, committed) == (10, 1, 0, False)
    assert "round 10" in str(err)
