"""Asynchronous mode: the synchronous run plus the timing pass.

The asynchronous model is an alpha-synchronizer: for *every* delay
assignment the inbox a vertex sees in local round r is exactly the
barrier's round-(r-1) -> r delivery, so the entire content surface --
outputs, per-vertex rounds, commit rounds, active trace, traffic trace,
crash sets -- is mode-invariant, under fault plans included.  What the
async mode adds is the virtual-time dimension (``RunResult.times``),
computed by :func:`repro.runtime.async_sched.time_run` after the run.

The event-queue executor in ``async_oracle.py`` simulates the
synchronizer token by token, routing and faulting messages on its own.
The property at the bottom checks the pass against it bit for bit;
these tests also pin the time accounting (fixed unit delays reproduce
round counts exactly).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.bench.workloads import make_workload
from repro.faults import CrashSpec, FaultPlan, MessageFaults
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.runtime import (
    DELAY_DISTS,
    DelaySpec,
    MODES,
    RoundLimitExceeded,
    SyncNetwork,
)
from repro.runtime.session import current, session

from tests.runtime.async_oracle import run_async
from tests.runtime.test_engine_differential import prog_wait_wave

FAMILIES = ("forest_union_a3", "gnp_sparse", "ring", "deep_tree")
N = 80


# ---------------------------------------------------------------------------
# Program zoo (deterministic given graph/ids/seed via ctx.rng)
# ---------------------------------------------------------------------------

def prog_wave(ctx):
    """Flood the max id seen; randomized per-vertex lifetimes."""
    best = ctx.id
    lifetime = 2 + ctx.rng.randrange(5)
    for _ in range(lifetime):
        ctx.broadcast(("w", best))
        yield
        for msgs in ctx.inbox.values():
            for _tag, x in msgs:
                if x > best:
                    best = x
    return best


def prog_luby_ish(ctx):
    """Priority contest with halting -- exercises halted/newly_halted."""
    active = set(ctx.neighbors)
    for attempt in range(1, 12):
        prio = (ctx.rng.random(), ctx.id)
        ctx.broadcast(("p", attempt, prio))
        yield
        active -= set(ctx.newly_halted)
        prios = {}
        for u, msgs in ctx.inbox.items():
            for _tag, att, p in msgs:
                if att == attempt:
                    prios[u] = p
        if all(u not in active or prios.get(u, (2.0, -1)) > prio for u in active):
            return attempt
    return 0


def prog_lockstep(ctx):
    """Exactly 6 token-gated rounds for everyone -- with fixed unit
    delays, local round r executes at t = r - 1 for every vertex."""
    best = ctx.id
    for _ in range(6):
        ctx.broadcast(("l", best))
        yield
        for msgs in ctx.inbox.values():
            for _tag, x in msgs:
                best = max(best, x)
    return best


def prog_commit_then_linger(ctx):
    """Commits in round 1, relays for 4 more rounds -- pins output times."""
    ctx.commit(ctx.id % 2)
    for _ in range(4):
        ctx.broadcast(("x",))
        yield
    return ctx.id % 2


PROGRAMS = (prog_wave, prog_luby_ish, prog_commit_then_linger)


def _run(program, mode="sync", workload="forest_union_a3", seed=0,
         delays=None, faults=None, n=N):
    """One run of ``program``: ``"sync"``, ``"async"`` (the run plus
    the timing pass) or ``"oracle"`` (the event-queue executor)."""
    g, _a = make_workload(workload)(n, seed=seed)
    ids = gen.random_ids(g.n, seed=1000 + seed)
    net = SyncNetwork(g, ids=ids, seed=seed)
    if mode == "oracle":
        with session(faults=faults):
            return run_async(net, program, max_rounds=256, delays=delays)
    with session(mode=mode, delays=delays, faults=faults):
        return net.run(program, max_rounds=256)


def _assert_content_identical(sync, async_):
    assert async_.outputs == sync.outputs
    assert async_.metrics.rounds == sync.metrics.rounds
    assert async_.metrics.active_trace == sync.metrics.active_trace
    assert (
        async_.metrics.messages_per_round == sync.metrics.messages_per_round
    )
    assert async_.output_rounds == sync.output_rounds
    assert async_.crashed == sync.crashed


def _hexes(res):
    """``times`` and ``output_times`` bit for bit."""
    t = res.times
    return [x.hex() for x in t.times], [x.hex() for x in t.output_times]


# ---------------------------------------------------------------------------
# Content invariance
# ---------------------------------------------------------------------------

class TestContentInvariance:
    @pytest.mark.parametrize("program", PROGRAMS)
    @pytest.mark.parametrize("workload", FAMILIES)
    @pytest.mark.parametrize("dist", DELAY_DISTS)
    def test_async_matches_sync_for_every_delay_model(
        self, program, workload, dist
    ):
        sync = _run(program, "sync", workload)
        delays = DelaySpec(dist=dist, scale=1.7, seed=5)
        async_ = _run(program, "async", workload, delays=delays)
        _assert_content_identical(sync, async_)
        assert async_.times is not None and sync.times is None
        oracle = _run(program, "oracle", workload, delays=delays)
        assert async_ == oracle and _hexes(async_) == _hexes(oracle)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fault_plans_replay_identically(self, seed):
        plan = FaultPlan(
            seed=seed,
            crashes=CrashSpec(hazard=0.03),
            messages=MessageFaults(drop=0.05, duplicate=0.05, delay=0.05,
                                   max_delay=2),
        )
        delays = DelaySpec(dist="exp", scale=0.8, seed=seed)
        g, _a = make_workload("gnp_sparse")(N, seed=seed)
        net = SyncNetwork(g, ids=gen.random_ids(g.n, seed=1000 + seed),
                          seed=seed)
        with session(faults=plan):
            sync = net.run(prog_wave, max_rounds=256)
        # A two-run fault session: the second run starts with the first
        # run's crashed vertices pre-crashed; they never start, and
        # nobody waits on them.
        inj_o, inj_e = plan.injector(), plan.injector()
        for k in range(2):
            with session(faults=inj_o):
                oracle = run_async(net, prog_wave, max_rounds=256,
                                   delays=delays)
            if k == 0:
                _assert_content_identical(sync, oracle)
                assert oracle.crashed  # hazard 0.03 on n=80 crashes someone
            with session(mode="async", delays=delays, faults=inj_e):
                async_ = net.run(prog_wave, max_rounds=256)
            assert async_ == oracle and _hexes(async_) == _hexes(oracle)

    def test_async_session_routes_network_run(self):
        # SyncNetwork.run itself adds the times inside an async session
        # -- the seam drivers rely on.
        g, _a = make_workload("forest_union_a3")(40, seed=0)
        ids = gen.random_ids(g.n, seed=1)
        sync = SyncNetwork(g, ids=ids, seed=0).run(prog_wave, max_rounds=64)
        with session(mode="async", delays=DelaySpec(dist="uniform")):
            async_ = SyncNetwork(g, ids=ids, seed=0).run(
                prog_wave, max_rounds=64
            )
        _assert_content_identical(sync, async_)
        assert async_.times is not None


# ---------------------------------------------------------------------------
# Virtual-time accounting
# ---------------------------------------------------------------------------

class TestTimeAccounting:
    def test_fixed_unit_delays_reproduce_round_counts(self):
        # On a connected graph where every vertex stays token-gated until
        # it halts, round r executes at t = r - 1, so the normalized
        # completion times equal the round counts exactly.
        res = _run(prog_lockstep, "async", "ring", delays=DelaySpec())
        t = res.times
        assert t.normalized_times == tuple(float(r) for r in res.metrics.rounds)
        assert t.vertex_averaged_time == res.metrics.vertex_averaged
        assert t.worst_case_time == float(res.metrics.worst_case)

    def test_commit_times_drive_averaged_output_time(self):
        res = _run(prog_commit_then_linger, "async", "ring",
                   delays=DelaySpec())
        t = res.times
        # everyone commits in round 1 (t = 0) but halts at round 5
        assert t.averaged_output_time == 1.0
        assert t.vertex_averaged_time == 5.0

    def test_replay_is_deterministic(self):
        d = DelaySpec(dist="exp", scale=1.3, seed=9)
        r1 = _run(prog_luby_ish, "async", "gnp_sparse", delays=d)
        r2 = _run(prog_luby_ish, "async", "gnp_sparse", delays=d)
        assert r1.times.times == r2.times.times
        assert r1.outputs == r2.outputs

    def test_delay_seed_changes_times_not_content(self):
        r1 = _run(prog_wave, "async", "gnp_sparse",
                  delays=DelaySpec(dist="exp", seed=1))
        r2 = _run(prog_wave, "async", "gnp_sparse",
                  delays=DelaySpec(dist="exp", seed=2))
        assert r1.outputs == r2.outputs
        assert r1.metrics.rounds == r2.metrics.rounds
        assert r1.times.times != r2.times.times

    def test_normalization_uses_mean_delay(self):
        r = _run(prog_lockstep, "async", "ring", delays=DelaySpec(scale=4.0))
        # fixed delay 4: round r at t = 4 (r - 1); normalized back to r
        assert r.times.mean_delay == 4.0
        assert r.times.normalized_times == tuple(
            float(x) for x in r.metrics.rounds
        )

    def test_watchdog_fires_in_async_mode(self):
        def forever(ctx):
            while True:
                ctx.broadcast(("ping",))
                yield

        g = gen.ring(12)
        net = SyncNetwork(g, ids=list(range(12)), seed=0)
        with pytest.raises(RoundLimitExceeded), session(mode="async"):
            net.run(forever, max_rounds=20)


# ---------------------------------------------------------------------------
# DelaySpec and the mode seam
# ---------------------------------------------------------------------------

class TestDelaySpec:
    def test_unknown_dist_rejected(self):
        with pytest.raises(ValueError, match="distribution"):
            DelaySpec(dist="gamma")

    @pytest.mark.parametrize("scale", [0.0, -1.0])
    def test_nonpositive_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="scale"):
            DelaySpec(scale=scale)

    def test_roundtrip_and_describe(self):
        d = DelaySpec(dist="uniform", scale=2.5, seed=7)
        assert DelaySpec.from_dict(d.to_dict()) == d
        assert "uniform" in d.describe() and "seed=7" in d.describe()

    def test_draw_is_pure_and_distinct_per_edge(self):
        d = DelaySpec(dist="exp", scale=1.0, seed=0)
        assert d.draw(1, 2, 3) == d.draw(1, 2, 3)
        assert d.draw(1, 2, 3) != d.draw(2, 1, 3)

    @settings(max_examples=150, deadline=None)
    @given(
        dist=st.sampled_from(DELAY_DISTS),
        scale=st.floats(0.01, 100.0),
        seed=st.one_of(
            st.integers(-(2**70), -1),
            st.integers(2**63, 2**70),
            st.integers(0, 2**63 - 1),
        ),
        arcs=st.lists(
            st.tuples(st.integers(0, 2**31), st.integers(0, 2**31)),
            min_size=1,
            max_size=8,
        ),
        rounds=st.lists(st.integers(0, 2**40), min_size=1, max_size=4),
    )
    # numpy's SIMD ``log`` differs from ``math.log`` in the last ulp on
    # about 0.35% of inputs, and only on full vector blocks: thousands of
    # arcs at once show it
    @example(
        dist="exp", scale=1.3, seed=11,
        arcs=[(i, (7 * i + 1) % 4096) for i in range(4096)], rounds=[1, 2, 3],
    )
    def test_arc_draw_is_draw(self, dist, scale, seed, arcs, rounds):
        """The vectorised prefix-folded draws the timing pass uses equal
        the scalar draws bit for bit, for negative seeds and seeds >=
        2^63 too (both are folded modulo 2^64), whole or sliced."""
        d = DelaySpec(dist=dist, scale=scale, seed=seed)
        src = np.array([s for s, _ in arcs], dtype=np.int64)
        dst = np.array([t for _, t in arcs], dtype=np.int64)
        draw = d.arc_draw(src, dst)
        for rnd in rounds:
            want = [d.draw(s, t, rnd).hex() for s, t in arcs]
            assert [x.hex() for x in draw(slice(None), rnd).tolist()] == want
            tail = draw(np.arange(1, len(arcs)), rnd).tolist()
            assert [x.hex() for x in tail] == want[1:]

    @pytest.mark.parametrize("dist", DELAY_DISTS)
    def test_all_dists_have_mean_scale(self, dist):
        d = DelaySpec(dist=dist, scale=2.0, seed=0)
        draws = [d.draw(0, 1, r) for r in range(2000)]
        assert abs(sum(draws) / len(draws) - 2.0) < 0.15


class TestModeSession:
    def test_default_is_sync(self):
        assert current().mode == "sync"
        assert current().delays is None

    def test_nesting_innermost_wins(self):
        d = DelaySpec(dist="exp")
        with session(mode="async", delays=d):
            assert current().mode == "async"
            assert current().delays is d
            with session(mode="sync"):
                assert current().mode == "sync"
            assert current().mode == "async"
        assert current().mode == "sync"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            with session(mode="warp"):
                pass

    def test_modes_constant(self):
        assert MODES == ("sync", "async")


# ---------------------------------------------------------------------------
# The timing pass against the event-queue oracle
# ---------------------------------------------------------------------------

ORACLE_PROGRAMS = PROGRAMS + (prog_lockstep, prog_wait_wave)
FAULTS = ("none", "crash-at", "crash-hazard", "drop", "duplicate", "delay",
          "mixed")


@st.composite
def small_graphs(draw) -> Graph:
    shape = draw(st.sampled_from(("isolated", "clique", "star", "path",
                                  "forest")))
    if shape == "isolated":
        return Graph(draw(st.integers(0, 4)))
    if shape == "clique":
        return gen.complete(draw(st.integers(2, 6)))
    if shape == "star":
        return gen.star(draw(st.integers(2, 10)))
    if shape == "path":
        return gen.path(draw(st.integers(2, 12)))
    return gen.union_of_forests(
        draw(st.integers(2, 48)),
        draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**16)),
    )


@st.composite
def oracle_plans(draw, n: int):
    """``None`` or a fault plan over vertices ``0..n-1``."""
    kind = draw(st.sampled_from(FAULTS))
    if kind == "none":
        return None
    seed = draw(st.integers(0, 2**16))
    crashes = messages = None
    if kind == "crash-at":
        crashes = CrashSpec(at=draw(st.dictionaries(
            st.integers(0, max(n - 1, 0)), st.integers(1, 6), max_size=3
        )))
    elif kind in ("crash-hazard", "mixed"):
        crashes = CrashSpec(hazard=draw(st.sampled_from((0.03, 0.1, 0.3))))
    if kind in ("drop", "duplicate", "delay", "mixed"):
        p = draw(st.sampled_from((0.05, 0.3)))
        messages = MessageFaults(
            drop=p if kind in ("drop", "mixed") else 0.0,
            duplicate=p if kind in ("duplicate", "mixed") else 0.0,
            delay=p if kind in ("delay", "mixed") else 0.0,
            max_delay=2,
        )
    return FaultPlan(seed=seed, crashes=crashes, messages=messages)


def _outcome(run):
    """A run's result, or ``"watchdog"``.  The vertices still active when
    it fires are not compared: the oracle stops at the first vertex to
    pass the budget in virtual time, while others have yet to halt."""
    try:
        return run()
    except RoundLimitExceeded:
        return "watchdog"


@settings(max_examples=800, deadline=None)
@given(data=st.data())
def test_timing_pass_matches_the_event_queue_oracle(data):
    """Engine run plus timing pass == the event-queue executor, bit for
    bit: the whole :class:`RunResult`, and ``times`` / ``output_times``
    compared by ``float.hex``.  Two-run fault sessions start their
    second run with the first run's crashed vertices pre-crashed."""
    g = data.draw(small_graphs())
    program = data.draw(st.sampled_from(ORACLE_PROGRAMS))
    delays = DelaySpec(
        dist=data.draw(st.sampled_from(DELAY_DISTS)),
        scale=data.draw(st.sampled_from((0.5, 1.0, 1.7))),
        seed=data.draw(st.integers(0, 2**16)),
    )
    plan = data.draw(oracle_plans(g.n))
    runs = data.draw(st.integers(1, 2)) if plan is not None else 1
    engine = data.draw(st.sampled_from(("fast", "reference")))
    ids = gen.random_ids(g.n, seed=data.draw(st.integers(0, 2**16)))
    seed = data.draw(st.integers(0, 2**8))

    inj_o = plan.injector() if plan is not None else None
    inj_e = plan.injector() if plan is not None else None
    for _ in range(runs):
        net = SyncNetwork(g, ids=ids, seed=seed)
        with session(faults=inj_o):
            want = _outcome(lambda: run_async(
                net, program, max_rounds=64, delays=delays
            ))
        with session(engine=engine, mode="async", delays=delays, faults=inj_e):
            got = _outcome(lambda: net.run(program, max_rounds=64))
        assert got == want
        if want == "watchdog":
            return
        assert _hexes(got) == _hexes(want)
