"""Fault-stream invariance matrix for the fault-aware bulk kernels.

For every algorithm with a fault-aware bulk kernel -- Procedure
Partition, Luby MIS, Cole-Vishkin ring coloring, defective coloring --
the bulk engine must reproduce the fast engine's faulted run:

* the identical fault event stream (``FaultCrash`` / ``FaultDrop``
  interleaved with ``RoundStart`` / ``RoundEnd`` in the fast engine's
  order),
* the identical metrics surface, outputs and crashed set, and
* on legitimate non-termination (a drop stalls a vertex that will never
  be re-sent to), the identical watchdog active set --

because every crash/drop decision is a pure function of
``(seed, session round, vertex)`` counters, never of engine internals.
Completed runs additionally pass the survivor-restricted safety check
for their problem kind.
"""

import numpy as np
import pytest

import repro
from repro.bench.workloads import WORKLOADS
from repro.faults import CrashSpec, FaultPlan, MessageFaults
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.obs.events import (
    EventBus,
    FaultCrash,
    FaultDrop,
    RoundEnd,
    RoundStart,
)
from repro.obs.collect import MetricsCollector
from repro.obs.sinks import MemorySink
from repro.runtime import BulkUnsupported, RoundLimitExceeded
from repro.runtime.session import session
from repro.zoo.checks import survivor_check

SEEDS = (0, 1)

#: the matrix plans: strikes by (vertex -> round) and an 8% iid drop --
#: both exercised on every algorithm, both engines must agree on the
#: exact event stream they induce
PLANS = {
    "crash": FaultPlan(seed=11, crashes=CrashSpec(at={3: 2, 17: 3})),
    "drop": FaultPlan(seed=7, messages=MessageFaults(drop=0.08)),
}


def _fingerprint(events):
    """The fault-relevant slice of the event stream, as plain records."""
    return [
        e.to_record()
        for e in events
        if isinstance(e, (FaultCrash, FaultDrop, RoundStart, RoundEnd))
    ]


def _run(thunk, plan, bulk=False):
    """Run ``thunk`` under ``plan`` (optionally on the bulk engine);
    return a comparable outcome tuple."""
    sink = MemorySink()
    engine = {"engine": "bulk"} if bulk else {}
    inj = plan.injector()
    with session(**engine, faults=inj, bus=EventBus(sink)):
        try:
            res = thunk()
        except RoundLimitExceeded as e:
            return ("watchdog", tuple(sorted(e.active)), None, None, None)
    m = res.metrics
    surface = (m.rounds, tuple(m.active_trace), tuple(m.messages_per_round))
    return (
        "ok",
        _fingerprint(sink.events),
        surface,
        res,
        tuple(sorted(inj.crashed)),
    )


def _assert_matrix(thunk, plan, extract, check=None):
    """Fast-engine reference vs bulk: identical outcome, events, metrics,
    outputs; survivor-check completed runs."""
    ref = _run(thunk, plan)
    if ref[0] == "ok" and check is not None:
        check(ref[3], set(ref[4]))
    got = _run(thunk, plan, bulk=True)
    if ref[0] == "watchdog":
        assert got[0] == "watchdog", "bulk completed, fast watchdogged"
        assert got[1] == ref[1], "watchdog active sets differ"
        return
    assert got[0] == "ok", "bulk watchdogged, fast completed"
    assert got[4] == ref[4], "crashed sets differ"
    assert got[1] == ref[1], "fault event streams differ"
    assert got[2] == ref[2], "metrics surfaces differ"
    assert extract(got[3]) == extract(ref[3]), "outputs differ"


# ---------------------------------------------------------------------------
# the invariance matrix: (partition, luby, cole-vishkin, defective) x plans
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("plan_name", sorted(PLANS))
@pytest.mark.parametrize("seed", SEEDS)
def test_partition_fault_matrix(plan_name, seed):
    g, a = WORKLOADS["forest_union_a3"](120, seed=seed)
    ids = gen.random_ids(g.n, seed=1000 + seed)

    def check(res, crashed):
        survivor_check("partition")(g, res, set(range(g.n)) - crashed)

    _assert_matrix(
        lambda: repro.run_partition(g, a=a, ids=ids),
        PLANS[plan_name],
        lambda r: sorted(r.h_index.items()),
        check,
    )


@pytest.mark.parametrize("plan_name", sorted(PLANS))
@pytest.mark.parametrize("seed", SEEDS)
def test_luby_fault_matrix(plan_name, seed):
    g, _a = WORKLOADS["gnp_sparse"](64, seed=seed)
    ids = gen.random_ids(g.n, seed=1000 + seed)
    plan = PLANS[plan_name]

    def check(res, crashed):
        # crash-stop keeps survivors independent; drop plans are NOT
        # drop-safe for Luby (a lost MIS announcement can yield adjacent
        # winners), so only crash outcomes get the safety check
        if plan_name == "crash":
            survivor_check("mis")(g, res, set(range(g.n)) - crashed)

    _assert_matrix(
        lambda: repro.run_luby_mis(g, ids=ids, seed=seed),
        plan,
        lambda r: (sorted(r.in_mis.items()), sorted(r.h_index.items())),
        check,
    )


@pytest.mark.parametrize("plan_name", sorted(PLANS))
@pytest.mark.parametrize("seed", SEEDS)
def test_cole_vishkin_fault_matrix(plan_name, seed):
    n = 64
    g = gen.ring(n)
    ids = gen.random_ids(n, seed=1000 + seed)
    plan = PLANS[plan_name]

    def check(res, crashed):
        # Cole-Vishkin is NOT registered crash-safe (a vertex that keeps
        # its color while its predecessor reduces can collide), but it
        # never blocks: every survivor must terminate with a color (a
        # skipped reduce step legitimately leaves it above the clean
        # 3-color palette)
        for v in set(range(n)) - crashed:
            assert v in res.colors, f"survivor {v} never terminated"
            assert res.colors[v] >= 0

    _assert_matrix(
        lambda: repro.run_ring_three_coloring(g, ids=ids, seed=seed),
        plan,
        lambda r: (sorted(r.colors.items()), sorted(r.h_index.items())),
        check,
    )


@pytest.mark.parametrize("plan_name", sorted(PLANS))
@pytest.mark.parametrize("seed", SEEDS)
def test_defective_fault_matrix(plan_name, seed):
    # rings keep the degree bound low enough for a real multi-step
    # schedule (high-A workloads get an empty schedule and terminate in
    # one round, which would make this matrix vacuous); mid-schedule
    # crashes/drops stall the victim's neighbors => both engines must
    # watchdog on the identical active set
    from repro.core.defective import run_defective_coloring
    from repro.verify import assert_defective_coloring

    n = 48 + seed
    g = gen.ring(n)
    ids = gen.random_ids(n, seed=1000 + seed)
    plan = PLANS[plan_name]

    def check(res, crashed):
        if not crashed:
            # completion means every needed step was delivered (a
            # dropped step stalls its receiver forever), so the full
            # defect bound holds
            assert_defective_coloring(g, res.colors, res.defect_bound)

    _assert_matrix(
        lambda: run_defective_coloring(g, 2, ids=ids, seed=seed),
        plan,
        lambda r: sorted(r.colors.items()),
        check,
    )


def test_defective_late_crash_completes_identically():
    """Strikes scheduled after the run ends exercise the faulted kernel
    end-to-end without killing anyone: outputs must equal the clean
    run's."""
    from repro.core.defective import run_defective_coloring

    g = gen.ring(48)
    ids = gen.random_ids(48, seed=5)
    clean = run_defective_coloring(g, 2, ids=ids, seed=0)
    plan = FaultPlan(seed=11, crashes=CrashSpec(at={3: 900, 17: 901}))
    got = _run(
        lambda: run_defective_coloring(g, 2, ids=ids, seed=0), plan, bulk=True
    )
    assert got[0] == "ok", "watchdogged"
    assert got[4] == (), "late strikes must never land"
    assert sorted(got[3].colors.items()) == sorted(clean.colors.items())


# ---------------------------------------------------------------------------
# Partition: hazard plans, session state, edge-case graphs, rejections
# ---------------------------------------------------------------------------


def _metrics_surface(m):
    return (
        m.rounds,
        m.active_trace,
        m.messages_per_round,
        m.vertex_averaged,
        m.worst_case,
        m.round_sum,
        m.total_messages,
    )


@pytest.mark.parametrize(
    "workload", ["forest_union_a3", "planar_grid", "caterpillar", "deep_tree"]
)
def test_partition_crash_hazard_drop_plan_matches_fast(workload):
    """Explicit strikes + a crash hazard + drops at once: the bulk run
    reproduces the fast engine's outputs, full metrics surface, crashed
    set, per-round ``sent`` counts (every routed copy, dropped or not)
    and per-round same-round drops."""
    g, a = WORKLOADS[workload](120, seed=2)
    ids = gen.random_ids(g.n, seed=1002)
    plan = FaultPlan(
        seed=11,
        crashes=CrashSpec(at={3: 1, 17: 2}, hazard=0.02),
        messages=MessageFaults(drop=0.08),
    )
    col, col2 = MetricsCollector(), MetricsCollector()
    with session(faults=plan, bus=EventBus(col)) as rs:
        ref = repro.run_partition(g, a=a, ids=ids)
    inj = rs.injector
    assert inj.crashed  # the plan actually strikes on this instance
    with session(engine="bulk", faults=plan, bus=EventBus(col2)) as rs:
        got = repro.run_partition(g, a=a, ids=ids)
    inj2 = rs.injector
    assert got.h_index == ref.h_index
    assert _metrics_surface(got.metrics) == _metrics_surface(ref.metrics)
    assert sorted(inj2.crashed) == sorted(inj.crashed)
    assert col2.sent == col.sent
    assert col2.dropped == col.dropped


def test_session_state_persists_across_bulk_runs():
    """Two runs in one fault session: the second must see the first's
    crashed set and session round counter, exactly like the fast engine."""
    g, a = WORKLOADS["forest_union_a3"](120, seed=0)
    ids = gen.random_ids(g.n, seed=1000)
    plan = FaultPlan(seed=5, crashes=CrashSpec(hazard=0.03))

    def two_runs(engine):
        inj = plan.injector()
        with session(engine=engine, faults=inj):
            r1 = repro.run_partition(g, a=a, ids=ids)
            r2 = repro.run_partition(g, a=a - 1, ids=ids)
        return (
            r1.h_index,
            r2.h_index,
            _metrics_surface(r2.metrics),
            sorted(inj.crashed),
            inj._round,
        )

    ref = two_runs("fast")
    assert ref[3]  # some vertex crashed across the two runs
    assert two_runs("bulk") == ref


@pytest.mark.parametrize(
    "plan",
    [
        FaultPlan(seed=1, messages=MessageFaults(duplicate=0.1)),
        FaultPlan(seed=1, messages=MessageFaults(delay=0.1, max_delay=2)),
    ],
    ids=["duplicate", "delay"],
)
def test_bulk_rejects_duplicate_and_delay_plans(plan):
    """Duplicate/delay plans have no columnar replay: every fault-aware
    kernel refuses them up front."""
    g, a = WORKLOADS["forest_union_a3"](40, seed=0)
    ids = gen.random_ids(g.n, seed=1000)
    with session(engine="bulk", faults=plan):
        with pytest.raises(BulkUnsupported, match="duplicate/delay"):
            repro.run_partition(g, a=a, ids=ids)
        with pytest.raises(BulkUnsupported, match="duplicate/delay"):
            repro.run_luby_mis(g, ids=ids, seed=0)


@pytest.mark.parametrize(
    "plan",
    [None, FaultPlan(seed=1, crashes=CrashSpec(at={0: 2, 5: 4}))],
    ids=["clean", "crash"],
)
def test_bulk_watchdog_matches_fast_partition(plan):
    """The bulk Partition kernel's watchdog carries the fast engine's
    round budget and active set, on a clean run and under crashes."""
    # K_9 with a=1 gives A=3 < deg=8: nobody ever joins, watchdog fires
    g = gen.complete(9)
    errs = []
    for engine in ("fast", "bulk"):
        with session(engine=engine, faults=plan):
            with pytest.raises(RoundLimitExceeded) as err:
                repro.run_partition(g, a=1)
        errs.append(err.value)
    fast, bulk = errs
    assert bulk.limit == fast.limit
    assert sorted(bulk.active) == sorted(fast.active)
    assert len(bulk.active) == 9 - (2 if plan is not None else 0)


def test_isolated_vertices_under_faults():
    """A path plus a block of isolated vertices: Partition and Luby on
    the bulk engine match the fast engine under a crash + drop plan."""
    g = Graph(20, [(v, v + 1) for v in range(9)])
    plan = FaultPlan(
        seed=3,
        crashes=CrashSpec(at={4: 2, 15: 1}),
        messages=MessageFaults(drop=0.1),
    )
    _assert_matrix(
        lambda: repro.run_partition(g, a=1),
        plan,
        lambda r: sorted(r.h_index.items()),
    )
    _assert_matrix(
        lambda: repro.run_luby_mis(g, seed=0),
        plan,
        lambda r: (sorted(r.in_mis.items()), sorted(r.h_index.items())),
    )


def test_int32_csr_graph_under_faults():
    """A CSR-only graph with an int32 index view runs the fault-aware
    kernel end to end and matches the fast engine."""
    g = gen.forest_union_csr(3000, 3, seed=0)
    _offsets, indices = g.csr(dtype="auto")
    assert indices.dtype == np.int32
    plan = FaultPlan(
        seed=11,
        crashes=CrashSpec(at={3: 1, 17: 2}, hazard=0.01),
        messages=MessageFaults(drop=0.05),
    )
    _assert_matrix(
        lambda: repro.run_partition(g, a=3),
        plan,
        lambda r: sorted(r.h_index.items()),
    )


# ---------------------------------------------------------------------------
# the fuzz population grows with the registry
# ---------------------------------------------------------------------------


def test_fuzz_population_includes_luby_mis():
    """Flipping ``crash_safe`` in the registry is all it takes: the
    fuzzer's default population derives from ``zoo.crash_safe()``."""
    from repro.faults.fuzz import default_population

    pop = default_population()
    assert "luby-mis" in pop
    assert "partition" in pop


def test_luby_crash_fuzz_case_never_violates():
    """A crash-only plan on luby-mis classifies as valid or watchdog
    non-termination -- never a survivor-safety violation."""
    from repro.faults.harness import (
        OUTCOME_NONTERMINATION,
        OUTCOME_VALID,
        FuzzCase,
        run_case,
    )

    for seed in SEEDS:
        case = FuzzCase(
            algorithm="luby-mis",
            workload="gnp_sparse",
            n=64,
            seed=seed,
            plan=FaultPlan(
                seed=20 + seed, crashes=CrashSpec(at={3: 1}, hazard=0.01)
            ),
        )
        outcome = run_case(case)
        assert not outcome.failed, outcome.describe()
        assert outcome.status in (OUTCOME_VALID, OUTCOME_NONTERMINATION)
