"""The unified `zoo.execute` pipeline: engines, faults, obs, validation."""

import json

import pytest

from repro import zoo
from repro.bench.workloads import make_workload
from repro.faults import CrashSpec, FaultPlan
from repro.graphs import generators as gen
from repro.verify import VerificationError


def _instance(n=60, seed=0, workload="forest_union_a3"):
    g, a = make_workload(workload)(n, seed=seed)
    ids = gen.random_ids(g.n, seed=1000 + seed)
    return g, a, ids


class TestBasics:
    def test_execute_by_name_and_by_spec_agree(self):
        g, a, ids = _instance()
        by_name = zoo.execute("a2", g, a, ids, 0)
        by_spec = zoo.execute(zoo.get("a2"), g, a, ids, 0)
        assert by_name.result.colors == by_spec.result.colors
        assert by_name.completed and not by_name.faulted

    def test_clean_run_validates_with_full_validator(self):
        g, a, ids = _instance()
        ex = zoo.execute("mis", g, a, ids, 0)
        summary = ex.validate(g)
        assert isinstance(summary, str) and summary

    @pytest.mark.parametrize("name", [s.name for s in zoo.all_specs()])
    def test_every_registered_algorithm_executes_and_validates(self, name):
        spec = zoo.get(name)
        workload = spec.workloads[0] if spec.workloads else "forest_union_a3"
        g, a, ids = _instance(n=40, workload=workload)
        ex = zoo.execute(name, g, a, ids, 0)
        assert ex.completed
        ex.validate(g)

    def test_baseline_execution(self):
        g, a, ids = _instance(n=40)
        ex = zoo.execute("partition", g, a, ids, 0, baseline=True)
        assert ex.completed
        assert ex.result.metrics.worst_case > 0

    def test_baselineless_spec_rejects_baseline(self):
        g, a, ids = _instance(n=24)
        with pytest.raises(ValueError, match="no baseline"):
            zoo.execute("one-plus-eta", g, a, ids, 0, baseline=True)

    def test_unknown_engine_rejected(self):
        g, a, ids = _instance(n=24)
        with pytest.raises(ValueError, match="engine"):
            zoo.execute("a2", g, a, ids, 0, engine="turbo")

    def test_unknown_name_rejected(self):
        g, a, ids = _instance(n=24)
        with pytest.raises(KeyError, match="known:"):
            zoo.execute("nonsense", g, a, ids, 0)


_PAYLOAD = {
    "coloring": lambda r: r.colors,
    "edge-coloring": lambda r: r.edge_colors,
    "mis": lambda r: sorted(r.mis),
    "matching": lambda r: sorted(r.matching),
    "partition": lambda r: r.h_index,
    "leader-election": lambda r: r.leader,
    "consensus": lambda r: r.decisions,
}


def _recorded_runs(monkeypatch):
    """Record ``(rounds, output_rounds, active_trace, messages_per_round)``
    of every run a driver makes; both sync engines finish through
    ``SyncBarrierScheduler.finish``."""
    from repro.runtime.scheduler import SyncBarrierScheduler

    runs = []
    finish = SyncBarrierScheduler.finish

    def recording_finish(self):
        res = finish(self)
        m = res.metrics
        runs.append(
            (m.rounds, res.output_rounds, m.active_trace, m.messages_per_round)
        )
        return res

    monkeypatch.setattr(SyncBarrierScheduler, "finish", recording_finish)
    return runs


class TestEngines:
    @pytest.mark.parametrize("name", [s.name for s in zoo.all_specs()])
    def test_engines_agree_through_execute(self, name, monkeypatch):
        """Fast vs reference for every registered spec: the per-program
        check that each ``yield WAIT`` keeps its promise (the fast engine
        skips the vertex in quiet rounds, the reference engine does not)."""
        spec = zoo.get(name)
        workload = spec.workloads[0] if spec.workloads else "forest_union_a3"
        g, a, ids = _instance(n=80, workload=workload)
        runs = _recorded_runs(monkeypatch)
        fast = zoo.execute(name, g, a, ids, 0, engine="fast")
        fast_runs = list(runs)
        runs.clear()
        ref = zoo.execute(name, g, a, ids, 0, engine="reference")
        assert fast.completed and ref.completed
        payload = _PAYLOAD[spec.problem]
        assert payload(fast.result) == payload(ref.result)
        m_fast, m_ref = fast.result.metrics, ref.result.metrics
        assert m_fast.rounds == m_ref.rounds
        assert m_fast.active_trace == m_ref.active_trace
        assert m_fast.messages_per_round == m_ref.messages_per_round
        assert fast_runs and fast_runs == runs
        assert fast.engine == "fast" and ref.engine == "reference"

    @pytest.mark.parametrize(
        "name", [s.name for s in zoo.all_specs() if s.bulk_capable]
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("workload", ["forest_union_a3", "gnp_sparse"])
    def test_bulk_agrees_through_execute(self, name, seed, workload):
        g, a, ids = _instance(n=80, seed=seed, workload=workload)
        fast = zoo.execute(name, g, a, ids, seed, engine="fast")
        bulk = zoo.execute(name, g, a, ids, seed, engine="bulk")
        payload = _PAYLOAD[zoo.get(name).problem]
        assert payload(bulk.result) == payload(fast.result)
        m_fast, m_bulk = fast.result.metrics, bulk.result.metrics
        assert m_bulk.rounds == m_fast.rounds
        assert m_bulk.active_trace == m_fast.active_trace
        assert m_bulk.messages_per_round == m_fast.messages_per_round
        assert bulk.engine == "bulk"
        bulk.validate(g)

    def test_bulk_rejected_for_non_capable_spec(self):
        g, a, ids = _instance(n=24)
        assert not zoo.get("a2").bulk_capable
        with pytest.raises(ValueError, match="no bulk driver") as exc:
            zoo.execute("a2", g, a, ids, 0, engine="bulk")
        # the error lists what *is* bulk-capable
        assert "partition" in str(exc.value)

    def test_bulk_rejected_for_baselines(self):
        g, a, ids = _instance(n=24)
        with pytest.raises(ValueError, match="baseline.*no bulk driver"):
            zoo.execute("partition", g, a, ids, 0, baseline=True, engine="bulk")

    def test_bulk_accepts_crash_plans_and_agrees_with_fast(self):
        # bulk drivers delegate to their fault-aware kernels under an
        # active plan; the counter-based adversary replays exactly
        g, a, ids = _instance(n=24)
        plan = FaultPlan(seed=1, crashes=CrashSpec(hazard=0.1))
        ref = zoo.execute("partition", g, a, ids, 0, faults=plan)
        got = zoo.execute("partition", g, a, ids, 0, engine="bulk", faults=plan)
        assert got.completed and got.faulted
        assert got.crashed == ref.crashed
        assert got.result.h_index == ref.result.h_index
        got.validate(g)  # survivor-restricted check under a live plan

    def test_bulk_rejects_duplicate_and_delay_plans(self):
        from repro.faults import MessageFaults
        from repro.runtime import BulkUnsupported

        g, a, ids = _instance(n=24)
        plan = FaultPlan(seed=1, messages=MessageFaults(duplicate=0.5))
        ex = zoo.execute(
            "partition", g, a, ids, 0, engine="bulk", faults=plan,
            capture_errors=True,
        )
        assert isinstance(ex.error, BulkUnsupported)

    def test_bulk_accepts_empty_fault_plan(self):
        g, a, ids = _instance(n=24)
        ex = zoo.execute("partition", g, a, ids, 0, engine="bulk", faults=FaultPlan())
        assert ex.completed and not ex.faulted


class TestModes:
    @pytest.mark.parametrize("name", ["partition", "mis", "consensus"])
    def test_async_agrees_with_sync_through_execute(self, name):
        workload = zoo.get(name).workloads or ("forest_union_a3",)
        g, a, ids = _instance(n=60, workload=workload[0])
        sync = zoo.execute(name, g, a, ids, 0)
        from repro.runtime import DelaySpec

        delays = DelaySpec(dist="uniform", scale=2.0, seed=7)
        async_ = zoo.execute(name, g, a, ids, 0, mode="async", delays=delays)
        payload = _PAYLOAD[zoo.get(name).problem]
        assert payload(async_.result) == payload(sync.result)
        assert async_.result.metrics.rounds == sync.result.metrics.rounds
        assert async_.mode == "async" and sync.mode == "sync"
        async_.validate(g)

    def test_async_fills_time_metrics_sync_leaves_none(self):
        g, a, ids = _instance(n=40)
        sync = zoo.execute("partition", g, a, ids, 0)
        async_ = zoo.execute("partition", g, a, ids, 0, mode="async")
        assert getattr(sync.result, "times", None) is None
        t = async_.result.times
        assert t is not None and t.vertex_averaged_time > 0

    def test_unknown_mode_rejected(self):
        g, a, ids = _instance(n=24)
        with pytest.raises(ValueError, match="mode"):
            zoo.execute("partition", g, a, ids, 0, mode="warp")

    @pytest.mark.parametrize("faulted", [False, True], ids=["clean", "crash-drop"])
    @pytest.mark.parametrize("name", ["partition", "luby-mis"])
    def test_async_times_agree_across_engines(self, name, faulted):
        """Every engine's run feeds the one timing pass: fast, reference
        and bulk async times are bit-identical, clean and under crashes
        plus drops."""
        from repro.faults import MessageFaults
        from repro.runtime import DelaySpec

        g = gen.forest_union_csr(2000, 3, seed=4)
        ids = gen.random_ids(g.n, seed=5)
        plan = None
        if faulted:
            plan = FaultPlan(
                seed=3,
                crashes=CrashSpec(hazard=0.01),
                messages=MessageFaults(drop=0.02),
            )
        delays = DelaySpec(dist="exp", scale=1.5, seed=9)
        runs = {
            engine: zoo.execute(
                name, g, 3, ids, 1, engine=engine, mode="async",
                delays=delays, faults=plan,
            )
            for engine in ("fast", "reference", "bulk")
        }
        fast = runs["fast"]
        assert fast.completed and bool(fast.crashed) == faulted
        t = fast.result.times
        for engine, ex in runs.items():
            assert ex.crashed == fast.crashed, engine
            assert ex.result.metrics == fast.result.metrics, engine
            got = ex.result.times
            assert [x.hex() for x in got.times] == [x.hex() for x in t.times]
            assert got.output_times == t.output_times

    def test_sync_rejects_delays(self):
        from repro.runtime import DelaySpec

        g, a, ids = _instance(n=24)
        with pytest.raises(ValueError, match="delays"):
            zoo.execute(
                "partition", g, a, ids, 0, delays=DelaySpec(dist="exp")
            )

    def test_manifest_records_mode_and_key_stability(self, tmp_path):
        from repro.obs import telemetry
        from repro.runtime import DelaySpec

        g, a, ids = _instance(n=40)
        p_sync = str(tmp_path / "s.jsonl")
        p_async = str(tmp_path / "a.jsonl")
        zoo.execute("partition", g, a, ids, 0, trace=p_sync)
        delays = DelaySpec(dist="exp", scale=1.5, seed=2)
        zoo.execute(
            "partition", g, a, ids, 0, mode="async", delays=delays,
            trace=p_async,
        )
        m_sync = telemetry.latest_manifest(telemetry.manifest_path(p_sync))
        m_async = telemetry.latest_manifest(telemetry.manifest_path(p_async))
        assert m_sync["mode"] == "sync" and m_async["mode"] == "async"
        assert m_async["delays"] == delays.to_dict()
        # mode folds into the content-address only for non-sync runs,
        # so pre-existing sync keys stay byte-stable
        assert m_sync["key"] != m_async["key"]


class TestFaults:
    def test_empty_plan_counts_as_fault_free(self):
        g, a, ids = _instance(n=40)
        ex = zoo.execute("partition", g, a, ids, 0, faults=FaultPlan())
        assert not ex.faulted
        assert ex.plan is None

    def test_crash_plan_reports_crashed_and_survivor_validates(self):
        g, a, ids = _instance(n=60)
        plan = FaultPlan(seed=9, crashes=CrashSpec(at={0: 1}, hazard=0.02))
        ex = zoo.execute("partition", g, a, ids, 0, faults=plan)
        assert ex.faulted
        assert 0 in ex.crashed  # the scheduled strike always lands
        summary = ex.validate(g)
        assert "survivor-safety OK" in summary
        assert ex.alive(g) == set(g.vertices()) - set(ex.crashed)

    def test_survivor_summary_abbreviates_a_long_crash_list(self):
        g, a, ids = _instance(n=200)
        at = {v: 1 for v in range(0, 200, 7)}  # 29 scheduled crashes
        ex = zoo.execute("partition", g, a, ids, 0, faults=FaultPlan(seed=1, crashes=CrashSpec(at=at)))
        assert len(ex.crashed) == 29
        lowest = sorted(ex.crashed)[:10]
        assert ex.validate(g) == (
            f"survivor-safety OK on 171/200 surviving vertices "
            f"(crashed: 29 vertices, lowest 10: {lowest})"
        )

    def test_watchdog_is_always_captured(self):
        # a crashed MIS participant leaves neighbors waiting forever
        g, a, ids = _instance(n=40, seed=5, workload="gnp_sparse")
        plan = FaultPlan(seed=2, crashes=CrashSpec(at={3: 2, 7: 1}))
        ex = zoo.execute("mis", g, a, ids, 5, faults=plan)
        assert ex.watchdog is not None
        assert not ex.completed
        with pytest.raises(RuntimeError, match="did not complete"):
            ex.validate(g)


class TestSessionLeaks:
    """execute() sets engine, mode, delays and faults itself: an enclosing
    run session's settings must not reach the run it reports on."""

    def test_outer_fault_session_does_not_reach_a_clean_run(self):
        from repro.runtime.session import session

        g, a, ids = _instance(n=300)
        with session(faults=FaultPlan(seed=3, crashes=CrashSpec(hazard=0.05))):
            ex = zoo.execute("mis", g, a, ids, 0, faults=None)
        assert ex.plan is None
        assert ex.crashed == ()
        ex.validate(g)

    def test_outer_async_session_does_not_reach_a_sync_run(self):
        from repro.runtime.session import session

        g, a, ids = _instance(n=300)
        with session(mode="async"):
            ex = zoo.execute("mis", g, a, ids, 0, mode="sync")
        assert ex.result.times is None
        assert ex.manifest.mode == ex.mode == "sync"
        ex.validate(g)


class TestErrors:
    def _broken_spec(self):
        def chokes(g, ids=None, a=None):
            raise RuntimeError("deliberate")

        return zoo.AlgorithmSpec(
            name="_broken",
            problem="coloring",
            driver=zoo.DriverRef.make(fn=chokes),
        )

    def test_errors_raise_by_default(self):
        g, a, ids = _instance(n=24)
        with pytest.raises(RuntimeError, match="deliberate"):
            zoo.execute(self._broken_spec(), g, a, ids, 0)

    def test_capture_errors_returns_them(self):
        g, a, ids = _instance(n=24)
        ex = zoo.execute(
            self._broken_spec(), g, a, ids, 0, capture_errors=True
        )
        assert isinstance(ex.error, RuntimeError)
        assert not ex.completed


class TestClaims:
    def test_palette_above_the_claim_is_rejected(self):
        """A proper colouring that self-reports a generous bound still
        fails when it uses more colours than the spec's claim allows."""
        from repro.core.coloring import ColoringResult
        from repro.runtime.metrics import RoundMetrics

        def all_distinct(g, ids=None, a=None):
            return ColoringResult(
                colors={v: v for v in g.vertices()},
                h_index={v: 1 for v in g.vertices()},
                metrics=RoundMetrics(rounds=(1,) * g.n),
                palette_bound=10**6,
            )

        zoo.register(
            zoo.AlgorithmSpec(
                name="_lavish",
                problem="coloring",
                driver=zoo.DriverRef.make(fn=all_distinct),
                claim=zoo.Claim("O(1)", palette=lambda i: i.delta + 1),
            )
        )
        try:
            g, a, ids = _instance(n=40)
            ex = zoo.execute("_lavish", g, a, ids, 0)
        finally:
            zoo.unregister("_lavish")
        assert ex.palette_claim == g.max_degree() + 1
        with pytest.raises(VerificationError, match="claim allows"):
            ex.validate(g)

    def test_baseline_runs_are_not_held_to_the_claim(self):
        g, a, ids = _instance(n=40)
        assert zoo.execute("a2logn", g, a, ids, 0).palette_claim is not None
        assert zoo.execute("a2logn", g, a, ids, 0, baseline=True).palette_claim is None


class TestObs:
    def test_trace_written_with_registry_meta(self, tmp_path):
        g, a, ids = _instance(n=40)
        path = str(tmp_path / "run.jsonl")
        ex = zoo.execute(
            "a2", g, a, ids, 0, trace=path, trace_meta={"extra": "x"}
        )
        assert ex.completed
        with open(path) as fh:
            head = json.loads(fh.readline())
        meta = head.get("meta", head)
        assert meta["algo"] == "a2"
        assert meta["engine"] == "fast"
        assert meta["extra"] == "x"

    def test_bulk_trace_meta_records_engine(self, tmp_path):
        g, a, ids = _instance(n=40)
        path = str(tmp_path / "bulk.jsonl")
        ex = zoo.execute("partition", g, a, ids, 0, engine="bulk", trace=path)
        assert ex.completed
        with open(path) as fh:
            head = json.loads(fh.readline())
        meta = head.get("meta", head)
        assert meta["engine"] == "bulk"

    def test_profile_attaches_phase_profiler(self):
        g, a, ids = _instance(n=40)
        ex = zoo.execute("mis", g, a, ids, 0, profile=True)
        assert ex.profiler is not None
        report = ex.profiler.report()
        assert "step" in report

    def test_async_profile_records_step_phase(self):
        g, a, ids = _instance(n=40)
        ex = zoo.execute("partition", g, a, ids, 0, mode="async", profile=True)
        phases = ex.profiler.as_dict()
        # the engine's own phases, one hit per round, then one timing pass
        assert phases["step"]["seconds"] > 0
        assert phases["step"]["count"] == ex.result.metrics.worst_case
        assert phases["async"]["count"] == 1
        plain = zoo.execute("partition", g, a, ids, 0, mode="async")
        assert plain.result.h_index == ex.result.h_index
        bulk = zoo.execute(
            "partition", g, a, ids, 0, engine="bulk", mode="async", profile=True
        )
        assert {"kernel", "finalize", "async"} <= set(bulk.profiler.as_dict())

    def test_validation_failure_propagates(self):
        g, a, ids = _instance(n=40)
        ex = zoo.execute("a2", g, a, ids, 0)
        u, v = next(iter(g.edges()))
        ex.result.colors[u] = ex.result.colors[v]
        with pytest.raises(VerificationError):
            ex.validate(g)
