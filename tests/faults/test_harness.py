"""The self-checking harness: classification, shrinking, artifacts."""

import json

import pytest

from repro.faults import (
    OUTCOME_ERROR,
    OUTCOME_NONTERMINATION,
    OUTCOME_VALID,
    OUTCOME_VIOLATION,
    CrashSpec,
    FaultPlan,
    FuzzCase,
    MessageFaults,
    load_artifact,
    replay_artifact,
    run_case,
    shrink_case,
    write_artifact,
)
from repro import zoo
from repro.verify import VerificationError


def _case(algorithm="partition", workload="forest_union_a3", n=40, seed=3, plan=None):
    return FuzzCase(
        algorithm=algorithm,
        workload=workload,
        n=n,
        seed=seed,
        plan=plan if plan is not None else FaultPlan(),
    )


class TestClassification:
    def test_clean_case_is_valid(self):
        out = run_case(_case())
        assert out.status == OUTCOME_VALID
        assert out.crashed == ()
        assert out.worst_rounds > 0
        assert not out.failed

    def test_crash_tolerant_run_is_valid_with_crashes(self):
        # the scheduled strike guarantees the adversary acts, whatever
        # the hazard draws of this seed do
        plan = FaultPlan(seed=9, crashes=CrashSpec(at={0: 1}, hazard=0.02))
        out = run_case(_case(plan=plan))
        assert out.status == OUTCOME_VALID
        assert 0 in out.crashed

    def test_nontermination_is_caught_and_classified(self):
        # a crashed MIS participant leaves neighbors waiting forever
        plan = FaultPlan(seed=2, crashes=CrashSpec(at={3: 2, 7: 1}))
        out = run_case(_case(algorithm="mis", workload="gnp_sparse", seed=5, plan=plan))
        assert out.status == OUTCOME_NONTERMINATION
        assert "still active" in out.detail
        assert not out.failed  # the watchdog did its job; not a fuzz failure

    def test_broken_verifier_is_a_violation(self):
        def broken(g, res, alive):
            raise VerificationError("deliberately broken")

        out = run_case(_case(), checks={"partition": broken})
        assert out.status == OUTCOME_VIOLATION
        assert out.detail == "deliberately broken"
        assert out.failed

    def test_driver_exception_is_an_error(self):
        case = _case(algorithm="nope")
        with pytest.raises(KeyError):
            run_case(case)
        # an exception *inside* the driver classifies as error
        bad_plan = FaultPlan(seed=1, crashes=CrashSpec(at={0: 1}))

        def chokes(g, ids=None, a=None):
            raise RuntimeError("driver cannot digest the crash")

        zoo.register(
            zoo.AlgorithmSpec(
                name="_chokes",
                problem="coloring",
                driver=zoo.DriverRef.make(fn=chokes),
            )
        )
        try:
            out = run_case(_case(algorithm="_chokes", plan=bad_plan))
        finally:
            zoo.unregister("_chokes")
        assert out.status == OUTCOME_ERROR
        assert "driver cannot digest" in out.detail
        assert out.failed

    @pytest.mark.parametrize(
        "algorithm",
        ["a2", "mis", "matching", "edge-coloring", "delta-plus-one"],
    )
    def test_zoo_algorithms_clean_runs_are_valid(self, algorithm):
        out = run_case(_case(algorithm=algorithm, n=30))
        assert out.status == OUTCOME_VALID

    @pytest.mark.parametrize(
        "algorithm", ["ka2", "one-plus-eta", "aloglogn"]
    )
    def test_previously_unfuzzed_algorithms_are_covered(self, algorithm):
        """Regression: these three were in the CLI but absent from the old
        hand-maintained ``_ZOO`` dict, so they were never fuzzed."""
        assert algorithm in {s.name for s in zoo.crash_safe()}
        plan = FaultPlan(seed=11, crashes=CrashSpec(hazard=0.01))
        out = run_case(_case(algorithm=algorithm, n=24, plan=plan))
        # crash-only plans must never yield a safety violation
        assert out.status != OUTCOME_VIOLATION


class TestSurvivorChecks:
    def test_coloring_check_restricted_to_survivors(self):
        import repro
        from repro.bench.workloads import make_workload
        from repro.graphs import generators as gen
        from repro.zoo.checks import check_vertex_coloring

        g, a = make_workload("forest_union_a3")(40, seed=0)
        res = repro.run_a2_coloring(g, a=a, ids=gen.random_ids(g.n, seed=1))
        check_vertex_coloring(g, res, set(g.vertices()))
        # corrupt one vertex's color: full check fails, survivor check
        # with that vertex dead passes
        u, v = next(iter(g.edges()))
        res.colors[u] = res.colors[v]
        with pytest.raises(VerificationError):
            check_vertex_coloring(g, res, set(g.vertices()))
        check_vertex_coloring(g, res, set(g.vertices()) - {u})

    def test_missing_survivor_output_is_a_violation(self):
        import repro
        from repro.bench.workloads import make_workload
        from repro.graphs import generators as gen
        from repro.zoo.checks import check_mis

        g, a = make_workload("forest_union_a2")(30, seed=0)
        res = repro.run_mis(g, a=a, ids=gen.random_ids(g.n, seed=1))
        del res.in_mis[5]
        with pytest.raises(VerificationError, match="without an MIS decision"):
            check_mis(g, res, set(g.vertices()))
        check_mis(g, res, set(g.vertices()) - {5})  # dead vertices exempt


class TestShrinking:
    def test_shrinks_n_to_the_floor_of_reproduction(self):
        case = _case(n=140)
        small, spent = shrink_case(case, lambda c: c.n >= 24, budget=50)
        assert small.n == 24
        assert spent > 0

    def test_drops_fault_components_that_do_not_matter(self):
        plan = FaultPlan(
            seed=1,
            crashes=CrashSpec(at={2: 1, 5: 3}, hazard=0.1),
            messages=MessageFaults(drop=0.1, duplicate=0.1),
        )
        case = _case(n=24, plan=plan)
        # failure reproduces regardless of the plan: everything shrinks away
        small, _ = shrink_case(case, lambda c: True, budget=80)
        assert small.n == 8
        assert small.plan.empty

    def test_keeps_the_component_the_failure_needs(self):
        plan = FaultPlan(
            seed=1,
            crashes=CrashSpec(at={2: 1}),
            messages=MessageFaults(drop=0.5),
        )
        case = _case(n=24, plan=plan)

        def needs_drop(c):
            return c.plan.messages is not None and c.plan.messages.drop > 0

        small, _ = shrink_case(case, needs_drop, budget=80)
        assert small.plan.messages.drop == 0.5
        assert small.plan.crashes is None  # the crash component shrank away

    def test_budget_bounds_the_attempts(self):
        case = _case(n=140)
        calls = []

        def pred(c):
            calls.append(c)
            return True

        shrink_case(case, pred, budget=7)
        assert len(calls) <= 7


class TestArtifacts:
    def test_round_trip(self, tmp_path):
        plan = FaultPlan(seed=3, crashes=CrashSpec(at={1: 2}))
        case = _case(plan=plan)
        outcome = run_case(case)
        path = str(tmp_path / "artifact.json")
        write_artifact(path, outcome, shrunk_from=_case(n=140, plan=plan))
        loaded_case, rec = load_artifact(path)
        assert loaded_case == case
        assert rec["status"] == outcome.status
        assert rec["shrunk_from"]["n"] == 140

    def test_replay_reproduces_the_outcome(self, tmp_path):
        plan = FaultPlan(seed=2, crashes=CrashSpec(at={3: 2, 7: 1}))
        case = _case(algorithm="mis", workload="gnp_sparse", seed=5, plan=plan)
        outcome = run_case(case)
        path = str(tmp_path / "nonterm.json")
        write_artifact(path, outcome)
        again = replay_artifact(path)
        assert again.status == outcome.status == OUTCOME_NONTERMINATION
        assert again.crashed == outcome.crashed

    def test_schema_mismatch_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 999, "case": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_artifact(str(path))

    def test_case_dict_round_trip(self):
        case = _case(
            plan=FaultPlan(
                seed=7,
                crashes=CrashSpec(at={4: 2}, hazard=0.01),
                messages=MessageFaults(delay=0.1),
            )
        )
        assert FuzzCase.from_dict(json.loads(json.dumps(case.to_dict()))) == case
