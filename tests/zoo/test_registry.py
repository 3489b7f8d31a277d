"""Registry completeness and drift pins.

The registry is only useful if every derived surface (CLI, fuzzer,
bench, validators) provably agrees with it; these tests pin that, plus
the historical regression the registry exists to prevent: ``ka2``,
``one-plus-eta`` and ``aloglogn`` were registered in the CLI but missing
from the fuzz population.
"""

import pytest

import repro
from repro import zoo
from repro.bench.workloads import make_workload
from repro.graphs import generators as gen


class TestCompleteness:
    def test_check_registry_is_clean(self):
        assert zoo.check_registry() == []

    def test_every_run_driver_registered_or_exempt(self):
        referenced = set()
        for spec in zoo.all_specs():
            for ref in (spec.driver, spec.baseline):
                if ref is not None and ref.fn is None:
                    referenced.add(ref.func)
        for func in (x for x in repro.__all__ if x.startswith("run_")):
            assert func in referenced or func in zoo.EXEMPT_DRIVERS, (
                f"{func} is exported but neither registered nor exempted"
            )

    def test_exemptions_are_not_also_registered(self):
        referenced = {
            ref.func
            for spec in zoo.all_specs()
            for ref in (spec.driver, spec.baseline)
            if ref is not None and ref.fn is None
        }
        assert not referenced & set(zoo.EXEMPT_DRIVERS)

    def test_stale_exemption_is_reported(self):
        zoo.EXEMPT_DRIVERS["run_does_not_exist"] = "test entry"
        try:
            problems = zoo.check_registry()
        finally:
            del zoo.EXEMPT_DRIVERS["run_does_not_exist"]
        assert any("run_does_not_exist" in p and "stale" in p for p in problems)

    def test_claim_drift_is_reported(self):
        silent = zoo.AlgorithmSpec(
            name="_silent",
            problem="coloring",
            driver=zoo.DriverRef.make("run_a2_coloring"),
            paper_row=zoo.PaperRow(row="T1.X", label="x", ref="x", table=1),
        )
        odd = zoo.AlgorithmSpec(
            name="_odd",
            problem="coloring",
            driver=zoo.DriverRef.make("run_a2_coloring"),
            claim=zoo.Claim("O(log^2 n)"),
        )
        zoo.register(silent)
        zoo.register(odd)
        try:
            problems = zoo.check_registry()
        finally:
            zoo.unregister("_silent")
            zoo.unregister("_odd")
        assert "_silent: Table 1 row states no claim" in problems
        assert any(p.startswith("_odd: claimed avg shape 'O(log^2 n)'") for p in problems)

    def test_every_problem_kind_has_both_checks(self):
        for spec in zoo.all_specs():
            assert spec.problem in zoo.FULL_VALIDATORS
            assert spec.problem in zoo.SURVIVOR_CHECKS

    def test_drivers_resolve_to_callables(self):
        for spec in zoo.all_specs():
            assert callable(spec.driver.resolve())
            if spec.baseline is not None:
                assert callable(spec.baseline.resolve())

    def test_paper_rows_unique(self):
        rows = [s.paper_row.row for s in zoo.all_specs() if s.paper_row]
        assert len(rows) == len(set(rows))

    def test_table_views_cover_the_paper(self):
        t1 = [s.paper_row.row for s in zoo.by_table(1)]
        t2 = [s.paper_row.row for s in zoo.by_table(2)]
        assert t1 == sorted(t1)  # row order
        assert set(t2) == {"T2.R1", "T2.R2", "T2.R3"}
        for s in zoo.by_table(1):
            assert s.problem == "coloring"


class TestDriftPins:
    def test_fuzz_population_includes_the_formerly_missing_three(self):
        """Regression: the old hand-maintained faults zoo missed these."""
        from repro.faults.fuzz import default_population

        pop = set(default_population())
        assert {"ka2", "one-plus-eta", "aloglogn"} <= pop

    def test_fuzz_population_equals_crash_safe_view(self):
        from repro.faults.fuzz import default_population

        assert tuple(default_population()) == tuple(
            s.name for s in zoo.crash_safe()
        )

    def test_cli_run_choices_equal_registry_names(self):
        from repro.cli import build_parser

        parser = build_parser()
        choices = None
        for action in parser._subparsers._group_actions[0].choices[
            "run"
        ]._actions:
            if action.dest == "algorithm":
                choices = tuple(action.choices)
        assert choices == zoo.names()

    def test_old_module_level_tables_are_gone(self):
        """The hand-maintained per-consumer lists must not resurface."""
        import repro.cli as cli
        import repro.faults.harness as harness

        assert not hasattr(cli, "ALGORITHMS")
        assert not hasattr(cli, "BASELINES")
        assert not hasattr(harness, "_ZOO")
        assert not hasattr(harness, "zoo")


class TestViews:
    def test_get_unknown_lists_known(self):
        with pytest.raises(KeyError, match="known:"):
            zoo.get("nonsense")

    def test_register_unregister_round_trip(self):
        spec = zoo.AlgorithmSpec(
            name="_tmp",
            problem="coloring",
            driver=zoo.DriverRef.make(fn=lambda g, ids=None, a=None: None),
        )
        zoo.register(spec)
        try:
            assert zoo.get("_tmp") is spec
            with pytest.raises(ValueError, match="already registered"):
                zoo.register(spec)
        finally:
            zoo.unregister("_tmp")
        assert "_tmp" not in zoo.names()

    def test_unknown_problem_kind_rejected(self):
        with pytest.raises(ValueError, match="problem kind"):
            zoo.AlgorithmSpec(
                name="bad", problem="sorting", driver=zoo.DriverRef.make("run_mis")
            )

    def test_with_baseline_excludes_baselineless_specs(self):
        names = {s.name for s in zoo.with_baseline()}
        assert "one-plus-eta" not in names
        assert "rand-delta-plus-one" not in names
        assert "partition" in names

    def test_by_problem_partitions_the_registry(self):
        total = sum(len(zoo.by_problem(k)) for k in zoo.PROBLEM_KINDS)
        assert total == len(zoo.all_specs())


# direct repro.* calls the registry specs must stay bit-identical to:
# the exact invocations the deleted cli.ALGORITHMS / cli.BASELINES and
# faults.harness._ZOO tables used to make.
_DIRECT = {
    "partition": (
        lambda g, a, ids, s: repro.run_partition(g, a=a, ids=ids),
        lambda g, a, ids, s: repro.run_worstcase_forest_decomposition(
            g, a=a, ids=ids
        ),
        lambda r: r.h_index,
    ),
    "a2logn": (
        lambda g, a, ids, s: repro.run_a2logn_coloring(g, a=a, ids=ids),
        lambda g, a, ids, s: repro.run_arb_linial_worstcase(g, a=a, ids=ids),
        lambda r: r.colors,
    ),
    "delta-plus-one": (
        lambda g, a, ids, s: repro.run_delta_plus_one_coloring(g, a=a, ids=ids),
        lambda g, a, ids, s: repro.run_delta_plus_one_worstcase(g, ids=ids),
        lambda r: r.colors,
    ),
    "mis": (
        lambda g, a, ids, s: repro.run_mis(g, a=a, ids=ids),
        lambda g, a, ids, s: repro.run_mis(
            g, a=a, ids=ids, worstcase_schedule=True
        ),
        lambda r: sorted(r.mis),
    ),
    "matching": (
        lambda g, a, ids, s: repro.run_maximal_matching(g, a=a, ids=ids),
        lambda g, a, ids, s: repro.run_maximal_matching(
            g, a=a, ids=ids, worstcase_schedule=True
        ),
        lambda r: sorted(r.matching),
    ),
    "rand-delta-plus-one": (
        lambda g, a, ids, s: repro.run_rand_delta_plus_one(g, ids=ids, seed=s),
        None,
        lambda r: r.colors,
    ),
}


class TestMigrationIdentity:
    """The registry must reproduce the deleted lambda tables bit-for-bit."""

    @pytest.mark.parametrize("name", sorted(_DIRECT))
    @pytest.mark.parametrize("seed", [0, 3])
    def test_driver_matches_direct_call(self, name, seed):
        direct, _base, payload = _DIRECT[name]
        g, a = make_workload("forest_union_a3")(60, seed=seed)
        ids = gen.random_ids(g.n, seed=1000 + seed)
        spec = zoo.get(name)
        ours = spec.run(g, a, ids, seed)
        theirs = direct(g, a, ids, seed)
        assert payload(ours) == payload(theirs)
        assert ours.metrics.worst_case == theirs.metrics.worst_case
        assert ours.metrics.vertex_averaged == theirs.metrics.vertex_averaged

    @pytest.mark.parametrize(
        "name", sorted(n for n in _DIRECT if _DIRECT[n][1] is not None)
    )
    @pytest.mark.parametrize("seed", [0, 3])
    def test_baseline_matches_direct_call(self, name, seed):
        _direct, base, payload = _DIRECT[name]
        g, a = make_workload("forest_union_a3")(60, seed=seed)
        ids = gen.random_ids(g.n, seed=1000 + seed)
        spec = zoo.get(name)
        ours = spec.run_baseline(g, a, ids, seed)
        theirs = base(g, a, ids, seed)
        assert payload(ours) == payload(theirs)
        assert ours.metrics.worst_case == theirs.metrics.worst_case
