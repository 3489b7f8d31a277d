"""The algorithm registry: one :class:`AlgorithmSpec` per zoo member.

This module is the single source of truth the CLI (``run`` / ``compare`` /
``list``), the fault fuzzer, the bench tables and the test
parametrizations all derive from.  Adding an algorithm to the repo is a
one-spec change here; everything downstream -- fuzz coverage, the
``repro list`` table, paper-table rendering, registry-completeness tests
-- picks it up automatically.

Views
-----
``all_specs()`` / ``names()`` / ``get(name)``
    The whole registry.
``with_baseline()``
    Specs that declare a worst-case baseline (the ``repro compare``
    population).
``crash_safe()``
    Specs that participate in crash-stop fault fuzzing (the ``repro fuzz``
    population and the ``--smoke`` CI gate).
``randomized()`` / ``by_problem(kind)`` / ``by_table(table)``
    Taxonomy slices (Table 1 = coloring rows, Table 2 = MIS /
    edge-coloring / matching).

``check_registry()`` is the consistency gate behind ``repro list
--check``: it cross-checks the registry against the public driver
exports, the validator tables, the CLI parser and the fuzz population,
so zoo drift (the bug this module replaces: ``ka2``, ``one-plus-eta`` and
``aloglogn`` were registered in the CLI but never fuzzed) can not recur
silently.
"""

from __future__ import annotations

from repro.zoo.checks import FULL_VALIDATORS, SURVIVOR_CHECKS
from repro.zoo.spec import AlgorithmSpec, Claim, DriverRef, PaperRow

_D = DriverRef.make

#: worst-case baselines shared across rows
_ARB_LINIAL_WC = _D("run_arb_linial_worstcase")
_ARB_COLOR_WC = _D("run_arb_color_worstcase")

_SPECS: tuple[AlgorithmSpec, ...] = (
    AlgorithmSpec(
        name="partition",
        problem="partition",
        driver=_D("run_partition"),
        baseline=_D("run_worstcase_forest_decomposition"),
        paper_row=PaperRow(
            row="S6.1",
            label="H-partition, O(1) avg vs Theta(log n) worst",
            ref="Theorem 6.3",
        ),
        claim=Claim("O(1)"),
        bulk_capable=True,
    ),
    AlgorithmSpec(
        name="luby-mis",
        problem="mis",
        driver=_D("run_luby_mis", passes_a=False, passes_seed=True),
        randomized=True,
        # crash-stop faults degrade gracefully (survivors still form an
        # independent set among themselves); drop plans are NOT safe --
        # a lost MIS announcement can yield adjacent winners
        crash_safe=True,
        bulk_capable=True,
    ),
    AlgorithmSpec(
        name="a2logn",
        problem="coloring",
        driver=_D("run_a2logn_coloring"),
        baseline=_ARB_LINIAL_WC,
        paper_row=PaperRow(
            row="T1.R4",
            label="O(a^2 log n) colors, O(1) avg",
            ref="Section 7.2",
            table=1,
        ),
        claim=Claim("O(1)", palette=lambda i: i.one_step),
    ),
    AlgorithmSpec(
        name="a2",
        problem="coloring",
        driver=_D("run_a2_coloring"),
        baseline=_ARB_LINIAL_WC,
        paper_row=PaperRow(
            row="S7.3",
            label="O(a^2) colors, O(log log n) avg",
            ref="Section 7.3",
        ),
        claim=Claim("O(log log n)", palette=lambda i: 2 * i.fixpoint),
    ),
    AlgorithmSpec(
        name="oa",
        problem="coloring",
        driver=_D("run_oa_coloring"),
        baseline=_ARB_COLOR_WC,
        paper_row=PaperRow(
            row="S7.4",
            label="O(a) colors, O(a log log n) avg",
            ref="Section 7.4",
        ),
        claim=Claim("O(log log n)", palette=lambda i: 2 * (i.A + 1)),
    ),
    AlgorithmSpec(
        name="ka2",
        problem="coloring",
        driver=_D("run_ka2_coloring"),
        baseline=_ARB_LINIAL_WC,
        paper_row=PaperRow(
            row="T1.R6",
            label="O(a^2 log* n) colors, O(log* n) avg (k = rho(n))",
            ref="Corollary 7.14",
            table=1,
        ),
        claim=Claim("O(log* n)", palette=lambda i: i.k * i.fixpoint),
    ),
    AlgorithmSpec(
        name="ka",
        problem="coloring",
        driver=_D("run_ka_coloring"),
        baseline=_ARB_COLOR_WC,
        paper_row=PaperRow(
            row="T1.R2",
            label="O(a log* n) colors, O(a log* n) avg (k = rho(n))",
            ref="Corollary 7.17",
            table=1,
        ),
        claim=Claim("O(log log n)", palette=lambda i: i.k * (i.A + 1)),
    ),
    AlgorithmSpec(
        name="one-plus-eta",
        problem="coloring",
        driver=_D("run_one_plus_eta_coloring"),
        paper_row=PaperRow(
            row="T1.R3",
            label="O(a^(1+eta)) colors, O(log a log log n) avg",
            ref="Theorem 7.21",
            table=1,
        ),
        # O(a^(1+eta)) colours has no closed form to check
        claim=Claim("O(log log n)"),
    ),
    AlgorithmSpec(
        name="delta-plus-one",
        problem="coloring",
        driver=_D("run_delta_plus_one_coloring"),
        baseline=_D("run_delta_plus_one_worstcase", passes_a=False),
        paper_row=PaperRow(
            row="T1.R7",
            label="Delta+1 colors, extension framework avg",
            ref="Section 8 (Det.)",
            table=1,
        ),
        claim=Claim("O(log log n)", palette=lambda i: i.delta + 1),
    ),
    AlgorithmSpec(
        name="rand-delta-plus-one",
        problem="coloring",
        driver=_D("run_rand_delta_plus_one", passes_a=False, passes_seed=True),
        paper_row=PaperRow(
            row="T1.R8",
            label="Delta+1 colors, O(1) avg w.h.p.",
            ref="Theorem 9.1",
            table=1,
        ),
        # O(1) w.h.p.; log* n is indistinguishable from it at any n a
        # sweep reaches
        claim=Claim("O(log* n)", palette=lambda i: i.delta + 1),
        randomized=True,
    ),
    AlgorithmSpec(
        name="aloglogn",
        problem="coloring",
        driver=_D("run_aloglogn_coloring", passes_seed=True),
        baseline=_ARB_COLOR_WC,
        paper_row=PaperRow(
            row="T1.R9",
            label="O(a log log n) colors, O(1) avg w.h.p.",
            ref="Theorem 9.2",
            table=1,
        ),
        claim=Claim("O(log* n)", palette=lambda i: (i.t + 1) * (i.A + 1)),
        randomized=True,
    ),
    AlgorithmSpec(
        name="mis",
        problem="mis",
        driver=_D("run_mis"),
        baseline=_D("run_mis", params={"worstcase_schedule": True}),
        paper_row=PaperRow(
            row="T2.R1",
            label="MIS in O(a + log* n) avg",
            ref="Section 8.4",
            table=2,
        ),
        claim=Claim("O(log log n)"),
    ),
    AlgorithmSpec(
        name="edge-coloring",
        problem="edge-coloring",
        driver=_D("run_edge_coloring"),
        baseline=_D("run_edge_coloring", params={"worstcase_schedule": True}),
        paper_row=PaperRow(
            row="T2.R2",
            label="(2 Delta - 1)-edge-coloring in O(a + log* n) avg",
            ref="Corollary 8.6",
            table=2,
        ),
        claim=Claim("O(log log n)", palette=lambda i: max(2 * i.delta - 1, 1)),
    ),
    AlgorithmSpec(
        name="matching",
        problem="matching",
        driver=_D("run_maximal_matching"),
        baseline=_D(
            "run_maximal_matching", params={"worstcase_schedule": True}
        ),
        paper_row=PaperRow(
            row="T2.R3",
            label="maximal matching in O(a + log* n) avg",
            ref="Section 8",
            table=2,
        ),
        claim=Claim("O(log log n)"),
    ),
    AlgorithmSpec(
        name="leader-election",
        problem="leader-election",
        driver=_D("run_leader_election", passes_a=False, passes_seed=True),
        paper_row=PaperRow(
            row="S2.LE",
            label="ring leader election, Theta(n) worst vs O(log n) avg output",
            ref="Feuilloley [12], Sections 2-3",
        ),
        # Hirschberg-Sinclair needs an oriented ring: probes, echoes and
        # the elected token all travel successor-wards
        workloads=("ring",),
        # crash-safe in the safety sense: a broken ring stops the token
        # (watchdog non-termination, an accepted fuzz outcome) but can
        # never elect two leaders
        crash_safe=True,
    ),
    AlgorithmSpec(
        name="consensus",
        problem="consensus",
        driver=_D("run_consensus", passes_a=False, passes_seed=True),
        paper_row=PaperRow(
            row="S2.BC",
            label="crash-tolerant binary consensus, Theta(n) worst vs O(1) avg output",
            ref="flood-min (related work)",
        ),
        randomized=True,  # input bits are drawn from the seed
        crash_safe=True,
    ),
)

_REGISTRY: dict[str, AlgorithmSpec] = {}
for _s in _SPECS:
    if _s.name in _REGISTRY:
        raise ValueError(f"duplicate algorithm spec {_s.name!r}")
    _REGISTRY[_s.name] = _s


# ---------------------------------------------------------------------------
# views
# ---------------------------------------------------------------------------

def all_specs() -> tuple[AlgorithmSpec, ...]:
    """Every registered spec, in name order."""
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def names() -> tuple[str, ...]:
    """All registered algorithm names, sorted."""
    return tuple(sorted(_REGISTRY))


def get(name: str) -> AlgorithmSpec:
    """Look a spec up by name; KeyError lists the known names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def with_baseline() -> tuple[AlgorithmSpec, ...]:
    """Specs with a worst-case baseline (the ``compare`` population)."""
    return tuple(s for s in all_specs() if s.has_baseline)


def crash_safe() -> tuple[AlgorithmSpec, ...]:
    """Specs fuzzed under crash-stop fault plans (the ``fuzz`` population)."""
    return tuple(s for s in all_specs() if s.crash_safe)


def randomized() -> tuple[AlgorithmSpec, ...]:
    return tuple(s for s in all_specs() if s.randomized)


def by_problem(problem: str) -> tuple[AlgorithmSpec, ...]:
    return tuple(s for s in all_specs() if s.problem == problem)


def by_table(table: int) -> tuple[AlgorithmSpec, ...]:
    """The paper-table rows, in row order (``T1.R2`` before ``T1.R6``)."""
    rows = [
        s
        for s in all_specs()
        if s.paper_row is not None and s.paper_row.table == table
    ]
    rows.sort(key=lambda s: s.paper_row.row)
    return tuple(rows)


def register(spec: AlgorithmSpec) -> None:
    """Register an additional spec (tests; plugins)."""
    if spec.name in _REGISTRY:
        raise ValueError(f"algorithm {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec


def unregister(name: str) -> None:
    """Remove a spec added via :func:`register` (test cleanup)."""
    del _REGISTRY[name]


# ---------------------------------------------------------------------------
# consistency gate (`repro list --check`)
# ---------------------------------------------------------------------------

#: public ``run_*`` drivers deliberately *not* registered, with the reason.
#: Anything exported from ``repro`` that is neither referenced by a spec
#: nor listed here fails ``check_registry()``.
EXEMPT_DRIVERS: dict[str, str] = {
    "run_parallelized_forest_decomposition": (
        "Section 7.1 building block; `partition` is its registered face"
    ),
    "run_defective_coloring": "subroutine of the Section 7.8 algorithms",
    "run_arbdefective_coloring": "subroutine of the Section 7.8 algorithms",
    "run_legal_coloring": "subroutine of `one-plus-eta` (Procedure Legal-Coloring)",
    "run_linial_coloring": "classic reference; no averaged partner row",
    "run_ring_three_coloring": "Cole-Vishkin reference (bench-only)",
}


def check_registry() -> list[str]:
    """Cross-check the registry against every derived surface.

    Returns a list of human-readable problems (empty = consistent).
    Checked invariants:

    1. every spec's driver (and baseline) resolves to a public callable;
    2. every spec's problem kind has a full validator and a
       survivor-safety check;
    3. every public ``run_*`` export of ``repro`` is referenced by some
       spec or explicitly exempted (no unregistered drivers, no stale
       exemptions);
    4. the CLI parser's algorithm choices equal the registry (no CLI
       drift);
    5. the fuzz population equals ``crash_safe()`` (no fuzz drift -- the
       historical ``ka2``/``one-plus-eta``/``aloglogn`` gap);
    6. paper-row tables are 1, 2 or None and row ids are unique;
    7. ``bulk_capable`` flags mirror ``repro.core.bulk.BULK_DRIVERS``
       exactly, and every bulk-driver entry names a public export;
    8. every ``workloads`` restriction names real bench workloads;
    9. every Table 1/2 row states a claim, and every claimed shape is a
       name of :data:`repro.analysis.fitting.SHAPES`.
    """
    import repro

    problems: list[str] = []
    referenced: set[str] = set()
    rows_seen: dict[str, str] = {}

    for spec in all_specs():
        for role, ref in (("driver", spec.driver), ("baseline", spec.baseline)):
            if ref is None:
                continue
            if ref.fn is None:
                referenced.add(ref.func)
                if not callable(getattr(repro, ref.func, None)):
                    problems.append(
                        f"{spec.name}: {role} {ref.func!r} is not exported "
                        "from repro"
                    )
        if spec.problem not in FULL_VALIDATORS:
            problems.append(
                f"{spec.name}: problem {spec.problem!r} has no full validator"
            )
        if spec.crash_safe and spec.problem not in SURVIVOR_CHECKS:
            problems.append(
                f"{spec.name}: crash-safe but problem {spec.problem!r} has "
                "no survivor-safety check"
            )
        row = spec.paper_row
        if row is not None:
            if row.table not in (None, 1, 2):
                problems.append(
                    f"{spec.name}: paper table must be 1, 2 or None, "
                    f"got {row.table!r}"
                )
            if row.row in rows_seen:
                problems.append(
                    f"{spec.name}: paper row {row.row!r} already used by "
                    f"{rows_seen[row.row]!r}"
                )
            rows_seen[row.row] = spec.name

    exported = {x for x in repro.__all__ if x.startswith("run_")}
    for func in sorted(exported - referenced - set(EXEMPT_DRIVERS)):
        problems.append(
            f"driver {func!r} is exported from repro but neither registered "
            "nor exempted (add a spec or an EXEMPT_DRIVERS entry)"
        )
    for func in sorted(set(EXEMPT_DRIVERS) - exported):
        problems.append(
            f"exemption for {func!r} is stale: not exported from repro"
        )
    for func in sorted(set(EXEMPT_DRIVERS) & referenced):
        problems.append(
            f"exemption for {func!r} is stale: a spec references it"
        )

    # CLI drift: the parser's `run` choices must be exactly the registry.
    from repro.cli import build_parser

    parser = build_parser()
    run_choices = None
    for action in parser._subparsers._group_actions[0].choices["run"]._actions:
        if action.dest == "algorithm":
            run_choices = tuple(action.choices)
    if run_choices != names():
        problems.append(
            f"CLI `run` choices {run_choices!r} != registry names {names()!r}"
        )

    # fuzz drift: the sampled population must be exactly crash_safe().
    from repro.faults import fuzz as _fuzz

    fuzz_pop = tuple(_fuzz.default_population())
    expected = tuple(s.name for s in crash_safe())
    if fuzz_pop != expected:
        problems.append(
            f"fuzz population {fuzz_pop!r} != crash-safe registry "
            f"view {expected!r}"
        )

    # bulk drift: the bulk_capable flags must mirror the columnar-driver
    # registry.
    from repro.core.bulk import BULK_DRIVERS

    for spec in all_specs():
        has_bulk = (
            spec.driver.fn is None and spec.driver.func in BULK_DRIVERS
        )
        if spec.bulk_capable and not has_bulk:
            problems.append(
                f"{spec.name}: flagged bulk_capable but driver "
                f"{spec.driver.func!r} has no core.bulk.BULK_DRIVERS entry"
            )
        if has_bulk and not spec.bulk_capable:
            problems.append(
                f"{spec.name}: driver {spec.driver.func!r} has a bulk twin "
                "but the spec is not flagged bulk_capable"
            )
    for func in sorted(set(BULK_DRIVERS) - exported):
        problems.append(
            f"bulk driver entry {func!r} does not name a public repro export"
        )

    # workload drift: topology restrictions must name real bench
    # workloads.
    from repro.bench.workloads import WORKLOADS

    for spec in all_specs():
        for wl in spec.workloads:
            if wl not in WORKLOADS:
                problems.append(
                    f"{spec.name}: workload restriction {wl!r} is not a "
                    "registered bench workload"
                )

    # claim drift: the table rows promise shapes the fitter can test.
    from repro.analysis.fitting import SHAPES

    shapes = {name for name, _ in SHAPES}
    for spec in all_specs():
        claim = spec.claim
        if claim is None:
            if spec.paper_row is not None and spec.paper_row.table in (1, 2):
                problems.append(
                    f"{spec.name}: Table {spec.paper_row.table} row states "
                    "no claim"
                )
            continue
        for role, shape in (("avg", claim.avg), ("baseline", claim.baseline)):
            if shape not in shapes:
                problems.append(
                    f"{spec.name}: claimed {role} shape {shape!r} is not in "
                    "analysis.fitting.SHAPES"
                )
    return problems
