"""Declarative algorithm specifications.

An :class:`AlgorithmSpec` is the single registration point for one
algorithm of the paper's zoo: which driver runs it, which problem it
solves (and therefore which validator and survivor-safety check apply),
which worst-case baseline it is compared against, where it lives in
the paper (Table 1/2 row, theorem reference) and what the paper promises
for it (averaged and baseline shapes, palette formula).  The registry in
:mod:`repro.zoo.registry` holds one spec per algorithm; every consumer --
the CLI, the fault fuzzer, the bench tables, the test parametrizations --
derives its view from the registry instead of keeping its own list.

Drivers are referenced *by name* (attributes of the top-level ``repro``
package) and resolved lazily: importing the full algorithm stack at spec
definition time would recreate the import cycle the old
``faults.harness.zoo()`` lazy dict existed to avoid
(``repro -> runtime -> faults``).  Claim formulas import their helpers
when called, for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import floor
from typing import Any, Callable, Mapping, Sequence

import numpy as np

# re-exported: the engines and execution modes `execute()` accepts (see
# repro.runtime.session)
from repro.runtime import ENGINES, MODES  # noqa: F401

#: the problem taxonomy of the paper's result tables (Table 1 is all
#: vertex coloring; Table 2 is MIS / edge-coloring / matching; the
#: H-partition of Section 6 underlies them all), plus the related-work
#: rows that motivate the averaged *output* measure: ring leader
#: election (Feuilloley [12]) and crash-tolerant binary consensus
PROBLEM_KINDS = (
    "coloring",
    "edge-coloring",
    "mis",
    "matching",
    "partition",
    "leader-election",
    "consensus",
)


@dataclass(frozen=True)
class PaperRow:
    """Where an algorithm lives in the paper.

    ``table`` is 1 or 2 for the headline result tables, ``None`` for
    section-level results that the tables build on (Procedure Partition,
    the intermediate colorings of Sections 7.3/7.4).  ``row`` is the
    DESIGN.md experiment index (``T1.R5``) or a section reference
    (``S6.1``); ``ref`` is the theorem/corollary the row reproduces.
    """

    row: str
    label: str
    ref: str
    table: int | None = None

    def cite(self) -> str:
        """Short citable id: ``"T1.R5 (Theorem 7.13)"``."""
        return f"{self.row} ({self.ref})"


@dataclass(frozen=True)
class Instance:
    """The quantities the paper states palettes in, for one call at the
    drivers' defaults: eps = 1 and k = rho(n)."""

    n: int
    a: int | None
    delta: int
    id_space: int  # max ID + 1, as every network computes it

    @property
    def A(self) -> int:
        """The H-set degree bound (2 + eps) a."""
        from repro.core.common import degree_bound

        return degree_bound(self.a, 1.0)

    @property
    def k(self) -> int:
        from repro.analysis.logstar import rho

        return rho(self.n)

    @property
    def t(self) -> int:
        """The H-sets Theorem 9.2 colours by random trials."""
        from repro.analysis.logstar import ilog

        return max(1, floor(2 * ilog(self.n, 2)))

    @property
    def one_step(self) -> int:
        """Colours after one cover-free step from the IDs: O(A^2 log n)."""
        from repro.core.coverfree import colors_after_one_step

        return colors_after_one_step(self.id_space, self.A)

    @property
    def fixpoint(self) -> int:
        """The palette the iterated steps settle at: O(A^2)."""
        from repro.core.coverfree import fixpoint_palette

        return fixpoint_palette(self.A)


@dataclass(frozen=True)
class Claim:
    """What the paper promises for one row.

    ``avg`` is the vertex-averaged shape and ``baseline`` the prior
    work's worst-case shape, both names from
    :data:`repro.analysis.fitting.SHAPES`.  ``palette`` is the a-priori
    colour bound as a formula of the :class:`Instance`, written from the
    paper and independent of the drivers' own ``palette_bound`` code
    (``None`` when the paper states no closed form).
    """

    avg: str
    baseline: str = "O(log n)"
    palette: Callable[[Instance], int] | None = field(
        default=None, repr=False, compare=False
    )

    def palette_bound(self, g, a, ids) -> int | None:
        """The formula on one ``(graph, a, ids)`` call, or ``None``."""
        if self.palette is None:
            return None
        space = int(np.max(ids)) + 1 if ids is not None and len(ids) else max(g.n, 1)
        return self.palette(Instance(g.n, a, g.max_degree(), space))

    def fits(self, avg_fit=None, baseline_fit=None) -> bool:
        """Whether fitted series (:class:`repro.analysis.ShapeFit`) keep
        the claim at the n a sweep can reach.  There an O(1) claim is
        checked as at most O(log* n), and an O(log n) baseline as
        growing at least like O(log log n)."""
        ok = True
        if avg_fit is not None:
            most = "O(log* n)" if self.avg == "O(1)" else self.avg
            ok &= avg_fit.at_most(most)
        if baseline_fit is not None:
            least = "O(log log n)" if self.baseline == "O(log n)" else self.baseline
            ok &= baseline_fit.grows_at_least(least)
        return ok


@dataclass(frozen=True)
class DriverRef:
    """A lazily-resolved reference to a driver callable.

    ``func`` names an attribute of the top-level ``repro`` package;
    ``params`` are frozen default kwargs (e.g. ``worstcase_schedule=True``
    for the Table 2 baselines).  ``passes_a`` / ``passes_seed`` record
    which of the uniform ``(graph, a, ids, seed)`` call surface the
    underlying driver actually accepts.  ``fn`` bypasses the name lookup
    (tests inject broken drivers through it).
    """

    func: str = ""
    params: tuple[tuple[str, Any], ...] = ()
    passes_a: bool = True
    passes_seed: bool = False
    fn: Callable | None = field(default=None, repr=False, compare=False)

    @staticmethod
    def make(
        func: str = "",
        params: Mapping[str, Any] | None = None,
        passes_a: bool = True,
        passes_seed: bool = False,
        fn: Callable | None = None,
    ) -> "DriverRef":
        return DriverRef(
            func=func,
            params=tuple(sorted((params or {}).items())),
            passes_a=passes_a,
            passes_seed=passes_seed,
            fn=fn,
        )

    def resolve(self) -> Callable:
        """The uniform ``driver(graph, a, ids, seed)`` callable."""
        if self.fn is not None:
            target = self.fn
        else:
            import repro

            try:
                target = getattr(repro, self.func)
            except AttributeError:
                raise AttributeError(
                    f"driver {self.func!r} is not exported from repro"
                ) from None
        extra = dict(self.params)
        passes_a, passes_seed = self.passes_a, self.passes_seed

        def driver(g, a, ids, seed):
            kwargs = dict(extra)
            if passes_a:
                kwargs["a"] = a
            if passes_seed:
                kwargs["seed"] = seed
            return target(g, ids=ids, **kwargs)

        return driver


@dataclass(frozen=True)
class AlgorithmSpec:
    """One declarative row of the algorithm zoo.

    Fields
    ------
    name:
        The CLI / fuzzer / bench name (kebab-case).
    problem:
        One of :data:`PROBLEM_KINDS`; selects the full validator and the
        survivor-restricted safety check (see :mod:`repro.zoo.checks`).
    driver:
        The vertex-averaged algorithm itself.
    baseline:
        The worst-case-schedule driver the paper row compares against
        (``None`` when the paper states no baseline; such specs are
        excluded from ``repro compare``).
    paper_row:
        Table/row/theorem anchor (see :class:`PaperRow`).
    claim:
        The row's paper promise (see :class:`Claim`); every Table 1/2
        row states one (``check_registry``).
    randomized:
        Whether the driver draws randomness (its seed matters).
    crash_safe:
        Whether the algorithm participates in crash-stop fault fuzzing:
        survivor-subgraph safety is expected to hold under any crash-only
        plan (the ``repro fuzz --smoke`` CI gate).  The flag exists so an
        algorithm with documented crash-unsafety can opt out *visibly*
        (e.g. ``luby-mis``, whose bulk twin rejects fault injection).
    bulk_capable:
        Whether the driver has a columnar twin in
        ``repro.core.bulk.BULK_DRIVERS`` and therefore runs under
        ``execute(engine="bulk")``.  ``check_registry`` fails on any
        drift between this flag and the driver registry.  Bulk-capable
        or not, fault plans never combine with the bulk engine.
    workloads:
        Bench-workload names the algorithm is restricted to, or ``()``
        for "any workload".  Topology-bound algorithms (ring leader
        election) declare their topology here *once*; the fuzzer's case
        sampler and the test parametrizations honor the restriction, and
        ``check_registry`` fails on names missing from the bench
        registry.
    """

    name: str
    problem: str
    driver: DriverRef
    baseline: DriverRef | None = None
    paper_row: PaperRow | None = None
    claim: Claim | None = None
    randomized: bool = False
    crash_safe: bool = True
    bulk_capable: bool = False
    workloads: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.problem not in PROBLEM_KINDS:
            raise ValueError(
                f"unknown problem kind {self.problem!r} for spec "
                f"{self.name!r}; expected one of {PROBLEM_KINDS}"
            )

    @property
    def has_baseline(self) -> bool:
        return self.baseline is not None

    def run(self, g, a, ids: Sequence[int] | None, seed: int):
        """Run the averaged driver on the uniform call surface."""
        return self.driver.resolve()(g, a, ids, seed)

    def run_baseline(self, g, a, ids: Sequence[int] | None, seed: int):
        """Run the worst-case baseline driver."""
        if self.baseline is None:
            raise ValueError(f"spec {self.name!r} declares no baseline")
        return self.baseline.resolve()(g, a, ids, seed)

    def describe_row(self) -> str:
        """The paper anchor, or ``-`` when the spec has none."""
        return self.paper_row.cite() if self.paper_row else "-"
