"""``repro.zoo``: the declarative algorithm registry and its one
execution pipeline.

The paper's results are *per-problem rows* (Table 1: vertex colorings;
Table 2: MIS, edge-coloring, matching).  This package encodes that
taxonomy once:

* :mod:`repro.zoo.spec` -- :class:`AlgorithmSpec`: driver, problem kind,
  worst-case baseline, paper row (table / row id / theorem), the paper's
  claim (averaged and baseline shapes, palette formula), randomized and
  crash-safety flags, default parameters.
* :mod:`repro.zoo.registry` -- one spec per algorithm, typed views
  (:func:`all_specs`, :func:`with_baseline`, :func:`crash_safe`,
  :func:`by_problem`, :func:`by_table`) and the :func:`check_registry`
  consistency gate (``repro list --check``).
* :mod:`repro.zoo.checks` -- full validators and survivor-restricted
  safety checks keyed by problem kind.
* :mod:`repro.zoo.execute` -- :func:`execute`: engine selection, obs
  sinks, fault plans and validation threaded through a single seam.

Every consumer (CLI, fuzzer, bench tables, test parametrizations)
derives its algorithm list from here; see ``docs/architecture.md``.
"""

from repro.zoo.checks import (
    FULL_VALIDATORS,
    SURVIVOR_CHECKS,
    full_validator,
    survivor_check,
)
from repro.zoo.execute import Execution, execute
from repro.zoo.registry import (
    EXEMPT_DRIVERS,
    all_specs,
    by_problem,
    by_table,
    check_registry,
    crash_safe,
    get,
    names,
    randomized,
    register,
    unregister,
    with_baseline,
)
from repro.zoo.spec import (
    ENGINES,
    PROBLEM_KINDS,
    AlgorithmSpec,
    Claim,
    DriverRef,
    Instance,
    PaperRow,
)

__all__ = [
    "ENGINES",
    "EXEMPT_DRIVERS",
    "FULL_VALIDATORS",
    "PROBLEM_KINDS",
    "SURVIVOR_CHECKS",
    "AlgorithmSpec",
    "Claim",
    "DriverRef",
    "Execution",
    "Instance",
    "PaperRow",
    "all_specs",
    "by_problem",
    "by_table",
    "check_registry",
    "crash_safe",
    "execute",
    "full_validator",
    "get",
    "names",
    "randomized",
    "register",
    "survivor_check",
    "unregister",
    "with_baseline",
]
