"""``repro.faults``: seeded fault adversaries and the self-checking harness.

Three layers:

* :mod:`repro.faults.plan` -- the adversary itself: a composable,
  serialisable :class:`FaultPlan` (crash-stop vertices, message
  drop/duplication/delay) compiled into the :class:`FaultInjector` both
  engines drive at their deliver/route boundary, emitting typed
  ``fault_*`` events on the :mod:`repro.obs` bus.
* :mod:`repro.faults.harness` -- run an algorithm driver under a plan and
  *classify* what happened: output valid on the surviving subgraph
  (safety checks via :mod:`repro.verify`), violation detected,
  non-termination caught by the :class:`~repro.runtime.network
  .RoundLimitExceeded` watchdog, or driver error.  Plus a greedy shrinker
  and replayable JSON artifacts.
* :mod:`repro.faults.fuzz` -- the ``repro fuzz`` CLI backend: randomly
  sample (algorithm x workload x fault plan) triples, shrink every
  failure to a minimal seed-triple reproduction, write it as an artifact.

Quick use::

    from repro import faults
    from repro.runtime.session import session

    plan = faults.FaultPlan(seed=7, crashes=faults.CrashSpec(hazard=0.01))
    with session(faults=plan) as run:
        res = repro.run_partition(g, a=3)      # both phases see the plan
    run.injector.crashed                       # who the adversary killed

See ``docs/faults.md`` for the fault model and its determinism contract.
"""

from repro.faults.plan import (
    CrashSpec,
    FaultInjector,
    FaultPlan,
    MessageFaults,
)
from repro.faults.harness import (
    OUTCOME_ERROR,
    OUTCOME_NONTERMINATION,
    OUTCOME_VALID,
    OUTCOME_VIOLATION,
    FaultOutcome,
    FuzzCase,
    load_artifact,
    replay_artifact,
    run_case,
    shrink_case,
    write_artifact,
)

__all__ = [
    "CrashSpec",
    "FaultInjector",
    "FaultOutcome",
    "FaultPlan",
    "FuzzCase",
    "MessageFaults",
    "OUTCOME_ERROR",
    "OUTCOME_NONTERMINATION",
    "OUTCOME_VALID",
    "OUTCOME_VIOLATION",
    "load_artifact",
    "replay_artifact",
    "run_case",
    "shrink_case",
    "write_artifact",
]
