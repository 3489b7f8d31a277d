"""The one execution seam: ``execute(spec, graph, ...)``.

Before this module existed every caller re-wired the same concerns by
hand: the CLI stacked event-bus and fault sessions and validator lookups
around its lambda tables, the fault harness had its own copy, and bench
scripts a third.  :func:`execute` threads all of it through one pipeline:

* **one run session** -- the driver runs inside one
  :func:`repro.runtime.session.session` that sets the engine
  (``"fast"``, ``"reference"`` or ``"bulk"``), the mode and link delays,
  and the fault adversary, so no setting of an enclosing session leaks
  into the run; the spec-driven path can replay any algorithm on the
  executable specification engine without touching driver code;
* **observability** -- ``trace`` records the run's typed event stream to
  a JSONL file (``repro inspect`` reads it back), ``profile`` attaches a
  :class:`repro.obs.PhaseProfiler`; either puts the run's own bus in the
  session, otherwise an enclosing session's bus hears the run;
* **fault injection** -- ``faults`` compiles a
  :class:`repro.faults.FaultPlan` into a seeded injector for the run and
  reports who crashed; the non-termination watchdog is caught and
  surfaced as :attr:`Execution.watchdog` instead of a traceback;
* **validation** -- :meth:`Execution.validate` picks the full validator
  on clean runs and the survivor-restricted safety check under an active
  fault plan, both keyed by the spec's problem kind; clean runs are also
  held to the palette the spec's :class:`~repro.zoo.spec.Claim` allows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.runtime.session import RunSession, session
from repro.verify import VerificationError
from repro.zoo.checks import full_validator, survivor_check
from repro.zoo.registry import get
from repro.zoo.spec import AlgorithmSpec


@dataclass
class Execution:
    """What one :func:`execute` call produced."""

    spec: AlgorithmSpec
    engine: str
    mode: str = "sync"
    result: Any = None
    crashed: tuple[int, ...] = ()
    plan: Any = None  # the FaultPlan actually injected, or None
    profiler: Any = None  # PhaseProfiler when profile=True
    watchdog: Exception | None = None  # RoundLimitExceeded, if it fired
    error: BaseException | None = None  # captured driver exception
    manifest: Any = None  # RunManifest, always built (see telemetry)
    palette_claim: int | None = None  # the claim's colour bound, if any

    @property
    def completed(self) -> bool:
        return self.watchdog is None and self.error is None

    @property
    def faulted(self) -> bool:
        """Whether a non-empty fault plan was injected into the run."""
        return self.plan is not None

    def alive(self, g) -> set[int]:
        """The surviving vertices of ``g`` under this execution."""
        return set(g.vertices()) - set(self.crashed)

    def validate(self, g) -> str:
        """Validate the solution; returns a one-line summary.

        Fault-free runs get the full problem validator, and may use at
        most :attr:`palette_claim` colours; runs under an active fault
        plan get the survivor-restricted safety check (completeness
        around crashed vertices is legitimately lost).
        Raises :class:`repro.verify.VerificationError` on failure and
        ``RuntimeError`` when there is no result to validate.
        """
        if not self.completed:
            raise RuntimeError(
                f"cannot validate a run that did not complete "
                f"({'watchdog fired' if self.watchdog else self.error})"
            )
        if not self.faulted:
            summary = full_validator(self.spec.problem)(g, self.result)
            cap = self.palette_claim
            if cap is not None and self.result.colors_used > cap:
                raise VerificationError(
                    f"{self.result.colors_used} colors exceed the "
                    f"{cap} that {self.spec.name}'s claim allows"
                )
            return summary
        live = np.ones(g.n, dtype=bool)
        crashed = np.array(self.crashed, dtype=np.int64)
        live[crashed[(crashed >= 0) & (crashed < g.n)]] = False
        survivor_check(self.spec.problem)(g, self.result, live)
        return (
            f"survivor-safety OK on {int(np.count_nonzero(live))}/{g.n} "
            f"surviving vertices (crashed: {_listed(self.crashed)})"
        )


#: how many crashed IDs a survivor summary lists before it abbreviates
LISTED_IDS = 10


def _listed(vertices) -> str:
    """``[3, 5]``, or the count and the lowest :data:`LISTED_IDS` IDs of a
    longer list, so a summary stays one short line at any n."""
    if not vertices:
        return "none"
    ids = sorted(vertices)
    if len(ids) <= LISTED_IDS:
        return str(ids)
    return f"{len(ids)} vertices, lowest {LISTED_IDS}: {ids[:LISTED_IDS]}"


def execute(
    spec: AlgorithmSpec | str,
    graph,
    a: int | None = None,
    ids: Sequence[int] | None = None,
    seed: int = 0,
    *,
    baseline: bool = False,
    engine: str = "fast",
    mode: str = "sync",
    delays=None,
    faults=None,
    trace: str | None = None,
    trace_meta: dict | None = None,
    profile: bool = False,
    capture_errors: bool = False,
) -> Execution:
    """Run one registered algorithm through the unified pipeline.

    Parameters
    ----------
    spec:
        An :class:`AlgorithmSpec` or a registry name.
    graph, a, ids, seed:
        The uniform driver surface: instance, arboricity bound, ID
        assignment (``None`` = identity), randomness seed.
    baseline:
        Run the spec's worst-case baseline driver instead of the
        averaged algorithm.
    engine:
        ``"fast"`` (default), ``"reference"`` or ``"bulk"`` -- selects
        the round engine for every network the driver builds.
    mode:
        ``"sync"`` (default, the global-round barrier) or ``"async"``
        (seeded per-edge link delays, no global round: the same run
        followed by the timing pass of
        :mod:`repro.runtime.async_sched`, on any engine).  Outputs and
        round counts are mode-invariant; async runs additionally report
        virtual-time metrics on results that carry a ``times`` field.
    delays:
        A :class:`repro.runtime.async_sched.DelaySpec` selecting the
        link-delay distribution for ``mode="async"`` (``None`` = fixed
        unit delays).  Rejected in sync mode.
    faults:
        A :class:`repro.faults.FaultPlan` to inject (``None`` or an
        empty plan = fault-free).
    trace:
        Path for a JSONL event trace (``repro inspect`` reads it).
    trace_meta:
        Extra metadata for the trace header (merged over the defaults).
    profile:
        Attach a per-phase engine profiler (``.profiler.report()``).
    capture_errors:
        Return driver exceptions on :attr:`Execution.error` instead of
        raising (the fault harness classifies them as ``error``
        outcomes).  The non-termination watchdog is always captured.
    """
    if isinstance(spec, str):
        spec = get(spec)
    # the session's checks of engine, mode and delays, before a trace
    # file is opened
    RunSession(engine=engine, mode=mode, delays=delays)

    from repro import obs
    from repro.runtime import RoundLimitExceeded

    driver = (spec.baseline if baseline else spec.driver)
    if driver is None:
        raise ValueError(f"spec {spec.name!r} declares no baseline")
    run = driver.resolve()

    plan = faults
    if plan is not None and plan.empty:
        plan = None

    if engine == "bulk":
        if not spec.bulk_capable or baseline:
            from repro.zoo.registry import all_specs

            capable = [s.name for s in all_specs() if s.bulk_capable]
            what = f"the {spec.name!r} baseline" if baseline else repr(spec.name)
            raise ValueError(
                f"{what} has no bulk driver; engine='bulk' is available "
                f"for: {capable}"
            )
        # Fault plans are fine on the bulk engine: every bulk kernel
        # (repro.core.bulk) re-derives the adversary from the pure
        # counter-based draws; only duplicate/delay plans are rejected
        # (BulkUnsupported), as they need multi-round buffering.

    fields: dict = {
        "engine": engine, "mode": mode, "delays": delays, "faults": plan
    }
    bus = None
    profiler = obs.PhaseProfiler() if profile else None
    if trace or profiler is not None:
        sinks = []
        if trace:
            meta = {
                "algo": spec.name + (":baseline" if baseline else ""),
                "engine": engine,
                "n": graph.n,
                "seed": seed,
            }
            meta.update(trace_meta or {})
            sinks.append(obs.JsonlSink(trace, meta=meta))
        bus = fields["bus"] = obs.EventBus(*sinks, profiler=profiler)

    ex = Execution(
        spec=spec, engine=engine, mode=mode, plan=plan, profiler=profiler
    )

    from time import perf_counter

    t0 = perf_counter()
    with session(**fields) as rs:
        try:
            ex.result = run(graph, a, ids, seed)
        except RoundLimitExceeded as e:
            ex.watchdog = e
        except Exception as e:  # noqa: BLE001 - classification is the point
            if not capture_errors:
                raise
            ex.error = e
        finally:
            if rs.injector is not None:
                ex.crashed = tuple(sorted(rs.injector.crashed))
            if bus is not None:
                bus.close()
    wall = perf_counter() - t0
    if ex.completed and not baseline and spec.claim is not None:
        ex.palette_claim = spec.claim.palette_bound(graph, a, ids)

    # Every execution gets a manifest; runs that wrote a trace also get
    # it persisted next to the trace (<trace>.manifest.jsonl) so
    # `repro inspect` can read it back.
    from repro.obs import telemetry

    timing: dict = {"wall_s": round(wall, 6)}
    if profiler is not None:
        timing.update(profiler.full_dict())
    metrics_digest: dict = {}
    m = getattr(ex.result, "metrics", None)
    if m is not None:
        metrics_digest = {
            "rounds": len(m.active_trace),
            "vertex_averaged": m.vertex_averaged,
            "worst_case": m.worst_case,
            "total_messages": m.total_messages,
        }
    t = getattr(ex.result, "times", None)
    if t is not None:
        metrics_digest["vertex_averaged_time"] = t.vertex_averaged_time
        metrics_digest["worst_case_time"] = t.worst_case_time
        metrics_digest["averaged_output_time"] = t.averaged_output_time
    if ex.crashed:
        metrics_digest["crashed"] = len(ex.crashed)
    status = "ok" if ex.completed else ("watchdog" if ex.watchdog else "error")
    ex.manifest = telemetry.build_manifest(
        spec,
        n=graph.n,
        seed=seed,
        workload=(trace_meta or {}).get("workload", ""),
        engine=engine,
        mode=mode,
        delays=delays,
        baseline=baseline,
        plan=plan,
        graph=graph,
        timing=timing,
        metrics=metrics_digest,
        status=status,
    )
    if trace:
        telemetry.write_manifest(ex.manifest, telemetry.manifest_path(trace))
    return ex
