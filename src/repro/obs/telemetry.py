"""Telemetry: run manifests and the timeline renderer.

This module is the structured side of the observability stack.  The
event layer (:mod:`repro.obs.events` / :mod:`repro.obs.sinks`) records
*what happened*; telemetry condenses it into two artifacts external
tooling can consume:

* a **run manifest** -- one JSON record per ``zoo.execute()`` capturing
  the run's identity (spec hash, workload, n, seed, fault-plan hash),
  its mechanics (engine, mode, env/dtype info), and a digest of its
  results (timing, metrics).  The identity fields are
  folded into a stable content-address :attr:`RunManifest.key`, which
  ``repro run`` and ``repro inspect`` print: two runs with the same key
  are the same experiment;

* a **timeline renderer** -- :func:`render_timeline` turns the
  per-phase timings a :class:`~repro.obs.profile.PhaseProfiler` recorded
  into the table ``repro inspect --timeline`` prints.

Manifests are written as JSON *lines* appended to
``<trace>.manifest.jsonl`` next to the event trace, and the reader
(:func:`read_manifests`) mirrors :func:`repro.obs.report.load_records`'s
crash tolerance: a torn final line (the writer died mid-record) is
discarded and flagged, while corruption earlier in the file is a hard
error.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from dataclasses import dataclass, field
from typing import Any, Mapping

MANIFEST_SCHEMA = 1

#: manifest files sit next to the trace: ``<trace>.manifest.jsonl``
MANIFEST_SUFFIX = ".manifest.jsonl"

def _canonical(obj: Any) -> str:
    """Canonical JSON: sorted keys, no whitespace, repr for strays."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)


def _digest(obj: Any) -> str:
    return hashlib.sha256(_canonical(obj).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
def spec_fingerprint(spec, baseline: bool = False) -> str:
    """Stable hash of an :class:`~repro.zoo.spec.AlgorithmSpec`'s identity.

    Covers what the algorithm *is* (name, problem, the driver function
    actually run -- the averaged one or, with ``baseline=True``, the
    worst-case baseline -- and its bound params, randomization), not
    presentation fields like the paper citation: a doc edit must not
    invalidate cached results.
    """
    driver = spec.baseline if baseline else spec.driver
    return _digest(
        {
            "name": spec.name,
            "problem": spec.problem,
            "baseline": baseline,
            "driver": driver.func,
            "params": list(driver.params),
            "passes_a": driver.passes_a,
            "passes_seed": driver.passes_seed,
            "randomized": spec.randomized,
        }
    )


def plan_fingerprint(plan) -> str:
    """Stable hash of a :class:`~repro.faults.plan.FaultPlan` (via its
    canonical ``to_dict``); empty string for no/empty plan."""
    if plan is None or plan.empty:
        return ""
    return _digest(plan.to_dict())


def runtime_env(graph=None) -> dict:
    """Interpreter / platform / dtype info for the manifest ``env`` block."""
    env: dict[str, Any] = {
        "python": platform.python_version(),
        "platform": sys.platform,
        "machine": platform.machine(),
    }
    try:
        import numpy

        env["numpy"] = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is baked in
        pass
    if graph is not None:
        # report which CSR index dtypes the run materialised without
        # forcing a build: peek at the graph's cache
        cached = getattr(graph, "_csr", None)
        if cached:
            env["csr_dtypes"] = sorted(cached)
    return env


# ----------------------------------------------------------------------
# run manifests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunManifest:
    """One run's identity, mechanics, and result digest.

    The **identity** fields (spec_hash, workload, n, seed,
    fault_plan_hash) are folded into :attr:`key` -- the content address:
    stable across repeat runs of the same experiment, different whenever
    any identity field differs.  Mechanics (engine, env) and results
    (timing, metrics, status) are recorded but deliberately kept *out*
    of the key: all engines are pinned bit-identical, so the same
    experiment on a different engine is the same result.

    The execution *mode* straddles the line: outputs and round counts
    are mode-invariant (asynchrony is an alpha-synchronizer),
    but an async run additionally measures virtual time under a specific
    link-delay model, so ``mode`` and ``delays`` join the identity
    **only when the mode is not "sync"** -- every key minted before the
    mode existed, and every future sync key, is byte-for-byte stable.
    """

    algo: str
    spec_hash: str
    workload: str
    n: int
    seed: int
    fault_plan_hash: str = ""
    engine: str = "fast"
    mode: str = "sync"
    delays: dict = field(default_factory=dict)
    baseline: bool = False
    env: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    status: str = "ok"
    schema: int = MANIFEST_SCHEMA

    @property
    def key(self) -> str:
        """sha256 content address over the identity fields only."""
        ident = {
            "spec": self.spec_hash,
            "workload": self.workload,
            "n": self.n,
            "seed": self.seed,
            "faults": self.fault_plan_hash,
        }
        if self.mode != "sync":
            ident["mode"] = self.mode
            ident["delays"] = self.delays
        return _digest(ident)

    def to_record(self) -> dict:
        return {
            "ev": "manifest",
            "schema": self.schema,
            "key": self.key,
            "algo": self.algo,
            "spec_hash": self.spec_hash,
            "workload": self.workload,
            "n": self.n,
            "seed": self.seed,
            "fault_plan_hash": self.fault_plan_hash,
            "engine": self.engine,
            "mode": self.mode,
            "delays": self.delays,
            "baseline": self.baseline,
            "env": self.env,
            "timing": self.timing,
            "metrics": self.metrics,
            "status": self.status,
        }

    @classmethod
    def from_record(cls, rec: Mapping) -> "RunManifest":
        """Rebuild from :meth:`to_record`'s shape; keys this class no
        longer carries (e.g. an old record's ``shards``) are ignored."""
        return cls(
            algo=rec["algo"],
            spec_hash=rec["spec_hash"],
            workload=rec["workload"],
            n=rec["n"],
            seed=rec["seed"],
            fault_plan_hash=rec.get("fault_plan_hash", ""),
            engine=rec.get("engine", "fast"),
            mode=rec.get("mode", "sync"),
            delays=dict(rec.get("delays", {})),
            baseline=rec.get("baseline", False),
            env=dict(rec.get("env", {})),
            timing=dict(rec.get("timing", {})),
            metrics=dict(rec.get("metrics", {})),
            status=rec.get("status", "ok"),
            schema=rec.get("schema", MANIFEST_SCHEMA),
        )


def build_manifest(
    spec,
    *,
    n: int,
    seed: int,
    workload: str = "",
    engine: str = "fast",
    mode: str = "sync",
    delays=None,
    baseline: bool = False,
    plan=None,
    graph=None,
    timing: Mapping | None = None,
    metrics: Mapping | None = None,
    status: str = "ok",
) -> RunManifest:
    """Assemble a :class:`RunManifest` from ``zoo.execute()``'s inputs.

    ``delays`` accepts the :class:`~repro.runtime.async_sched.DelaySpec`
    object itself (canonicalized via its ``to_dict``) or an
    already-serialized mapping.
    """
    if delays is None:
        delays_dict: dict = {}
    elif isinstance(delays, Mapping):
        delays_dict = dict(delays)
    else:
        delays_dict = delays.to_dict()
    return RunManifest(
        algo=spec.name + (":baseline" if baseline else ""),
        spec_hash=spec_fingerprint(spec, baseline=baseline),
        workload=workload or "",
        n=n,
        seed=seed,
        fault_plan_hash=plan_fingerprint(plan),
        engine=engine,
        mode=mode,
        delays=delays_dict,
        baseline=baseline,
        env=runtime_env(graph),
        timing=dict(timing or {}),
        metrics=dict(metrics or {}),
        status=status,
    )


def manifest_path(trace_path: str) -> str:
    """Where the manifest for a trace lives: ``<trace>.manifest.jsonl``."""
    return f"{trace_path}{MANIFEST_SUFFIX}"


def write_manifest(manifest: RunManifest, path: str) -> str:
    """Append one compact JSON line to ``path`` (flushed immediately).

    Appending (not truncating) makes re-runs against the same trace path
    accumulate a history; :func:`read_manifests` returns them in order.
    """
    line = json.dumps(
        manifest.to_record(), sort_keys=True, separators=(",", ":")
    )
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
        fh.flush()
    return path


def read_manifests(path: str) -> tuple[list[dict], bool]:
    """Read manifest records; tolerate a torn final line.

    Returns ``(records, truncated)``.  Mirroring
    :func:`repro.obs.report.load_records`: a final line that does not
    parse is taken as a write interrupted by a crash and discarded
    (``truncated`` = True); an unparseable line *before* the end means
    real corruption and raises :class:`ValueError`.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    records: list[dict] = []
    truncated = False
    for i, line in enumerate(lines):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                truncated = True
                break
            raise ValueError(
                f"{path}: corrupt manifest record on line {i + 1}"
            ) from None
        if isinstance(rec, dict):
            records.append(rec)
    return records, truncated


def latest_manifest(path: str) -> dict | None:
    """The most recent manifest record in ``path`` (None if empty)."""
    records, _ = read_manifests(path)
    return records[-1] if records else None


# ----------------------------------------------------------------------
# timeline renderer
# ----------------------------------------------------------------------
def render_timeline(timing: Mapping) -> str:
    """Render a manifest's ``timing`` block as the ``--timeline`` table.

    ``timing`` is the shape :meth:`PhaseProfiler.full_dict` produces
    (after a JSON round-trip): engine phases under ``"phases"``,
    wall-clock under ``"wall_s"``.
    """
    lines: list[str] = []
    wall = timing.get("wall_s")
    if wall is not None:
        lines.append(f"wall      {float(wall):>10.4f} s")
    phases = timing.get("phases") or {}
    if phases:
        total = sum(p.get("seconds", 0.0) for p in phases.values())
        lines.append(
            f"{'phase':<10} {'seconds':>10} {'count':>8} {'share':>7}"
        )
        for name, p in sorted(
            phases.items(), key=lambda kv: -kv[1].get("seconds", 0.0)
        ):
            secs = p.get("seconds", 0.0)
            share = (secs / total * 100.0) if total else 0.0
            lines.append(
                f"{name:<10} {secs:>10.4f} {p.get('count', 0):>8} "
                f"{share:>6.1f}%"
            )
    if not lines:
        return "no timing recorded (run with --profile)"
    return "\n".join(lines)
