#!/usr/bin/env python3
"""End-to-end benchmark: build a workload, run every cell, validate it and
write its manifest, and report the time and memory of the whole pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload bulk-det --seed 1 --seconds 20 --trace 0

One run is one process.  After an untimed warm-up pass on tiny inputs it
repeats, until ``--seconds`` have elapsed: build the workload's inputs
(``setup_s`` is the median build), then run every cell once (a pass;
closed loop: each cell starts when the previous one has been validated
and its manifest written).  ``solve_s`` is the median pass.

Both times are given at the reference host speed: a fixed speed probe
that calls no ``repro`` code is timed before the set-up, between the
cells and after the pass, and each cycle's times are scaled by
``PROBE_REF_S`` over the cycle's mean probe time, so that drift in the
host's speed between and within runs cancels.  The times as
measured are printed too.

``--trace 1`` alternates untraced and traced passes.  Traced passes
record a span around every call into a layer (``graphs``, ``zoo``,
``verify``, ``obs``) with the engine's ``PhaseProfiler`` phases as child
spans, and report the per-layer ledger; the spans are written to
``perfbench/out/spans/`` at the end.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("bulk-det", "bulk-rand", "fast-zoo")
SETUP_SLOT_S = 0.2  # set-up before each pass repeats until this much is measured ...
SETUP_SLOT_MAX = 20  # ... or this many builds
MIN_PASSES = 3  # untraced passes per run, whatever --seconds says

END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}

#: The speed probe's time on the reference host (NOTES.md), in seconds.
PROBE_REF_S = 0.00295
PROBE_REPS = 2  # probe samples taken at each point of a cycle, after one untimed run

#: The per-layer metrics of the traced run's JSON line: those that every
#: workload measures.  Engine phases that only one engine has (kernel /
#: finalize on bulk, step / deliver / route and async on fast) are in the
#: printed ledger and the span file instead.
PER_LAYER = {
    "graphs.generate_s": "s",
    "graphs.generate_cpu_s": "s",
    "graphs.csr_s": "s",
    "graphs.ids_s": "s",
    "graphs.csr_bytes": "bytes",
    "zoo.execute_s": "s",
    "zoo.execute_cpu_s": "s",
    "zoo.self_s": "s",
    "zoo.execute_s.partition": "s",
    "runtime.engine_s": "s",
    "runtime.messages": "count",
    "runtime.round_sum": "count",
    "runtime.messages_per_s": "1/s",
    "faults.crashed": "count",
    "verify.validate_s": "s",
    "verify.validate_cpu_s": "s",
    "verify.validate_s.partition": "s",
    "verify.rss_delta_mb": "MB",
    "obs.manifest_write_s": "s",
    "obs.manifest_bytes": "bytes",
    "process.cpu_s": "s",
    "process.cpu_per_wall": "ratio",
    "core.vertex_averaged": "rounds",
    "core.worst_case": "rounds",
    "trace.overhead_pct": "%",
}

#: PhaseProfiler phase -> the layer that owns it
PHASE_LAYER = {"kernel": "core"}


def rss_mb() -> float:
    """Current resident set size in MB."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class Ledger:
    """Spans kept in memory: name, start, end, CPU, parent, cell, pass."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.pass_no = -1

    @contextmanager
    def span(self, name: str, cell: str | None = None):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "cell": cell,
            "pass": self.pass_no,
            "start": perf_counter(),
        }
        cpu0 = process_time()
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = perf_counter()
            rec["cpu"] = process_time() - cpu0

    def phases(self, parent: dict, profiler) -> None:
        """Add the profiler's phase totals as child spans of ``parent``.

        The profiler keeps totals, not intervals, so the children are laid
        end to end from the parent's start.
        """
        t = parent["start"]
        for phase, row in profiler.as_dict().items():
            layer = PHASE_LAYER.get(phase, "runtime")
            self.spans.append(
                {
                    "id": len(self.spans),
                    "name": f"{layer}.{phase}",
                    "parent": parent["id"],
                    "cell": parent["cell"],
                    "pass": self.pass_no,
                    "start": t,
                    "end": t + row["seconds"],
                    "phase": True,
                }
            )
            t += row["seconds"]

    def of_pass(self, k: int) -> list[dict]:
        return [s for s in self.spans if s["pass"] == k]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


class SpeedProbe:
    """A fixed piece of work that calls no ``repro`` code: interpreter
    bytecode (integer arithmetic and dict stores, like the simulator's
    Python layers) and numpy passes over 8 MB arrays (like the bulk
    kernels and generators).  Its time says how fast the host runs now.

    ``sample()`` runs it once untimed, so that the cells before it have
    not left its data out of cache, then times it PROBE_REPS times;
    ``take()`` returns the mean of the samples since the last ``take()``:
    the mean, not the median, because a pass is slowed by the host's
    average speed over it, and interference from other tenants comes in
    bursts shorter than a pass.
    """

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        self.a = np.arange(1 << 20, dtype=np.int64)
        self.b = np.empty_like(self.a)
        self.samples: list[float] = []

    def _work(self) -> int:
        acc, d = 0, {}
        for r in range(10):
            for i in range(2000):
                acc += (i * 7) ^ r
                d[i] = acc
        for r in range(2):
            self.np.add(self.a, r, out=self.b)
        return acc + int(self.b[-1])

    def sample(self) -> None:
        self._work()
        for _ in range(PROBE_REPS):
            t = perf_counter()
            self._work()
            self.samples.append(perf_counter() - t)

    def take(self) -> float:
        m = statistics.mean(self.samples)
        self.samples = []
        return m


def _nospan(name: str, cell: str | None = None):
    return nullcontext({})


def run_cell(wl, cell, ledger: Ledger | None, manifest_path: Path) -> dict:
    """One cell: execute -> validate -> manifest."""
    import workloads
    from repro import zoo
    from repro.obs import telemetry

    span = ledger.span if ledger is not None else _nospan
    inp = wl.inputs[cell.input]
    out: dict = {"label": cell.label, "algo": cell.algo, "mode": cell.mode, "error": None}
    g = inp.graph
    with span("bench.cell", cell.label):
        with span("zoo.execute", cell.label) as rec:
            ex = zoo.execute(
                cell.spec,
                g,
                workloads.A,
                inp.ids,
                cell.seed,
                engine=cell.engine,
                mode=cell.mode,
                delays=cell.delays,
                faults=wl.plans.get(cell.plan) if cell.plan else None,
                trace_meta={"workload": wl.name},
                profile=ledger is not None,
                capture_errors=True,
            )
        if ledger is not None:
            ledger.phases(rec, ex.profiler)
        if ex.watchdog is not None:
            out["error"] = f"watchdog: {ex.watchdog}"
        elif ex.error is not None:
            out["error"] = f"{type(ex.error).__name__}: {ex.error}"
        else:
            rss0 = rss_mb() if ledger is not None else 0.0
            with span("verify.validate", cell.label):
                try:
                    if cell.check is not None:
                        cell.check(g, ex)
                    else:
                        ex.validate(g)
                except Exception as e:  # noqa: BLE001 - any failure fails the cell
                    out["error"] = f"{type(e).__name__}: {e}"
            if ledger is not None:
                out["rss_delta_mb"] = rss_mb() - rss0
        size0 = manifest_path.stat().st_size if manifest_path.exists() else 0
        with span("obs.manifest_write", cell.label):
            telemetry.write_manifest(ex.manifest, str(manifest_path))
        out["manifest_bytes"] = manifest_path.stat().st_size - size0
    m = getattr(ex.result, "metrics", None)
    out["digest"] = (
        None
        if m is None
        else [m.vertex_averaged, m.worst_case, m.round_sum, m.total_messages, len(ex.crashed)]
    )
    return out


def setup(args, builds: list[dict], ledger: Ledger | None):
    """Build the inputs for the next pass.

    Builds at least once and until SETUP_SLOT_S of set-up has been
    measured, so that tiny set-ups still give a steady median; each
    build is one ``setup_s`` sample and the last one is returned.
    """
    import workloads

    spent, wl, reps = 0.0, None, 0
    while wl is None or (spent < SETUP_SLOT_S and reps < SETUP_SLOT_MAX):
        wl = None
        gc.collect()
        stages: dict[str, float] = {}

        def stage(name, fn):
            with ledger.span(name, "setup") if ledger is not None else nullcontext():
                t, c = perf_counter(), process_time()
                r = fn()
                stages[f"{name}_s"] = stages.get(f"{name}_s", 0.0) + perf_counter() - t
                stages[f"{name}_cpu_s"] = stages.get(f"{name}_cpu_s", 0.0) + process_time() - c
            return r

        t0 = perf_counter()
        wl = workloads.build(args.workload, args.seed, stage)
        stages["setup_s"] = perf_counter() - t0
        builds.append(stages)
        spent += stages["setup_s"]
        reps += 1
    return wl


def run_pass(wl, ledger: Ledger | None, manifest_path: Path, probe: SpeedProbe) -> dict:
    """Every cell once, with probe samples between the cells; the pass's
    wall and CPU time are its cells' alone."""
    gc.collect()
    wall = cpu = 0.0
    cells = []
    for cell in wl.cells:
        probe.sample()
        t0, c0 = perf_counter(), process_time()
        cells.append(run_cell(wl, cell, ledger, manifest_path))
        wall += perf_counter() - t0
        cpu += process_time() - c0
    probe.sample()
    return {"wall": wall, "cpu": cpu, "cells": cells}


def layer_metrics(spans: list[dict], p: dict) -> dict[str, float]:
    """The per-layer ledger of one traced pass."""
    tot: dict[str, float] = {}

    def add(key: str, v: float) -> None:
        tot[key] = tot.get(key, 0.0) + v

    cells = {c["label"]: c for c in p["cells"]}
    child: dict[int, float] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + dur
    for s in spans:
        if s["cell"] == "setup":
            continue
        dur = s["end"] - s["start"]
        name = s["name"]
        add(f"{name.split('.')[0]}.self_s", dur - child.get(s["id"], 0.0))
        if s.get("phase"):
            add(f"{name}_s", dur)
            add("runtime.engine_s", dur)
            continue
        if name == "bench.cell":
            continue
        add(f"{name}_s", dur)
        add(f"{name}_cpu_s", s["cpu"])
        if name in ("zoo.execute", "verify.validate"):
            cell = cells[s["cell"]]
            add(f"{name}_s.{cell['algo']}", dur)
            if cell["label"] != cell["algo"]:
                add(f"{name}_s.{cell['label']}", dur)
            if name == "zoo.execute" and cell["mode"] == "async":
                add("runtime.async_s", dur)
    for c in p["cells"]:
        d = c["digest"] or [0.0, 0, 0, 0, 0]
        add("core.vertex_averaged", d[0])
        add("core.worst_case", d[1])
        add("runtime.round_sum", d[2])
        add("runtime.messages", d[3])
        add("faults.crashed", d[4])
        add("verify.rss_delta_mb", c.get("rss_delta_mb", 0.0))
        add("obs.manifest_bytes", c["manifest_bytes"])
    tot["runtime.messages_per_s"] = tot["runtime.messages"] / tot["zoo.execute_s"]
    tot["process.cpu_s"] = p["cpu"]
    tot["process.cpu_per_wall"] = p["cpu"] / p["wall"]
    return tot


def source_hash() -> str:
    """Hash of the package and benchmark sources: one value per commit."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "repro").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def check_digests(workload: str, seed: int, passes: list[dict]) -> list[str]:
    """Determinism: every pass, and every earlier run of this commit on this
    seed, must give each cell the same (vertex_averaged, worst_case,
    round_sum, total_messages, crashed) digest."""
    problems = []
    first = {c["label"]: c["digest"] for c in passes[0]["cells"]}
    for k, p in enumerate(passes[1:], 1):
        for c in p["cells"]:
            if c["digest"] != first[c["label"]]:
                problems.append(f"pass {k} cell {c['label']}: {c['digest']} != {first[c['label']]}")
    path = OUT / "digests" / source_hash() / f"{workload}-seed{seed}.json"
    if path.exists():
        before = json.loads(path.read_text())
        for label, d in first.items():
            if before.get(label) != d:
                problems.append(f"cell {label}: {d} != {before.get(label)} from an earlier run")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(first, sort_keys=True))
    return problems


def check_manifests(path: Path, expected: int) -> list[str]:
    """Every cell's manifest is on disk, readable, and one line each."""
    from repro.obs import telemetry

    records, truncated = telemetry.read_manifests(str(path))
    if truncated or len(records) != expected:
        return [f"{path.name}: {len(records)} manifests read back, {expected} written"]
    return []


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    OUT.mkdir(exist_ok=True)
    manifest_path = OUT / "manifests" / f"{args.workload}-seed{args.seed}-{os.getpid()}.jsonl"
    manifest_path.parent.mkdir(exist_ok=True)
    manifest_path.unlink(missing_ok=True)

    # Untimed warm-up: every cell once on tiny inputs.
    tiny = workloads.build(args.workload, args.seed, lambda _n, fn: fn(), workloads.WARMUP_SIZES)
    probe = SpeedProbe()
    warm = run_pass(tiny, None, manifest_path, probe)
    probe.take()
    written = len(warm["cells"])
    problems = [f"warm-up cell {c['label']}: {c['error']}" for c in warm["cells"] if c["error"]]
    del tiny, warm

    # Closed loop: fresh set-up, then one pass over every cell, while the
    # next cycle (estimated by the last one) still ends before the
    # deadline.  With --trace 1 every other pass is traced.
    ledger = Ledger() if args.trace else None
    builds: list[dict] = []
    passes: list[dict] = []
    traced: list[dict] = []
    probes: list[float] = []  # mean probe time of each cycle
    deadline = perf_counter() + args.seconds
    k, cycle = 0, 0.0
    while (
        len(passes) < MIN_PASSES
        or (args.trace and len(traced) < 2)
        or perf_counter() + cycle <= deadline
    ):
        t0 = perf_counter()
        trace_this = bool(args.trace and k % 2 == 1)
        if ledger is not None:
            ledger.pass_no = k
        wl = None  # drop the previous pass's inputs before building anew
        first = len(builds)
        probe.sample()
        wl = setup(args, builds, ledger)
        p = run_pass(wl, ledger if trace_this else None, manifest_path, probe)
        probes.append(probe.take())
        scale = PROBE_REF_S / probes[-1]
        for b in builds[first:]:
            b["scale"] = scale
        p["k"], p["scale"] = k, scale
        (traced if trace_this else passes).append(p)
        k += 1
        cycle = perf_counter() - t0
    everything = passes + traced
    attempted = sum(len(p["cells"]) for p in everything)
    written += attempted
    failures = [
        f"pass {p['k']} cell {c['label']}: {c['error']}"
        for p in everything
        for c in p["cells"]
        if c["error"]
    ]
    problems += check_digests(args.workload, args.seed, everything)
    problems += check_manifests(manifest_path, written)
    manifest_path.unlink(missing_ok=True)

    med = statistics.median
    metrics = {
        "setup_s": med(b["setup_s"] * b["scale"] for b in builds),
        "solve_s": med(p["wall"] * p["scale"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_setup = med(b["setup_s"] for b in builds)
    raw_solve = med(p["wall"] for p in passes)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  setup_s      {metrics['setup_s']:.4f} s   (median of {len(builds)} set-ups;"
          f" {raw_setup:.4f} s as measured)")
    print(f"  solve_s      {metrics['solve_s']:.4f} s   (median of {len(passes)} untraced passes;"
          f" {raw_solve:.4f} s as measured)")
    print(f"  probe        {med(probes) * 1e3:.3f} ms  (median of {len(probes)} cycles;"
          f" reference {PROBE_REF_S * 1e3:.3f} ms)")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB")
    print(f"  failed/attempted  {len(failures)}/{attempted}")
    for line in failures[:20] + problems[:20]:
        print(f"  FAIL {line}")

    if args.trace:
        setup_keys = ("graphs.generate", "graphs.csr", "graphs.ids", "faults.plan")
        ledger_rows: dict[str, float] = {}
        for key in setup_keys:
            for suffix in ("_s", "_cpu_s"):
                vals = [b.get(key + suffix, 0.0) for b in builds]
                ledger_rows[key + suffix] = med(vals)
        ledger_rows["graphs.csr_bytes"] = float(sum(i.csr_bytes() for i in wl.inputs.values()))
        per_pass = [layer_metrics(ledger.of_pass(p["k"]), p) for p in traced]
        keys = sorted(set().union(*per_pass))
        for key in keys:
            ledger_rows[key] = med(pp.get(key, 0.0) for pp in per_pass)
        ledger_rows["trace.overhead_pct"] = 100.0 * (
            med(p["wall"] * p["scale"] for p in traced) / metrics["solve_s"] - 1.0
        )
        print(f"  per-layer ledger (median of {len(traced)} traced passes):")
        for key in sorted(ledger_rows):
            print(f"    {key:34s} {ledger_rows[key]:.6g}")
        ledger.dump(OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
        report = {name: (ledger_rows[name], unit) for name, unit in PER_LAYER.items()}
    else:
        report = {name: (metrics[name], unit) for name, unit in END_TO_END.items()}

    print(
        json.dumps(
            {
                "correct": not failures and not problems,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
