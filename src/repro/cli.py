"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``      the algorithm registry (one row per :class:`~repro.zoo
              .AlgorithmSpec`: problem kind, paper row, baseline,
              flags) and the workload registry; ``--check`` is the
              registry-consistency CI gate.
``run``       run one algorithm on a workload, validate the solution and
              print the round accounting; ``--trace-out`` records a JSONL
              event trace, ``--profile`` prints engine phase timings,
              ``--engine reference`` replays on the specification engine.
``compare``   run an averaged algorithm and its worst-case baseline over an
              n-sweep and print the paper-table-shaped comparison;
              ``--all`` emits every Table 1/2 row the registry declares.
``inspect``   load a JSONL event trace: round narrative, active-vertex
              decay table, trace-vs-trace diffs, and ``--timeline`` --
              the per-phase timing breakdown from the run's manifest
              (``<trace>.manifest.jsonl``).
``fuzz``      sample (algorithm x workload x fault plan) triples, run each
              under the seeded fault adversary, shrink violations to
              minimal replayable artifacts; ``--smoke`` is the CI gate.

All algorithm choices derive from :mod:`repro.zoo`; this module holds no
algorithm tables of its own.
"""

from __future__ import annotations

import argparse
import sys

from repro import zoo
from repro.bench import WORKLOADS, make_workload, paper_tables, render_spec_comparison
from repro.graphs import generators as gen
from repro.obs import report as obs_report
from repro.runtime import DELAY_DISTS, ENGINES, MODES


def build_parser() -> argparse.ArgumentParser:
    """The argparse CLI definition (choices come from the registry)."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="Distributed symmetry-breaking with improved "
        "vertex-averaged complexity (Barenboim & Tzur, SPAA 2018)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ls = sub.add_parser("list", help="list algorithms and workloads")
    ls.add_argument(
        "--check",
        action="store_true",
        help="CI gate: exit non-zero on any registry/CLI/fuzz/baseline "
        "inconsistency or unregistered driver",
    )

    run = sub.add_parser("run", help="run one algorithm and print metrics")
    run.add_argument("algorithm", choices=zoo.names())
    run.add_argument("-n", type=int, default=2000, help="vertex count")
    run.add_argument(
        "--workload", default="forest_union_a3", choices=sorted(WORKLOADS)
    )
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--engine",
        default="fast",
        choices=ENGINES,
        help="round engine: the optimised fast path (default), the "
        "reference executable specification, or the columnar bulk "
        "engine (bulk-capable algorithms only)",
    )
    run.add_argument(
        "--mode",
        default="sync",
        choices=MODES,
        help="execution mode: the synchronous global-round barrier "
        "(default) or asynchrony under seeded per-edge link delays "
        "(outputs are identical; async additionally reports "
        "virtual-time metrics)",
    )
    run.add_argument(
        "--delay-dist",
        default=None,
        choices=DELAY_DISTS,
        help="link-delay distribution for --mode async "
        "(default: fixed unit delays)",
    )
    run.add_argument(
        "--delay-scale",
        type=float,
        default=1.0,
        metavar="S",
        help="mean link delay for --delay-dist (default 1.0)",
    )
    run.add_argument(
        "--delay-seed",
        type=int,
        default=0,
        metavar="K",
        help="seed of the per-edge delay draws (default 0)",
    )
    run.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="record the run's engine events to a JSONL trace "
        "(inspect it with `repro inspect PATH`)",
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help="print per-phase engine wall-clock timings",
    )
    run.add_argument(
        "--faults",
        default=None,
        metavar="JSON",
        help="inject a fault plan: inline JSON or @path to a JSON file, "
        'e.g. \'{"seed": 7, "crashes": {"hazard": 0.01}}\'; validation '
        "is restricted to the surviving subgraph",
    )

    cmp_ = sub.add_parser(
        "compare", help="averaged algorithm vs worst-case baseline over an n-sweep"
    )
    cmp_.add_argument(
        "algorithm",
        nargs="?",
        default=None,
        choices=tuple(s.name for s in zoo.with_baseline()),
    )
    cmp_.add_argument(
        "--all",
        action="store_true",
        dest="all_rows",
        help="emit every registered Table 1/2 row as a paper-shaped table",
    )
    cmp_.add_argument(
        "--workload", default="forest_union_a3", choices=sorted(WORKLOADS)
    )
    cmp_.add_argument(
        "--sweep",
        default="500,1000,2000,4000",
        help="comma-separated n values",
    )
    cmp_.add_argument("--seeds", type=int, default=2)

    ins = sub.add_parser(
        "inspect", help="analyze a JSONL event trace written by --trace-out"
    )
    ins.add_argument("trace", help="path to the JSONL trace")
    ins.add_argument(
        "--limit", type=int, default=50, help="rounds shown in the narrative"
    )
    ins.add_argument(
        "--decay",
        action="store_true",
        help="print the active-vertex decay table (the Lemma 6.1 shape)",
    )
    ins.add_argument(
        "--diff",
        default=None,
        metavar="OTHER",
        help="compare against a second trace (e.g. fast vs reference "
        "engine); exits 1 on divergence",
    )
    ins.add_argument(
        "--timeline",
        action="store_true",
        help="render the per-phase timing breakdown from "
        "the run manifest next to the trace (requires the run to have "
        "used --profile)",
    )

    fz = sub.add_parser(
        "fuzz",
        help="fault-injection fuzzing: sample cases, shrink violations "
        "to replayable artifacts",
    )
    fz.add_argument("--budget", type=int, default=40, help="cases to run")
    fz.add_argument("--seed", type=int, default=0, help="case-space seed")
    fz.add_argument(
        "--smoke",
        action="store_true",
        help="CI gate: crash-only plans over every crash-safe registered "
        "algorithm; exits 1 on any survivor-safety violation",
    )
    fz.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="directory for replayable failure artifacts "
        "(created only when something fails)",
    )
    fz.add_argument(
        "--algorithms",
        default=None,
        metavar="A,B,...",
        help="restrict to a comma-separated subset of the zoo",
    )
    fz.add_argument(
        "--replay",
        default=None,
        metavar="ARTIFACT",
        help="re-run one saved failure artifact instead of fuzzing",
    )
    fz.add_argument(
        "-v", "--verbose", action="store_true", help="print every case"
    )
    return p


def cmd_list(args=None, out=None) -> int:
    """Print the algorithm registry (with metadata) and the workloads.

    ``--check`` instead runs :func:`repro.zoo.check_registry` and exits
    non-zero on any inconsistency.
    """
    out = out or sys.stdout
    if args is not None and getattr(args, "check", False):
        problems = zoo.check_registry()
        if problems:
            print(f"registry INCONSISTENT ({len(problems)} problems):", file=out)
            for p in problems:
                print(f"  - {p}", file=out)
            return 1
        bulk = sum(1 for s in zoo.all_specs() if s.bulk_capable)
        print(
            f"registry consistent: {len(zoo.names())} algorithms, "
            f"{len(zoo.with_baseline())} with baselines, "
            f"{len(zoo.crash_safe())} crash-safe (fuzzed), "
            f"{bulk} bulk-capable",
            file=out,
        )
        return 0

    specs = zoo.all_specs()
    rows = []
    for s in specs:
        flags = []
        if s.randomized:
            flags.append("randomized")
        if s.crash_safe:
            flags.append("crash-safe")
        if s.bulk_capable:
            flags.append("bulk")
        rows.append(
            (
                s.name,
                s.problem,
                s.describe_row(),
                f"{s.claim.avg} vs {s.claim.baseline}" if s.claim else "-",
                "yes" if s.has_baseline else "-",
                ",".join(flags) or "-",
            )
        )
    header = ("name", "problem", "paper row", "claim", "baseline", "flags")
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))
    ]
    print("algorithms:", file=out)
    print(
        "  " + "  ".join(h.ljust(w) for h, w in zip(header, widths)), file=out
    )
    for r in rows:
        print("  " + "  ".join(c.ljust(w) for c, w in zip(r, widths)), file=out)
    print("workloads:", file=out)
    for name in sorted(WORKLOADS):
        print(f"  {name}", file=out)
    return 0


def _parse_fault_plan(spec: str):
    """``--faults`` value: inline JSON, or ``@path`` to a JSON file."""
    import json

    from repro.faults import FaultPlan

    text = spec
    if spec.startswith("@"):
        with open(spec[1:]) as fh:
            text = fh.read()
    return FaultPlan.from_dict(json.loads(text))


def cmd_run(args, out=None) -> int:
    """Run one algorithm through the zoo pipeline, validate, print."""
    out = out or sys.stdout
    spec = zoo.get(args.algorithm)
    if spec.workloads and args.workload not in spec.workloads:
        print(
            f"run: algorithm {spec.name} only runs on workload(s) "
            f"{', '.join(spec.workloads)} (got {args.workload}); "
            f"pass --workload {spec.workloads[0]}",
            file=out,
        )
        return 2
    workload = make_workload(args.workload)
    g, a = workload(args.n, seed=args.seed)
    ids = gen.random_ids(g.n, seed=args.seed + 1)

    plan = None  # FaultPlan, when --faults is given
    faults_spec = getattr(args, "faults", None)
    if faults_spec:
        plan = _parse_fault_plan(faults_spec)
    trace_out = getattr(args, "trace_out", None)

    mode = getattr(args, "mode", "sync")
    delays = None
    if getattr(args, "delay_dist", None) is not None:
        if mode != "async":
            print("run: --delay-dist requires --mode async", file=out)
            return 2
        from repro.runtime import DelaySpec

        delays = DelaySpec(
            dist=args.delay_dist,
            scale=args.delay_scale,
            seed=args.delay_seed,
        )

    ex = zoo.execute(
        spec,
        g,
        a,
        ids,
        args.seed,
        engine=getattr(args, "engine", "fast"),
        mode=mode,
        delays=delays,
        faults=plan,
        trace=trace_out,
        trace_meta={
            "algo": args.algorithm,
            "workload": args.workload,
            "n": args.n,
            "seed": args.seed,
        },
        profile=getattr(args, "profile", False),
    )
    if ex.watchdog is not None:
        print(f"faults   : {ex.plan.describe()}", file=out)
        print(f"crashed  : {sorted(ex.crashed)}", file=out)
        print(f"NON-TERMINATION: {ex.watchdog}", file=out)
        return 2

    summary = ex.validate(g)
    m = ex.result.metrics
    print(f"workload : {args.workload}, {g} (a <= {a}, Delta = {g.max_degree()})", file=out)
    print(f"algorithm: {args.algorithm}", file=out)
    if mode != "sync":
        desc = delays.describe() if delays is not None else "fixed unit delays"
        print(f"mode     : {mode} ({desc})", file=out)
    if ex.faulted:
        print(f"faults   : {ex.plan.describe()}", file=out)
    print(f"solution : {summary}", file=out)
    print(
        f"rounds   : vertex-averaged {m.vertex_averaged:.2f} | "
        f"worst-case {m.worst_case} | RoundSum {m.round_sum} | "
        f"median {m.quantile(0.5)}",
        file=out,
    )
    t = getattr(ex.result, "times", None)
    if t is not None:
        print(
            f"time     : vertex-averaged {t.vertex_averaged_time:.2f} | "
            f"worst-case {t.worst_case_time:.2f} | "
            f"averaged output time {t.averaged_output_time:.2f}",
            file=out,
        )
    if trace_out:
        print(f"trace    : {trace_out} (repro inspect {trace_out})", file=out)
        if ex.manifest is not None:
            from repro.obs import telemetry

            print(
                f"manifest : {telemetry.manifest_path(trace_out)} "
                f"(key {ex.manifest.key[:12]})",
                file=out,
            )
    if ex.profiler is not None:
        print("engine phase profile:", file=out)
        print(ex.profiler.report(), file=out)
    return 0


def _load_report(path: str, out):
    """``RunReport.from_path`` with CLI-grade error reporting.

    Returns ``None`` after printing a one-line diagnosis (no traceback)
    for missing files, corrupt records, or traces without the ``meta``
    header a :class:`~repro.obs.sinks.JsonlSink` always writes first.
    """
    try:
        rep = obs_report.RunReport.from_path(path)
    except OSError as e:
        print(f"inspect: cannot read trace {path}: {e}", file=out)
        return None
    except ValueError as e:
        print(f"inspect: {e}", file=out)
        return None
    if rep.meta.get("ev") != "meta":
        print(
            f"inspect: {path} has no meta header line -- not a trace "
            "written by --trace-out / JsonlSink (or the header was lost)",
            file=out,
        )
        return None
    return rep


def cmd_inspect(args, out=None) -> int:
    """Analyze a JSONL event trace (narrative, decay, diffs, timeline)."""
    out = out or sys.stdout
    if getattr(args, "timeline", False):
        return _cmd_timeline(args.trace, out)
    rep = _load_report(args.trace, out)
    if rep is None:
        return 2
    if args.diff:
        other = _load_report(args.diff, out)
        if other is None:
            return 2
        identical, text = obs_report.diff(
            rep.main, other.main, label_a=args.trace, label_b=args.diff
        )
        print(text, file=out)
        return 0 if identical else 1
    print(f"trace    : {args.trace} [{rep.describe_meta()}]", file=out)
    manifest = _read_manifest(args.trace)
    if manifest is not None:
        print(
            f"manifest : key {manifest.get('key', '?')[:12]} "
            f"engine={manifest.get('engine')} "
            f"mode={manifest.get('mode', 'sync')} "
            f"status={manifest.get('status')}",
            file=out,
        )
    if not rep.collectors:
        print("no engine events recorded", file=out)
        return 1
    for i, col in enumerate(rep.collectors, start=1):
        if len(rep.collectors) > 1:
            print(f"--- execution {i}/{len(rep.collectors)} ---", file=out)
        print(f"summary  : {col.summary()}", file=out)
        print(obs_report.narrative(col, limit=args.limit), file=out)
        if args.decay:
            print(obs_report.decay_table(col), file=out)
    return 0


def _read_manifest(trace_path: str):
    """The latest manifest record for a trace, or None (never raises)."""
    from repro.obs import telemetry

    try:
        return telemetry.latest_manifest(telemetry.manifest_path(trace_path))
    except (OSError, ValueError):
        return None


def _cmd_timeline(trace_path: str, out) -> int:
    """``repro inspect --timeline``: render the manifest's timing block."""
    from repro.obs import telemetry

    mpath = telemetry.manifest_path(trace_path)
    try:
        manifest = telemetry.latest_manifest(mpath)
    except OSError:
        print(
            f"inspect: no manifest at {mpath} -- timelines are read from "
            "the run manifest written next to the trace; re-run with "
            "--trace-out",
            file=out,
        )
        return 2
    except ValueError as e:
        print(f"inspect: {e}", file=out)
        return 2
    if manifest is None:
        print(f"inspect: manifest file {mpath} holds no records", file=out)
        return 2
    timing = manifest.get("timing") or {}
    print(
        f"timeline : {manifest.get('algo')} n={manifest.get('n')} "
        f"engine={manifest.get('engine')} "
        f"mode={manifest.get('mode', 'sync')} "
        f"(key {manifest.get('key', '?')[:12]})",
        file=out,
    )
    print(telemetry.render_timeline(timing), file=out)
    if not timing.get("phases"):
        print(
            "inspect: the manifest records no phase timing -- re-run "
            "with --profile to fill it",
            file=out,
        )
        return 2
    return 0


def cmd_compare(args, out=None) -> int:
    """Sweep averaged algorithms against their worst-case baselines.

    One algorithm prints its single paper-shaped row table; ``--all``
    renders every registered Table 1/2 row, grouped by table, entirely
    from registry metadata.
    """
    out = out or sys.stdout
    ns = [int(x) for x in args.sweep.split(",") if x]
    if getattr(args, "all_rows", False):
        print(
            paper_tables(ns, seeds=args.seeds, workload=args.workload),
            file=out,
        )
        return 0
    if args.algorithm is None:
        print("compare: give an algorithm name or --all", file=out)
        return 2
    spec = zoo.get(args.algorithm)
    print(
        render_spec_comparison(
            spec, args.workload, ns, seeds=args.seeds
        ),
        file=out,
    )
    return 0


def cmd_fuzz(args, out=None) -> int:
    """Fault-injection fuzzing / artifact replay; exits 1 on violations."""
    out = out or sys.stdout
    from repro.faults import fuzz as fz
    from repro.faults.harness import replay_artifact

    if args.replay:
        outcome = replay_artifact(args.replay)
        print(outcome.describe(), file=out)
        if outcome.detail and "\n" in outcome.detail:
            print(outcome.detail, file=out)
        return 1 if outcome.status == fz.OUTCOME_VIOLATION else 0

    log = (lambda line: print(line, file=out)) if args.verbose else None
    algorithms = args.algorithms.split(",") if args.algorithms else None
    if args.smoke:
        report = fz.smoke(
            budget=args.budget, seed=args.seed, out_dir=args.out,
            algorithms=algorithms, log=log,
        )
    else:
        report = fz.fuzz(
            budget=args.budget,
            seed=args.seed,
            out_dir=args.out,
            algorithms=algorithms,
            log=log,
        )
    print(report.summary(), file=out)
    for outcome, original, path in report.violations:
        print(f"VIOLATION (shrunk from n={original.n}):", file=out)
        print(f"  {outcome.describe()}", file=out)
        if path:
            print(f"  artifact: {path} (repro fuzz --replay {path})", file=out)
    if report.errors and not args.verbose:
        for outcome, path in report.errors[:5]:
            suffix = f" [{path}]" if path else ""
            print(f"error: {outcome.describe()}{suffix}", file=out)
        if len(report.errors) > 5:
            print(f"... {len(report.errors) - 5} more errors", file=out)
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return cmd_list(args)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "compare":
        return cmd_compare(args)
    if args.command == "inspect":
        return cmd_inspect(args)
    if args.command == "fuzz":
        return cmd_fuzz(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
