"""Kernel throughput baseline: measure, persist, compare.

Times the round engine itself (not any algorithm) on a fixed workload --
the 10-round broadcast program over ``union_of_forests(n, 3)`` -- and
records steps/s, msgs/s and wall-clock per sweep point in
``BENCH_kernel.json`` at the repo root, so every future PR inherits a perf
trajectory and a regression gate.

Raw steps/s is machine-dependent, so the committed file stores *all three*
engines' numbers: the throughput-optimised :class:`SyncNetwork` ("fast"),
the specification engine :class:`ReferenceSyncNetwork` ("reference"), and
the columnar bulk engine (:func:`repro.runtime.bulk_broadcast_kernel`,
measured on the same workload plus an extra large-n point).  The
regression gate compares *speedup ratios*, which are stable across
machines: fast/reference on steps/s, and bulk/fast on msgs/s (the bulk
engine has no per-vertex steps; delivered messages are the common
currency).  A change that slows either optimised path shows up as a
falling ratio no matter the hardware.

The file also records the *null-sink instrumentation overhead*: the fast
engine **and** the bulk engine run with an ``EventBus(NullSink())``
attached must each stay within 5% of the uninstrumented path in CPU time
(the ``repro.obs`` layer's cost contract; the gate fails otherwise).

Usage::

    PYTHONPATH=src python -m repro.bench.baseline --write   # refresh file
    PYTHONPATH=src python -m repro.bench.baseline --check   # regression gate
    PYTHONPATH=src python -m repro.bench.baseline --check --quick  # CI smoke

"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Sequence

from repro.graphs import generators as gen
from repro.runtime.network import SyncNetwork
from repro.runtime.reference import ReferenceSyncNetwork

#: the fixed kernel workload: n-sweep of the 10-round broadcast program
DEFAULT_NS: tuple[int, ...] = (2000, 8000, 32000)
QUICK_NS: tuple[int, ...] = (2000, 8000)
BROADCAST_ROUNDS = 10
#: fail the gate when the fast/reference speedup falls below
#: ``(1 - MAX_REGRESSION)`` of the recorded one
MAX_REGRESSION = 0.30
#: best-of repeats for the CLI write/check paths.  Single-sample walls at
#: small n are bimodal under CPU frequency scaling (observed ~40% swing
#: at n=2000), so a lone fast-engine sample paired with a lucky
#: reference sample can push the ratio through the regression floor on a
#: healthy machine; best-of-3 per cell makes the ratio reproducible
CLI_REPEATS = 3
#: the instrumentation guard: attaching an EventBus whose only sink is a
#: NullSink must keep the fast engine within this percentage of the
#: uninstrumented wall-clock
MAX_NULL_SINK_OVERHEAD_PCT = 5.0
#: sweep point used for the overhead measurement (big enough that the
#: per-call branch cost, if any, dominates noise)
OVERHEAD_N = 8000
#: the bulk engine's overhead point: the columnar kernel finishes n=8000
#: in ~a millisecond, too short for a stable CPU-time ratio, so its
#: overhead arm runs at the large-n throughput cell instead
BULK_OVERHEAD_N = 100_000

#: the extra sweep point the bulk engine is measured at (cheap for the
#: columnar path, prohibitive for the coroutine engines)
BULK_N = 100_000

ENGINES: dict[str, type[SyncNetwork]] = {
    "fast": SyncNetwork,
    "reference": ReferenceSyncNetwork,
}

#: every engine :func:`measure_engine` accepts; "bulk" runs the columnar
#: kernel function, not a :class:`SyncNetwork` subclass
ENGINE_NAMES = tuple(ENGINES) + ("bulk",)


def default_path() -> str:
    """``BENCH_kernel.json`` at the repository root (next to ``src/``)."""
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(here, "..", "..", "..", "BENCH_kernel.json")


def broadcast_program(rounds: int = BROADCAST_ROUNDS) -> Callable:
    """The kernel workload program: broadcast every round, then halt."""

    def ping(ctx):
        for _ in range(rounds):
            ctx.broadcast(("p", ctx.round))
            yield
        return None

    return ping


def measure_engine(
    engine: str = "fast",
    ns: Sequence[int] = DEFAULT_NS,
    rounds: int = BROADCAST_ROUNDS,
    repeats: int = 1,
) -> list[dict[str, Any]]:
    """Time one engine over the kernel workload; best-of-``repeats``.

    ``"bulk"`` times :func:`repro.runtime.bulk_broadcast_kernel` -- the
    columnar twin of the broadcast program, bit-identical in its
    accounting -- rather than a network class.
    """
    if engine == "bulk":
        from repro.runtime.bulk import bulk_broadcast_kernel

        def run_once(g):
            return bulk_broadcast_kernel(g, rounds=rounds)

    elif engine in ENGINES:
        cls = ENGINES[engine]
        program = broadcast_program(rounds)

        def run_once(g):
            return cls(g).run(program)

    else:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINE_NAMES}"
        )
    points = []
    for n in ns:
        g = gen.union_of_forests(n, 3, seed=0)
        g.edges()  # build the object layer and CSR rows outside the timed region
        best = None
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            res = run_once(g)
            wall = time.perf_counter() - t0
            if best is None or wall < best[0]:
                best = (wall, res)
        wall, res = best
        steps = res.metrics.round_sum
        msgs = res.metrics.total_messages
        points.append(
            {
                "n": n,
                "rounds": rounds,
                "steps": steps,
                "msgs": msgs,
                "wall_s": round(wall, 4),
                "steps_per_s": round(steps / wall, 1),
                "msgs_per_s": round(msgs / wall, 1),
            }
        )
    return points


def measure_null_sink_overhead(
    n: int = OVERHEAD_N,
    rounds: int = BROADCAST_ROUNDS,
    repeats: int = 9,
    engine: str = "fast",
) -> dict[str, Any]:
    """The instrumentation overhead gate's measurement.

    Times ``engine`` (``"fast"`` or ``"bulk"``) on the kernel workload
    twice per repeat -- uninstrumented, and with an
    :class:`repro.obs.EventBus` whose only sink is a
    :class:`repro.obs.NullSink` attached -- in adjacent pairs
    (alternating which arm goes first), in CPU time
    (``time.process_time``, so scheduler preemption stays out of the
    measurement).  Both arms attach the bus through the run session
    (:func:`repro.runtime.session.session`), which is how real callers
    attach it; with no live sink the bulk path pays one session lookup
    per run plus the ``finalize`` skip.  Two statistics come back:

    * ``overhead_pct`` -- the *median* of the per-pair ratios: the best
      single estimate, reported for humans.
    * ``overhead_floor_pct`` -- the *minimum* of the per-pair ratios:
      a noise-robust lower bound on the true overhead, and what the
      gate compares against :data:`MAX_NULL_SINK_OVERHEAD_PCT`.  On a
      loaded shared machine, cache pressure from neighbors inflates CPU
      time by up to ~10% in minutes-long windows, so any single pair
      (and hence the median) can read high spuriously; but a *spurious*
      gate failure would need every pair skewed the same way, while a
      *real* regression shows up in every pair and still trips the
      floor.  (Medians and per-arm best-of were tried first and flaked
      at the few-percent level under a churned heap.)

    With no live sink the engine never constructs an event, so the
    expected overhead is a handful of per-round branches -- truly ~0%.
    """
    from repro.obs import EventBus, NullSink
    from repro.runtime.session import session

    g = gen.union_of_forests(n, 3, seed=0)
    bus = EventBus(NullSink())

    if engine == "bulk":
        from repro.runtime.bulk import bulk_broadcast_kernel

        def work() -> None:
            bulk_broadcast_kernel(g, rounds=rounds)

    elif engine == "fast":
        g.edges()  # build the object layer and CSR rows outside the timed region
        program = broadcast_program(rounds)

        def work() -> None:
            SyncNetwork(g).run(program)

    else:
        raise ValueError(
            f"overhead measurement supports 'fast' and 'bulk', got {engine!r}"
        )

    def timed(with_bus: bool) -> float:
        with session(bus=bus if with_bus else None):
            t0 = time.process_time()
            work()
            return time.process_time() - t0

    timed(False)  # one untimed warm-up for allocator/cache state
    ratios = []
    bare_best = instrumented_best = float("inf")
    for i in range(max(1, repeats)):
        # alternate which arm goes first so ordering bias cancels too
        if i % 2:
            instrumented = timed(True)
            bare = timed(False)
        else:
            bare = timed(False)
            instrumented = timed(True)
        ratios.append(instrumented / bare)
        bare_best = min(bare_best, bare)
        instrumented_best = min(instrumented_best, instrumented)
    ratios.sort()
    median_ratio = ratios[len(ratios) // 2]
    return {
        "engine": engine,
        "n": n,
        "rounds": rounds,
        "repeats": repeats,
        "bare_cpu_s": round(bare_best, 4),
        "null_sink_cpu_s": round(instrumented_best, 4),
        "overhead_pct": round((median_ratio - 1.0) * 100.0, 2),
        "overhead_floor_pct": round((ratios[0] - 1.0) * 100.0, 2),
    }


def measure_kernel(
    ns: Sequence[int] = DEFAULT_NS,
    rounds: int = BROADCAST_ROUNDS,
    repeats: int = 1,
    bulk_ns: Sequence[int] | None = None,
) -> dict[str, Any]:
    """Measure all three engines and derive the per-point speedup ratios,
    plus the null-sink instrumentation overhead.

    The bulk engine is swept over ``bulk_ns`` (default: ``ns`` plus the
    :data:`BULK_N` large-n point that only the columnar path can afford);
    ``bulk_speedup`` compares msgs/s on the points shared with the fast
    engine."""
    if bulk_ns is None:
        bulk_ns = tuple(ns) + (BULK_N,)
    result: dict[str, Any] = {
        "workload": f"union_of_forests(n, 3) x {rounds}-round broadcast",
        "engines": {
            name: measure_engine(name, ns=ns, rounds=rounds, repeats=repeats)
            for name in ENGINES
        },
    }
    result["engines"]["bulk"] = measure_engine(
        "bulk", ns=bulk_ns, rounds=rounds, repeats=repeats
    )
    fast = result["engines"]["fast"]
    ref = result["engines"]["reference"]
    result["speedup"] = {
        str(f["n"]): round(f["steps_per_s"] / r["steps_per_s"], 2)
        for f, r in zip(fast, ref)
    }
    bulk_by_n = {p["n"]: p for p in result["engines"]["bulk"]}
    result["bulk_speedup"] = {
        str(f["n"]): round(bulk_by_n[f["n"]]["msgs_per_s"] / f["msgs_per_s"], 2)
        for f in fast
        if f["n"] in bulk_by_n
    }
    result["null_sink_overhead"] = measure_null_sink_overhead(
        rounds=rounds, repeats=max(9, repeats)
    )
    result["bulk_null_sink_overhead"] = measure_null_sink_overhead(
        n=BULK_OVERHEAD_N,
        rounds=rounds,
        repeats=max(9, repeats),
        engine="bulk",
    )
    return result


def write_baseline(path: str | None = None, **kwargs) -> dict[str, Any]:
    """Measure and persist the baseline; returns what was written."""
    path = path or default_path()
    result = measure_kernel(**kwargs)
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return result


def load_baseline(path: str | None = None) -> dict[str, Any]:
    with open(path or default_path()) as fh:
        return json.load(fh)


def engine_points(data: dict[str, Any], engine: str) -> list[dict[str, Any]]:
    """The recorded sweep points for ``engine`` in a baseline dict.

    Raises a clear ``ValueError`` -- never a bare ``KeyError`` -- when
    the file predates the engine (e.g. a ``BENCH_kernel.json`` written
    before the bulk engine existed), telling the caller how to fix it.
    """
    engines = data.get("engines") or {}
    if engine not in engines:
        recorded = ", ".join(sorted(engines)) or "<none>"
        raise ValueError(
            f"baseline file has no {engine!r} engine entry "
            f"(recorded engines: {recorded}); re-run "
            f"`python -m repro.bench.baseline --write` to refresh it"
        )
    return engines[engine]


def compare_to_baseline(
    current: dict[str, Any],
    baseline: dict[str, Any],
    max_regression: float = MAX_REGRESSION,
) -> list[str]:
    """Regression check; returns human-readable violations (empty = pass).

    Compares the fast/reference speedup ratio per sweep point against the
    recorded one (machine-independent), and additionally requires the fast
    engine to actually be faster than the reference engine.  When the
    current measurement carries bulk numbers, the bulk/fast msgs/s ratio
    is gated the same way (and must clear x1.0 outright), the recorded
    file must have a bulk entry at all (clear error, not a ``KeyError``),
    and the current sweep must include the :data:`BULK_N` cell CI watches.
    """
    problems = []
    recorded = baseline.get("speedup", {})
    for key, cur_ratio in current.get("speedup", {}).items():
        if cur_ratio < 1.0:
            problems.append(
                f"n={key}: fast engine is slower than the reference engine "
                f"(speedup x{cur_ratio:.2f})"
            )
        base_ratio = recorded.get(key)
        if base_ratio is None:
            continue
        floor = base_ratio * (1.0 - max_regression)
        if cur_ratio < floor:
            problems.append(
                f"n={key}: speedup regressed to x{cur_ratio:.2f} "
                f"(recorded x{base_ratio:.2f}, floor x{floor:.2f})"
            )
    cur_bulk = current.get("bulk_speedup")
    if cur_bulk is not None:
        recorded_bulk = baseline.get("bulk_speedup")
        if recorded_bulk is None:
            try:
                engine_points(baseline, "bulk")
            except ValueError as exc:
                problems.append(str(exc))
            recorded_bulk = {}
        for key, cur_ratio in cur_bulk.items():
            if cur_ratio < 1.0:
                problems.append(
                    f"n={key}: bulk engine is slower than the fast engine "
                    f"(msgs/s ratio x{cur_ratio:.2f})"
                )
            base_ratio = recorded_bulk.get(key)
            if base_ratio is None:
                continue
            floor = base_ratio * (1.0 - max_regression)
            if cur_ratio < floor:
                problems.append(
                    f"n={key}: bulk/fast msgs/s ratio regressed to "
                    f"x{cur_ratio:.2f} (recorded x{base_ratio:.2f}, "
                    f"floor x{floor:.2f})"
                )
        cur_bulk_ns = {p["n"] for p in current.get("engines", {}).get("bulk", ())}
        if cur_bulk_ns and BULK_N not in cur_bulk_ns:
            problems.append(
                f"bulk sweep is missing the n={BULK_N} throughput cell "
                f"(measured: {sorted(cur_bulk_ns)})"
            )
    for key, label in (
        ("null_sink_overhead", "fast"),
        ("bulk_null_sink_overhead", "bulk"),
    ):
        overhead = current.get(key)
        if overhead is None:
            continue
        # gate on the noise-robust lower bound, not the median estimate
        floor = overhead.get("overhead_floor_pct", overhead["overhead_pct"])
        if floor > MAX_NULL_SINK_OVERHEAD_PCT:
            problems.append(
                f"{label}-engine null-sink instrumentation overhead >= "
                f"{floor:.2f}% (median estimate "
                f"{overhead['overhead_pct']:.2f}%) exceeds "
                f"{MAX_NULL_SINK_OVERHEAD_PCT:.0f}% "
                f"(n={overhead['n']}, bare {overhead['bare_cpu_s']}s vs "
                f"instrumented {overhead['null_sink_cpu_s']}s CPU)"
            )
    return problems


def main(argv: Sequence[str] | None = None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help="refresh the baseline file")
    ap.add_argument("--check", action="store_true", help="regression gate vs the file")
    ap.add_argument("--path", default=None, help="baseline JSON path")
    ap.add_argument(
        "--quick",
        action="store_true",
        help=f"small-n smoke sweep {QUICK_NS} (for CI)",
    )
    ap.add_argument(
        "--repeats",
        type=int,
        default=CLI_REPEATS,
        help="best-of repeats per sweep cell (default %(default)s; "
        "single samples are too noisy to gate on at small n)",
    )
    args = ap.parse_args(argv)
    ns = QUICK_NS if args.quick else DEFAULT_NS

    if args.write:
        result = write_baseline(args.path, ns=ns, repeats=args.repeats)
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    if args.check:
        try:
            baseline = load_baseline(args.path)
        except FileNotFoundError as exc:
            print(f"no baseline at {exc.filename}; run with --write first")
            return 1
        current = measure_kernel(ns=ns, repeats=args.repeats)
        for key, ratio in sorted(current["speedup"].items(), key=lambda kv: int(kv[0])):
            rec = baseline.get("speedup", {}).get(key)
            rec_s = f" (recorded x{rec:.2f})" if rec is not None else ""
            print(f"n={key}: fast/reference speedup x{ratio:.2f}{rec_s}")
        for key, ratio in sorted(
            current["bulk_speedup"].items(), key=lambda kv: int(kv[0])
        ):
            rec = baseline.get("bulk_speedup", {}).get(key)
            rec_s = f" (recorded x{rec:.2f})" if rec is not None else ""
            print(f"n={key}: bulk/fast msgs/s x{ratio:.2f}{rec_s}")
        for point in current["engines"]["bulk"]:
            if point["n"] == BULK_N:
                print(
                    f"n={BULK_N}: bulk {point['msgs_per_s']:,.0f} msgs/s "
                    f"({point['wall_s']}s wall)"
                )
        for key, label in (
            ("null_sink_overhead", "fast"),
            ("bulk_null_sink_overhead", "bulk"),
        ):
            overhead = current.get(key, {})
            if overhead:
                print(
                    f"{label} null-sink overhead: "
                    f"{overhead['overhead_pct']:+.2f}% "
                    f"(floor {overhead['overhead_floor_pct']:+.2f}%) at "
                    f"n={overhead['n']} (gate "
                    f"{MAX_NULL_SINK_OVERHEAD_PCT:.0f}%)"
                )
        problems = compare_to_baseline(current, baseline)
        for p in problems:
            print(f"REGRESSION: {p}")
        print("kernel perf check:", "FAIL" if problems else "OK")
        return 1 if problems else 0
    ap.print_help()
    return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
