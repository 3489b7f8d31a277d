"""Simulator throughput: vertex-steps per second of the round engine
itself, so adopters can size their experiments.  (The algorithmic
benchmarks measure rounds; this one measures the machine.)

Also the home of the engine-speedup acceptance gates: the fast engine must
beat the reference (seed) engine by >= 3x on the 10-round broadcast
workload at n = 32000, the columnar bulk engine must beat the fast engine
by >= 10x in msgs/s at the same point, and the measured numbers are
persisted to ``BENCH_kernel.json`` via ``repro.bench.baseline`` so future
PRs have a perf trajectory.
"""

import repro
from repro.bench import baseline, make_workload, render_table
from repro.graphs import generators as gen
from repro.runtime.network import SyncNetwork
from repro.runtime.session import session
from _common import emit, time_once


def test_kernel_throughput(benchmark):
    result = baseline.measure_kernel()
    rows = []
    for point in result["engines"]["fast"]:
        n = point["n"]
        bulk = result["bulk_speedup"].get(str(n))
        rows.append(
            [
                n,
                point["steps"],
                point["msgs"],
                f"{point['steps_per_s']:,.0f}",
                f"{point['msgs_per_s']:,.0f}",
                f"x{result['speedup'][str(n)]:.1f}",
                f"x{bulk:.1f}" if bulk is not None else "-",
            ]
        )
    emit(
        "kernel_throughput",
        render_table(
            "Round-engine throughput (10-round broadcast workload)",
            [
                "n",
                "vertex-steps",
                "messages",
                "steps/s",
                "msgs/s",
                "vs reference",
                "bulk vs fast",
            ],
            rows,
        ),
    )
    # The acceptance gates: fast >= 3x over the seed engine, and the
    # columnar bulk engine >= 10x over fast (msgs/s), both at n=32000.
    assert result["speedup"]["32000"] >= 3.0, result["speedup"]
    assert result["bulk_speedup"]["32000"] >= 10.0, result["bulk_speedup"]

    g = gen.union_of_forests(8000, 3, seed=0)
    ping = baseline.broadcast_program()
    time_once(benchmark, lambda: SyncNetwork(g).run(ping))


def test_null_sink_overhead(benchmark):
    """The instrumentation cost contract: running the kernel workload
    with an ``EventBus(NullSink())`` attached stays within 5% of the
    uninstrumented path, on the fast engine *and* the columnar bulk
    engine (whose ``profiled()`` telemetry seam costs one bus lookup per
    run), so BENCH_kernel numbers hold under observation."""
    rows = []
    for engine in ("fast", "bulk"):
        if engine == "bulk":
            result = baseline.measure_null_sink_overhead(
                n=baseline.BULK_OVERHEAD_N, engine="bulk"
            )
        else:
            result = baseline.measure_null_sink_overhead()
        rows.append(
            [
                engine,
                f"n={result['n']}",
                f"{result['bare_cpu_s']:.4f}s",
                f"{result['null_sink_cpu_s']:.4f}s",
                f"{result['overhead_pct']:+.2f}%",
                f"{result['overhead_floor_pct']:+.2f}%",
            ]
        )
        # gate on the noise-robust lower bound (see
        # measure_null_sink_overhead)
        assert (
            result["overhead_floor_pct"] < baseline.MAX_NULL_SINK_OVERHEAD_PCT
        ), result
    emit(
        "kernel_null_sink_overhead",
        render_table(
            "Null-sink instrumentation overhead (10-round broadcast, "
            f"{result['repeats']} CPU-time pairs per engine)",
            [
                "engine",
                "workload",
                "bare CPU",
                "EventBus(NullSink()) CPU",
                "overhead",
                "floor",
            ],
            rows,
        ),
    )

    g = gen.union_of_forests(8000, 3, seed=0)
    from repro.obs import EventBus, NullSink

    bus = EventBus(NullSink())
    ping = baseline.broadcast_program()
    with session(bus=bus):
        time_once(benchmark, lambda: SyncNetwork(g).run(ping))


def test_algorithm_wallclock_scaling(benchmark):
    """Wall-clock of the O(1)-averaged coloring is ~linear in n (work is
    proportional to RoundSum = O(n)): the Section 1.2 simulation story."""
    import time

    rows = []
    walls = []
    for n in (4000, 16000):
        g = gen.union_of_forests(n, 3, seed=1)
        t0 = time.perf_counter()
        repro.run_a2logn_coloring(g, a=3)
        wall = time.perf_counter() - t0
        walls.append(wall)
        rows.append([n, f"{wall:.2f}s"])
    emit(
        "kernel_scaling",
        render_table(
            "Wall-clock scaling of the O(1)-averaged coloring",
            ["n", "wall"],
            rows,
        ),
    )
    # 4x the vertices should cost clearly less than 8x the time
    assert walls[1] / walls[0] < 8.0
    g = gen.union_of_forests(8000, 3, seed=1)
    time_once(benchmark, lambda: repro.run_a2logn_coloring(g, a=3))
