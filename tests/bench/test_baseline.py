"""The kernel perf baseline: measurement, persistence, regression gate."""

import json

import pytest

from repro.bench import baseline


def test_measure_kernel_shape():
    result = baseline.measure_kernel(ns=(120,), rounds=3, bulk_ns=(120,))
    assert set(result["engines"]) == {"fast", "reference", "bulk"}
    for eng in result["engines"].values():
        (point,) = eng
        assert point["n"] == 120
        assert point["steps"] > 0 and point["msgs"] > 0
        assert point["steps_per_s"] > 0 and point["wall_s"] >= 0
    # all three engines replay the identical execution
    fast, ref = result["engines"]["fast"][0], result["engines"]["reference"][0]
    bulk = result["engines"]["bulk"][0]
    assert fast["steps"] == ref["steps"] == bulk["steps"]
    assert fast["msgs"] == ref["msgs"] == bulk["msgs"]
    assert "120" in result["speedup"]
    assert "120" in result["bulk_speedup"]


def test_measure_kernel_default_bulk_sweep_adds_large_n():
    """Without an explicit ``bulk_ns`` the bulk engine gets the extra
    :data:`~repro.bench.baseline.BULK_N` point the coroutine engines
    cannot afford (checked structurally, without measuring)."""
    import inspect

    sig = inspect.signature(baseline.measure_kernel)
    assert sig.parameters["bulk_ns"].default is None
    assert baseline.BULK_N == 100_000


def test_measure_engine_rejects_unknown_engine():
    with pytest.raises(ValueError, match="unknown engine 'gpu'"):
        baseline.measure_engine("gpu", ns=(10,))


def test_write_and_load_roundtrip(tmp_path):
    path = tmp_path / "BENCH_kernel.json"
    written = baseline.write_baseline(
        str(path), ns=(100,), rounds=2, bulk_ns=(100,)
    )
    loaded = baseline.load_baseline(str(path))
    assert loaded == json.loads(json.dumps(written))
    assert loaded["workload"].startswith("union_of_forests")


def test_engine_points_guard_names_missing_engine():
    """Satellite regression: a baseline file that predates an engine must
    produce a clear, actionable error -- never a bare ``KeyError``."""
    stale = {"engines": {"fast": [], "reference": []}, "speedup": {}}
    assert baseline.engine_points(stale, "fast") == []
    with pytest.raises(ValueError) as exc:
        baseline.engine_points(stale, "bulk")
    msg = str(exc.value)
    assert "no 'bulk' engine entry" in msg
    assert "fast, reference" in msg  # says what *is* recorded
    assert "--write" in msg  # and how to fix it
    # a file with no engines section at all gets the same treatment
    with pytest.raises(ValueError, match="recorded engines: <none>"):
        baseline.engine_points({}, "bulk")


def test_compare_flags_regressions():
    stored = {"speedup": {"32000": 5.0}}
    ok = {"speedup": {"32000": 4.0}}
    assert baseline.compare_to_baseline(ok, stored) == []
    regressed = {"speedup": {"32000": 3.0}}  # floor is 5.0 * 0.7 = 3.5
    problems = baseline.compare_to_baseline(regressed, stored)
    assert len(problems) == 1 and "regressed" in problems[0]
    slower = {"speedup": {"32000": 0.9}}
    problems = baseline.compare_to_baseline(slower, stored)
    assert any("slower than the reference" in p for p in problems)
    # unknown points are tolerated (lets the sweep grow later)
    assert baseline.compare_to_baseline({"speedup": {"64000": 4.0}}, stored) == []


def test_compare_flags_bulk_regressions():
    stored = {"speedup": {}, "bulk_speedup": {"32000": 20.0}}
    ok = {"speedup": {}, "bulk_speedup": {"32000": 18.0}}
    assert baseline.compare_to_baseline(ok, stored) == []
    regressed = {"speedup": {}, "bulk_speedup": {"32000": 10.0}}  # floor 14.0
    problems = baseline.compare_to_baseline(regressed, stored)
    assert len(problems) == 1 and "bulk/fast" in problems[0]
    slower = {"speedup": {}, "bulk_speedup": {"32000": 0.8}}
    problems = baseline.compare_to_baseline(slower, stored)
    assert any("slower than the fast engine" in p for p in problems)
    # a current run without bulk numbers never trips the bulk gates
    assert baseline.compare_to_baseline({"speedup": {}}, stored) == []


def test_compare_flags_stale_baseline_without_bulk_entry():
    """Satellite regression: ``--check`` against a pre-bulk baseline file
    reports the missing engine entry instead of raising ``KeyError``."""
    stale = {"engines": {"fast": [], "reference": []}, "speedup": {}}
    current = {"speedup": {}, "bulk_speedup": {"2000": 12.0}}
    problems = baseline.compare_to_baseline(current, stale)
    assert len(problems) == 1
    assert "no 'bulk' engine entry" in problems[0]
    assert "--write" in problems[0]


def test_compare_flags_missing_large_n_bulk_cell():
    stored = {"speedup": {}, "bulk_speedup": {}}
    current = {
        "speedup": {},
        "bulk_speedup": {"2000": 12.0},
        "engines": {"bulk": [{"n": 2000}]},
    }
    problems = baseline.compare_to_baseline(current, stored)
    assert len(problems) == 1 and f"n={baseline.BULK_N}" in problems[0]
    current["engines"]["bulk"].append({"n": baseline.BULK_N})
    assert baseline.compare_to_baseline(current, stored) == []


def test_compare_flags_instrumentation_overhead():
    stored = {"speedup": {}}
    overhead = {
        "n": 8000,
        "bare_cpu_s": 0.2,
        "null_sink_cpu_s": 0.22,
        "overhead_pct": 9.0,
        "overhead_floor_pct": 7.5,
    }
    current = {"speedup": {}, "null_sink_overhead": dict(overhead)}
    problems = baseline.compare_to_baseline(current, stored)
    assert len(problems) == 1 and "instrumentation overhead" in problems[0]
    # a high median with a low floor is noise, not a regression
    current["null_sink_overhead"]["overhead_floor_pct"] = 0.4
    assert baseline.compare_to_baseline(current, stored) == []


def test_cli_check_against_fresh_file(tmp_path, capsys):
    path = tmp_path / "BENCH_kernel.json"
    baseline.write_baseline(str(path), ns=(100,), rounds=2, bulk_ns=(100,))
    # checking right after writing must pass (same machine, same code)
    rc = baseline.main(["--check", "--path", str(path), "--quick"])
    out = capsys.readouterr().out
    # note: --quick uses its own ns; unknown keys are tolerated, the fast
    # engine must still beat the reference, and the bulk sweep includes
    # the large-n cell CI watches
    assert "kernel perf check:" in out
    assert "bulk/fast msgs/s" in out
    assert f"n={baseline.BULK_N}: bulk" in out
    assert rc == 0, out


def test_committed_baseline_is_valid():
    """The repo-root BENCH_kernel.json parses and records the acceptance
    ratios: fast >=3x reference (steps/s) and bulk >=10x fast (msgs/s)
    at n=32000, with the large-n bulk cell present."""
    data = baseline.load_baseline()
    assert data["speedup"]["32000"] >= 3.0
    ns = [p["n"] for p in data["engines"]["fast"]]
    assert 32000 in ns
    assert data["bulk_speedup"]["32000"] >= 10.0
    bulk_ns = [p["n"] for p in baseline.engine_points(data, "bulk")]
    assert baseline.BULK_N in bulk_ns
