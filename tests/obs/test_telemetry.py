"""The telemetry layer: run manifests and the timeline renderer.

Two contracts are pinned here:

* the manifest content address -- stable across repeat runs of the same
  experiment, different the moment any identity field (spec, workload,
  n, seed, fault plan) changes, and *insensitive* to mechanics like the
  engine (all engines are pinned bit-identical);
* the manifest file format -- JSONL appended next to the trace, with
  the same torn-final-line crash tolerance as the event-trace reader.
"""

import json

import pytest

from repro import zoo
from repro.graphs import generators as gen
from repro.obs.telemetry import (
    RunManifest,
    build_manifest,
    latest_manifest,
    manifest_path,
    plan_fingerprint,
    read_manifests,
    render_timeline,
    spec_fingerprint,
    write_manifest,
)


# ---------------------------------------------------------------------------
# fingerprints and the manifest content address
# ---------------------------------------------------------------------------


def test_spec_fingerprint_distinguishes_baseline_from_averaged():
    spec = zoo.get("partition")
    assert spec_fingerprint(spec) == spec_fingerprint(spec)
    assert spec_fingerprint(spec) != spec_fingerprint(spec, baseline=True)
    assert spec_fingerprint(spec) != spec_fingerprint(zoo.get("mis"))


def test_plan_fingerprint_empty_and_stable():
    from repro.faults import CrashSpec, FaultPlan

    assert plan_fingerprint(None) == ""
    assert plan_fingerprint(FaultPlan(seed=1)) == ""  # empty plan
    plan = FaultPlan(seed=1, crashes=CrashSpec(at={3: 1}))
    assert plan_fingerprint(plan) == plan_fingerprint(plan)
    other = FaultPlan(seed=2, crashes=CrashSpec(at={3: 1}))
    assert plan_fingerprint(plan) != plan_fingerprint(other)


def _execute(seed=0, engine="fast", **kw):
    g = gen.union_of_forests(80, 3, seed=5)
    return zoo.execute("partition", g, 3, None, seed, engine=engine, **kw)


def test_manifest_key_stable_across_repeat_runs():
    assert _execute().manifest.key == _execute().manifest.key


def test_manifest_key_sensitive_to_identity_insensitive_to_engine():
    base = _execute().manifest
    assert _execute(seed=9).manifest.key != base.key
    # engines are bit-identical: same experiment, same content address
    bulk = _execute(engine="bulk").manifest
    assert bulk.key == base.key
    assert bulk.engine == "bulk" and base.engine == "fast"


def test_manifest_mode_folds_into_key_only_when_async():
    from repro.runtime import DelaySpec

    base = _execute().manifest
    assert base.mode == "sync" and base.delays == {}
    # sync keys must not mention the mode: every pre-existing sync
    # content address stays byte-stable across this feature
    assert "mode" not in json.dumps(base.to_record()["key"])
    d = DelaySpec(dist="uniform", scale=2.0, seed=3)
    async_ = _execute(mode="async", delays=d).manifest
    assert async_.mode == "async" and async_.delays == d.to_dict()
    assert async_.key != base.key
    # the delay model is identity for async runs: a different seed is a
    # different experiment
    other = _execute(mode="async", delays=DelaySpec(dist="uniform",
                                                    scale=2.0, seed=4))
    assert other.manifest.key != async_.key
    # round-trip keeps the mode block
    back = RunManifest.from_record(
        json.loads(json.dumps(async_.to_record()))
    )
    assert back == async_


def test_manifest_records_timing_and_metrics_digest():
    ex = _execute(profile=True)
    man = ex.manifest
    assert man.status == "ok"
    assert man.timing["wall_s"] > 0
    assert "phases" in man.timing  # the profiler's flat phase store
    assert man.metrics["vertex_averaged"] == ex.result.metrics.vertex_averaged
    assert man.metrics["total_messages"] == ex.result.metrics.total_messages
    assert man.env["python"]  # runtime env block is populated


def test_manifest_record_round_trip():
    man = _execute().manifest
    rec = man.to_record()
    assert rec["ev"] == "manifest"
    back = RunManifest.from_record(json.loads(json.dumps(rec)))
    assert back == man
    assert back.key == man.key == rec["key"]


def test_manifest_from_record_ignores_old_shard_keys():
    """Records written before the sharded executor was removed still
    carry ``shards``/``partitioner``; they load, and keep their key."""
    man = _execute(engine="bulk").manifest
    old = {**man.to_record(), "shards": 2, "partitioner": "range"}
    back = RunManifest.from_record(json.loads(json.dumps(old)))
    assert back == man
    assert back.key == old["key"]
    assert "shards" not in back.to_record()


# ---------------------------------------------------------------------------
# the manifest file next to the trace
# ---------------------------------------------------------------------------


def test_execute_writes_manifest_next_to_trace(tmp_path):
    trace = str(tmp_path / "run.jsonl")
    ex = _execute(trace=trace)
    mpath = manifest_path(trace)
    assert mpath == trace + ".manifest.jsonl"
    rec = latest_manifest(mpath)
    assert rec is not None
    assert rec["key"] == ex.manifest.key
    assert RunManifest.from_record(rec) == ex.manifest


def test_manifest_file_accumulates_history(tmp_path):
    trace = str(tmp_path / "run.jsonl")
    _execute(trace=trace)
    _execute(seed=9, trace=trace)
    records, truncated = read_manifests(manifest_path(trace))
    assert len(records) == 2 and not truncated
    assert records[0]["key"] != records[1]["key"]
    assert latest_manifest(manifest_path(trace)) == records[1]


def test_read_manifests_tolerates_torn_final_line(tmp_path):
    path = str(tmp_path / "m.jsonl")
    spec = zoo.get("partition")
    write_manifest(build_manifest(spec, n=10, seed=0), path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"ev": "manifest", "torn')  # writer died mid-record
    records, truncated = read_manifests(path)
    assert len(records) == 1 and truncated


def test_read_manifests_rejects_mid_file_corruption(tmp_path):
    path = str(tmp_path / "m.jsonl")
    spec = zoo.get("partition")
    write_manifest(build_manifest(spec, n=10, seed=0), path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("garbage\n")
    write_manifest(build_manifest(spec, n=10, seed=1), path)
    with pytest.raises(ValueError, match="corrupt manifest record on line 2"):
        read_manifests(path)


# ---------------------------------------------------------------------------
# timeline rendering
# ---------------------------------------------------------------------------


def test_render_timeline_phase_table():
    timing = {
        "wall_s": 1.25,
        "phases": {
            "kernel": {"seconds": 0.6, "count": 1},
            "finalize": {"seconds": 0.2, "count": 1},
        },
    }
    text = render_timeline(timing)
    assert "wall" in text and "1.2500" in text
    lines = text.splitlines()
    # largest phase first, with its share of the phase total
    assert lines[2].split()[0] == "kernel" and "75.0%" in lines[2]
    assert lines[3].split()[0] == "finalize" and "25.0%" in lines[3]


def test_render_timeline_empty_points_at_profile_flag():
    assert "--profile" in render_timeline({})
    assert "--profile" in render_timeline({"phases": {}})
