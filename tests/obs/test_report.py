"""Offline trace analysis: loading, segmentation, narrative, decay table,
and trace-vs-trace diffing."""

import json

import repro
from repro import obs
from repro.graphs import generators as gen
from repro.obs import report
from repro.obs.collect import MetricsCollector
from repro.obs.events import EventBus, RoundStart
from repro.obs.sinks import MemorySink
from repro.runtime.network import SyncNetwork
from repro.runtime.reference import ReferenceSyncNetwork
from repro.runtime.session import session


def _capture_partition(tmp_path, name, cls=None):
    path = str(tmp_path / name)
    g = gen.union_of_forests(200, 3, seed=2)
    if cls is None:
        with obs.capture(path, meta={"algo": "partition"}):
            repro.run_partition(g, a=3)
    else:
        from repro.core.common import LocalView, degree_bound
        from repro.core.partition import join_h_set

        A = degree_bound(3, 1.0)

        def program(ctx):
            view = LocalView()
            h = yield from join_h_set(ctx, view, A)
            return h

        with obs.capture(path, meta={"algo": "partition"}):
            cls(g, config={"a": 3, "eps": 1.0, "A": A}).run(program)
    return path


def test_load_records_and_meta(tmp_path):
    path = _capture_partition(tmp_path, "trace.jsonl")
    meta, records = report.load_records(path)
    assert meta["ev"] == "meta" and meta["algo"] == "partition"
    assert all(r["ev"] != "meta" for r in records)
    assert any(r["ev"] == "round_start" for r in records)


def test_run_report_reproduces_engine_statistics(tmp_path):
    g = gen.union_of_forests(250, 3, seed=3)
    path = str(tmp_path / "trace.jsonl")
    with obs.capture(path):
        res = repro.run_partition(g, a=3)
    rep = report.RunReport.from_path(path)
    assert len(rep.collectors) == 1
    col = rep.main
    assert col.decay_curve() == list(res.metrics.active_trace)
    assert col.delivered == list(res.metrics.messages_per_round)
    assert col.vertex_averaged() == res.metrics.vertex_averaged
    assert col.worst_case() == res.metrics.worst_case


def test_segmentation_splits_consecutive_executions(tmp_path):
    """Two engine runs into one trace file segment at the round reset."""
    g = gen.ring(5)

    def program(ctx):
        ctx.broadcast("x")
        yield
        yield
        return None

    path = str(tmp_path / "two.jsonl")
    with obs.capture(path):
        SyncNetwork(g).run(program)
        SyncNetwork(g).run(program)
    rep = report.RunReport.from_path(path)
    assert len(rep.collectors) == 2
    assert [c.n for c in rep.collectors] == [5, 5]
    assert rep.main.n == 5


def test_narrative_and_decay_table(tmp_path):
    path = _capture_partition(tmp_path, "trace.jsonl")
    col = report.RunReport.from_path(path).main
    text = report.narrative(col)
    assert "round    1:" in text and "active" in text and "terminated" in text
    table = report.decay_table(col)
    assert "n_i" in table and "shape:" in table


def test_narrative_truncates(tmp_path):
    col = MetricsCollector()
    for rnd in range(1, 30):
        col.emit(RoundStart(rnd, 100 - rnd))
    text = report.narrative(col, limit=5)
    assert "more rounds" in text


def test_diff_identical_fast_vs_reference(tmp_path):
    a = _capture_partition(tmp_path, "fast.jsonl", cls=SyncNetwork)
    b = _capture_partition(tmp_path, "ref.jsonl", cls=ReferenceSyncNetwork)
    col_a = report.RunReport.from_path(a).main
    col_b = report.RunReport.from_path(b).main
    identical, text = report.diff(col_a, col_b)
    assert identical, text
    assert "identical" in text


def test_diff_flags_divergence():
    a, b = MetricsCollector(), MetricsCollector()
    for rnd, n_i in enumerate([10, 5, 2], start=1):
        a.emit(RoundStart(rnd, n_i))
    for rnd, n_i in enumerate([10, 6, 2], start=1):
        b.emit(RoundStart(rnd, n_i))
    identical, text = report.diff(a, b, label_a="fast", label_b="ref")
    assert not identical
    assert "DIVERGENT" in text and "round 2" in text


def test_diff_handles_length_mismatch():
    a, b = MetricsCollector(), MetricsCollector()
    a.emit(RoundStart(1, 3))
    a.emit(RoundStart(2, 1))
    b.emit(RoundStart(1, 3))
    identical, text = report.diff(a, b)
    assert not identical and "(absent)" in text


def test_report_tolerates_blank_lines_and_missing_meta(tmp_path):
    path = str(tmp_path / "bare.jsonl")
    with open(path, "w") as fh:
        fh.write("\n")
        fh.write(json.dumps({"ev": "round_start", "round": 1, "active": 2}) + "\n")
        fh.write("\n")
        fh.write(
            json.dumps({"ev": "round_end", "round": 1, "msgs": 0, "receivers": 0, "halts": 2})
            + "\n"
        )
    rep = report.RunReport.from_path(path)
    assert rep.meta == {}
    assert rep.describe_meta() == "(no metadata)"
    assert rep.main.decay_curve() == [2]


def test_memory_sink_stream_equals_jsonl_roundtrip(tmp_path):
    """Serialising to JSONL and loading back loses nothing: the rebuilt
    events equal the in-memory stream."""
    g = gen.star(6)

    def program(ctx):
        ctx.broadcast(("x", ctx.v))
        yield
        return ctx.v

    mem = MemorySink()
    path = str(tmp_path / "t.jsonl")
    bus = EventBus(mem, obs.JsonlSink(path))
    with session(bus=bus):
        SyncNetwork(g).run(program)
    bus.close()
    _meta, records = report.load_records(path)
    rebuilt = [e for e in map(obs.from_record, records) if e is not None]
    assert rebuilt == mem.events
