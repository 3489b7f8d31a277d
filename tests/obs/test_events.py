"""The event layer itself: typed events, the bus, and the sinks."""

import json

import pytest

from repro import obs
from repro.graphs import generators as gen
from repro.obs.events import (
    EVENT_TYPES,
    Broadcast,
    Commit,
    Drop,
    EventBus,
    FaultCrash,
    FaultDelay,
    FaultDrop,
    FaultDup,
    Halt,
    RoundDrops,
    RoundEnd,
    RoundSends,
    RoundStart,
    Send,
    from_record,
)
from repro.obs.sinks import JsonlSink, MemorySink, NullSink
from repro.runtime.network import SyncNetwork
from repro.runtime.session import current, session


def _sample_events():
    return [
        RoundStart(1, 5),
        Send(1, 0, 1),
        Broadcast(1, 2, 3),
        RoundSends(1, 7),
        Commit(1, 4),
        Halt(1, 4),
        Drop(1, 4, 2),
        RoundDrops(1, 2),
        FaultCrash(1, 4),
        FaultDrop(2, 0, 1),
        FaultDup(2, 0, 1),
        FaultDelay(2, 0, 1, 3),
        RoundEnd(1, 4, 3, 1),
    ]


def test_every_kind_roundtrips_through_records():
    for ev in _sample_events():
        rec = ev.to_record()
        assert rec["ev"] == ev.kind
        back = from_record(json.loads(json.dumps(rec)))
        assert back == ev
        assert type(back) is type(ev)


def test_unknown_and_meta_records_deserialize_to_none():
    assert from_record({"ev": "meta", "schema": 1}) is None
    assert from_record({"ev": "warp", "round": 3}) is None
    assert from_record({}) is None


def test_registry_covers_the_issue_event_vocabulary():
    assert set(EVENT_TYPES) == {
        "round_start",
        "round_end",
        "round_sends",
        "round_drops",
        "send",
        "broadcast",
        "commit",
        "halt",
        "drop",
        "fault_crash",
        "fault_drop",
        "fault_dup",
        "fault_delay",
    }


def test_bus_partitions_live_and_inert_sinks():
    mem = MemorySink()
    bus = EventBus(NullSink(), mem)
    assert bus.active
    bus.emit(RoundStart(1, 2))
    assert mem.events == [RoundStart(1, 2)]

    null_only = EventBus(NullSink())
    assert not null_only.active
    assert EventBus().active is False


def test_null_sink_bus_never_wires_contexts():
    """The cost contract's mechanism: with no live sink the engine leaves
    ``ctx._bus`` unset, so send/broadcast never construct events."""
    g = gen.ring(6)

    seen = []

    def program(ctx):
        seen.append(ctx._bus)
        ctx.broadcast("x")
        yield
        return None

    with session(bus=EventBus(NullSink())):
        SyncNetwork(g).run(program)
    assert seen and all(b is None for b in seen)

    seen.clear()
    bus = EventBus(MemorySink())
    with session(bus=bus):
        SyncNetwork(g).run(program)
    assert seen and all(b is bus for b in seen)


def test_jsonl_sink_writes_meta_header_and_events(tmp_path):
    path = str(tmp_path / "t.jsonl")
    sink = JsonlSink(path, meta={"algo": "demo", "n": 4})
    for ev in _sample_events():
        sink.emit(ev)
    sink.close()
    sink.close()  # idempotent

    lines = [json.loads(s) for s in open(path).read().splitlines()]
    assert lines[0]["ev"] == "meta"
    assert lines[0]["schema"] == obs.SCHEMA_VERSION
    assert lines[0]["algo"] == "demo"
    rebuilt = [from_record(rec) for rec in lines[1:]]
    assert rebuilt == _sample_events()


def test_session_installs_and_restores_the_bus():
    assert current().bus is None
    with EventBus(MemorySink()) as bus, session(bus=bus):
        assert current().bus is bus
        with EventBus(MemorySink()) as inner, session(bus=inner):
            assert current().bus is inner
        assert current().bus is bus
    assert current().bus is None


def test_run_picks_up_the_session_bus():
    g = gen.path(3)

    def program(ctx):
        ctx.broadcast("hello")
        yield
        return ctx.v

    mem = MemorySink()
    with session(bus=EventBus(mem)):
        SyncNetwork(g).run(program)
    kinds = {e.kind for e in mem.events}
    assert {"round_start", "broadcast", "halt", "round_end"} <= kinds

    # outside the session nothing is observed
    mem.clear()
    SyncNetwork(g).run(program)
    assert mem.events == []


def test_explicit_bus_overrides_installed_default():
    g = gen.path(3)

    def program(ctx):
        yield
        return None

    default_mem, explicit_mem = MemorySink(), MemorySink()
    with session(bus=EventBus(default_mem)):
        with session(bus=EventBus(explicit_mem)):
            SyncNetwork(g).run(program)
    assert default_mem.events == []
    assert explicit_mem.events


def test_profiler_collects_engine_phases_even_on_inactive_bus():
    g = gen.ring(8)

    def program(ctx):
        for _ in range(3):
            ctx.broadcast("x")
            yield
        return None

    prof = obs.PhaseProfiler()
    with session(bus=EventBus(NullSink(), profiler=prof)):
        SyncNetwork(g).run(program)
    assert set(prof.seconds) == {"deliver", "step", "route"}
    # one hit per phase per round (4 rounds: 3 broadcasts + final return)
    assert prof.counts["step"] == 4
    assert prof.total() > 0.0
    report = prof.report()
    assert "step" in report and "share" in report
    d = prof.as_dict()
    assert pytest.approx(sum(p["share"] for p in d.values())) == 1.0
