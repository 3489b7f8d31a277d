"""``repro.obs``: the unified instrumentation layer.

One substrate observes everything the engines do: typed events on an
:class:`EventBus` (:mod:`repro.obs.events`), pluggable sinks
(:mod:`repro.obs.sinks` -- JSONL file, in-memory, aggregating
:class:`MetricsCollector`, near-zero-cost :class:`NullSink`), wall-clock
phase profiling (:mod:`repro.obs.profile`), offline trace analysis
backing the ``repro inspect`` CLI (:mod:`repro.obs.report`), and the
structured telemetry layer (:mod:`repro.obs.telemetry`: run manifests
with a stable content address, and the ``--timeline`` renderer).

Attaching a bus
---------------
The engines narrate to the bus of the current run session
(:mod:`repro.runtime.session`); algorithm drivers construct their
networks internally, so that is the one way in::

    from repro.runtime.session import session

    with session(bus=EventBus(MemorySink())):
        repro.run_partition(g, a=3)          # events land in the sink

Two helpers wrap the common cases::

    from repro import obs

    with obs.capture("trace.jsonl", meta={"algo": "partition"}):
        repro.run_partition(g, a=3)          # events land in trace.jsonl

    with obs.collecting() as col:
        repro.run_partition(g, a=3)
    col.check_decay(warmup=2, ratio=0.5)     # Lemma 6.1 shape, measured

When the session has no bus (the normal state) the engines skip all
event construction; ``repro.bench.baseline`` gates the
instrumented-but-null-sink path to within 5% of that.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.collect import MetricsCollector
from repro.obs.events import (
    SCHEMA_VERSION,
    Broadcast,
    Commit,
    Drop,
    Event,
    EventBus,
    Halt,
    RoundDrops,
    RoundEnd,
    RoundSends,
    RoundStart,
    Send,
    from_record,
)
from repro.obs.profile import PhaseProfiler
from repro.obs.report import RunReport
from repro.obs.sinks import JsonlSink, MemorySink, NullSink, Sink
from repro.obs.telemetry import RunManifest, render_timeline

__all__ = [
    "SCHEMA_VERSION",
    "Broadcast",
    "Commit",
    "Drop",
    "Event",
    "EventBus",
    "Halt",
    "JsonlSink",
    "MemorySink",
    "MetricsCollector",
    "NullSink",
    "PhaseProfiler",
    "RoundDrops",
    "RoundEnd",
    "RoundSends",
    "RoundStart",
    "RunManifest",
    "RunReport",
    "Send",
    "Sink",
    "capture",
    "collecting",
    "from_record",
    "render_timeline",
]


@contextmanager
def _bus_session(*sinks: Sink, profiler: PhaseProfiler | None) -> Iterator[EventBus]:
    """Run the ``with`` body with a bus over ``sinks`` as the session's;
    the sinks are closed on exit."""
    from repro.runtime.session import session

    with EventBus(*sinks, profiler=profiler) as bus, session(bus=bus):
        yield bus


@contextmanager
def capture(
    path: str,
    meta: dict[str, Any] | None = None,
    profiler: PhaseProfiler | None = None,
) -> Iterator[EventBus]:
    """Record every engine event in the ``with`` body to a JSONL file."""
    with _bus_session(JsonlSink(path, meta=meta), profiler=profiler) as bus:
        yield bus


@contextmanager
def collecting(
    profiler: PhaseProfiler | None = None,
) -> Iterator[MetricsCollector]:
    """Aggregate every engine event in the ``with`` body in memory."""
    collector = MetricsCollector()
    with _bus_session(collector, profiler=profiler):
        yield collector
