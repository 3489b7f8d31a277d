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
Both engines accept ``bus=`` on :meth:`~repro.runtime.network.SyncNetwork
.run`.  Because algorithm drivers construct their networks internally,
there is also a process-wide *default bus* the engines fall back to::

    from repro import obs

    with obs.capture("trace.jsonl", meta={"algo": "partition"}):
        repro.run_partition(g, a=3)          # events land in trace.jsonl

    with obs.collecting() as col:
        repro.run_partition(g, a=3)
    col.check_decay(warmup=2, ratio=0.5)     # Lemma 6.1 shape, measured

The default bus is plain module state, not a thread-local: install it
from the driving thread before fanning out work, or pass ``bus=``
explicitly per engine.  When no bus is installed (the normal state) the
engines skip all event construction; ``repro.bench.baseline`` gates the
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
    "RoundEnd",
    "RoundSends",
    "RoundStart",
    "RunManifest",
    "RunReport",
    "Send",
    "Sink",
    "capture",
    "collecting",
    "current",
    "from_record",
    "install",
    "render_timeline",
    "session",
]

#: the process-wide default bus the engines fall back to (usually None)
_default_bus: EventBus | None = None


def install(bus: EventBus | None) -> EventBus | None:
    """Set the default bus; returns the previous one (for restoring)."""
    global _default_bus
    previous = _default_bus
    _default_bus = bus
    return previous


def current() -> EventBus | None:
    """The currently-installed default bus, if any."""
    return _default_bus


@contextmanager
def session(*sinks: Sink, profiler: PhaseProfiler | None = None) -> Iterator[EventBus]:
    """Install an :class:`EventBus` over ``sinks`` for the ``with`` body.

    The previous default bus is restored and the sinks closed on exit.
    """
    bus = EventBus(*sinks, profiler=profiler)
    previous = install(bus)
    try:
        yield bus
    finally:
        install(previous)
        bus.close()


@contextmanager
def capture(
    path: str,
    meta: dict[str, Any] | None = None,
    profiler: PhaseProfiler | None = None,
) -> Iterator[EventBus]:
    """Record every engine event in the ``with`` body to a JSONL file."""
    with session(JsonlSink(path, meta=meta), profiler=profiler) as bus:
        yield bus


@contextmanager
def collecting(
    profiler: PhaseProfiler | None = None,
) -> Iterator[MetricsCollector]:
    """Aggregate every engine event in the ``with`` body in memory."""
    collector = MetricsCollector()
    with session(collector, profiler=profiler):
        yield collector
