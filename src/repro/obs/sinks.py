"""Event sinks: where the engines' event streams go.

Three built-ins cover the observability spectrum:

* :class:`NullSink` -- consumes nothing; attaching it leaves the bus
  inactive, so the engines skip event construction entirely and the
  instrumented run stays within the ``repro.bench.baseline`` overhead
  gate (< 5% of the uninstrumented path).
* :class:`MemorySink` -- buffers the typed events in a list, for tests
  and for in-process analysis (the differential equivalence suite
  compares two of these).
* :class:`JsonlSink` -- streams ``Event.to_record()`` dicts as JSON
  lines, prefixed with one ``{"ev": "meta", ...}`` header recording the
  schema version and caller-supplied run metadata.  The files it writes
  are what ``repro inspect`` loads.  The sink is crash-safe: it flushes
  the header immediately and then every :data:`JsonlSink.FLUSH_EVERY`
  events, so a run killed mid-write (OOM, SIGKILL, power loss) leaves a
  trace whose loss is bounded to the last partial batch -- and at most
  the final line of the file can be torn, which
  :func:`repro.obs.report.load_records` tolerates.

The aggregating sink lives in :mod:`repro.obs.collect`
(:class:`~repro.obs.collect.MetricsCollector`).
"""

from __future__ import annotations

import json
from typing import IO, Any

from repro.obs.events import SCHEMA_VERSION, Event


class Sink:
    """Base sink: receives every event the bus considers it live for."""

    #: inert sinks set this false; the bus then never calls ``emit``
    live: bool = True

    def emit(self, event: Event) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources; idempotent."""

    def __enter__(self) -> "Sink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NullSink(Sink):
    """A sink that wants nothing: the near-zero-cost default.

    Because ``live`` is false the bus reports itself inactive, the
    engines never wire contexts to it, and no event object is ever
    constructed -- the entire instrumentation layer reduces to a handful
    of per-round branch checks.
    """

    live = False

    def emit(self, event: Event) -> None:  # pragma: no cover - never called
        pass


class MemorySink(Sink):
    """Buffer the typed events in order, in memory."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def emit(self, event: Event) -> None:
        self.events.append(event)

    def by_kind(self, kind: str) -> list[Event]:
        return [e for e in self.events if e.kind == kind]

    def clear(self) -> None:
        self.events.clear()


class JsonlSink(Sink):
    """Stream events to a JSONL file (one compact JSON object per line).

    Parameters
    ----------
    path_or_fh:
        A filesystem path (opened for writing) or an already-open text
        file handle (not closed by :meth:`close`).
    meta:
        Extra key/values for the header record, e.g. the algorithm name,
        workload, n and seed -- ``repro inspect`` prints them back.
    """

    #: events per flush batch.  Small enough that a killed run loses at
    #: most a batch of trailing events, large enough that the flush cost
    #: stays invisible next to JSON encoding.
    FLUSH_EVERY = 64

    def __init__(self, path_or_fh: str | IO[str], meta: dict[str, Any] | None = None) -> None:
        if isinstance(path_or_fh, str):
            self._fh: IO[str] | None = open(path_or_fh, "w")
            self._owns = True
        else:
            self._fh = path_or_fh
            self._owns = False
        self._pending = 0
        header: dict[str, Any] = {"ev": "meta", "schema": SCHEMA_VERSION}
        if meta:
            header.update(meta)
        # The header flushes immediately: even a trace killed in round 1
        # identifies its run.
        self._write(header)
        self._fh.flush()

    def _write(self, rec: dict[str, Any]) -> None:
        self._fh.write(json.dumps(rec, separators=(",", ":")) + "\n")

    def emit(self, event: Event) -> None:
        self._write(event.to_record())
        self._pending += 1
        if self._pending >= self.FLUSH_EVERY:
            self._fh.flush()
            self._pending = 0

    def close(self) -> None:
        """Flush and release the handle; safe to call repeatedly."""
        if self._fh is None:
            return
        fh, self._fh = self._fh, None
        fh.flush()
        if self._owns:
            fh.close()
