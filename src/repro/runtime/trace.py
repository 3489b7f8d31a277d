"""Execution tracing: per-round observability of a run.

A :class:`Trace` is the round-by-round narrative (the "what happened
when" view that complements the aggregate
:class:`repro.runtime.metrics.RoundMetrics`): which vertices terminated
or committed each round, and how many messages the programs sent.

:class:`TraceRecorder` builds one: a thin :class:`repro.obs.EventBus`
sink.  Attach it to a run and the engines' event stream fills the
trace::

    rec = TraceRecorder()
    SyncNetwork(g).run(program, bus=EventBus(rec))
    print(rec.trace.narrative())

It costs nothing when not attached and shares the engines' single
instrumentation substrate.

Message counts: a trace counts what the *programs sent* (``ctx.send`` /
``ctx.broadcast`` payloads actually routed), which differs from
``RoundMetrics.messages_per_round`` -- the engine's delivered traffic --
by same-round drops and halt notices; the differential suite pins the
traces of both engines to each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.events import Event
from repro.obs.sinks import Sink


@dataclass
class RoundRecord:
    """What happened during one round."""

    round: int
    terminated: list[int] = field(default_factory=list)
    committed: list[int] = field(default_factory=list)
    messages: int = 0


@dataclass
class Trace:
    """A round-by-round record of an execution."""

    records: list[RoundRecord] = field(default_factory=list)

    def record(self, rnd: int) -> RoundRecord:
        """The record for 1-based round ``rnd``, creating it (and any
        earlier missing rounds) on first access.

        Records are stored densely at index ``rnd - 1`` with ``round``
        always ``index + 1``, so out-of-order access can neither gap nor
        duplicate the sequence; a non-positive round is rejected rather
        than silently aliasing the last record (``records[-1]``, the bug
        the old unchecked indexing had).
        """
        if rnd < 1:
            raise ValueError(f"rounds are 1-based, got {rnd}")
        records = self.records
        while len(records) < rnd:
            records.append(RoundRecord(round=len(records) + 1))
        return records[rnd - 1]

    def termination_rounds(self) -> dict[int, int]:
        out = {}
        for rec in self.records:
            for v in rec.terminated:
                out[v] = rec.round
        return out

    def terminations_per_round(self) -> list[int]:
        return [len(rec.terminated) for rec in self.records]

    def messages_per_round(self) -> list[int]:
        return [rec.messages for rec in self.records]

    def narrative(self, limit: int = 50) -> str:
        """A human-readable per-round log (truncated to ``limit`` rounds)."""
        lines = []
        for rec in self.records[:limit]:
            parts = [f"round {rec.round:4d}:"]
            if rec.messages:
                parts.append(f"{rec.messages} msgs")
            if rec.committed:
                parts.append(f"{len(rec.committed)} committed")
            if rec.terminated:
                parts.append(f"{len(rec.terminated)} terminated")
            if len(parts) == 1:
                parts.append("idle")
            lines.append(" ".join(parts))
        if len(self.records) > limit:
            lines.append(f"... ({len(self.records) - limit} more rounds)")
        return "\n".join(lines)


class TraceRecorder(Sink):
    """An :class:`repro.obs.EventBus` sink that builds a :class:`Trace`.

    Consumes the engines' typed events -- ``round_start`` creates the
    round's record, ``send``/``broadcast`` accumulate the per-round
    message count, ``commit`` and ``halt`` append the vertex in engine
    order -- without touching the programs.
    """

    def __init__(self, trace: Trace | None = None) -> None:
        self.trace = trace if trace is not None else Trace()

    def emit(self, event: Event) -> None:
        kind = event.kind
        if kind == "round_start":
            self.trace.record(event.round)
        elif kind == "broadcast":
            self.trace.record(event.round).messages += event.msgs
        elif kind == "send":
            self.trace.record(event.round).messages += 1
        elif kind == "halt":
            self.trace.record(event.round).terminated.append(event.v)
        elif kind == "commit":
            self.trace.record(event.round).committed.append(event.v)

