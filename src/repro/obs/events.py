"""Typed engine events and the :class:`EventBus` that routes them.

The round engines (:class:`repro.runtime.network.SyncNetwork` and the
reference specification) narrate an execution as a stream of small, typed
events: one ``round_start``/``round_end`` pair per round, one ``send`` per
``ctx.send`` call, one ``broadcast`` per ``ctx.broadcast`` call (carrying
the receiver count, not one event per receiver), ``commit`` and ``halt``
per vertex, and ``drop`` when messages addressed to a vertex that
terminated in the sending round are discarded.

Both engines emit *identical* event streams for the same execution -- the
differential suite in ``tests/runtime/test_equivalence.py`` enforces it --
so an event trace is an engine-independent record of a run.

Events carry only small integers (round numbers, vertex indices, message
counts), never payloads, so they serialise to JSONL losslessly via
:meth:`Event.to_record` / :func:`from_record`.

Cost model: when no sink is live the engines never construct an event
(the bus is simply not wired into the contexts), so instrumentation with
a :class:`~repro.obs.sinks.NullSink` -- or no bus at all -- costs one
branch per call site.  See ``docs/observability.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar

#: bump when the JSONL record layout changes incompatibly
SCHEMA_VERSION = 1


@dataclass(frozen=True, slots=True)
class Event:
    """Base class: every event happens during one 1-based round."""

    kind: ClassVar[str] = "?"

    round: int

    def to_record(self) -> dict[str, Any]:
        """A JSON-safe dict representation (``ev`` holds the kind)."""
        rec: dict[str, Any] = {"ev": self.kind}
        for f in fields(self):
            rec[f.name] = getattr(self, f.name)
        return rec


@dataclass(frozen=True, slots=True)
class RoundStart(Event):
    """A round begins with ``active`` vertices still running (n_i)."""

    kind: ClassVar[str] = "round_start"
    active: int


@dataclass(frozen=True, slots=True)
class RoundEnd(Event):
    """A round ended.

    ``msgs`` is the engine's per-round traffic (routed messages minus
    same-round drops, plus one halt notice per terminating vertex --
    exactly ``RoundMetrics.messages_per_round``), ``receivers`` the number
    of distinct vertices with a non-empty inbox for the next round, and
    ``halts`` the number of vertices that terminated this round.
    """

    kind: ClassVar[str] = "round_end"
    msgs: int
    receivers: int
    halts: int


@dataclass(frozen=True, slots=True)
class Send(Event):
    """``ctx.send``: one payload routed from ``src`` to neighbor ``dst``."""

    kind: ClassVar[str] = "send"
    src: int
    dst: int


@dataclass(frozen=True, slots=True)
class Broadcast(Event):
    """``ctx.broadcast``: ``msgs`` copies routed to the active neighbors
    of ``src`` (only emitted when at least one neighbor is active)."""

    kind: ClassVar[str] = "broadcast"
    src: int
    msgs: int


@dataclass(frozen=True, slots=True)
class RoundSends(Event):
    """Aggregate of one round's program sends: ``msgs`` copies routed by
    all ``ctx.send`` / ``ctx.broadcast`` calls this round combined.

    This is the coarse-grained alternative to per-``send``/``broadcast``
    events: the bulk engine emits one ``round_sends`` per round instead of
    O(messages) events, so tracing a million-vertex run stays O(rounds).
    :class:`~repro.obs.collect.MetricsCollector` accepts either
    granularity (a ``round_sends`` record is authoritative for its round,
    so mixed streams are never double-counted).
    """

    kind: ClassVar[str] = "round_sends"
    msgs: int


@dataclass(frozen=True, slots=True)
class Commit(Event):
    """Vertex ``v`` fixed its output (``ctx.commit``) this round."""

    kind: ClassVar[str] = "commit"
    v: int


@dataclass(frozen=True, slots=True)
class Halt(Event):
    """Vertex ``v`` terminated this round; its running time r(v)."""

    kind: ClassVar[str] = "halt"
    v: int


@dataclass(frozen=True, slots=True)
class Drop(Event):
    """``msgs`` messages addressed to ``dst`` were discarded because
    ``dst`` terminated in the same round they were sent."""

    kind: ClassVar[str] = "drop"
    dst: int
    msgs: int


@dataclass(frozen=True, slots=True)
class RoundDrops(Event):
    """Aggregate of one round's :class:`Drop` events: ``msgs`` copies
    discarded because their receiver terminated this same round.  The
    bulk engine emits it, once per round with such drops, where the
    generator engines emit one ``drop`` per receiver."""

    kind: ClassVar[str] = "round_drops"
    msgs: int


@dataclass(frozen=True, slots=True)
class FaultCrash(Event):
    """The adversary crash-stopped vertex ``v`` at the start of this
    round: it performs no further computation and announces nothing
    (:mod:`repro.faults`)."""

    kind: ClassVar[str] = "fault_crash"
    v: int


@dataclass(frozen=True, slots=True)
class FaultDrop(Event):
    """The adversary dropped one copy routed from ``src`` to ``dst``."""

    kind: ClassVar[str] = "fault_drop"
    src: int
    dst: int


@dataclass(frozen=True, slots=True)
class FaultDup(Event):
    """The adversary duplicated one copy from ``src`` to ``dst`` (one
    extra copy delivered alongside the original)."""

    kind: ClassVar[str] = "fault_dup"
    src: int
    dst: int


@dataclass(frozen=True, slots=True)
class FaultDelay(Event):
    """The adversary delayed one copy from ``src`` to ``dst`` by
    ``delay`` extra rounds beyond the normal next-round delivery."""

    kind: ClassVar[str] = "fault_delay"
    src: int
    dst: int
    delay: int


#: kind string -> event class, for deserialisation
EVENT_TYPES: dict[str, type[Event]] = {
    cls.kind: cls
    for cls in (
        RoundStart,
        RoundEnd,
        Send,
        Broadcast,
        RoundSends,
        Commit,
        Halt,
        Drop,
        RoundDrops,
        FaultCrash,
        FaultDrop,
        FaultDup,
        FaultDelay,
    )
}


def from_record(rec: dict[str, Any]) -> Event | None:
    """Rebuild an :class:`Event` from a ``to_record`` dict.

    Returns ``None`` for records of unknown kind (e.g. the ``meta``
    header line a :class:`~repro.obs.sinks.JsonlSink` writes), so loaders
    can skip them without special-casing.
    """
    cls = EVENT_TYPES.get(rec.get("ev", ""))
    if cls is None:
        return None
    kwargs = {f.name: rec[f.name] for f in fields(cls)}
    return cls(**kwargs)


class EventBus:
    """Fan-out of engine events to pluggable sinks.

    The bus partitions its sinks into *live* ones (``sink.live`` true) and
    inert ones; :attr:`active` is false when no sink is live, and the
    engines use that to skip event construction entirely -- a bus holding
    only a :class:`~repro.obs.sinks.NullSink` therefore costs (almost)
    nothing.  An optional :class:`~repro.obs.profile.PhaseProfiler` rides
    along independently of event emission: profiling works even on an
    inactive bus.
    """

    __slots__ = ("sinks", "profiler", "_live")

    def __init__(self, *sinks, profiler=None) -> None:
        self.sinks = tuple(sinks)
        self.profiler = profiler
        self._live = tuple(s for s in self.sinks if getattr(s, "live", True))

    @property
    def active(self) -> bool:
        """Whether any sink actually consumes events."""
        return bool(self._live)

    def emit(self, event: Event) -> None:
        for sink in self._live:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()

    def __enter__(self) -> "EventBus":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ", ".join(type(s).__name__ for s in self.sinks)
        return f"EventBus({names}, active={self.active})"
