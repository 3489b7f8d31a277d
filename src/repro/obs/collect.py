"""The aggregating sink: per-vertex and per-round statistics from events.

:class:`MetricsCollector` consumes one execution's event stream and
accumulates exactly the distributions the paper's statements are about:

* the per-vertex termination-round histogram (the distribution whose mean
  is the vertex-averaged complexity T-bar and whose max is the worst-case
  complexity T);
* the active-vertex decay curve n_1, n_2, ... whose exponential decay is
  Lemma 6.1 -- :meth:`check_decay` tests the shape directly (monotone
  non-increasing, per-round ratio below a bound after a warm-up);
* message-volume counters, split into *sent* (what ``ctx.send`` /
  ``ctx.broadcast`` routed) and *delivered* (the engine's per-round
  traffic including halt notices, net of same-round drops);
* inbox-occupancy: how many distinct vertices receive mail each round and
  the mean pending messages per such receiver.

The collector accepts both tracing granularities: the per-call
``send``/``broadcast``/``halt`` events the generator engines emit, and
the aggregate ``round_sends`` / ``round_drops`` / ``round_end.halts``
records the bulk engine emits (one event per round instead of
O(messages)).  A ``round_sends`` record is *authoritative* for its
round -- individual send/broadcast events for the same round are
ignored -- so replaying a mixed stream never double-counts message
totals.  Termination counts merge the two granularities **per round**:
a round's per-vertex ``halt`` records win when present, and rounds
carrying only the aggregate ``round_end.halts`` count fall back to it
-- a stream that switches granularity between rounds still yields exact
histogram totals, with every vertex counted exactly once.

The collector assumes a single execution (rounds arriving in increasing
order); :func:`repro.obs.report.segment_records` splits multi-run JSONL
files before replaying them into one collector per execution.
"""

from __future__ import annotations

from typing import Iterable

from repro.obs.events import Event
from repro.obs.sinks import Sink


def _grow(lst: list[int], upto: int) -> None:
    while len(lst) < upto:
        lst.append(0)


class MetricsCollector(Sink):
    """Aggregate an event stream into per-vertex / per-round statistics."""

    def __init__(self) -> None:
        #: n_i per round (index 0 = round 1), from ``round_start``
        self.active: list[int] = []
        #: messages routed by programs per round (``send`` + ``broadcast``)
        self.sent: list[int] = []
        #: engine traffic per round (= RoundMetrics.messages_per_round)
        self.delivered: list[int] = []
        #: distinct vertices receiving mail for the next round
        self.receivers: list[int] = []
        #: messages dropped per round (receiver terminated same round)
        self.dropped: list[int] = []
        #: aggregate terminations per round (``round_end.halts``) -- the
        #: only termination record an aggregate-granularity trace carries
        self.halts: list[int] = []
        #: rounds whose ``sent`` total came from an authoritative
        #: ``round_sends`` record (per-call events for them are ignored)
        self._agg_sent_rounds: set[int] = set()
        #: terminating vertices per round, in engine order
        self.terminated: list[list[int]] = []
        #: committing vertices per round, in engine order
        self.committed: list[list[int]] = []
        #: vertex -> termination round (r(v))
        self.termination_round: dict[int, int] = {}
        #: vertex -> commit round (Feuilloley's first definition)
        self.commit_round: dict[int, int] = {}
        #: adversary-crashed vertices per round (``fault_crash``)
        self.crashes: list[list[int]] = []
        #: vertex -> round the adversary crashed it
        self.crash_round: dict[int, int] = {}
        #: per-round injected message faults: drops / duplications / delays
        self.fault_drops: list[int] = []
        self.fault_dups: list[int] = []
        self.fault_delays: list[int] = []

    # ------------------------------------------------------------------
    # sink interface
    # ------------------------------------------------------------------
    def emit(self, event: Event) -> None:
        kind = event.kind
        rnd = event.round
        if kind == "round_start":
            _grow(self.active, rnd - 1)
            self.active.append(event.active)
        elif kind == "send":
            if rnd not in self._agg_sent_rounds:
                _grow(self.sent, rnd)
                self.sent[rnd - 1] += 1
        elif kind == "broadcast":
            if rnd not in self._agg_sent_rounds:
                _grow(self.sent, rnd)
                self.sent[rnd - 1] += event.msgs
        elif kind == "round_sends":
            # authoritative per-round aggregate: overwrite whatever the
            # per-call events contributed and stop counting them
            _grow(self.sent, rnd)
            self.sent[rnd - 1] = event.msgs
            self._agg_sent_rounds.add(rnd)
        elif kind == "halt":
            while len(self.terminated) < rnd:
                self.terminated.append([])
            self.terminated[rnd - 1].append(event.v)
            self.termination_round[event.v] = rnd
        elif kind == "commit":
            while len(self.committed) < rnd:
                self.committed.append([])
            self.committed[rnd - 1].append(event.v)
            self.commit_round[event.v] = rnd
        elif kind == "drop" or kind == "round_drops":
            _grow(self.dropped, rnd)
            self.dropped[rnd - 1] += event.msgs
        elif kind == "round_end":
            _grow(self.delivered, rnd)
            self.delivered[rnd - 1] = event.msgs
            _grow(self.receivers, rnd)
            self.receivers[rnd - 1] = event.receivers
            _grow(self.halts, rnd)
            self.halts[rnd - 1] = event.halts
        elif kind == "fault_crash":
            while len(self.crashes) < rnd:
                self.crashes.append([])
            self.crashes[rnd - 1].append(event.v)
            self.crash_round[event.v] = rnd
        elif kind == "fault_drop":
            _grow(self.fault_drops, rnd)
            self.fault_drops[rnd - 1] += 1
        elif kind == "fault_dup":
            _grow(self.fault_dups, rnd)
            self.fault_dups[rnd - 1] += 1
        elif kind == "fault_delay":
            _grow(self.fault_delays, rnd)
            self.fault_delays[rnd - 1] += 1

    def replay(self, events: Iterable[Event]) -> "MetricsCollector":
        """Feed an iterable of events through the collector; returns self."""
        for ev in events:
            self.emit(ev)
        return self

    # ------------------------------------------------------------------
    # per-vertex distributions
    # ------------------------------------------------------------------
    def _halts_per_round(self) -> list[int]:
        """Per-round termination counts, merging granularities per round.

        A round's per-vertex ``halt`` records are authoritative when
        present (they duplicate ``round_end.halts`` in generator-engine
        traces); rounds carrying only the aggregate count fall back to
        it.  Per-round precedence keeps a stream that switches
        granularity *between* rounds exact: nothing double-counted,
        nothing lost.
        """
        length = max(len(self.terminated), len(self.halts))
        out = []
        for r in range(length):
            pv = self.terminated[r] if r < len(self.terminated) else []
            if pv:
                out.append(len(pv))
            else:
                out.append(self.halts[r] if r < len(self.halts) else 0)
        return out

    @property
    def n(self) -> int:
        """Number of vertices observed terminating."""
        return sum(self._halts_per_round())

    @property
    def rounds(self) -> int:
        """Number of rounds the execution ran."""
        return len(self.active)

    def round_histogram(self) -> dict[int, int]:
        """Termination round -> how many vertices finished there."""
        return {r + 1: h for r, h in enumerate(self._halts_per_round()) if h}

    def vertex_averaged(self) -> float:
        """T-bar: mean termination round over the observed vertices."""
        halts = self._halts_per_round()
        total = sum(halts)
        if not total:
            return 0.0
        return sum((r + 1) * h for r, h in enumerate(halts)) / total

    def worst_case(self) -> int:
        """T: max termination round over the observed vertices."""
        return max(
            (r + 1 for r, h in enumerate(self._halts_per_round()) if h),
            default=0,
        )

    def terminations_per_round(self) -> list[int]:
        return self._halts_per_round()

    def commits_per_round(self) -> list[int]:
        return [len(vs) for vs in self.committed]

    # ------------------------------------------------------------------
    # decay curve (Lemma 6.1)
    # ------------------------------------------------------------------
    def decay_curve(self) -> list[int]:
        """n_1, n_2, ...: active vertices at the start of each round."""
        return list(self.active)

    def decay_ratios(self) -> list[float]:
        """n_{i+1} / n_i for consecutive rounds (0.0 once n_i hits 0)."""
        a = self.active
        return [
            (a[i + 1] / a[i]) if a[i] else 0.0 for i in range(len(a) - 1)
        ]

    def check_decay(self, warmup: int = 0, ratio: float = 0.5) -> bool:
        """Does the curve have Lemma 6.1's shape?

        True iff the active counts are monotone non-increasing over the
        whole execution *and* every per-round ratio n_{i+1}/n_i after the
        first ``warmup`` transitions is at most ``ratio`` (Lemma 6.1 with
        eps gives ratio 2/(2+eps); the default 1/2 is eps = 2).
        """
        a = self.active
        for i in range(len(a) - 1):
            if a[i + 1] > a[i]:
                return False
        for i, r in enumerate(self.decay_ratios()):
            if i >= warmup and r > ratio + 1e-12:
                return False
        return True

    # ------------------------------------------------------------------
    # message volume and inbox occupancy
    # ------------------------------------------------------------------
    def total_sent(self) -> int:
        return sum(self.sent)

    def total_delivered(self) -> int:
        return sum(self.delivered)

    def total_dropped(self) -> int:
        return sum(self.dropped)

    def inbox_occupancy(self) -> list[float]:
        """Mean pending messages per receiving vertex, per round.

        ``receivers[i]`` counts the distinct inboxes holding mail for
        round i + 2; the occupancy divides the engine's routed volume
        (sent minus same-round drops) across them.
        """
        out = []
        for i, recv in enumerate(self.receivers):
            if not recv:
                out.append(0.0)
                continue
            routed = (self.sent[i] if i < len(self.sent) else 0) - (
                self.dropped[i] if i < len(self.dropped) else 0
            )
            out.append(routed / recv)
        return out

    # ------------------------------------------------------------------
    # injected faults (the repro.faults adversary)
    # ------------------------------------------------------------------
    @property
    def faulted(self) -> bool:
        """True when the trace contains any adversary activity."""
        return bool(
            self.crash_round
            or any(self.fault_drops)
            or any(self.fault_dups)
            or any(self.fault_delays)
        )

    def total_crashed(self) -> int:
        return len(self.crash_round)

    def fault_summary(self) -> str:
        """One-line digest of the injected faults (empty if none)."""
        if not self.faulted:
            return ""
        return (
            f"crashed={self.total_crashed()} "
            f"msg-drops={sum(self.fault_drops)} "
            f"msg-dups={sum(self.fault_dups)} "
            f"msg-delays={sum(self.fault_delays)}"
        )

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """One-line digest mirroring ``RoundMetrics.summary``."""
        line = (
            f"n={self.n} rounds={self.rounds} "
            f"avg={self.vertex_averaged():.3f} worst={self.worst_case()} "
            f"sent={self.total_sent()} delivered={self.total_delivered()} "
            f"dropped={self.total_dropped()}"
        )
        if self.faulted:
            line += f" | faults: {self.fault_summary()}"
        return line
