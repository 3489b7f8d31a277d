"""The reference round engine: the executable specification.

This is the original, straightforward implementation of the synchronous
round semantics (per-round dicts, explicit ``_outgoing`` routing), kept
verbatim except for one deliberate fix that the fast engine shares:
messages routed to a vertex that terminated in the same round are dropped
at routing time instead of accumulating undelivered in ``pending`` while
inflating the message count.

It exists so the throughput-optimised :class:`repro.runtime.network
.SyncNetwork` has something to be *equal to*: the differential suite in
``tests/runtime/test_equivalence.py`` replays randomized programs over
every workload family through both engines and asserts identical
:class:`~repro.runtime.network.RunResult`\\ s (outputs, per-vertex rounds,
active/message traces, commit rounds) and identical event streams.  It
is also the "before" engine that :mod:`repro.bench.baseline` times to
quantify the fast path's speedup.

Do not optimise this module; clarity is its contract.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any

from repro.obs.events import Drop
from repro.runtime.context import _EMPTY_FROZENSET
from repro.runtime.network import (
    MaxRoundsExceeded,
    ProgramFactory,
    RoundLimitExceeded,
    RunResult,
    SyncNetwork,
    default_max_rounds,
)
from repro.runtime.scheduler import SyncBarrierScheduler, collector_paused

__all__ = ["MaxRoundsExceeded", "ReferenceSyncNetwork", "RoundLimitExceeded"]


class ReferenceSyncNetwork(SyncNetwork):
    """Drop-in :class:`SyncNetwork` running the specification engine.

    Contexts stay *unwired* (``ctx._router is None``), so ``send`` and
    ``broadcast`` accumulate ``(target, payload)`` tuples in
    ``ctx._outgoing`` and this loop routes them into per-round dicts --
    exactly the seed implementation of the engine.
    """

    @collector_paused
    def run(
        self, program: ProgramFactory, max_rounds: int | None = None
    ) -> RunResult:
        """Execute ``program`` on every vertex until all terminate."""
        g = self.graph
        n = g.n
        if max_rounds is None:
            max_rounds = default_max_rounds(n)

        # The *same* barrier scheduler the fast engine uses builds the
        # (unwired) contexts, drives the round progression and resolves
        # the session's bus and injector, so the emitted event stream and
        # the fault injection points are identical (the differential
        # suites check); this loop supplies only the specification mail
        # mechanics (per-round dicts, explicit ``_outgoing`` routing).
        sched = SyncBarrierScheduler(self, program, max_rounds)
        contexts = sched.contexts
        emit, prof = sched.emit, sched.prof
        pending: dict[int, dict[int, Any]] = {}

        while True:
            nxt = sched.next_round()
            if nxt is None:
                break
            rnd, due, halted = nxt
            for src, dst, payload in due:
                box = pending.setdefault(dst, {})
                slot = box.get(src)
                if slot is None:
                    box[src] = [payload]
                else:
                    slot.append(payload)
            if prof is not None:
                _t0 = perf_counter()

            # Deliver termination notices from the previous round.
            if halted:
                notice_for: dict[int, set[int]] = {}
                for v, out in halted:
                    for u in g.neighbors(v):
                        contexts[u].halted[v] = out
                        notice_for.setdefault(u, set()).add(v)
                for u, vs in notice_for.items():
                    contexts[u].newly_halted = frozenset(vs)
                cleared = set(notice_for)
            else:
                cleared = set()

            if prof is not None:
                _t1 = perf_counter()
                prof.add("deliver", _t1 - _t0)
                _t0 = _t1

            msg_count = 0
            next_pending: dict[int, dict[int, Any]] = {}
            still_active: list[int] = []

            for v in sched.active:
                ctx = contexts[v]
                ctx.inbox = pending.get(v, {})
                ctx._round = rnd
                if v not in cleared and ctx.newly_halted:
                    ctx.newly_halted = _EMPTY_FROZENSET
                if sched.step_vertex(v):
                    still_active.append(v)
                # Route outgoing messages.  A vertex may send in the round
                # it returns; those final-round sends are *delivered* to
                # live neighbors next round, alongside the halt notice
                # (tested by test_message_sent_in_final_round_is_delivered).
                if ctx._outgoing:
                    for u, payload in ctx._outgoing:
                        box = next_pending.get(u)
                        if box is None:
                            box = next_pending[u] = {}
                        slot = box.get(v)
                        if slot is None:
                            box[v] = [payload]
                        else:
                            slot.append(payload)
                        msg_count += 1
                    ctx._outgoing = []

            if prof is not None:
                _t1 = perf_counter()
                prof.add("step", _t1 - _t0)
                _t0 = _t1

            # Drop messages addressed to vertices that terminated this
            # round: they can never be delivered (the receiver performs no
            # further computation), so they must not linger in ``pending``
            # or count as traffic.
            for v, _ in sched.newly_halted:
                box = next_pending.pop(v, None)
                if box:
                    dropped = sum(len(payloads) for payloads in box.values())
                    msg_count -= dropped
                    if emit is not None:
                        emit(Drop(rnd, v, dropped))

            sched.end_round(msg_count, len(next_pending))
            sched.active = still_active
            pending = next_pending
            if prof is not None:
                prof.add("route", perf_counter() - _t0)

        return sched.finish()
