"""The scheduling seam: who steps when, and when messages are delivered.

Historically the global round barrier was hard-wired into both sync
engines: each carried its own copy of the round-advance bookkeeping
(fault-adversary crash application, watchdog, active-trace accounting,
``round_start``/``round_end`` narration, and the StopIteration protocol
that turns a generator return into an output + halt notice).  This module
lifts that shared skeleton into :class:`SyncBarrierScheduler`, the
global-round barrier used by both the fast engine
(:class:`repro.runtime.network.SyncNetwork`) and the reference engine
(:class:`repro.runtime.reference.ReferenceSyncNetwork`).  Mail mechanics
(pooled slots vs. per-round dicts) stay engine-specific; everything the
differential suites compare -- event order, fault injection points,
metrics accounting -- lives here once, so the two engines cannot drift
apart.

The scheduler is also where a generator-engine run reads its
:class:`~repro.runtime.session.RunSession`, once: the bus it narrates
to, the profiler on that bus, the fault injector, and the mode.  An
asynchronous run is the synchronous run plus a timing pass
(:func:`repro.runtime.async_sched.time_run`): the alpha-synchronizer
replays the same content, and only the per-vertex times are new.

Both engines' ``run`` is wrapped in :func:`collector_paused`: a run's
set-up, rounds and ``finish`` allocate containers by the hundred
thousand (contexts, halted dicts, mail tuples, generator frames) but
form no reference cycles, so the cyclic collector's passes over them
free nothing (docs/architecture.md has the counts).
"""

from __future__ import annotations

import gc
from functools import wraps
from time import perf_counter
from typing import Any, Callable, TypeVar

from repro.obs.events import Halt, RoundEnd, RoundStart
from repro.runtime.context import WAIT
from repro.runtime.metrics import RoundMetrics
from repro.runtime.session import current

_F = TypeVar("_F", bound=Callable[..., Any])


def collector_paused(run: _F) -> _F:
    """Run ``run`` with Python's cyclic garbage collector disabled.

    The caller's ``gc.isenabled()`` is restored on return and on every
    exception, and a collector the caller had already disabled stays
    disabled, so nested pauses compose.  Reference counting still frees
    everything a run drops; only the generational passes are skipped.
    """

    @wraps(run)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return run(*args, **kwargs)
        gc.disable()
        try:
            return run(*args, **kwargs)
        finally:
            gc.enable()

    return paused  # type: ignore[return-value]


class SyncBarrierScheduler:
    """The global-round barrier, extracted from the two sync engines.

    One instance drives one run.  The engine loop becomes::

        sched = SyncBarrierScheduler(net, program, max_rounds, router)
        while True:
            nxt = sched.next_round()        # crashes, watchdog, round_start
            if nxt is None:
                break
            rnd, due, halted = nxt
            ... deliver `halted` notices and `due` delayed copies ...
            for v in active:  still_active if sched.step_vertex(v) ...
            ... engine-specific routing / same-round drops ...
            sched.end_round(routed, receivers)
        return sched.finish()

    (The fast engine steps only its wake list instead of every active
    vertex, resumes generators inline and calls :meth:`halt` itself.)

    The scheduler owns exactly the state both engines used to duplicate:
    the round counter, the active list, per-vertex round counts, outputs,
    halt notices, the active/message traces, and the fault-injector
    driving points.  It resolves the current session once, at
    construction: ``emit`` is the bus's emitter when some sink is live,
    ``prof`` the bus's profiler, ``injector`` the session's adversary.
    It then builds the run's ``contexts`` and ``gens``, wiring each
    context as it is made: to the engine's ``router`` (None leaves the
    contexts unwired, as the reference engine wants), to the live bus
    (making ``send``/``broadcast``/``commit`` narrate) and to an
    injector with message faults.  Event order is pinned by the
    differential suites (``tests/runtime/test_equivalence.py`` and
    ``test_fault_equivalence.py``): fault crashes narrate before the
    watchdog fires, ``round_start`` before any delivery, ``halt`` at step
    time, ``round_end`` after same-round drops.
    """

    __slots__ = (
        "contexts",
        "gens",
        "max_rounds",
        "emit",
        "injector",
        "outputs",
        "rounds",
        "active",
        "rnd",
        "active_trace",
        "msg_trace",
        "newly_halted",
        "crash_rounds",
        "graph",
        "prof",
        "mode",
    )

    def __init__(self, net, program, max_rounds: int, router=None) -> None:
        self.max_rounds = max_rounds
        run = current()
        bus = run.bus
        self.emit = None
        self.prof = None
        live = None
        if bus is not None:
            # a bus holding only a NullSink leaves the event path disabled
            # and costs one branch per engine section
            if bus.active:
                self.emit = bus.emit
                live = bus
            self.prof = bus.profiler
        injector = self.injector = run.injector
        self.mode = run.mode
        faults = (
            injector
            if injector is not None and injector.messages_active
            else None
        )
        self.contexts = net.make_contexts(router, live, faults)
        self.gens = net._spawn(program, self.contexts)
        graph = net.graph
        n = graph.n
        self.outputs: dict[int, Any] = {}
        self.rounds = [0] * n
        self.active: list[int] = list(range(n))
        self.rnd = 0
        self.active_trace: list[int] = []
        self.msg_trace: list[int] = []
        #: vertices that terminated this round, as ``(v, output)`` -- their
        #: notices are handed to the engine at the start of the next round
        self.newly_halted: list[tuple[int, Any]] = []
        #: vertex -> the round at whose start the adversary crashed it
        self.crash_rounds: dict[int, int] = {}
        #: the run's graph, for the timing pass
        self.graph = graph
        if injector is not None:
            # vertices crashed in earlier runs of the session stay
            # crashed (crash-stop persists across them)
            pre_crashed = injector.begin_run(self.emit)
            if pre_crashed:
                gens = self.gens
                for v in pre_crashed:
                    if v < n and gens[v] is not None:
                        gens[v].close()
                        gens[v] = None
                self.active = [v for v in self.active if gens[v] is not None]

    # ------------------------------------------------------------------
    def next_round(
        self,
    ) -> tuple[int, list[tuple[int, int, Any]], list[tuple[int, Any]]] | None:
        """Advance the barrier to the next round, or ``None`` when done.

        Applies this round's adversary crashes (the crashed perform no
        computation from now on; ``fault_crash`` narrates each), trips the
        watchdog, records the active trace and emits ``round_start``.
        Returns ``(rnd, due, halted)``: the 1-based round number, the
        delayed copies due for delivery now (already filtered of crashed
        and terminated receivers), and the previous round's termination
        notices for the engine to fan out.
        """
        if not self.active:
            return None
        self.rnd += 1
        rnd = self.rnd
        gens = self.gens
        due: list[tuple[int, int, Any]] = []
        if self.injector is not None:
            crashes, raw_due = self.injector.on_round(rnd, self.active)
            if crashes:
                rounds = self.rounds
                for v in crashes:
                    gens[v].close()
                    gens[v] = None
                    rounds[v] = rnd - 1
                    self.crash_rounds[v] = rnd
                self.active = [v for v in self.active if gens[v] is not None]
                if not self.active:
                    return None
            if raw_due:
                due = [
                    (src, dst, payload)
                    for src, dst, payload in raw_due
                    if gens[dst] is not None
                ]
        if rnd > self.max_rounds:
            from repro.runtime.network import RoundLimitExceeded

            raise RoundLimitExceeded(self.max_rounds, self.active, self.contexts)
        self.active_trace.append(len(self.active))
        if self.emit is not None:
            self.emit(RoundStart(rnd, len(self.active)))
        halted = self.newly_halted
        self.newly_halted = []
        return rnd, due, halted

    def step_vertex(self, v: int):
        """Advance vertex ``v`` one round.

        Returns ``False`` when it terminated (see :meth:`halt`), else
        ``True`` after a bare ``yield`` and
        :data:`~repro.runtime.context.WAIT` after ``yield WAIT`` (both
        truthy: the vertex stays active).
        """
        try:
            yielded = next(self.gens[v])
        except StopIteration as stop:
            self.halt(v, stop.value)
            return False
        return True if yielded is None else self.check_yield(v, yielded)

    def halt(self, v: int, value: Any) -> None:
        """Terminate vertex ``v``, whose program returned ``value`` this
        round: record its output (see :meth:`output_of`) and running time
        r(v) = this round, and queue its halt notice for next round.  The
        fast engine resumes generators inline and calls this on
        StopIteration; :meth:`step_vertex` calls it too."""
        out = self.outputs[v] = self.output_of(v, self.contexts[v], value)
        self.rounds[v] = self.rnd
        self.gens[v] = None
        self.newly_halted.append((v, out))
        if self.emit is not None:
            self.emit(Halt(self.rnd, v))

    @staticmethod
    def check_yield(v: int, yielded: Any):
        """The round-ending value of a non-bare ``yield``: ``WAIT``, or a
        ``RuntimeError`` for anything else.  Every engine checks yields
        here."""
        if yielded is WAIT:
            return WAIT
        raise RuntimeError(
            f"vertex {v} yielded {yielded!r}; programs must use bare "
            "`yield` or `yield WAIT` (send via ctx.send/broadcast)"
        )

    @staticmethod
    def output_of(v: int, ctx, value: Any) -> Any:
        """The output of a vertex whose program returned ``value``: the
        committed value when ``ctx.commit`` fixed it earlier (returning a
        *different* non-``None`` value afterwards is an error)."""
        if ctx._commit_round is None:
            return value
        if value is not None and value != ctx._commit_value:
            raise RuntimeError(
                f"vertex {v} returned {value!r} after "
                f"committing {ctx._commit_value!r}"
            )
        return ctx._commit_value

    def end_round(self, routed: int, receivers: int) -> None:
        """Close the round: fold the engine's routed-copy count (after
        same-round drops), this round's halt notices, and the copies the
        adversary held for later delivery into the traffic trace, and
        emit ``round_end``.  ``receivers`` only feeds that event, so an
        engine without a live bus may pass 0 instead of counting."""
        msgs_total = routed + len(self.newly_halted)
        if self.injector is not None:
            msgs_total += self.injector.take_delayed_count()
        if self.emit is not None:
            self.emit(
                RoundEnd(self.rnd, msgs_total, receivers, len(self.newly_halted))
            )
        self.msg_trace.append(msgs_total)

    def finish(self):
        """Assemble the :class:`~repro.runtime.network.RunResult`.

        A vertex's output round is its commit round when it called
        ``ctx.commit``, else its termination round; ``crashed`` lists the
        session's crashed vertices that belong to this graph.  In an
        async session the timing pass fills ``times`` (timed as the
        ``async`` phase when a profiler is attached).
        """
        from repro.runtime.network import RunResult

        contexts, rounds, injector = self.contexts, self.rounds, self.injector
        commits = [ctx._commit_round for ctx in contexts]
        crashed: tuple[int, ...] = ()
        if injector is not None and injector.crashed:
            n = len(contexts)
            crashed = tuple(sorted(v for v in injector.crashed if v < n))
        times = None
        if self.mode == "async":
            from repro.runtime.async_sched import time_run

            t0 = perf_counter()
            last = list(rounds)
            for v, c in self.crash_rounds.items():
                last[v] = c
            times = time_run(self.graph, last, commits)
            if self.prof is not None:
                self.prof.add("async", perf_counter() - t0)
        return RunResult(
            outputs=self.outputs,
            metrics=RoundMetrics(
                rounds=tuple(rounds),
                active_trace=tuple(self.active_trace),
                messages_per_round=tuple(self.msg_trace),
            ),
            output_rounds=tuple(
                r if c is None else c for r, c in zip(rounds, commits)
            ),
            crashed=crashed,
            times=times,
        )
