"""The synchronous round engine.

Vertex programs are generator coroutines created by a *program factory*
``factory(ctx) -> generator``.  The protocol is:

* Code between two ``yield`` statements is one round of local computation.
  During it the program may read ``ctx.mail`` (messages delivered this
  round, as ``(sender, payload)`` pairs in delivery order) or its grouped
  view ``ctx.inbox`` (``sender -> list of payloads`` -- several messages
  to the same neighbor in one round are bundled in send order),
  ``ctx.halted`` /
  ``ctx.newly_halted`` (termination notices), and call ``ctx.send`` /
  ``ctx.broadcast``.
* ``yield`` ends the round; messages sent during round r are delivered at
  the start of round r + 1.  ``yield WAIT`` (:data:`repro.runtime.WAIT`)
  ends it too, and promises that a round with an empty inbox and no new
  halt notice would change nothing for this vertex.
* ``return output`` terminates the vertex.  Its running time r(v) is the
  round in which it returned, and -- per the paper's model -- the final
  output is transmitted once to all neighbors: they observe it in
  ``ctx.halted[v]`` from the next round onward.  Afterwards the vertex
  neither sends nor receives.

The engine advances only active vertices, so the per-round work is at
most proportional to the number of active vertices -- the same quantity
the vertex-averaged measure sums (the fast path below skips the active
vertices that have nothing to do).  Execution is deterministic given the
graph, the ID assignment, the seed and the program.

Implementation notes (the fast path)
------------------------------------
This module is the throughput-optimised engine; the module
:mod:`repro.runtime.reference` keeps the original, straightforward
implementation as the executable specification, and the differential suite
in ``tests/runtime/test_equivalence.py`` checks the two produce identical
:class:`RunResult`\\ s.  The fast path:

* iterates adjacency through the graph's cached CSR view
  (:meth:`repro.graphs.graph.Graph.csr` / ``csr_rows``) for halt-notice
  fan-out;
* routes messages at send time into pooled, double-buffered per-vertex
  mail slots (no per-round dict allocation): a vertex reads its slot in
  place as ``ctx.mail`` and the engine empties it right after the step
  (only a crashed receiver's slot is emptied at the round's end), and
  the grouped ``ctx.inbox`` dict is built only when a program reads it;
* steps only a *wake list* each round: the vertices whose last yield was
  bare, plus the vertices asleep on ``yield WAIT`` that mail (delayed
  fault copies included) or a halt notice just reached.  A sleeper that
  is not woken is not touched at all, so the per-round cost follows the
  woken vertices, not the active ones.  Sleepers stay in the active
  list, which is filtered only in rounds where a vertex halted or
  crashed, so the active trace, crash draws and the watchdog are
  unchanged; the wake list is stepped in ascending order, which keeps
  send and mail order unchanged.  When no vertex is asleep the running
  list is stepped as-is;
* drops messages addressed to a vertex that terminated in the same round
  at routing time: they can never be delivered (the receiver performs no
  further computation), so they neither linger in the mail buffers nor
  count towards ``messages_per_round``.

Final-round sends are *delivered*: a vertex may ``ctx.send``/``broadcast``
during the round in which it returns, and live neighbors observe those
messages next round alongside the termination notice (the model lets the
final output travel; explicit sends ride the same round-boundary).  The
only messages ever discarded are those *addressed to* a vertex that has
terminated -- either dropped at the sender once the notice has arrived, or
dropped by the engine in the one-round window where sender and receiver
act simultaneously.

Session settings
----------------
Everything a run takes besides the program -- engine, mode, link
delays, event bus, fault adversary -- comes from the current
:class:`~repro.runtime.session.RunSession` (``with session(...)``).
A live bus gets typed round/send/broadcast/commit/halt/drop events,
plus per-round ``deliver``/``step``/``route`` wall-clock phases when it
carries a :class:`repro.obs.PhaseProfiler`.  Without a live sink the
engine never constructs an event, so the uninstrumented fast path is
unchanged (gated to < 5% overhead by ``repro.bench.baseline``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from time import perf_counter
from typing import Any, Callable, Generator, Mapping, Sequence

from repro.graphs.graph import Graph
from repro.obs.events import Drop
from repro.runtime.context import _EMPTY_FROZENSET, Context, RouterState, Shared
from repro.runtime.metrics import RoundMetrics, TimeMetrics
from repro.runtime.scheduler import SyncBarrierScheduler, collector_paused
from repro.runtime.session import current

ProgramFactory = Callable[[Context], Generator[None, None, Any]]


@dataclass(frozen=True)
class RunResult:
    """Outputs and round accounting of one execution."""

    outputs: dict[int, Any]
    metrics: RoundMetrics
    #: per-vertex round at which the output was fixed; equals the
    #: termination round unless the program called ``ctx.commit`` earlier
    #: (Feuilloley's first definition, paper Section 2).
    output_rounds: tuple[int, ...] = ()
    #: vertices crash-stopped by a fault adversary (:mod:`repro.faults`);
    #: they have no entry in ``outputs`` and their ``metrics.rounds`` value
    #: is the number of rounds they were active before crashing.
    crashed: tuple[int, ...] = ()
    #: virtual-time accounting (:class:`~repro.runtime.metrics
    #: .TimeMetrics`); only asynchronous-mode runs fill this in --
    #: synchronous runs have no link delays and leave it None.
    times: "TimeMetrics | None" = None

    @property
    def vertex_averaged(self) -> float:
        return self.metrics.vertex_averaged

    @property
    def worst_case(self) -> int:
        return self.metrics.worst_case

    @property
    def output_metrics(self) -> RoundMetrics:
        """Round accounting under the output-commit definition."""
        return RoundMetrics(rounds=self.output_rounds or self.metrics.rounds)


class MaxRoundsExceeded(RuntimeError):
    """Raised when an execution fails to terminate within the round budget
    (a liveness bug or an unlucky randomized run)."""


class RoundLimitExceeded(MaxRoundsExceeded):
    """The typed watchdog error: the round budget ran out with vertices
    still active.

    Beyond the message, it carries a machine-readable snapshot for the
    fault harness and for debugging: the budget, the still-active
    vertices, and a per-vertex state summary ``(vertex, rounds run,
    active neighbors, halted neighbors, committed?)``, where rounds run is
    the budget (every straggler was active throughout) -- enough to see,
    e.g., that every straggler borders a crashed vertex it is waiting on.
    """

    #: vertices listed by name in the message before eliding the rest
    _SHOWN = 12
    #: per-vertex summary tuples materialised at most this many -- a
    #: million-vertex watchdog trip must not build a million 5-tuples
    SUMMARY_CAP = 100_000

    def __init__(
        self,
        limit: int,
        active: Sequence[int],
        contexts: Sequence[Context] | None = None,
    ) -> None:
        self.limit = limit
        self.active = tuple(active)
        self._contexts = contexts
        self._summaries: tuple | None = None
        shown = ", ".join(
            self._describe(v) for v in self.active[: self._SHOWN]
        )
        more = (
            "" if len(self.active) <= self._SHOWN
            else f", ... {len(self.active) - self._SHOWN} more"
        )
        super().__init__(
            f"{len(self.active)} vertices still active after {limit} "
            f"rounds: {shown}{more}"
        )

    def _summarize(self, v: int) -> tuple:
        # The budget, not ``ctx.round``: every straggler was active in all
        # ``limit`` rounds, but the fast engine stops updating the round of
        # a vertex asleep on ``yield WAIT``.
        if self._contexts is None:
            # bulk engine: no per-vertex Context objects exist
            return (v, self.limit, None, None, None)
        ctx = self._contexts[v]
        return (
            v,
            self.limit,
            ctx.active_degree(),
            len(ctx.halted),
            ctx.committed,
        )

    def _describe(self, v: int) -> str:
        v, r, ad, h, c = self._summarize(v)
        if ad is None:
            return f"v{v}"
        return (
            f"v{v} (round {r}, {ad} active / {h} halted nbrs"
            + (", committed)" if c else ")")
        )

    @property
    def summaries(self) -> tuple:
        """Per-vertex ``(vertex, rounds run, active nbrs, halted nbrs,
        committed?)`` snapshots, built lazily on first access and capped
        at :attr:`SUMMARY_CAP` entries (the message alone never costs
        more than :attr:`_SHOWN` summaries)."""
        if self._summaries is None:
            self._summaries = tuple(
                self._summarize(v) for v in self.active[: self.SUMMARY_CAP]
            )
        return self._summaries


def default_max_rounds(n: int) -> int:
    """The default liveness budget for an ``n``-vertex execution.

    Audited for n >= 10^6: the linear ``16 n`` term is deliberate -- wave
    programs (e.g. path broadcast) legitimately run Theta(n) rounds -- so
    at a million vertices the budget is ~1.6e7 *rounds*, not work; the
    watchdog comparison is one integer check per round.  What must stay
    cheap at that scale is the failure path: :class:`RoundLimitExceeded`
    formats only :attr:`~RoundLimitExceeded._SHOWN` vertices eagerly and
    builds its per-vertex summaries lazily (capped), so a watchdog trip
    with 10^6 stragglers does not materialise O(n) strings.
    """
    return 64 * (n.bit_length() + 1) * max(1, n.bit_length()) + 16 * n + 1024


class SyncNetwork:
    """A network of processors over a static communication graph.

    Parameters
    ----------
    graph:
        The communication topology.
    ids:
        The ID assignment I (distinct integers).  Defaults to ``0..n-1``.
    seed:
        Seed for per-vertex random generators (randomized algorithms).
    config:
        Common knowledge shared by all vertices (e.g. ``n``, arboricity
        ``a``, epsilon, palette objects).  ``n`` and ``id_space`` (one plus
        the maximum ID) are always provided.
    """

    def __init__(
        self,
        graph: Graph,
        ids: Sequence[int] | None = None,
        seed: int = 0,
        config: Mapping[str, Any] | None = None,
    ) -> None:
        self.graph = graph
        n = graph.n
        if ids is None:
            ids = list(range(n))
        if len(ids) != n:
            raise ValueError("ID assignment length must equal n")
        if len(set(ids)) != n:
            raise ValueError("IDs must be distinct")
        self.ids = list(ids)
        self.seed = seed
        base = dict(config or {})
        base.setdefault("n", n)
        base.setdefault("id_space", (max(ids) + 1) if n else 1)
        self.config = base

    # ------------------------------------------------------------------
    def make_contexts(
        self, router: RouterState | None = None, bus=None, faults=None
    ) -> list[Context]:
        """One :class:`Context` per vertex, wired to ``router``, ``bus``
        and ``faults`` (None leaves that wire off)."""
        g = self.graph
        n, ids = g.n, self.ids
        shared = Shared(n, self.config, self.seed, ids, router, bus, faults)
        return list(
            map(
                Context,
                range(n),
                ids,
                g.adjacency(),
                g.neighbor_sets(),
                repeat(shared, n),
            )
        )

    def _spawn(
        self, program: ProgramFactory, contexts: list[Context]
    ) -> list[Generator[None, None, Any] | None]:
        gens: list[Generator[None, None, Any] | None] = []
        for ctx in contexts:
            gen = program(ctx)
            if not hasattr(gen, "send"):
                raise TypeError("program factory must return a generator")
            gens.append(gen)
        return gens

    @collector_paused
    def run(
        self, program: ProgramFactory, max_rounds: int | None = None
    ) -> RunResult:
        """Execute ``program`` on every vertex until all terminate.

        The run uses the current :class:`~repro.runtime.session.RunSession`:
        its engine (``ReferenceSyncNetwork`` only overrides ``run``, so
        invoking its implementation on this instance is the whole
        delegation), its bus and fault injector (resolved once, by the
        :class:`SyncBarrierScheduler`), and in async mode the timing pass
        that fills ``RunResult.times`` (:meth:`SyncBarrierScheduler.finish`).
        The cyclic garbage collector is paused for the whole run
        (:func:`~repro.runtime.scheduler.collector_paused`).
        """
        if type(self) is SyncNetwork:
            eng = current().engine
            if eng == "reference":
                from repro.runtime.reference import ReferenceSyncNetwork

                return ReferenceSyncNetwork.run(self, program, max_rounds)
            if eng == "bulk":
                # The bulk engine does not step generator programs at all:
                # algorithms opt in by dispatching to a columnar driver
                # (repro.core.bulk) *before* constructing a network.  A
                # run reaching this point has no such driver.
                from repro.runtime.bulk import BulkUnsupported

                raise BulkUnsupported(
                    "the session's engine is 'bulk' but this program has "
                    "no columnar driver; bulk execution is only available "
                    "for algorithms with a registered bulk driver "
                    "(repro.core.bulk.BULK_DRIVERS)"
                )
        g = self.graph
        n = g.n
        if max_rounds is None:
            max_rounds = default_max_rounds(n)

        # Every context is wired to the shared routing state: sends and
        # broadcasts deliver straight into the pooled mail slots below.
        router = RouterState()
        slots_cur: list[list[tuple[int, Any]]] = [[] for _ in range(n)]
        slots_next: list[list[tuple[int, Any]]] = [[] for _ in range(n)]
        dirty_cur: list[int] = []
        dirty_next: list[int] = []
        router.slots_next = slots_next
        router.dirty = dirty_next
        # The barrier scheduler builds the contexts and owns the round
        # progression: crash application, watchdog, active/message
        # traces, halt bookkeeping, and the session's bus and injector.
        # This engine supplies only the mail mechanics (pooled slots) and
        # the choice of which active vertices to resume.
        sched = SyncBarrierScheduler(self, program, max_rounds, router)
        contexts, gens = sched.contexts, sched.gens
        emit, prof, injector = sched.emit, sched.prof, sched.injector
        rows = g.csr_rows()
        # 1 while a vertex's last yield was ``yield WAIT`` and nothing has
        # woken it since
        asleep = bytearray(n)

        halt = sched.halt
        check_yield = sched.check_yield
        # The live vertices whose last yield was bare, ascending; every
        # other active vertex is asleep.  Vertices crashed in an earlier
        # run of the fault session are already out of ``sched.active``.
        running: list[int] = sched.active
        n_live = len(running)

        while True:
            nxt = sched.next_round()
            if nxt is None:
                break
            rnd, due, halted = nxt
            if len(sched.active) != n_live:
                # the adversary crashed vertices at this round's start
                n_live = len(sched.active)
                running = [v for v in running if gens[v] is not None]
            # Delayed copies due now join this round's mail.
            for src, dst, payload in due:
                slot = slots_cur[dst]
                if not slot:
                    dirty_cur.append(dst)
                slot.append((src, payload))
            if prof is not None:
                _t0 = perf_counter()

            # Deliver termination notices from the previous round (fan-out
            # over the terminated vertices' CSR rows).  The vertices that
            # halted in one round are distinct, so the lists hold no
            # duplicates.
            notice_for: dict[int, list[int]] = {}
            if halted:
                for v, out in halted:
                    for u in rows[v]:
                        contexts[u].halted[v] = out
                        if gens[u] is None:
                            continue
                        vs = notice_for.get(u)
                        if vs is None:
                            notice_for[u] = [v]
                        else:
                            vs.append(v)
                for u, vs in notice_for.items():
                    contexts[u].newly_halted = frozenset(vs)

            # The wake list: the running vertices plus the sleepers woken
            # by mail (delayed copies included) or a halt notice, in
            # ascending order so send and mail order match a full scan.
            # A sleeper that is not woken is not touched at all.
            if len(running) == n_live:
                wake = running
            else:
                woken: list[int] = []
                for u in dirty_cur:
                    if asleep[u] and gens[u] is not None:
                        asleep[u] = 0
                        woken.append(u)
                for u in notice_for:
                    if asleep[u]:
                        asleep[u] = 0
                        woken.append(u)
                if woken:
                    wake = running + woken
                    wake.sort()
                else:
                    wake = running

            if prof is not None:
                _t1 = perf_counter()
                prof.add("deliver", _t1 - _t0)
                _t0 = _t1

            running = []
            run_append = running.append
            for v in wake:
                ctx = contexts[v]
                mail = ctx._mail = slots_cur[v]
                ctx._inbox_d = None
                ctx._round = rnd
                if ctx.newly_halted and v not in notice_for:
                    ctx.newly_halted = _EMPTY_FROZENSET
                try:
                    yielded = next(gens[v])
                except StopIteration as stop:
                    mail.clear()
                    halt(v, stop.value)
                    continue
                # the round's mail is read; empty the pooled slot now
                if mail:
                    mail.clear()
                if yielded is None:
                    run_append(v)
                else:
                    check_yield(v, yielded)  # WAIT, or raises
                    asleep[v] = 1

            if prof is not None:
                _t1 = perf_counter()
                prof.add("step", _t1 - _t0)
                _t0 = _t1

            # Messages routed this round to a receiver that terminated this
            # same round can never be delivered: drop them and take them
            # out of the message count (their senders could not yet know).
            if sched.newly_halted:
                for v, _ in sched.newly_halted:
                    slot = slots_next[v]
                    if slot:
                        router.msgs -= len(slot)
                        if emit is not None:
                            emit(Drop(rnd, v, len(slot)))
                        slot.clear()

            # distinct receivers only feed the round_end event
            receivers = (
                sum(1 for u in dirty_next if slots_next[u])
                if emit is not None
                else 0
            )
            sched.end_round(router.msgs, receivers)
            router.msgs = 0
            if sched.newly_halted:
                sched.active = [v for v in sched.active if gens[v] is not None]
                n_live = len(sched.active)

            # Rotate the pooled mail buffers and swap current/next.  Every
            # live receiver was stepped and emptied its slot; only a
            # crashed receiver's slot is left to clear.
            if injector is not None:
                for u in dirty_cur:
                    if gens[u] is None:
                        slots_cur[u].clear()
            dirty_cur.clear()
            slots_cur, slots_next = slots_next, slots_cur
            dirty_cur, dirty_next = dirty_next, dirty_cur
            router.slots_next = slots_next
            router.dirty = dirty_next
            if prof is not None:
                prof.add("route", perf_counter() - _t0)

        return sched.finish()
