"""The event-driven asynchronous executor: no global round.

This is the second implementation of the scheduling seam
(:mod:`repro.runtime.scheduler`).  Instead of a global barrier, every
directed edge carries one *token* per sender round: when vertex ``u``
executes its local round ``r`` it emits a round-``r`` token to each
neighbor, carrying that round's payloads (possibly none -- empty tokens
are the synchronizer pulse) and, in ``u``'s final round, its halt notice
and output.  The token arrives after a seeded per-edge delay
(:class:`DelaySpec`), and vertex ``v`` executes its local round ``r``
as soon as the round-``r - 1`` tokens of all neighbors it still expects
one from have arrived.  Execution itself is instantaneous; all time is
communication time.

This is the classic alpha-synchronizer, and it makes the execution
*content-identical* to the synchronous one for every delay model: the
inbox a vertex sees in local round ``r`` contains exactly the messages
its neighbors sent in their local round ``r - 1``, which under the
global barrier is the round-``(r-1) -> r`` delivery.  Outputs, per-vertex
round counts, commit rounds, traffic and active traces are therefore
mode-invariant (``tests/runtime/test_async.py`` pins this); what the
asynchronous mode *adds* is the virtual-time dimension, reported as
:class:`~repro.runtime.metrics.TimeMetrics` on ``RunResult.times`` --
in particular the vertex-averaged normalized output time, the
asynchronous analogue of the paper's vertex-averaged round complexity.

Determinism
-----------
Everything is counter-based: link delays are pure functions of
``(delay seed, src, dst, sender round)``, fault draws reuse the exact
:func:`repro.faults.plan.message_fates` /
:meth:`~repro.faults.plan.CrashSpec.strikes` streams keyed by the
sender's *local* round (in a synchronous execution every active vertex's
local round equals the global round, so the streams coincide), and the
event heap breaks time ties by insertion sequence.  Rerunning with the
same graph, program, seeds and plan replays the identical execution.

Fault semantics carry over unchanged:

* **crash-stop** -- drawn when the vertex becomes ready for the crash
  round; it performs no computation, announces nothing at the *program*
  level, and each neighbor's scheduler learns to stop waiting via a
  crash marker timed like the round-``r`` token the crashed vertex would
  have sent.  The marker is scheduler-internal: programs never observe
  it (no ``ctx.halted`` entry), exactly as under the barrier, where the
  round simply advances past a silent vertex.
* **message faults** -- per-copy drop/duplicate/delay with the sync draw
  stream; a copy delayed by ``d`` joins the receiver's local round
  ``r + 1 + d`` inbox, which is the same round it would join under the
  barrier.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Mapping

import numpy as np

from repro import rng
from repro.faults.plan import message_fates, narrate_fates
from repro.obs.events import (
    Delivery,
    Drop,
    FaultCrash,
    Halt,
    RoundEnd,
    RoundStart,
)
from repro.runtime.context import _EMPTY_FROZENSET
from repro.runtime.metrics import TimeMetrics

__all__ = ["DELAY_DISTS", "DelaySpec", "run_async"]

#: the supported link-delay distributions
DELAY_DISTS = ("fixed", "uniform", "exp")


@dataclass(frozen=True)
class DelaySpec:
    """Seeded per-edge link-delay model.

    Each directed edge's round-``r`` token is delayed by an independent
    draw ``u = repro.rng.u01(seed, DELAY, src, dst, r)`` -- a pure
    function, so the delay assignment is reproducible and independent of
    execution order:

    * ``fixed`` -- every delay is exactly ``scale`` (the degenerate
      model; with ``scale = 1`` virtual time reproduces round counts on
      communication-driven chains);
    * ``uniform`` -- uniform on ``[scale/2, 3*scale/2)``;
    * ``exp`` -- exponential with mean ``scale``: ``-log(1 - u) * scale``.

    All three have mean ``scale``, which :class:`~repro.runtime.metrics
    .TimeMetrics` uses to normalize virtual times into round-equivalents.
    """

    dist: str = "fixed"
    scale: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dist not in DELAY_DISTS:
            raise ValueError(
                f"unknown delay distribution {self.dist!r}; "
                f"expected one of {DELAY_DISTS}"
            )
        if not self.scale > 0.0:
            raise ValueError(f"delay scale must be > 0, got {self.scale}")

    @property
    def mean_delay(self) -> float:
        return self.scale

    def draw(self, src: int, dst: int, rnd: int) -> float:
        """The delay of the round-``rnd`` token on edge ``src -> dst``."""
        if self.dist == "fixed":
            return self.scale
        u = rng.u01(self.seed, rng.DELAY, src, dst, rnd)
        if self.dist == "uniform":
            return self.scale * (0.5 + u)
        return -math.log(1.0 - u) * self.scale

    def arc_draw(self, src, dst) -> Callable[[int, int], float]:
        """:meth:`draw` over a fixed list of arcs: ``arc_draw(src,
        dst)(i, rnd) == draw(src[i], dst[i], rnd)``, bit for bit.

        ``src`` and ``dst`` are integer arrays.  The hash prefix
        ``fold(0, seed, DELAY, src[i], dst[i])`` is computed for every
        arc at once, so each draw folds only its round.
        """
        scale = self.scale
        if self.dist == "fixed":
            return lambda i, rnd: scale
        pre = rng.hash64_many(self.seed, rng.DELAY, src, dst).tolist()
        fold, u01 = rng.fold, rng.to_u01
        if self.dist == "uniform":
            return lambda i, rnd: scale * (0.5 + u01(fold(pre[i], rnd)))
        log = math.log
        return lambda i, rnd: -log(1.0 - u01(fold(pre[i], rnd))) * scale

    # -- serialisation (manifests) -------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {"dist": self.dist, "scale": self.scale, "seed": self.seed}

    @classmethod
    def from_dict(cls, rec: Mapping[str, Any]) -> "DelaySpec":
        return cls(
            dist=str(rec.get("dist", "fixed")),
            scale=float(rec.get("scale", 1.0)),
            seed=int(rec.get("seed", 0)),
        )

    def describe(self) -> str:
        return f"{self.dist}(scale={self.scale:g}, seed={self.seed})"


# heap entry kinds (the entry layout is (t, seq, kind, ...))
_EXEC = 0    # (t, seq, _EXEC, v, rnd)
_TOKEN = 1   # (t, seq, _TOKEN, src, dst, rnd, mail pairs, halt, output)
_MARKER = 2  # (t, seq, _MARKER, src, dst, rnd)


def run_async(
    net,
    program,
    max_rounds: int | None = None,
    bus=None,
    faults=None,
    delays: DelaySpec | None = None,
):
    """Execute ``program`` on ``net`` under the event-queue scheduler.

    Drop-in replacement for :meth:`repro.runtime.network.SyncNetwork.run`
    (the mode seam dispatches here inside ``mode_session("async")``):
    same outputs, rounds, traces and fault semantics, plus virtual-time
    accounting on ``RunResult.times``.  ``delays`` defaults to the
    session's :func:`~repro.runtime.scheduler.current_delays`, falling
    back to the fixed unit-delay model.
    """
    from repro.runtime.network import RoundLimitExceeded, default_max_rounds
    from repro.runtime.scheduler import (
        SyncBarrierScheduler,
        assemble_result,
        current_delays,
    )

    if delays is None:
        delays = current_delays()
        if delays is None:
            delays = DelaySpec()
    g = net.graph
    n = g.n
    if max_rounds is None:
        max_rounds = default_max_rounds(n)

    contexts = net.make_contexts()
    gens = net._spawn(program, contexts)
    emit, prof = net._resolve_bus(bus, contexts)
    injector = net._resolve_faults(faults)
    # Link delays keyed by CSR arc: the neighbors of v, in
    # ``g.neighbors(v)`` order, are arcs arc0[v], arc0[v] + 1, ...
    offsets, indices = g.csr()
    arc0 = offsets.tolist()
    delay = delays.arc_draw(np.repeat(np.arange(n), np.diff(offsets)), indices)

    # The adversary is evaluated through its *pure* draw functions (as
    # the fault-aware bulk kernels do): begin_run supplies the session state
    # (crashes from earlier runs, the session round offset), and
    # absorb_rounds at the end folds this run's outcome back in.
    mf = None
    crash_spec = None
    fseed = 0
    base = 0
    if injector is not None:
        pre_crashed = injector.begin_run(None)
        base = injector._round
        fseed = injector.plan.seed
        if injector.messages_active:
            mf = injector.plan.messages
        cs = injector.plan.crashes
        if cs is not None and cs.active:
            crash_spec = cs
    else:
        pre_crashed = frozenset()

    # -- per-vertex execution state ------------------------------------
    outputs: dict[int, Any] = {}
    rounds = [0] * n
    times = [0.0] * n
    commit_t: dict[int, float] = {}
    #: v -> local round in which v halted (graceful termination only)
    halted_at: dict[int, int] = {}
    crashed_now: set[int] = set()
    #: (src, dst) -> the last round for which src will ever emit a token
    #: on that edge (set when dst's scheduler learns of halt/crash)
    last_tok: dict[tuple[int, int], int] = {}
    #: v -> token round -> src -> (arrival t, mail pairs, halt?, output)
    arrivals: list[dict[int, dict[int, tuple]]] = [{} for _ in range(n)]
    #: v -> due local round -> [(send round, src, seq, payload)] copies
    #: the adversary delayed; they never gate readiness
    delayed_box: list[dict[int, list[tuple]]] = [{} for _ in range(n)]
    #: (dst, send round) -> normally-routed copies addressed to dst; used
    #: to take same-round drops back out of the traffic trace when dst
    #: turns out to halt in that round
    norm_recv: dict[tuple[int, int], int] = {}
    #: send round -> traffic (program copies + halt notices - drops)
    msgs: dict[int, int] = {}
    #: send round -> distinct receivers of normally-routed copies (the
    #: barrier's ``round_end.receivers``; same-round halt drops removed);
    #: filled only when events are emitted, as nothing else reads it
    recv_sets: dict[int, set[int]] = {}
    # readiness bookkeeping: while v waits to execute round R it collects
    # round R-1 tokens -- wait_round[v] = R-1, wait_missing[v] the senders
    # still owed, wait_t[v] the latest relevant arrival so far
    wait_missing: list[set[int] | None] = [None] * n
    wait_round = [0] * n
    wait_t = [0.0] * n

    heap: list[tuple] = []
    seq = 0
    max_round_seen = 0

    def push(entry: tuple) -> None:
        nonlocal seq
        heapq.heappush(heap, entry)
        seq += 1

    # Crash-stop persists across runs of one fault session: the already
    # crashed vertices never start, and nobody ever waits on them.
    for v in pre_crashed:
        if v < n and gens[v] is not None:
            gens[v].close()
            gens[v] = None
            for u in g.neighbors(v):
                last_tok[(v, u)] = 0

    def _advance(v: int, nxt: int, t_now: float) -> None:
        """Set up v's wait for local round ``nxt`` (round nxt-1 tokens)."""
        need = nxt - 1
        got = arrivals[v].get(need)
        ready = t_now
        missing: set[int] | None = None
        for u in g.neighbors(v):
            mr = last_tok.get((u, v))
            if mr is not None and mr < need:
                continue  # u's scheduler-visible last token predates need
            tok = got.get(u) if got else None
            if tok is not None:
                if tok[0] > ready:
                    ready = tok[0]
            else:
                if missing is None:
                    missing = set()
                missing.add(u)
        if missing:
            wait_missing[v] = missing
            wait_round[v] = need
            wait_t[v] = ready
        else:
            push((ready, seq, _EXEC, v, nxt))

    def _unblock(dst: int, t: float) -> None:
        """The last awaited token/marker arrived: schedule the execution."""
        wait_missing[dst] = None
        if t > wait_t[dst]:
            wait_t[dst] = t
        push((wait_t[dst], seq, _EXEC, dst, wait_round[dst] + 1))

    def _exec(t: float, v: int, rnd: int) -> None:
        nonlocal max_round_seen
        if rnd > max_rounds:
            active = [u for u in range(n) if gens[u] is not None]
            raise RoundLimitExceeded(max_rounds, active, contexts)
        if rnd > max_round_seen:
            max_round_seen = rnd
        if crash_spec is not None and crash_spec.strikes(fseed, base + rnd, v):
            # Adversary crash at the start of local round rnd: no
            # computation, no announcement.  Each neighbor's scheduler
            # stops waiting via a marker timed like the round-rnd token.
            if emit is not None:
                emit(FaultCrash(rnd, v))
            crashed_now.add(v)
            gens[v].close()
            gens[v] = None
            rounds[v] = rnd - 1
            times[v] = t
            a = arc0[v]
            for i, u in enumerate(g.neighbors(v)):
                push((t + delay(a + i, rnd), seq, _MARKER, v, u, rnd))
            return

        ctx = contexts[v]
        # Assemble the round's mail as the barrier would deliver it:
        # round rnd-1 tokens in ascending sender order (halt notices
        # applied now, round-gated), then adversary-delayed copies due
        # this round in (send round, sender) order.
        mail: list[tuple[int, Any]] = []
        new_halts: list[int] | None = None
        toks = arrivals[v].pop(rnd - 1, None) if rnd > 1 else None
        if toks:
            for u in sorted(toks):
                _at, pairs, halt, out = toks[u]
                if pairs:
                    mail += pairs
                if halt:
                    ctx.halted[u] = out
                    if new_halts is None:
                        new_halts = []
                    new_halts.append(u)
        box = delayed_box[v].pop(rnd, None)
        if box:
            box.sort(key=lambda e: e[:3])
            for _sr, src, _sq, payload in box:
                mail.append((src, payload))
        ctx.newly_halted = (
            frozenset(new_halts) if new_halts else _EMPTY_FROZENSET
        )
        ctx._mail = mail
        ctx._inbox_d = None
        ctx._round = rnd
        norm_recv.pop((v, rnd - 1), None)  # delivered; no longer droppable

        halted_now = False
        output = None
        try:
            if prof is None:
                yielded = next(gens[v])
            else:
                _t0 = perf_counter()
                try:
                    yielded = next(gens[v])
                finally:
                    prof.add("step", perf_counter() - _t0)
            if yielded is not None:
                # WAIT is accepted; the vertex is still stepped every round
                SyncBarrierScheduler.check_yield(v, yielded)
        except StopIteration as stop:
            output = outputs[v] = SyncBarrierScheduler.output_of(
                v, ctx, stop.value
            )
            gens[v] = None
            halted_now = True
        if ctx._commit_round == rnd:
            commit_t[v] = t

        # Route this round's sends through the (pure) fault draws.  A
        # token carries its copies as ``(sender, payload)`` mail pairs.
        round_msgs = msgs.get(rnd, 0)
        tok_mail: dict[int, list[tuple[int, Any]]] = {}
        out_msgs = ctx._outgoing
        if out_msgs:
            ctx._outgoing = []
            pair_k: dict[int, int] = {}
            hold_seq = 0
            drop_acc: dict[int, int] | None = None
            for u, payload in out_msgs:
                if mf is not None:
                    k = pair_k.get(u, 0)
                    pair_k[u] = k + 1
                    fates = message_fates(mf, fseed, base + rnd, v, u, k)
                    if emit is not None:
                        narrate_fates(emit, rnd, v, u, fates)
                else:
                    fates = (0,)
                for d in fates:
                    if d:
                        # Held copies count as their send round's traffic
                        # and join the receiver's round rnd+1+d inbox.
                        round_msgs += 1
                        delayed_box[u].setdefault(rnd + 1 + d, []).append(
                            (rnd, v, hold_seq, payload)
                        )
                        hold_seq += 1
                    elif halted_at.get(u) == rnd:
                        # The receiver terminated in this same local
                        # round: the copy can never be delivered.
                        if drop_acc is None:
                            drop_acc = {}
                        drop_acc[u] = drop_acc.get(u, 0) + 1
                    else:
                        round_msgs += 1
                        key = (u, rnd)
                        norm_recv[key] = norm_recv.get(key, 0) + 1
                        if emit is not None:
                            rs = recv_sets.get(rnd)
                            if rs is None:
                                recv_sets[rnd] = {u}
                            else:
                                rs.add(u)
                        lst = tok_mail.get(u)
                        if lst is None:
                            tok_mail[u] = [(v, payload)]
                        else:
                            lst.append((v, payload))
            if drop_acc and emit is not None:
                for u, c in drop_acc.items():
                    emit(Drop(rnd, u, c))

        if halted_now:
            rounds[v] = rnd
            times[v] = t
            halted_at[v] = rnd
            round_msgs += 1  # the halt notice, as under the barrier
            c = norm_recv.pop((v, rnd), 0)
            if c:
                # Copies already routed to v this same round by senders
                # that executed earlier in virtual time: drop them.
                round_msgs -= c
                if emit is not None:
                    recv_sets[rnd].discard(v)
                    emit(Drop(rnd, v, c))
            if emit is not None:
                emit(Halt(rnd, v))
        msgs[rnd] = round_msgs

        # Emit this round's tokens.  Neighbors v knows have halted need
        # no pulse (they are done); everyone else gets one, carrying the
        # payloads and -- in v's final round -- the halt notice.
        halted = ctx.halted
        a = arc0[v]
        for i, u in enumerate(g.neighbors(v)):
            if u in halted:
                continue
            push(
                (
                    t + delay(a + i, rnd),
                    seq,
                    _TOKEN,
                    v,
                    u,
                    rnd,
                    tok_mail.get(u, ()),
                    halted_now,
                    output,
                )
            )

        if not halted_now:
            _advance(v, rnd + 1, t)

    def _token(t: float, src: int, dst: int, rnd: int, pairs, halt, out):
        if emit is not None:
            emit(Delivery(rnd, src, dst, t))
        if halt:
            last_tok[(src, dst)] = rnd
        if gens[dst] is None:
            return  # receiver halted or crashed; the token is moot
        arrivals[dst].setdefault(rnd, {})[src] = (t, pairs, halt, out)
        miss = wait_missing[dst]
        if miss is not None and wait_round[dst] == rnd and src in miss:
            miss.discard(src)
            if t > wait_t[dst]:
                wait_t[dst] = t
            if not miss:
                _unblock(dst, t)

    def _marker(t: float, src: int, dst: int, rnd: int) -> None:
        # src crashed at the start of its round rnd: no tokens >= rnd.
        mr = rnd - 1
        prev = last_tok.get((src, dst))
        if prev is None or mr < prev:
            last_tok[(src, dst)] = mr
        if gens[dst] is None:
            return
        miss = wait_missing[dst]
        if miss is not None and wait_round[dst] >= rnd and src in miss:
            miss.discard(src)
            if t > wait_t[dst]:
                wait_t[dst] = t
            if not miss:
                _unblock(dst, t)

    # Bootstrap: every (non-pre-crashed) vertex executes round 1 at t=0,
    # in index order -- nothing to wait for before the first round.
    for v in range(n):
        if gens[v] is not None:
            push((0.0, seq, _EXEC, v, 1))

    while heap:
        entry = heapq.heappop(heap)
        kind = entry[2]
        if kind == _EXEC:
            _exec(entry[0], entry[3], entry[4])
        elif kind == _TOKEN:
            _token(
                entry[0], entry[3], entry[4], entry[5],
                entry[6], entry[7], entry[8],
            )
        else:
            _marker(entry[0], entry[3], entry[4], entry[5])

    # -- result assembly (shared with SyncBarrierScheduler.finish) -------
    total_rounds = max(rounds, default=0)
    counts = [0] * (total_rounds + 1)
    for r in rounds:
        if r > 0:
            counts[r] += 1
    active_trace: list[int] = []
    alive = 0
    for r in range(total_rounds, 0, -1):
        alive += counts[r]
        active_trace.append(alive)
    active_trace.reverse()
    msg_trace = [msgs.get(r, 0) for r in range(1, total_rounds + 1)]
    if emit is not None:
        # Synthesize the barrier-equivalent per-round aggregates.  The
        # trace collector keys records by round number, not stream
        # position, so appending them after the event-ordered records
        # gives trace consumers (``repro inspect --diff`` / narrative)
        # the same per-round (active, traffic, halts) surface a
        # synchronous run of the identical content produces.
        halts_per_round = [0] * (total_rounds + 1)
        for r in halted_at.values():
            halts_per_round[r] += 1
        for r in range(1, total_rounds + 1):
            emit(RoundStart(r, active_trace[r - 1]))
            emit(
                RoundEnd(
                    r,
                    msgs.get(r, 0),
                    len(recv_sets.get(r, ())),
                    halts_per_round[r],
                )
            )
    if injector is not None:
        injector.absorb_rounds(max_round_seen, crashed_now)
    return assemble_result(
        contexts,
        outputs,
        rounds,
        active_trace,
        msg_trace,
        injector,
        times=TimeMetrics(
            times=tuple(times),
            output_times=tuple(commit_t.get(v, times[v]) for v in range(n)),
            mean_delay=delays.mean_delay,
        ),
    )
