"""The event-queue asynchronous executor, kept as the timing oracle.

``run_async`` re-runs a program through an event heap with no global
round.  Every directed edge carries one *token* per sender round: when
vertex ``u`` executes its local round ``r`` it emits a round-``r`` token
to each neighbor, carrying that round's payloads (possibly none -- empty
tokens are the synchronizer pulse) and, in ``u``'s final round, its halt
notice and output.  The token arrives after a seeded per-edge delay
(:class:`~repro.runtime.async_sched.DelaySpec`), and vertex ``v``
executes its local round ``r`` as soon as the round-``r - 1`` tokens of
all neighbors it still expects one from have arrived.  Execution itself
is instantaneous; all time is communication time.

This is the alpha-synchronizer, so the execution content equals the
barrier's for every delay model and fault plan; the runtime's
asynchronous mode therefore runs the synchronous engine and derives the
times in one pass (:func:`repro.runtime.async_sched.time_run`).  This
executor routes messages and applies the adversary's fates on its own,
so it checks that pass and the shared routing in
:meth:`repro.runtime.context.Context._route` independently.

Fault semantics:

* **crash-stop** -- drawn when the vertex becomes ready for the crash
  round; it performs no computation, and each neighbor's scheduler
  learns to stop waiting via a crash marker timed like the round-``r``
  token the crashed vertex would have sent.  Programs never observe the
  marker (no ``ctx.halted`` entry), exactly as under the barrier.
* **message faults** -- per-copy drop/duplicate/delay with the sync draw
  stream keyed by the sender's local round; a copy delayed by ``d``
  joins the receiver's local round ``r + 1 + d`` inbox, the round it
  would join under the barrier.  Delayed copies never gate readiness.
"""

from __future__ import annotations

import heapq

from repro.faults.plan import message_fates
from repro.runtime.async_sched import DelaySpec
from repro.runtime.context import _EMPTY_FROZENSET
from repro.runtime.metrics import RoundMetrics, TimeMetrics
from repro.runtime.network import (
    RoundLimitExceeded,
    RunResult,
    default_max_rounds,
)
from repro.runtime.scheduler import SyncBarrierScheduler
from repro.runtime.session import current

# heap entry kinds (the entry layout is (t, seq, kind, ...))
_EXEC = 0    # (t, seq, _EXEC, v, rnd)
_TOKEN = 1   # (t, seq, _TOKEN, src, dst, rnd, mail pairs, halt, output)
_MARKER = 2  # (t, seq, _MARKER, src, dst, rnd)


def run_async(net, program, max_rounds=None, delays=None):
    """Execute ``program`` on ``net`` under the event-queue scheduler.

    Returns the :class:`~repro.runtime.network.RunResult` a synchronous
    run gives, with ``times`` filled in.  The fault adversary is the
    current run session's injector; ``delays`` defaults to the session's
    delays, falling back to the fixed unit-delay model.
    """
    run = current()
    if delays is None:
        delays = run.delays or DelaySpec()
    g = net.graph
    n = g.n
    if max_rounds is None:
        max_rounds = default_max_rounds(n)

    contexts = net.make_contexts()
    gens = net._spawn(program, contexts)
    injector = run.injector
    # Link delays keyed by CSR arc: the neighbors of v, in
    # ``g.neighbors(v)`` order, are arcs arc0[v], arc0[v] + 1, ...
    offsets, indices = g.csr()
    arc0 = offsets.tolist()
    arc_dst = indices.tolist()
    arc_src = [v for v in range(n) for _ in range(arc0[v + 1] - arc0[v])]

    def delay(i, rnd):
        return delays.draw(arc_src[i], arc_dst[i], rnd)

    # The adversary is evaluated through its *pure* draw functions:
    # begin_run supplies the session state (crashes from earlier runs,
    # the session round offset), and absorb_rounds at the end folds this
    # run's outcome back in.
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
    outputs = {}
    rounds = [0] * n
    times = [0.0] * n
    commit_t = {}
    #: v -> local round in which v halted (graceful termination only)
    halted_at = {}
    crashed_now = set()
    #: (src, dst) -> the last round for which src will ever emit a token
    #: on that edge (set when dst's scheduler learns of halt/crash)
    last_tok = {}
    #: v -> token round -> src -> (arrival t, mail pairs, halt?, output)
    arrivals = [{} for _ in range(n)]
    #: v -> due local round -> [(send round, src, seq, payload)] copies
    #: the adversary delayed; they never gate readiness
    delayed_box = [{} for _ in range(n)]
    #: (dst, send round) -> normally-routed copies addressed to dst; used
    #: to take same-round drops back out of the traffic trace when dst
    #: turns out to halt in that round
    norm_recv = {}
    #: send round -> traffic (program copies + halt notices - drops)
    msgs = {}
    # readiness bookkeeping: while v waits to execute round R it collects
    # round R-1 tokens -- wait_round[v] = R-1, wait_missing[v] the senders
    # still owed, wait_t[v] the latest relevant arrival so far
    wait_missing = [None] * n
    wait_round = [0] * n
    wait_t = [0.0] * n

    heap = []
    seq = 0
    max_round_seen = 0

    def push(entry):
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

    def _advance(v, nxt, t_now):
        """Set up v's wait for local round ``nxt`` (round nxt-1 tokens)."""
        need = nxt - 1
        got = arrivals[v].get(need)
        ready = t_now
        missing = None
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

    def _unblock(dst, t):
        """The last awaited token/marker arrived: schedule the execution."""
        wait_missing[dst] = None
        if t > wait_t[dst]:
            wait_t[dst] = t
        push((wait_t[dst], seq, _EXEC, dst, wait_round[dst] + 1))

    def _exec(t, v, rnd):
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
        mail = []
        new_halts = None
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
            yielded = next(gens[v])
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
        tok_mail = {}
        out_msgs = ctx._outgoing
        if out_msgs:
            ctx._outgoing = []
            pair_k = {}
            hold_seq = 0
            for u, payload in out_msgs:
                if mf is not None:
                    k = pair_k.get(u, 0)
                    pair_k[u] = k + 1
                    fates = message_fates(mf, fseed, base + rnd, v, u, k)
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
                        pass
                    else:
                        round_msgs += 1
                        key = (u, rnd)
                        norm_recv[key] = norm_recv.get(key, 0) + 1
                        lst = tok_mail.get(u)
                        if lst is None:
                            tok_mail[u] = [(v, payload)]
                        else:
                            lst.append((v, payload))

        if halted_now:
            rounds[v] = rnd
            times[v] = t
            halted_at[v] = rnd
            round_msgs += 1  # the halt notice, as under the barrier
            # Copies already routed to v this same round by senders that
            # executed earlier in virtual time: drop them.
            round_msgs -= norm_recv.pop((v, rnd), 0)
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

    def _token(t, src, dst, rnd, pairs, halt, out):
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

    def _marker(t, src, dst, rnd):
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

    # -- result assembly (the barrier's accounting) ---------------------
    total_rounds = max(rounds, default=0)
    counts = [0] * (total_rounds + 1)
    for r in rounds:
        if r > 0:
            counts[r] += 1
    active_trace = []
    alive = 0
    for r in range(total_rounds, 0, -1):
        alive += counts[r]
        active_trace.append(alive)
    active_trace.reverse()
    msg_trace = [msgs.get(r, 0) for r in range(1, total_rounds + 1)]
    crashed = ()
    if injector is not None:
        injector.absorb_rounds(max_round_seen, crashed_now)
        crashed = tuple(sorted(v for v in injector.crashed if v < n))
    return RunResult(
        outputs=outputs,
        metrics=RoundMetrics(
            rounds=tuple(rounds),
            active_trace=tuple(active_trace),
            messages_per_round=tuple(msg_trace),
        ),
        output_rounds=tuple(
            ctx._commit_round if ctx._commit_round is not None else rounds[v]
            for v, ctx in enumerate(contexts)
        ),
        crashed=crashed,
        times=TimeMetrics(
            times=tuple(times),
            output_times=tuple(commit_t.get(v, times[v]) for v in range(n)),
            mean_delay=delays.mean_delay,
        ),
    )
