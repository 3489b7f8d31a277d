"""Columnar (bulk-engine) drivers for the data-parallel zoo algorithms.

Each ``bulk_*`` function is the vectorized twin of a generator driver:
same signature surface, same result type, **bit-identical** outputs and
round accounting (the three-way differential suite pins this).  State
lives in numpy arrays indexed by vertex; one synchronous round is a few
array operations over the cached CSR view, so n = 10^6 runs complete in
seconds where the generator engines would step a million coroutines per
round.

One kernel per algorithm, one fault model
-----------------------------------------
Procedure Partition, Luby MIS, Cole-Vishkin and defective coloring each
have exactly one kernel.  It steps one engine round per iteration and
replays the run session's crash-stop and message-drop adversary
(:mod:`repro.runtime.session`) bit-identically to the fast engine; **a
clean run is the empty plan** (:class:`FaultParams` with no strikes, no
drop draws, offset 0 and no pre-crashed vertices), not a separate code
path.
Duplicate/delay plans are refused up front with
:class:`~repro.runtime.bulk.BulkUnsupported`: they need multi-round
message buffering, which the kernels do not keep.  A kernel returns its
per-vertex results as read-only :class:`~repro.runtime.bulk.ColumnMap`
views over its final columns -- no per-vertex Python object is built
between the kernel and the validators -- and its round accounting comes
back from :func:`_finish` as :class:`RoundMetrics`.

Sender-side accounting
----------------------
Every kernel accounts its rounds through :func:`_broadcast`: gather the
senders' CSR rows, route each copy to a neighbor not yet *known* halted
(termination round 0/unset -- running or crashed -- or ``== r``,
same-round: routed then dropped), apply the drop draw per copy when the
plan drops, then bucket by the receiver's termination round.  The
round's ``sent`` is every routed copy, dropped or not (the generator
engines narrate a send before the adversary decides its fate); its
message total is the delivered copies plus one halt notice per vertex
terminating this round.  Fault draws (crash hazard, message drop)
are pure counter-based functions of ``(seed, session round, vertex)`` /
``(..., src, dst, k)`` (:mod:`repro.faults.plan`), so a kernel may
evaluate them in any order, a whole round at a time, and still inject
the fast engine's stream.

Only :data:`BULK_DRIVERS` entries run on the bulk engine; the zoo
mirrors this registry through ``AlgorithmSpec.bulk_capable`` and
``zoo.check_registry`` fails on any drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro import rng
from repro.faults.plan import CrashSpec, drop_many
from repro.graphs.graph import Graph
from repro.runtime.bulk import (
    BULK_CHUNK,
    BulkUnsupported,
    ColumnMap,
    finalize_run,
    gather_rows,
    id_space,
    profiled,
    resolve_ids,
    row_positions,
    run_times,
)
from repro.runtime.metrics import RoundMetrics
from repro.runtime.network import RoundLimitExceeded
from repro.runtime.session import current


@dataclass
class FaultParams:
    """The session's fault plan as the kernels consume it, plus the
    crashes and drops a run logs against it.  The defaults are the empty
    plan a clean run uses."""

    seed: int = 0
    #: session rounds consumed by earlier runs in the same fault session
    offset: int = 0
    #: vertices crashed by an earlier run (never run, never counted)
    pre_crashed: list[int] = field(default_factory=list)
    crashes: CrashSpec | None = None
    drop: float = 0.0
    record_drops: bool = False
    #: ``(round, v)`` per vertex crashed at the start of ``round``
    crash_log: list[tuple[int, int]] = field(default_factory=list)
    #: ``(round, src, dst)`` per dropped copy (only when recorded)
    drop_log: list[tuple[int, int, int]] = field(default_factory=list)

    def running(self, n: int) -> np.ndarray:
        """The running mask at round 1: everyone but the session's
        earlier crashes."""
        running = np.ones(n, dtype=bool)
        running[np.asarray(self.pre_crashed, dtype=np.int64)] = False
        return running

    def strike(self, rnd: int, cand: np.ndarray) -> np.ndarray:
        """The crash mask over the running vertices ``cand`` at the start
        of run round ``rnd``; the struck vertices are logged."""
        if self.crashes is None:
            return np.zeros(cand.size, dtype=bool)
        hit = self.crashes.strikes_many(self.seed, self.offset + rnd, cand)
        self.crash_log.extend((rnd, v) for v in cand[hit].tolist())
        return hit

    def kept(self, rnd: int, us: np.ndarray, ws: np.ndarray) -> np.ndarray:
        """Survival mask of the copies ``us[i] -> ws[i]`` broadcast in run
        round ``rnd`` (a sender broadcasts at most once per round, so each
        is copy 0)."""
        if not self.drop or us.size == 0:
            return np.ones(us.size, dtype=bool)
        return ~drop_many(self.seed, self.offset + rnd, us, ws, 0, self.drop)

    def log_drops(self, rnd: int, us, ws, lost: np.ndarray) -> None:
        """Log the copies ``us[i] -> ws[i]`` of run round ``rnd`` that
        ``lost`` marks dropped, when a live event bus will emit them."""
        if self.record_drops and lost.any():
            self.drop_log.extend(
                zip([rnd] * int(lost.sum()), us[lost].tolist(), ws[lost].tolist())
            )


def _session(n: int, name: str):
    """The session's fault injector (or ``None``) and the
    :class:`FaultParams` a kernel replays: the empty plan on a clean run.
    Duplicate/delay plans are refused: replaying them needs copies held
    across rounds, which the kernels do not buffer."""
    run = current()
    injector = run.injector
    if injector is None:
        return None, FaultParams()
    plan = injector.plan
    mf = plan.messages
    if mf is not None and (mf.duplicate or mf.delay):
        raise BulkUnsupported(
            f"{name} supports crash-stop and message-drop faults only; "
            "duplicate/delay plans need the 'fast' or 'reference' engine"
        )
    crashes = plan.crashes
    drop = mf.drop if mf is not None else 0.0
    bus = run.bus
    return injector, FaultParams(
        seed=plan.seed,
        offset=injector._round,
        pre_crashed=sorted(v for v in injector.begin_run(None) if v < n),
        crashes=crashes if crashes is not None and crashes.active else None,
        drop=drop,
        record_drops=bool(drop) and bus is not None and bus.active,
    )


def _broadcast(
    fp: FaultParams,
    rnd: int,
    offsets: np.ndarray,
    indices: np.ndarray,
    senders: np.ndarray,
    term: np.ndarray,
    halts: int,
    acct: list[tuple[int, int, int, int]],
    copy: np.ndarray | None = None,
) -> np.ndarray:
    """Account one round in which each vertex of ``senders`` broadcasts.

    Appends the round's (sent, messages, distinct receivers, same-round
    drops) to ``acct``
    (``halts`` vertices terminate this round) and returns the arrival
    count of the delivered copies per receiver -- the next round's
    inbox, so callers never gather the rows a second time.  ``senders``
    is processed in :data:`BULK_CHUNK` pieces, bounding the scratch by
    the chunk's degree mass instead of the round's.  A sender may repeat
    when it broadcasts several times in one round; ``copy`` then holds
    each entry's copy index for the drop draw (0 otherwise).
    """
    n = term.size
    counted = same = dropped = 0
    inbox = np.zeros(n, dtype=np.int64)
    # until some vertex terminates, every copy is routed and delivered
    halted = bool(term.any())
    for lo in range(0, senders.size, BULK_CHUNK):
        chunk = senders[lo : lo + BULK_CHUNK]
        ws = gather_rows(offsets, indices, chunk)
        t = term[ws] if halted else None
        if fp.drop:
            deg = offsets[chunk + 1] - offsets[chunk]
            us = np.repeat(chunk, deg)
            k = 0 if copy is None else np.repeat(copy[lo : lo + BULK_CHUNK], deg)
            if halted:
                # copies to a receiver known halted are never routed, so
                # they draw no fate
                routed = (t == 0) | (t == rnd)
                us, ws, t = us[routed], ws[routed], t[routed]
                k = k if copy is None else k[routed]
            lost = drop_many(fp.seed, fp.offset + rnd, us, ws, k, fp.drop)
            fp.log_drops(rnd, us, ws, lost)
            dropped += int(np.count_nonzero(lost))
            ws = ws[~lost]
            t = t[~lost] if halted else None
        if halted:
            live = t == 0
            same += int(np.count_nonzero(t == rnd))
            ws = ws if live.all() else ws[live]
        counted += ws.size
        inbox += np.bincount(ws, minlength=n)
    # distinct receivers straight off the arrival counts: numpy 2.4's
    # hash-based np.unique costs ~50x a scatter at n = 10^6
    acct.append(
        (
            counted + same + dropped,
            counted + halts,
            int(np.count_nonzero(inbox)),
            same,
        )
    )
    return inbox


def _edges(offsets: np.ndarray, indices: np.ndarray, verts: np.ndarray):
    """(edge positions, neighbors, owners) of the CSR rows of ``verts``."""
    pos = row_positions(offsets, verts)
    owners = np.repeat(verts, offsets[verts + 1] - offsets[verts])
    return pos, indices[pos], owners


def _expand(cnt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slot layout of ``cnt[i]`` slots per item: each slot's item index
    and its offset within the item."""
    item = np.repeat(np.arange(cnt.size, dtype=np.int64), cnt)
    return item, np.arange(item.size, dtype=np.int64) - (np.cumsum(cnt) - cnt)[item]


def _finish(
    injector,
    fp: FaultParams,
    rounds_run: int,
    watchdog: list[int] | None,
    max_rounds: int,
    acct: Sequence[tuple[int, int, int, int]],
    term: np.ndarray,
) -> RoundMetrics:
    """Fold a kernel's outcome into the fault session (if any) and return
    the run's round metrics; a watchdog stop raises the fast engine's
    typed round-limit error."""
    crash_rounds = dict(sorted((v, r) for r, v in fp.crash_log))
    if injector is not None:
        injector.absorb_rounds(rounds_run, list(crash_rounds))
    if watchdog is not None:
        raise RoundLimitExceeded(max_rounds, watchdog, None)
    sent, msgs, recv, same = (
        (list(col) for col in zip(*acct)) if acct else ([], [], [], [])
    )
    return finalize_run(
        term,
        sent,
        msgs,
        recv,
        same_round=same,
        crash_rounds=crash_rounds,
        pre_crashed=fp.pre_crashed,
        drops=fp.drop_log,
    )


# ---------------------------------------------------------------------------
# Procedure Partition (Theorem 6.3) -- the n = 10^6 workhorse
# ---------------------------------------------------------------------------


def bulk_partition(
    graph: Graph,
    a: int,
    eps: float = 1.0,
    ids: Sequence[int] | None = None,
    seed: int = 0,
    max_rounds: int | None = None,
):
    """Columnar Procedure Partition: one vectorized degree-threshold test
    per round.  ``heard[v]`` counts the JOINs v received in earlier
    rounds; v joins at the first round with ``deg(v) - heard(v) <= A``.

    Per round: strike, run the join test, terminate the joiners and
    broadcast their JOINs; the delivered copies :func:`_broadcast` counts
    (after the drop draw) are what the receivers hear next round.
    """
    from repro.core.common import degree_bound, partition_length_bound
    from repro.core.partition import PartitionResult

    n = graph.n
    resolve_ids(graph, ids)  # IDs only validate; Partition is ID-oblivious
    A = degree_bound(a, eps)
    if max_rounds is None:
        max_rounds = partition_length_bound(n, eps) + 4
    injector, fp = _session(n, "partition")
    offsets, indices = graph.csr(dtype="auto")
    deg = (offsets[1:] - offsets[:-1]).astype(np.int64)

    term = np.zeros(n, dtype=np.int64)
    heard = np.zeros(n, dtype=np.int64)
    active = np.flatnonzero(fp.running(n))
    acct: list[tuple[int, int, int, int]] = []
    watchdog = None
    rnd = 0
    with profiled("kernel"):
        while active.size:
            rnd += 1
            hit = fp.strike(rnd, active)
            if hit.any():
                active = active[~hit]
                if not active.size:
                    break
            if rnd > max_rounds:
                watchdog = active.tolist()
                break
            join = (deg[active] - heard[active]) <= A
            joiners = active[join]
            term[joiners] = rnd
            heard += _broadcast(
                fp, rnd, offsets, indices, joiners, term, int(joiners.size), acct
            )
            active = active[~join]

    metrics = _finish(injector, fp, rnd, watchdog, max_rounds, acct, term)
    return PartitionResult(
        h_index=ColumnMap(term, term > 0),
        A=A,
        metrics=metrics,
        times=run_times(graph, term, fp.crash_log),
    )


# ---------------------------------------------------------------------------
# Luby's randomized MIS (Table 2 baseline)
# ---------------------------------------------------------------------------


def bulk_luby_mis(
    graph: Graph,
    ids: Sequence[int] | None = None,
    seed: int = 0,
    max_rounds: int | None = None,
):
    """Columnar Luby MIS, one engine round per iteration.

    Crash draws happen per round over the still-running set -- the fast
    engine's ``on_round`` cadence -- and the round parity encodes the
    protocol: odd round 2k-1 delivers the previous attempt's MIS
    announcements (their receivers leave and terminate) and broadcasts
    the attempt-k priorities; even round 2k delivers priorities and
    leave announcements and runs the win check; the winners join the MIS,
    terminate and announce.  A vertex running at round 2k-1 has drawn
    once per earlier attempt, so its attempt-k priority is
    ``u01(seed, VERTEX, id, k-1)`` (its k-th ``ctx.rng.random()``).

    Receiver-owned per-edge state replicates each vertex's accumulated
    :class:`~repro.core.common.LocalView`: ``view[j]`` is the attempt of
    the last priority heard over edge j (0 = never; a stale value counts
    as *beaten*, matching the program's ``prios[u][0] < attempt`` test),
    or -1 once the neighbor's leave announcement arrived.  A neighbor
    that crashed before ever announcing a priority blocks its survivors
    forever -- the watchdog converts that into the typed round-limit
    error, the same legitimate non-termination the fast engine reports.
    Crash-safe, NOT drop-safe: a dropped MIS announcement can leave two
    adjacent winners (see docs/faults.md).
    """
    from repro.core.extension import MISResult

    n = graph.n
    ids_arr = resolve_ids(graph, ids)
    if max_rounds is None:
        max_rounds = 64 * (n.bit_length() + 4) + 64
    injector, fp = _session(n, "luby MIS")
    offsets, indices = graph.csr(dtype="auto")

    running = fp.running(n)
    term = np.zeros(n, dtype=np.int64)
    rand = np.zeros(n, dtype=np.float64)
    # round of each vertex's last priority broadcast
    lastp = np.zeros(n, dtype=np.int64)
    view = np.zeros(indices.size, dtype=np.int32)
    acct: list[tuple[int, int, int, int]] = []
    # arrivals of the last even round's MIS announcements
    inbox = np.zeros(n, dtype=np.int64)
    watchdog = None
    rnd = 0
    with profiled("kernel"):
        while True:
            run_idx = np.flatnonzero(running)
            if not run_idx.size:
                break
            rnd += 1
            hit = fp.strike(rnd, run_idx)
            if hit.any():
                running[run_idx[hit]] = False
                run_idx = run_idx[~hit]
                if not run_idx.size:
                    break
            if rnd > max_rounds:
                watchdog = run_idx.tolist()
                break

            if rnd % 2 == 1:
                # odd round 2k-1: the receivers of round 2k-2's MIS
                # announcements leave; everyone else draws and broadcasts
                # the attempt-k priority
                k = (rnd + 1) // 2
                leave = inbox[run_idx] > 0
                leavers = run_idx[leave]
                term[leavers] = rnd
                running[leavers] = False
                run_idx = run_idx[~leave]
                rand[run_idx] = rng.u01_many(seed, rng.VERTEX, ids_arr[run_idx], k - 1)
                lastp[run_idx] = rnd
                senders = np.concatenate((run_idx, leavers))
                halts = int(leavers.size)
            else:
                # even round 2k: absorb the copies sent at 2k-1 into the
                # per-edge view, then the win check over it, in
                # BULK_CHUNK-vertex pieces
                won = [
                    _win_check(
                        fp, rnd, offsets, indices, run_idx[lo : lo + BULK_CHUNK],
                        term, lastp, view, rand, ids_arr,
                    )
                    for lo in range(0, run_idx.size, BULK_CHUNK)
                ]
                winners = np.concatenate(won) if won else run_idx[:0]
                term[winners] = rnd
                running[winners] = False
                senders = winners
                halts = int(winners.size)
            inbox = _broadcast(fp, rnd, offsets, indices, senders, term, halts, acct)

    # release the per-vertex and per-edge state before the result columns
    del view, lastp, rand, inbox
    metrics = _finish(injector, fp, rnd, watchdog, max_rounds, acct, term)
    in_mis, h_index = luby_outputs(term)
    return MISResult(
        in_mis=in_mis,
        h_index=h_index,
        metrics=metrics,
        times=run_times(graph, term, fp.crash_log),
    )


def _win_check(fp, rnd, offsets, indices, vs, term, lastp, view, rand, ids_arr):
    """Luby's even round 2k over the running vertices ``vs``: absorb the
    copies sent at round 2k-1 into their rows' ``view``, then return the
    vertices no neighbor blocks."""
    k = rnd // 2
    cnt = offsets[vs + 1] - offsets[vs]
    pos = row_positions(offsets, vs)
    us = indices[pos]
    left = term[us] == rnd - 1
    got = (lastp[us] == rnd - 1) | left
    if fp.drop:
        owners = np.repeat(vs, cnt)
        got[got] = fp.kept(rnd - 1, us[got], owners[got])
    v = view[pos]
    v[got] = k
    v[got & left] = -1
    view[pos] = v
    # a neighbor blocks unless it left (-1), its priority is stale
    # (0 < v < k), or it drew attempt k and loses on (rand, id)
    ru = rand[us]
    rv = np.repeat(rand[vs], cnt)
    beats = ru > rv
    tie = ru == rv
    if tie.any():
        beats |= tie & (ids_arr[us] > np.repeat(ids_arr[vs], cnt))
    block = (v == 0) | ((v == k) & beats)
    # blockers per row, from a running count over the concatenated rows
    csum = np.concatenate(([0], np.cumsum(block)))
    ends = np.cumsum(cnt)
    return vs[csum[ends] == csum[ends - cnt]]


def luby_outputs(term: np.ndarray):
    """Decode (attempt, joined?) from Luby termination parity: winners
    terminate at even round 2k, losers one round later at 2k+1.

    Returns the ``in_mis`` and ``h_index`` views over the vertices that
    terminated.
    """
    done = term > 0
    return ColumnMap(done & (term % 2 == 0), done), ColumnMap(term // 2, done)


# ---------------------------------------------------------------------------
# Cole-Vishkin ring 3-coloring (log* exhibit)
# ---------------------------------------------------------------------------


def bulk_ring_three_coloring(
    graph: Graph,
    successor: Sequence[int],
    ids: Sequence[int] | None = None,
    seed: int = 0,
):
    """Columnar Cole-Vishkin: the bit tricks vectorize directly.

    Runs in round lockstep like the fast program: rounds ``1..steps+1``
    broadcast the halving chain (round r reduces with the successor's
    round-``r-1`` value: ``diff = c ^ c_succ``, the lowest set bit index
    from ``log2(diff & -diff)``, exact in float64 for any index < 53),
    rounds ``steps+2..steps+4`` process the greedy recolor classes 5, 4,
    3; everyone still alive terminates at ``steps+4``.  The program
    *never waits*: a missing successor value (crashed sender or dropped
    copy) skips the reduce and keeps the current color -- identical to
    the fast program's keep-color-on-missing rule -- so Cole-Vishkin
    cannot non-terminate under the crash-stop / message-drop adversary,
    only degrade (the validators flag the resulting defects).

    ``buf[r & 1][v]`` is the value v broadcast at round r, read by
    neighbors at round r+1 from the other slot, and the monotone
    ``bstamp[v]`` is the last round v broadcast, so receivers gate
    delivery on ``bstamp[u] >= r-1``.

    ``successor`` must already be validated (the ``run_ring_three_
    coloring`` wrapper dispatches here after its checks, with the int64
    column they return, which is used as is).
    """
    from repro.baselines.cole_vishkin import _cv_steps
    from repro.core.coloring import ColoringResult

    n = graph.n
    ids_arr = resolve_ids(graph, ids)
    injector, fp = _session(n, "ring 3-coloring")
    running = fp.running(n)
    steps = _cv_steps(id_space(ids_arr))
    offsets, indices = graph.csr(dtype="auto")
    succ = np.asarray(successor, dtype=np.int64)  # no copy of an int64 column

    buf = np.zeros((2, n), dtype=np.int64)  # slot r & 1 = round-r broadcast
    bstamp = np.zeros(n, dtype=np.int64)
    term = np.zeros(n, dtype=np.int64)
    col = np.zeros(n, dtype=np.int64)
    acct: list[tuple[int, int, int, int]] = []
    rnd = 0
    with profiled("kernel"):
        while rnd < steps + 4:
            vg = np.flatnonzero(running)
            if not vg.size:
                break
            rnd += 1
            hit = fp.strike(rnd, vg)
            if hit.any():
                running[vg[hit]] = False
                vg = vg[~hit]
                if not vg.size:
                    break

            if rnd == 1:
                c_new = ids_arr[vg]
            else:
                prev = buf[(rnd - 1) & 1]
                c_new = prev[vg]
                if rnd <= steps + 1:
                    # halving step: reduce with the successor's round-(r-1)
                    # value when it arrived, keep the color otherwise
                    su = succ[vg]
                    cs = prev[su]
                    # keep-color on missing *or equal* successor value (the
                    # latter is reachable once a step was skipped)
                    got = (bstamp[su] >= rnd - 1) & (cs != c_new)
                    if fp.drop:
                        got &= fp.kept(rnd - 1, su, vg)
                    diff = np.where(got, c_new ^ cs, 1)
                    i = np.log2((diff & -diff).astype(np.float64)).astype(np.int64)
                    c_new = np.where(got, 2 * i + ((c_new >> i) & 1), c_new)
                else:
                    # greedy recolor of class 5 / 4 / 3 over the delivered
                    # neighbor values from round r-1
                    cls = 5 - (rnd - steps - 2)
                    mine = np.flatnonzero(c_new == cls)
                    mi = vg[mine]
                    _pos, nbs, owners = _edges(offsets, indices, mi)
                    got = bstamp[nbs] >= rnd - 1
                    got &= fp.kept(rnd - 1, nbs, owners)
                    val = prev[nbs]
                    used0 = np.zeros(n, dtype=bool)
                    used0[owners[got & (val == 0)]] = True
                    used1 = np.zeros(n, dtype=bool)
                    used1[owners[got & (val == 1)]] = True
                    c_new[mine] = np.where(~used0[mi], 0, np.where(~used1[mi], 1, 2))
            if rnd <= steps + 3:
                buf[rnd & 1][vg] = c_new
                bstamp[vg] = rnd
                _broadcast(fp, rnd, offsets, indices, vg, term, 0, acct)
            else:
                col[vg] = c_new
                term[vg] = rnd
                running[vg] = False
                _broadcast(fp, rnd, offsets, indices, vg[:0], term, int(vg.size), acct)

    metrics = _finish(injector, fp, rnd, None, steps + 4, acct, term)
    done = term > 0
    return ColoringResult(
        colors=ColumnMap(col, done),
        h_index=ColumnMap(np.broadcast_to(np.int64(1), (n,)), done),
        metrics=metrics,
        palette_bound=3,
    )


# ---------------------------------------------------------------------------
# Defective coloring (Section 7.8.1 building block)
# ---------------------------------------------------------------------------


def bulk_defective_coloring(
    graph: Graph,
    d: int,
    degree_limit: int | None = None,
    ids: Sequence[int] | None = None,
    seed: int = 0,
):
    """Columnar d-defective coloring: each round, every vertex whose wait
    is satisfied picks its next family step with one
    :meth:`~repro.core.coverfree.PolyFamily.pick_many` per step.

    The fast program is *self-synchronizing*: it broadcasts family step k
    and then waits until every neighbor's step k arrived, with no resend.
    On a clean run that is lockstep -- K broadcast rounds (isolated
    vertices finish all their picks in round 1), then one terminating
    round.  Under crash-stop / message-drop faults two consequences shape
    the kernel.  First, a vertex released from a long wait catches up by
    broadcasting several steps in one round, so a (src, dst) pair can
    carry multiple copies per round -- the adversary's per-copy index is
    the step's offset within the sender's round batch.  Second, one
    dropped copy (or a crashed neighbor) stalls its receiver at that step
    forever, which cascades; the watchdog reports the same legitimate
    non-termination the fast engine does.

    ``scol[s][v]`` is v's color after s picks -- the value of its step-s
    broadcast -- written once, so a vertex picking step s+1 reads its
    neighbors' ``scol[s]`` however far they have moved on since; a
    per-step column is simpler than parity slots and the schedule has
    only a handful of steps.  ``bc[v]`` counts v's broadcasts so far, so
    a sender's batch this round is its growth.  Receiver-owned per-edge
    state: ``e_seen[j]`` copies fate-processed so far, ``e_gap[j]`` the
    first step not yet delivered (the wait barrier -- a drop freezes it
    permanently).
    """
    from repro.core.defective import DefectiveColoringResult, defective_schedule

    n = graph.n
    ids_arr = resolve_ids(graph, ids)
    injector, fp = _session(n, "defective coloring")
    running = fp.running(n)
    A = degree_limit if degree_limit is not None else graph.max_degree()
    A = max(A, 1)
    space = id_space(ids_arr)
    schedule = defective_schedule(space, A, d)
    bound = schedule[-1].ground_size if schedule else space
    n_steps = len(schedule)
    max_rounds = 4 * n_steps + 64
    offsets, indices = graph.csr(dtype="auto")
    deg = offsets[1:] - offsets[:-1]

    scol = np.zeros((n_steps + 1, n), dtype=np.int64)
    scol[0] = ids_arr
    bc = np.zeros(n, dtype=np.int64)
    term = np.zeros(n, dtype=np.int64)
    # row starts of the non-isolated vertices, for per-row minima
    nz = deg > 0
    nz_starts = offsets[:-1][nz]
    e_seen = np.zeros(indices.size, dtype=np.int32)
    e_gap = np.zeros(indices.size, dtype=np.int32)
    acct: list[tuple[int, int, int, int]] = []
    watchdog = None
    rnd = 0
    with profiled("kernel"):
        while True:
            run_idx = np.flatnonzero(running)
            if not run_idx.size:
                break
            rnd += 1
            hit = fp.strike(rnd, run_idx)
            if hit.any():
                running[run_idx[hit]] = False
                run_idx = run_idx[~hit]
                if not run_idx.size:
                    break
            if rnd > max_rounds:
                watchdog = run_idx.tolist()
                break

            if rnd > 1:
                for lo in range(0, run_idx.size, BULK_CHUNK):
                    _deliver(
                        fp, rnd, offsets, indices, run_idx[lo : lo + BULK_CHUNK],
                        bc, e_seen, e_gap,
                    )
            # Make progress: first activation broadcasts step 0, then every
            # satisfied wait picks and broadcasts the next step -- several
            # in one round when catching up, ascending steps -- and the
            # last pick terminates instead of broadcasting.
            before = bc[run_idx]
            if n_steps:
                gap_min = np.full(n, n_steps + 1, dtype=np.int64)
                if nz_starts.size:
                    gap_min[nz] = np.minimum.reduceat(e_gap, nz_starts)
                gap = gap_min[run_idx]
                b = np.maximum(before, 1)
                done = np.zeros(run_idx.size, dtype=bool)
                for s, fam in enumerate(schedule, start=1):
                    go = (b == s) & (gap >= s)
                    if not go.any():
                        continue
                    vs = run_idx[go]
                    scol[s][vs] = fam.pick_many(scol[s - 1], offsets, indices, vs)
                    if s == n_steps:
                        done = go
                    else:
                        b[go] = s + 1
                bc[run_idx] = b
            else:
                b, done = before, np.ones(run_idx.size, dtype=bool)
            finished = run_idx[done]
            term[finished] = rnd
            running[finished] = False

            # this round's batched broadcasts: one entry per copy, its
            # index within the sender's batch
            item, kidx = _expand(b - before)
            _broadcast(
                fp, rnd, offsets, indices, run_idx[item], term,
                int(finished.size), acct, copy=kidx,
            )

    metrics = _finish(injector, fp, rnd, watchdog, max_rounds, acct, term)
    return DefectiveColoringResult(
        # a copy, so the view does not keep every step's column alive
        colors=ColumnMap(scol[n_steps].copy(), term > 0),
        metrics=metrics,
        palette_bound=bound,
        defect_bound=d,
    )


def _deliver(fp, rnd, offsets, indices, vs, bc, e_seen, e_gap):
    """Defective coloring's receive step over the running vertices ``vs``:
    fate-process the copies their neighbors broadcast at round rnd-1.
    Delivery advances each edge's contiguous-prefix gap; a dropped step
    freezes it -- there are no resends."""
    ej, us, owners = _edges(offsets, indices, vs)
    cnt = bc[us]
    fresh = cnt > e_seen[ej]
    ej, us, owners, cnt = ej[fresh], us[fresh], owners[fresh], cnt[fresh]
    base = e_seen[ej]
    # copies delivered before the first dropped one, per edge
    adv = cnt - base
    if fp.drop and ej.size:
        item, kidx = _expand(adv)
        lost = drop_many(
            fp.seed, fp.offset + rnd - 1, us[item], owners[item], kidx, fp.drop
        )
        np.minimum.at(adv, item[lost], kidx[lost])
    at_gap = e_gap[ej] == base
    e_gap[ej[at_gap]] += adv[at_gap]
    e_seen[ej] = cnt


#: generator driver function name -> columnar twin.  The zoo's
#: ``bulk_capable`` flags must mirror this registry exactly
#: (``zoo.check_registry`` invariant).
BULK_DRIVERS = {
    "run_partition": bulk_partition,
    "run_luby_mis": bulk_luby_mis,
    "run_ring_three_coloring": bulk_ring_three_coloring,
    "run_defective_coloring": bulk_defective_coloring,
}
