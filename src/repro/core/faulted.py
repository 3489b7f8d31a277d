"""Fault-aware columnar kernels for the bulk-capable algorithms.

Under an installed :func:`repro.faults.session`, each ``bulk_*`` driver
in :mod:`repro.core.bulk` hands its run to the kernel here instead of its
closed-form round.  The kernels step the algorithm one engine round per
iteration over the whole vertex range and replay crash-stop and
message-drop plans bit-identically to the fast engine; duplicate/delay
plans have no columnar replay and are rejected up front with
:class:`~repro.runtime.bulk.BulkUnsupported`.

Receiver-side accounting
------------------------
The closed-form drivers account rounds **sender-side**: gather the
joiners' CSR rows and bucket each copy by the receiver's termination
state.  Here a copy can be lost between sender and receiver, so the
kernels evaluate the same sums **receiver-side**: after a round's
decisions, every still-relevant vertex (running, crashed, or terminating
this round) scans its own row and counts the neighbors that broadcast
this round, after applying the drop draw to each copy.  Undirected
adjacency makes the two pair-sets equal.

Fault draws (crash hazard, message drop) are pure counter-based
functions of ``(seed, session round, vertex)`` / ``(..., src, dst, k)``
(:mod:`repro.faults.plan`), so a kernel may evaluate them in any order,
a whole round at a time, and still inject the fast engine's stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro import rng
from repro.faults.plan import CrashSpec, current, drop_many
from repro.core.bulk import luby_outputs
from repro.graphs.graph import Graph
from repro.runtime.bulk import (
    BulkUnsupported,
    column_dict,
    finalize_faulted_run,
    gather_rows,
    id_space,
    profiled,
    resolve_ids,
)
from repro.runtime.network import RoundLimitExceeded, RunResult


@dataclass
class FaultParams:
    """An installed fault plan as the kernels consume it, plus the
    crashes and drops a run logs against it."""

    seed: int
    #: session rounds consumed by earlier runs in the same fault session
    offset: int
    #: vertices crashed by an earlier run (never run, never counted)
    pre_crashed: list[int]
    crashes: CrashSpec | None
    drop: float
    record_drops: bool
    #: ``(round, v)`` per vertex crashed at the start of ``round``
    crash_log: list[tuple[int, int]] = field(default_factory=list)
    #: ``(round, src, dst)`` per dropped copy (only when recorded)
    drop_log: list[tuple[int, int, int]] = field(default_factory=list)

    def strike(self, rnd: int, running: np.ndarray) -> np.ndarray:
        """Crash the running vertices the plan strikes in run round
        ``rnd``: clear them in ``running``, log them, return them."""
        if self.crashes is None:
            return np.zeros(0, dtype=np.int64)
        cand = np.flatnonzero(running)
        newly = cand[self.crashes.strikes_many(self.seed, self.offset + rnd, cand)]
        if newly.size:
            running[newly] = False
            self.crash_log.extend((rnd, v) for v in newly.tolist())
        return newly

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


def _fault_params(injector, n: int, name: str, bus) -> FaultParams:
    """The fault-plan -> kernel translation every driver shares:
    crash-stop and message-drop plans are evaluated inside the kernels
    via the pure counter-based draws; duplicate/delay plans have no
    receiver-side replay and are rejected up front."""
    plan = injector.plan
    mf = plan.messages
    if mf is not None and (mf.duplicate or mf.delay):
        raise BulkUnsupported(
            f"{name} supports crash-stop and message-drop faults only; "
            "duplicate/delay plans need the 'fast' or 'reference' engine"
        )
    crashes = plan.crashes
    drop = mf.drop if mf is not None else 0.0
    return FaultParams(
        seed=plan.seed,
        offset=injector._round,
        pre_crashed=sorted(v for v in injector.begin_run(None) if v < n),
        crashes=crashes if crashes is not None and crashes.active else None,
        drop=drop,
        record_drops=bool(drop) and bus is not None and bus.active,
    )


def _expand(cnt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slot layout of ``cnt[i]`` slots per item: each slot's item index
    and its offset within the item."""
    item = np.repeat(np.arange(cnt.size, dtype=np.int64), cnt)
    return item, np.arange(item.size, dtype=np.int64) - (np.cumsum(cnt) - cnt)[item]


class _Rows:
    """The int64 CSR rows the per-edge kernels index by edge position."""

    def __init__(self, graph: Graph) -> None:
        offsets, indices = graph.csr(dtype="auto")
        self.offsets = offsets.astype(np.int64)
        self.indices = indices.astype(np.int64)
        self.deg = np.diff(self.offsets)

    def edges(self, idx: np.ndarray):
        """(edge positions, neighbors, owners) of the rows of ``idx``."""
        item, off = _expand(self.deg[idx])
        ej = self.offsets[idx][item] + off
        return ej, self.indices[ej], idx[item]


def _receive(fp: FaultParams, rnd: int, us, ws, term):
    """Account one round's broadcast copies ``us[i] -> ws[i]``: apply the
    drop draw, then bucket the survivors by the receiver's state.
    Returns (counted, same, distinct live receivers)."""
    if fp.drop and us.size:
        keep = fp.kept(rnd, us, ws)
        fp.log_drops(rnd, us, ws, ~keep)
        ws = ws[keep]
    tw = term[ws]
    live = tw == 0
    return int(live.sum()), int((tw == rnd).sum()), int(np.unique(ws[live]).size)


def _finish(
    injector,
    fp: FaultParams,
    rounds_run: int,
    watchdog: list[int] | None,
    max_rounds: int,
    per_round: Sequence[tuple[int, int, int]],
    term: np.ndarray,
    outputs: dict[int, Any],
) -> RunResult:
    """Fold a kernel's outcome into the fault session and the run result;
    a watchdog stop raises the fast engine's typed round-limit error."""
    if watchdog is not None:
        injector.absorb_rounds(rounds_run, [v for _r, v in fp.crash_log])
        raise RoundLimitExceeded(max_rounds, watchdog, None)
    crash_rounds = dict(sorted((v, r) for r, v in fp.crash_log))
    injector.absorb_rounds(rounds_run, list(crash_rounds))
    n = term.size
    return finalize_faulted_run(
        outputs,
        term,
        crash_rounds,
        fp.pre_crashed,
        [r[0] for r in per_round],
        [r[1] for r in per_round],
        [r[2] for r in per_round],
        crashed_all=[v for v in injector.crashed if v < n],
        drops=fp.drop_log,
    )


def _setup(graph: Graph, name: str):
    """The installed injector, its kernel params, and the running mask
    with the session's earlier crashes already cleared."""
    import repro.obs as obs

    injector = current()
    fp = _fault_params(injector, graph.n, name, obs.current())
    running = np.ones(graph.n, dtype=bool)
    running[np.asarray(fp.pre_crashed, dtype=np.int64)] = False
    return injector, fp, running


# ---------------------------------------------------------------------------
# Procedure Partition
# ---------------------------------------------------------------------------


def faulted_partition(
    graph: Graph,
    a: int,
    eps: float = 1.0,
    ids: Sequence[int] | None = None,
    seed: int = 0,
    max_rounds: int | None = None,
):
    """Procedure Partition under the crash-stop / message-drop adversary.

    Per round: hear last round's JOINs (each copy subject to the drop
    draw), run the degree-threshold join test, terminate the joiners;
    then account this round's JOIN copies receiver-side.
    """
    from repro.core.common import degree_bound, partition_length_bound
    from repro.core.partition import PartitionResult

    n = graph.n
    resolve_ids(graph, ids)  # IDs only validate; Partition is ID-oblivious
    A = degree_bound(a, eps)
    if max_rounds is None:
        max_rounds = partition_length_bound(n, eps) + 4
    injector, fp, alive = _setup(graph, "partition")
    offsets, indices = graph.csr(dtype="auto")
    deg = (offsets[1:] - offsets[:-1]).astype(np.int64)

    term = np.zeros(n, dtype=np.int64)
    heard = np.zeros(n, dtype=np.int64)
    dead = np.array(fp.pre_crashed, dtype=np.int64)
    per_round: list[tuple[int, int, int]] = []
    total_active = n - len(fp.pre_crashed)
    watchdog = None
    rnd = 0
    with profiled("kernel"):
        while total_active > 0:
            rnd += 1
            newly = fp.strike(rnd, alive)
            if newly.size:
                dead = np.concatenate((dead, newly))
                total_active -= int(newly.size)
                if total_active == 0:
                    break
            if rnd > max_rounds:
                watchdog = np.flatnonzero(alive).tolist()
                break

            # hear last round's JOINs, run the join test, terminate
            act = np.flatnonzero(alive)
            if rnd > 1 and act.size:
                nb = gather_rows(offsets, indices, act)
                src = np.repeat(act, deg[act])
                jm = term[nb] == rnd - 1
                us, vs = nb[jm], src[jm]
                if fp.drop and us.size:
                    vs = vs[fp.kept(rnd - 1, us, vs)]
                heard += np.bincount(vs, minlength=n)
            join = (deg[act] - heard[act]) <= A
            joiners = act[join]
            term[joiners] = rnd
            alive[joiners] = False

            # receiver-side accounting of this round's JOIN copies
            cand = np.concatenate((act, dead)) if dead.size else act
            counted = same = recv = 0
            if cand.size:
                nb = gather_rows(offsets, indices, cand)
                src = np.repeat(cand, deg[cand])
                jm = term[nb] == rnd
                counted, same, recv = _receive(fp, rnd, nb[jm], src[jm], term)
            per_round.append((counted + same, counted + int(joiners.size), recv))
            total_active = int(alive.sum())

    res = _finish(
        injector, fp, rnd, watchdog, max_rounds, per_round, term,
        column_dict(term, term > 0),
    )
    return PartitionResult(h_index=res.outputs, A=A, metrics=res.metrics)


# ---------------------------------------------------------------------------
# Luby MIS
# ---------------------------------------------------------------------------


def faulted_luby_mis(
    graph: Graph,
    ids: Sequence[int] | None = None,
    seed: int = 0,
    max_rounds: int | None = None,
):
    """Luby MIS under the crash-stop / message-drop adversary.

    Unlike the closed-form driver (one iteration per *attempt*), this one
    steps one engine *round* per iteration, because crash draws happen
    per round over the still-running set -- exactly the fast engine's
    ``on_round`` cadence.  The round parity encodes the protocol: odd
    round 2k-1 delivers the previous attempt's MIS announcements (losers
    leave) and broadcasts attempt-k priorities; even round 2k delivers
    priorities and leave announcements and runs the win check.

    Receiver-owned per-edge state replicates each vertex's accumulated
    :class:`~repro.core.common.LocalView`: ``e_att[j]`` is the attempt of
    the last priority heard over edge j (0 = never; a stale value counts
    as *beaten*, matching the program's ``prios[u][0] < attempt`` test),
    ``disc[j]`` whether the neighbor's leave announcement arrived.  A
    neighbor that crashed before ever announcing a priority blocks its
    survivors forever -- the watchdog converts that into the typed
    round-limit error, the same legitimate non-termination the fast
    engine reports.  Crash-safe, NOT drop-safe: a dropped MIS
    announcement can leave two adjacent winners (see docs/faults.md).
    A vertex running at round 2k-1 has drawn once per earlier attempt, so
    its attempt-k priority is ``u01(seed, VERTEX, id, k-1)``.
    """
    from repro.core.extension import MISResult

    n = graph.n
    ids_arr = resolve_ids(graph, ids)
    if max_rounds is None:
        max_rounds = 64 * (n.bit_length() + 4) + 64
    injector, fp, running = _setup(graph, "luby MIS")
    rows = _Rows(graph)

    term = np.zeros(n, dtype=np.int64)
    rand = np.zeros(n, dtype=np.float64)
    lastp = np.zeros(n, dtype=np.int64)
    e_att = np.zeros(rows.indices.size, dtype=np.int64)
    disc = np.zeros(rows.indices.size, dtype=bool)
    per_round: list[tuple[int, int, int]] = []
    total_running = n - len(fp.pre_crashed)
    watchdog = None
    rnd = 0
    with profiled("kernel"):
        while total_running > 0:
            rnd += 1
            total_running -= int(fp.strike(rnd, running).size)
            if total_running == 0:
                break
            if rnd > max_rounds:
                watchdog = np.flatnonzero(running).tolist()
                break

            run_idx = np.flatnonzero(running)
            halts = 0
            if rnd % 2 == 1:
                # Odd round 2k-1: leave on MIS announcements delivered
                # from the round-(2k-2) winners, then draw the attempt-k
                # priority.
                k = (rnd + 1) // 2
                if rnd > 1 and run_idx.size:
                    _ej, nbs, owners = rows.edges(run_idx)
                    wm = term[nbs] == rnd - 1
                    if wm.any():
                        keep = fp.kept(rnd - 1, nbs[wm], owners[wm])
                        leavers = np.unique(owners[wm][keep])
                        if leavers.size:
                            term[leavers] = rnd
                            running[leavers] = False
                            halts = int(leavers.size)
                            run_idx = np.flatnonzero(running)
                rand[run_idx] = rng.u01_many(seed, rng.VERTEX, ids_arr[run_idx], k - 1)
                lastp[run_idx] = rnd
            else:
                # Even round 2k: absorb attempt-k priorities and leave
                # announcements sent at 2k-1, then the win check over the
                # accumulated per-edge view.
                k = rnd // 2
                if run_idx.size:
                    ej, nbs, owners = rows.edges(run_idx)
                    pm = lastp[nbs] == rnd - 1
                    if pm.any():
                        keep = fp.kept(rnd - 1, nbs[pm], owners[pm])
                        e_att[ej[pm][keep]] = k
                    fm = term[nbs] == rnd - 1
                    if fm.any():
                        keep = fp.kept(rnd - 1, nbs[fm], owners[fm])
                        disc[ej[fm][keep]] = True
                    ea = e_att[ej]
                    rv, iv = rand[owners], ids_arr[owners]
                    beaten = (rand[nbs] < rv) | (
                        (rand[nbs] == rv) & (ids_arr[nbs] < iv)
                    )
                    ok = disc[ej] | ((ea > 0) & (ea < k)) | ((ea == k) & beaten)
                    blocked = np.bincount(owners[~ok], minlength=n).astype(bool)
                    winners = run_idx[~blocked[run_idx]]
                    if winners.size:
                        term[winners] = rnd
                        running[winners] = False
                        halts = int(winners.size)

            # Receiver-side accounting of this round's broadcasts (attempt
            # priorities + leave announcements at odd rounds, MIS
            # announcements at even rounds -- every sender is marked:
            # lastp == rnd or term == rnd).
            cand = np.flatnonzero((term == 0) | (term == rnd))
            counted = same = recv = 0
            if cand.size:
                _ej, nbs, owners = rows.edges(cand)
                if rnd % 2 == 1:
                    sm = (lastp[nbs] == rnd) | (term[nbs] == rnd)
                else:
                    sm = term[nbs] == rnd
                counted, same, recv = _receive(fp, rnd, nbs[sm], owners[sm], term)
            per_round.append((counted + same, counted + halts, recv))
            total_running = int(running.sum())

    outputs, in_mis, h_index = luby_outputs(term)
    res = _finish(injector, fp, rnd, watchdog, max_rounds, per_round, term, outputs)
    return MISResult(in_mis=in_mis, h_index=h_index, metrics=res.metrics)


# ---------------------------------------------------------------------------
# Cole-Vishkin ring 3-coloring
# ---------------------------------------------------------------------------


def faulted_ring_three_coloring(
    graph: Graph,
    successor: Sequence[int],
    ids: Sequence[int] | None = None,
    seed: int = 0,
):
    """Cole-Vishkin under the crash-stop / message-drop adversary.

    Runs in round lockstep like the fast program: rounds ``1..steps+1``
    broadcast the halving chain (round r reduces with the successor's
    round-``r-1`` value), rounds ``steps+2..steps+4`` process the greedy
    recolor classes 5, 4, 3; everyone still alive terminates at
    ``steps+4``.  The program *never waits*: a missing successor value
    (crashed sender or dropped copy) skips the reduce and keeps the
    current color -- identical to the fast program's keep-color-on-missing
    rule -- so Cole-Vishkin cannot non-terminate under this adversary,
    only degrade (the validators flag the resulting defects).

    ``colors[r & 1][v]`` is the value v broadcast at round r, read by
    neighbors at round r+1 from the other slot, and the monotone
    ``bstamp[v]`` is the last round v broadcast, so receivers gate
    delivery on ``bstamp[u] >= r-1``.
    """
    from repro.baselines.cole_vishkin import _cv_steps
    from repro.core.coloring import ColoringResult

    n = graph.n
    ids_arr = resolve_ids(graph, ids)
    injector, fp, running = _setup(graph, "ring 3-coloring")
    steps = _cv_steps(id_space(ids_arr))
    rows = _Rows(graph)
    succ = np.asarray(list(successor), dtype=np.int64)

    buf = np.zeros((2, n), dtype=np.int64)  # slot r & 1 = round-r broadcast
    bstamp = np.zeros(n, dtype=np.int64)
    term = np.zeros(n, dtype=np.int64)
    col = np.zeros(n, dtype=np.int64)
    per_round: list[tuple[int, int, int]] = []
    total_running = n - len(fp.pre_crashed)
    rnd = 0
    with profiled("kernel"):
        while total_running > 0 and rnd < steps + 4:
            rnd += 1
            total_running -= int(fp.strike(rnd, running).size)
            if total_running == 0:
                break

            vg = np.flatnonzero(running)
            halts = 0
            if vg.size:
                if rnd == 1:
                    c_new = ids_arr[vg].astype(np.int64)
                else:
                    prev = buf[(rnd - 1) & 1]
                    c_new = prev[vg].copy()
                    if rnd <= steps + 1:
                        # halving step: reduce with the successor's
                        # round-(r-1) value when it arrived, keep the
                        # color otherwise
                        su = succ[vg]
                        got = bstamp[su] >= rnd - 1
                        if got.any():
                            got &= fp.kept(rnd - 1, su, vg)
                        # keep-color on missing *or equal* successor value
                        # (the latter is reachable once a step was skipped)
                        got &= prev[su] != c_new
                        if got.any():
                            cs = prev[su[got]]
                            c0 = c_new[got]
                            diff = c0 ^ cs
                            low = diff & -diff
                            i = np.log2(low.astype(np.float64)).astype(np.int64)
                            c_new[got] = 2 * i + ((c0 >> i) & 1)
                    else:
                        # greedy recolor of class 5 / 4 / 3 over the
                        # delivered neighbor values from round r-1
                        cls = 5 - (rnd - steps - 2)
                        mine = np.flatnonzero(c_new == cls)
                        mi = vg[mine]
                        _ej, nbs, owners = rows.edges(mi)
                        got = bstamp[nbs] >= rnd - 1
                        got &= fp.kept(rnd - 1, nbs, owners)
                        val = prev[nbs]
                        used0 = np.zeros(n, dtype=bool)
                        used0[owners[got & (val == 0)]] = True
                        used1 = np.zeros(n, dtype=bool)
                        used1[owners[got & (val == 1)]] = True
                        c_new[mine] = np.where(
                            ~used0[mi], 0, np.where(~used1[mi], 1, 2)
                        )
                if rnd <= steps + 3:
                    buf[rnd & 1][vg] = c_new
                    bstamp[vg] = rnd
                else:
                    col[vg] = c_new
                    term[vg] = rnd
                    running[vg] = False
                    halts = int(vg.size)

            cand = np.flatnonzero((term == 0) | (term == rnd))
            counted = same = recv = 0
            if cand.size:
                _ej, nbs, owners = rows.edges(cand)
                sm = bstamp[nbs] == rnd
                counted, same, recv = _receive(fp, rnd, nbs[sm], owners[sm], term)
            per_round.append((counted + same, counted + halts, recv))
            total_running = int(running.sum())

    colors = column_dict(col, term > 0)
    res = _finish(
        injector, fp, rnd, None, steps + 4, per_round, term,
        {v: (1, c) for v, c in colors.items()},
    )
    return ColoringResult(
        colors=colors,
        h_index=dict.fromkeys(colors, 1),
        metrics=res.metrics,
        palette_bound=3,
    )


# ---------------------------------------------------------------------------
# Defective coloring
# ---------------------------------------------------------------------------


def faulted_defective_coloring(
    graph: Graph,
    d: int,
    degree_limit: int | None = None,
    ids: Sequence[int] | None = None,
    seed: int = 0,
):
    """The defective-coloring schedule under crash-stop / message-drop
    faults.

    The fast program is *self-synchronizing*: it broadcasts family step k
    and then waits until every neighbor's step k arrived, with no resend.
    Two consequences shape this kernel.  First, a vertex released from a
    long wait catches up by broadcasting several steps in one round, so a
    (src, dst) pair can carry multiple copies per round -- the adversary's
    per-copy index is the step's offset within the sender's round batch.
    Second, one dropped copy (or a crashed neighbor) stalls its receiver
    at that step forever, which cascades; the watchdog reports the same
    legitimate non-termination the fast engine does.

    ``ustep[r & 1][v]`` is v's cumulative broadcast count as of round r
    (written every round v is alive, so the previous-parity slot is
    always fresh for delivery), ``ucol[s & 1][v]`` the color value of v's
    step-s broadcast (neighbor step skew is at most one wait, so a slot is
    consumed before it is overwritten), and the monotone ``ulast[v]``
    stamps v's last live round so accounting never counts phantom sends
    from a parity-frozen dead sender.  Receiver-owned per-edge state:
    ``e_seen[j]`` copies fate-processed so far, ``e_gap[j]`` the first
    step not yet delivered (the wait barrier -- a drop freezes it
    permanently).
    """
    from repro.core.defective import DefectiveColoringResult, defective_schedule

    n = graph.n
    ids_arr = resolve_ids(graph, ids)
    injector, fp, running = _setup(graph, "defective coloring")
    A = degree_limit if degree_limit is not None else graph.max_degree()
    A = max(A, 1)
    space = id_space(ids_arr)
    schedule = defective_schedule(space, A, d)
    bound = schedule[-1].ground_size if schedule else space
    max_rounds = 4 * len(schedule) + 64
    n_steps = len(schedule)
    rows = _Rows(graph)

    ustep = np.zeros((2, n), dtype=np.int64)
    ucol = np.zeros((2, n), dtype=np.int64)
    ulast = np.zeros(n, dtype=np.int64)
    term = np.zeros(n, dtype=np.int64)
    col = np.zeros(n, dtype=np.int64)
    # row starts of the non-isolated vertices, for per-row minima
    nz = rows.deg > 0
    nz_starts = rows.offsets[:-1][nz]
    nb_list, off_list = rows.indices.tolist(), rows.offsets.tolist()
    e_seen = np.zeros(rows.indices.size, dtype=np.int64)
    e_gap = np.zeros(rows.indices.size, dtype=np.int64)
    bc = [0] * n  # steps broadcast so far; picks done = bc - 1 or bc
    cols = ids_arr.tolist()
    per_round: list[tuple[int, int, int]] = []
    total_running = n - len(fp.pre_crashed)
    watchdog = None
    rnd = 0
    with profiled("kernel"):
        while total_running > 0:
            rnd += 1
            srnd = fp.offset + rnd
            total_running -= int(fp.strike(rnd, running).size)
            if total_running == 0:
                break
            if rnd > max_rounds:
                watchdog = np.flatnonzero(running).tolist()
                break

            run_idx = np.flatnonzero(running)
            halts = 0
            # Fate-process the copies broadcast at round rnd-1 (delivery
            # advances each edge's contiguous-prefix gap; a dropped step
            # freezes it -- there are no resends).
            if rnd > 1 and run_idx.size:
                ej, us, owners = rows.edges(run_idx)
                cnt = ustep[(rnd - 1) & 1][us]
                fresh = cnt > e_seen[ej]
                ej, us, owners, cnt = ej[fresh], us[fresh], owners[fresh], cnt[fresh]
                base = e_seen[ej]
                # copies delivered before the first dropped one, per edge
                adv = cnt - base
                if fp.drop and ej.size:
                    item, kidx = _expand(adv)
                    lost = drop_many(
                        fp.seed, srnd - 1, us[item], owners[item], kidx, fp.drop
                    )
                    np.minimum.at(adv, item[lost], kidx[lost])
                at_gap = e_gap[ej] == base
                e_gap[ej[at_gap]] += adv[at_gap]
                e_seen[ej] = cnt
            # Make progress: first activation broadcasts step 0, then every
            # satisfied wait picks and broadcasts the next step (possibly
            # several in one round), terminating after the last pick.
            gap_min = np.full(n, n_steps + 1, dtype=np.int64)
            if nz_starts.size:
                gap_min[nz] = np.minimum.reduceat(e_gap, nz_starts)
            gap_min = gap_min.tolist()
            for v in run_idx.tolist():
                b = bc[v]
                done = False
                if b == 0:
                    if n_steps == 0:
                        done = True
                    else:
                        ucol[0][v] = cols[v]
                        b = 1
                if not done:
                    while b >= 1 and gap_min[v] >= b:
                        fam = schedule[b - 1]
                        cols[v] = fam.pick(
                            cols[v],
                            [
                                int(ucol[(b - 1) & 1][u])
                                for u in nb_list[off_list[v] : off_list[v + 1]]
                            ],
                        )
                        if b == n_steps:
                            done = True
                            break
                        ucol[b & 1][v] = cols[v]
                        b += 1
                bc[v] = b
                ustep[rnd & 1][v] = b
                ulast[v] = rnd
                if done:
                    term[v] = rnd
                    col[v] = cols[v]
                    running[v] = False
                    halts += 1

            # Receiver-side accounting of this round's batched broadcasts
            # (ulast gates out parity-frozen dead senders).
            cand = np.flatnonzero((term == 0) | (term == rnd))
            _ej, us, ws = rows.edges(cand)
            sm = ulast[us] == rnd
            us, ws = us[sm], ws[sm]
            item, kidx = _expand(ustep[rnd & 1][us] - ustep[(rnd - 1) & 1][us])
            us, ws = us[item], ws[item]
            if fp.drop and us.size:
                lost = drop_many(fp.seed, srnd, us, ws, kidx, fp.drop)
                fp.log_drops(rnd, us, ws, lost)
                ws = ws[~lost]
            live = term[ws] == 0
            counted = int(live.sum())
            same = int(ws.size) - counted
            recv = int(np.unique(ws[live]).size)
            per_round.append((counted + same, counted + halts, recv))
            total_running = int(running.sum())

    res = _finish(
        injector, fp, rnd, watchdog, max_rounds, per_round, term,
        column_dict(col, term > 0),
    )
    return DefectiveColoringResult(
        colors=res.outputs,
        metrics=res.metrics,
        palette_bound=bound,
        defect_bound=d,
    )
