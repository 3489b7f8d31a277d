"""Sharded (multi-process BSP) drivers for the bulk-capable algorithms.

Each ``sharded_*`` driver is the shard-parallel twin of a
:mod:`repro.core.bulk` columnar driver: same signature surface, same
result type, **bit-identical** outputs and round accounting for any
shard count (the matrix in ``tests/runtime/test_shard.py`` pins
sharded == bulk == fast).  The parent process publishes the CSR view and
cross-shard state via :class:`repro.runtime.shard.SharedArrays`, workers
run :data:`SHARD_KERNELS` entries over contiguous vertex ranges, and the
parent folds the merged results through the same ``finalize`` accounting
the unsharded engine uses.

The owner-computes translation of message passing
-------------------------------------------------
The bulk drivers account rounds **sender-side**: gather the joiners'
CSR rows and bucket each copy by the receiver's termination state.  A
worker cannot scatter into another shard's state, so the sharded kernels
evaluate the identical sums **receiver-side**: after the round barrier a
shard scans the rows of its own still-relevant vertices (active, crashed
or terminating this round) and counts neighbors that broadcast this
round.  Undirected adjacency makes the two pair-sets equal, and every
receiver is owned by exactly one shard, so per-shard partial sums
allreduce to exactly the unsharded totals — including the distinct-
receiver count, which decomposes by ownership.

Fault draws (crash hazard, message drop) are pure counter-based
functions of ``(seed, session round, vertex)`` / ``(..., src, dst, k)``
(:mod:`repro.faults.plan`), so workers evaluate them locally and the
injected stream is invariant under the shard count.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Sequence

import numpy as np

from repro import rng
from repro.graphs.graph import Graph
from repro.runtime.bulk import (
    BulkUnsupported,
    column_dict,
    finalize_run,
    gather_rows,
    id_space,
    profiled,
    resolve_ids,
)
from repro.runtime.network import RoundLimitExceeded
from repro.runtime.shard import (
    CHECKPOINT_MAX_N,
    LocalComm,
    SharedArrays,
    ShardTask,
    chaos_kill_hook,
    current_shards,
    finalize_faulted_run,
    resolve_bounds,
    run_sharded,
)


def _local_deg(offsets: np.ndarray, lo: int, hi: int) -> np.ndarray:
    return (offsets[lo + 1 : hi + 1] - offsets[lo:hi]).astype(np.int64)


def _expand(cnt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slot layout of ``cnt[i]`` slots per item: each slot's item index
    and its offset within the item."""
    item = np.repeat(np.arange(cnt.size, dtype=np.int64), cnt)
    return item, np.arange(item.size, dtype=np.int64) - (np.cumsum(cnt) - cnt)[item]


def _own_edges(deg_loc, e_off, nb_own, lo, idx):
    """(edge positions, neighbors, owners) of the CSR rows of own local
    indices ``idx``; ``e_off``/``nb_own`` are the shard's row offsets and
    concatenated neighbor list."""
    item, off = _expand(deg_loc[idx])
    ej = e_off[idx][item] + off
    return ej, nb_own[ej], idx[item] + lo


def _strike(crash_spec, fseed, srnd, rnd, running, lo, records) -> np.ndarray:
    """Crash the own running vertices the plan strikes in session round
    ``srnd``: clear them in ``running``, log ``(rnd, v)``, return them."""
    cand = np.flatnonzero(running) + lo
    newly = cand[crash_spec.strikes_many(fseed, srnd, cand)]
    if newly.size:
        running[newly - lo] = False
        records.extend((rnd, v) for v in newly.tolist())
    return newly


def _kept(fseed, drop, srnd_send, us, ws) -> np.ndarray:
    """Survival mask of the copies ``us[i] -> ws[i]`` broadcast in session
    round ``srnd_send`` (every sender broadcasts at most once per round,
    so each is copy 0)."""
    from repro.faults.plan import drop_many

    if not drop or us.size == 0:
        return np.ones(us.size, dtype=bool)
    return ~drop_many(fseed, srnd_send, us, ws, 0, drop)


def _launch(
    kernel: str,
    graph: Graph,
    publish: dict[str, Any],
    params: dict[str, Any],
    copy_keys: Sequence[str] = (),
) -> tuple[list[Any], dict[str, np.ndarray], list[int]]:
    """Partition, publish, run one kernel, copy results out, clean up."""
    session = current_shards()
    assert session is not None, "sharded driver called without a shard session"
    bounds = resolve_bounds(graph, session)
    offsets, indices = graph.csr(dtype="auto")
    shared = SharedArrays()
    try:
        # parent-side cost of getting data into shared memory; the
        # workers' attach side lands in their per-shard "publish" slot
        with profiled("publish"):
            shared.publish("offsets", offsets)
            shared.publish("indices", indices)
            for key, val in publish.items():
                if isinstance(val, np.ndarray):
                    shared.publish(key, val)
                else:  # (shape, dtype) request for a zero-filled array
                    shape, dtype = val
                    shared.publish(key, shape=shape, dtype=dtype)
        payloads = run_sharded(kernel, bounds, shared, params)
        copies = {key: shared.views[key].copy() for key in copy_keys}
    finally:
        shared.cleanup()
    return payloads, copies, bounds


def _execute_kernel(
    kernel: str,
    graph: Graph,
    publish: dict[str, Any],
    params: dict[str, Any],
    copy_keys: Sequence[str] = (),
) -> tuple[list[Any], dict[str, np.ndarray], list[int]]:
    """Run one kernel sharded *or* in-process, per the active session.

    Without a shard session the kernel runs inline over plain numpy
    arrays through :class:`~repro.runtime.shard.LocalComm` (a no-op
    one-shard comm) — this is how the unsharded bulk engine executes the
    faulted kernels, so bulk == sharded(1) **by construction**: the
    decision code is literally the same.
    """
    session = current_shards()
    if session is not None:
        return _launch(kernel, graph, publish, params, copy_keys)
    n = graph.n
    offsets, indices = graph.csr(dtype="auto")
    views: dict[str, np.ndarray] = {"offsets": offsets, "indices": indices}
    for key, val in publish.items():
        if isinstance(val, np.ndarray):
            views[key] = val.copy()
        else:
            shape, dtype = val
            views[key] = np.zeros(shape, dtype=dtype)
    task = ShardTask(
        idx=0,
        lo=0,
        hi=n,
        bounds=[0, n],
        comm=LocalComm(),
        views=views,
        params=params,
    )
    with profiled("kernel"):
        payload = SHARD_KERNELS[kernel](task)
    return [payload], {key: views[key] for key in copy_keys}, [0, n]


# ---------------------------------------------------------------------------
# Procedure Partition — with optional crash-stop / message-drop adversary
# ---------------------------------------------------------------------------


def _kernel_partition(task: ShardTask) -> dict[str, Any]:
    """One shard of Procedure Partition.

    Per round: (A) pull last round's JOINs from neighbor ``term`` state,
    run the degree-threshold join test, write own terminations; barrier;
    (B) pull this round's JOIN copies receiver-side for the accounting
    buckets; allreduce the round totals.  Crash and drop draws replicate
    the fast engine's adversary via the pure counter-based functions.
    """
    from repro.faults.plan import CrashSpec

    p = task.params
    offsets = task.views["offsets"]
    indices = task.views["indices"]
    term = task.views["term"]
    lo, hi = task.lo, task.hi
    comm = task.comm
    n = p["n"]
    A = p["A"]
    max_rounds = p["max_rounds"]
    fseed = p["fault_seed"]
    crash_spec = CrashSpec(**p["crashes"]) if p.get("crashes") else None
    drop = p.get("drop", 0.0)
    record_drops = bool(p.get("record_drops"))
    round_offset = p.get("round_offset", 0)

    size = hi - lo
    deg_loc = _local_deg(offsets, lo, hi)
    heard = np.zeros(size, dtype=np.int64)
    alive = np.ones(size, dtype=bool)
    for v in p.get("pre_crashed", ()):
        if lo <= v < hi:
            alive[v - lo] = False
    dead = np.array(
        [v for v in p.get("pre_crashed", ()) if lo <= v < hi], dtype=np.int64
    )
    crash_records: list[tuple[int, int]] = []
    drop_records: list[tuple[int, int, int]] = []
    per_round: list[tuple[int, int, int, int]] = []
    total_active = n - len(p.get("pre_crashed", ()))
    watchdog = None
    rnd = 0

    def _blob() -> dict[str, Any]:
        # a complete resume point: all shard-local state PLUS this
        # shard's slice of every mutable shared array, so a restart
        # overwrites any stale partial-round writes left by the crash
        return {
            "rnd": rnd,
            "total_active": total_active,
            "heard": heard.copy(),
            "alive": alive.copy(),
            "dead": dead.copy(),
            "crashes": list(crash_records),
            "drops": list(drop_records),
            "per_round": list(per_round),
            "term": term[lo:hi].copy(),
        }

    if task.resume is not None:
        b = task.resume
        rnd = b["rnd"]
        total_active = b["total_active"]
        heard[...] = b["heard"]
        alive[...] = b["alive"]
        dead = b["dead"].copy()
        crash_records = list(b["crashes"])
        drop_records = list(b["drops"])
        per_round = list(b["per_round"])
        term[lo:hi] = b["term"]
    elif task.ckpt is not None:
        task.ckpt(0, _blob())  # genesis: makes restart-from-0 exact

    while total_active > 0:
        rnd += 1
        srnd = round_offset + rnd
        chaos_kill_hook(p, task.idx, rnd)
        if crash_spec is not None:
            newly = _strike(crash_spec, fseed, srnd, rnd, alive, lo, crash_records)
            if newly.size:
                dead = np.concatenate((dead, newly))
            (total_crashed,) = comm.allreduce(int(newly.size))
            total_active -= total_crashed
            if total_active == 0:
                break
        if rnd > max_rounds:
            watchdog = (np.flatnonzero(alive) + lo).tolist()
            break

        # Phase A: hear last round's JOINs, run the join test, terminate.
        act_idx = np.flatnonzero(alive)
        act = act_idx + lo
        if rnd > 1 and act.size:
            nb = gather_rows(offsets, indices, act)
            src = np.repeat(act, deg_loc[act_idx])
            jm = term[nb] == rnd - 1
            us, vs = nb[jm], src[jm]
            if drop and us.size:
                vs = vs[_kept(fseed, drop, srnd - 1, us, vs)]
            heard += np.bincount(vs - lo, minlength=size)
        join = (deg_loc[act_idx] - heard[act_idx]) <= A
        joiners = act[join]
        term[joiners] = rnd
        alive[act_idx[join]] = False
        comm.sync()

        # Phase B: receiver-side accounting of this round's JOIN copies.
        cand = np.concatenate((act, dead)) if dead.size else act
        counted = same = recv_loc = 0
        if cand.size:
            nb = gather_rows(offsets, indices, cand)
            src = np.repeat(cand, deg_loc[cand - lo])
            jm = term[nb] == rnd
            us, vs = nb[jm], src[jm]
            if drop and us.size:
                keep = _kept(fseed, drop, srnd, us, vs)
                if record_drops and not keep.all():
                    km = ~keep
                    drop_records.extend(
                        zip([rnd] * int(km.sum()), us[km].tolist(), vs[km].tolist())
                    )
                vs = vs[keep]
            tv = term[vs]
            live = tv == 0
            counted = int(live.sum())
            same = int((tv == rnd).sum())
            recv_loc = int(np.unique(vs[live]).size)
        g = comm.allreduce(
            counted, same, recv_loc, int(joiners.size), int(alive.sum())
        )
        per_round.append((g[0] + g[1], g[0] + g[3], g[2], g[3]))
        total_active = g[4]
        if task.ckpt is not None:
            task.ckpt(rnd, _blob())

    return {
        "rounds": per_round,
        "crashes": crash_records,
        "drops": drop_records,
        "watchdog": watchdog,
        "session_rounds": rnd,
    }


def sharded_partition(
    graph: Graph,
    a: int,
    eps: float = 1.0,
    ids: Sequence[int] | None = None,
    seed: int = 0,
    max_rounds: int | None = None,
):
    """Sharded (or, without a session, in-process) Procedure Partition;
    crash-stop and message-drop plans are supported."""
    import repro.obs as obs
    from repro.core.common import degree_bound, partition_length_bound
    from repro.core.partition import PartitionResult
    from repro.faults.plan import current

    n = graph.n
    resolve_ids(graph, ids)  # IDs only validate; Partition is ID-oblivious
    A = degree_bound(a, eps)
    if max_rounds is None:
        max_rounds = partition_length_bound(n, eps) + 4

    bus = obs.current()
    injector = current()
    params: dict[str, Any] = {
        "n": n,
        "A": A,
        "max_rounds": max_rounds,
        "fault_seed": 0,
        "checkpoint": n <= CHECKPOINT_MAX_N,
    }
    pre_crashed: list[int] = []
    if injector is not None:
        plan = injector.plan
        mf = plan.messages
        if mf is not None and (mf.duplicate or mf.delay):
            raise BulkUnsupported(
                "sharded partition supports crash-stop and message-drop "
                "faults only; duplicate/delay plans need the 'fast' or "
                "'reference' engine"
            )
        pre_crashed = sorted(v for v in injector.begin_run(None) if v < n)
        params["fault_seed"] = plan.seed
        params["round_offset"] = injector._round
        params["pre_crashed"] = pre_crashed
        if plan.crashes is not None and plan.crashes.active:
            params["crashes"] = {
                "at": dict(plan.crashes.at),
                "hazard": plan.crashes.hazard,
            }
        if mf is not None and mf.drop:
            params["drop"] = mf.drop
            params["record_drops"] = bus is not None and bus.active

    payloads, copies, _bounds = _execute_kernel(
        "partition",
        graph,
        {"term": ((n,), np.int64)},
        params,
        copy_keys=("term",),
    )
    term = copies["term"]

    wd = [p["watchdog"] for p in payloads]
    if any(w is not None for w in wd):
        if injector is not None:
            injector.absorb_rounds(
                payloads[0]["session_rounds"],
                [v for p in payloads for (_r, v) in p["crashes"]],
            )
        active_all = [v for w in wd if w is not None for v in w]
        raise RoundLimitExceeded(max_rounds, active_all, None)

    rounds = payloads[0]["rounds"]
    sent = [r[0] for r in rounds]
    msgs = [r[1] for r in rounds]
    recv = [r[2] for r in rounds]

    if injector is None:
        res = finalize_run(column_dict(term), term, sent, msgs, recv)
    else:
        crash_rounds = dict(
            sorted(((v, r) for p in payloads for (r, v) in p["crashes"]))
        )
        injector.absorb_rounds(
            payloads[0]["session_rounds"], list(crash_rounds)
        )
        res = finalize_faulted_run(
            column_dict(term, term > 0),
            term,
            crash_rounds,
            pre_crashed,
            sent,
            msgs,
            recv,
            crashed_all=[v for v in injector.crashed if v < n],
            drops=[d for p in payloads for d in p.get("drops", ())],
        )
    return PartitionResult(h_index=res.outputs, A=A, metrics=res.metrics)


# ---------------------------------------------------------------------------
# Luby MIS
# ---------------------------------------------------------------------------


def _kernel_luby(task: ShardTask) -> dict[str, Any]:
    """One shard of lockstep Luby MIS.

    Per attempt: draw own priorities (write ``rand``); barrier; account
    round 2k-1 receiver-side; win-check against neighbor ``rand``/``ids``
    and write own winner terminations; barrier; account round 2k, retire
    own winners and losers; allreduce the attempt's totals.  Attempt k's
    priorities are the counter-based draws ``u01(seed, VERTEX, id, k-1)``
    of the shard's own alive slice.
    """
    p = task.params
    offsets = task.views["offsets"]
    indices = task.views["indices"]
    term = task.views["term"]
    rand = task.views["rand"]
    alive = task.views["alive"]
    ids_arr = task.views["ids"]
    lo, hi = task.lo, task.hi
    comm = task.comm
    n = p["n"]
    seed = p["seed"]
    max_rounds = p["max_rounds"]

    size = hi - lo
    deg_loc = _local_deg(offsets, lo, hi)
    per_round: list[tuple[int, int, int, int]] = []
    prev_l = np.zeros(0, dtype=np.int64)
    total_alive = n
    watchdog = None
    k = 0

    while total_alive > 0:
        k += 1
        r1 = 2 * k - 1
        act_idx = np.flatnonzero(alive[lo:hi])
        act = act_idx + lo
        if r1 > max_rounds:
            watchdog = ("r1", act.tolist(), prev_l.tolist())
            break
        rand[act] = rng.u01_many(seed, rng.VERTEX, ids_arr[act], k - 1)
        comm.sync()

        # round 2k-1: priorities broadcast + previous losers' announce
        cand = np.concatenate((act, prev_l)) if prev_l.size else act
        c1 = s1 = rv1 = 0
        if cand.size:
            nb = gather_rows(offsets, indices, cand)
            src = np.repeat(cand, deg_loc[cand - lo])
            bm = alive[nb] | (term[nb] == r1)
            vs = src[bm]
            tv = term[vs]
            live = tv == 0
            c1 = int(live.sum())
            s1 = int((tv == r1).sum())
            rv1 = int(np.unique(vs[live]).size)
        h1 = int(prev_l.size)

        # round 2k: win check on (rand, id) against alive neighbors
        r2 = 2 * k
        if r2 > max_rounds:
            watchdog = ("r2", act.tolist(), [])
            break
        winners = np.zeros(0, dtype=np.int64)
        nb2 = src2 = None
        if act.size:
            nb2 = gather_rows(offsets, indices, act)
            src2 = np.repeat(act, deg_loc[act_idx])
            am = alive[nb2]
            sr_a, nb_a = src2[am], nb2[am]
            beat = (rand[nb_a] > rand[sr_a]) | (
                (rand[nb_a] == rand[sr_a]) & (ids_arr[nb_a] > ids_arr[sr_a])
            )
            beaten = np.bincount(sr_a[beat] - lo, minlength=size).astype(bool)
            winners = act[~beaten[act_idx]]
            term[winners] = r2
        comm.sync()

        # account 2k (losers still term 0, matching the bulk call order),
        # then retire own winners and detect own losers
        c2 = s2 = rv2 = 0
        losers = np.zeros(0, dtype=np.int64)
        if act.size:
            wm = term[nb2] == r2
            vs = src2[wm]
            tv = term[vs]
            live = tv == 0
            c2 = int(live.sum())
            s2 = int((tv == r2).sum())
            rv2 = int(np.unique(vs[live]).size)
            alive[winners] = False
            has_wnb = np.bincount(
                src2[wm] - lo, minlength=size
            ).astype(bool)
            lm = has_wnb[act_idx] & (term[act] == 0)
            losers = act[lm]
            term[losers] = r2 + 1
            alive[losers] = False
        prev_l = losers

        g = comm.allreduce(
            c1, s1, rv1, h1,
            c2, s2, rv2, int(winners.size),
            int(losers.size), int(alive[lo:hi].sum()),
        )
        per_round.append((g[0] + g[1], g[0] + g[3], g[2], g[3]))
        per_round.append((g[4] + g[5], g[4] + g[7], g[6], g[7]))
        total_losers = g[8]
        total_alive = g[9]

    if watchdog is None and k and total_losers:
        # the final losers announce + terminate one round after the loop
        r = 2 * k + 1
        s3 = 0
        own_l = prev_l
        if own_l.size:
            nb = gather_rows(offsets, indices, own_l)
            src = np.repeat(own_l, deg_loc[own_l - lo])
            bm = term[nb] == r
            s3 = int((term[src[bm]] == r).sum())
        g = comm.allreduce(s3, int(own_l.size))
        per_round.append((g[0], g[1], 0, g[1]))

    return {"rounds": per_round, "watchdog": watchdog}


def _kernel_luby_faulted(task: ShardTask) -> dict[str, Any]:
    """One shard of Luby MIS under the crash-stop / message-drop adversary.

    Unlike the fault-free kernel (one iteration per *attempt*), this one
    steps one engine *round* per iteration, because crash draws happen per
    round over the still-running set -- exactly the fast engine's
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
    from repro.faults.plan import CrashSpec

    p = task.params
    offsets = task.views["offsets"]
    indices = task.views["indices"]
    term = task.views["term"]
    rand = task.views["rand"]
    lastp = task.views["lastp"]
    ids_arr = task.views["ids"]
    lo, hi = task.lo, task.hi
    comm = task.comm
    n = p["n"]
    seed = p["seed"]
    max_rounds = p["max_rounds"]
    fseed = p["fault_seed"]
    crash_spec = CrashSpec(**p["crashes"]) if p.get("crashes") else None
    drop = p.get("drop", 0.0)
    record_drops = bool(p.get("record_drops"))
    round_offset = p.get("round_offset", 0)

    size = hi - lo
    deg_loc = _local_deg(offsets, lo, hi)
    e_lo = int(offsets[lo])
    nb_own = indices[e_lo : int(offsets[hi])].astype(np.int64)
    e_off = (offsets[lo : hi + 1] - e_lo).astype(np.int64)
    e_att = np.zeros(nb_own.size, dtype=np.int64)
    disc = np.zeros(nb_own.size, dtype=bool)
    running = np.ones(size, dtype=bool)
    for v in p.get("pre_crashed", ()):
        if lo <= v < hi:
            running[v - lo] = False
    crash_records: list[tuple[int, int]] = []
    drop_records: list[tuple[int, int, int]] = []
    per_round: list[tuple[int, int, int, int]] = []
    total_running = n - len(p.get("pre_crashed", ()))
    watchdog = None
    rnd = 0

    own_edges = partial(_own_edges, deg_loc, e_off, nb_own, lo)

    while total_running > 0:
        rnd += 1
        srnd = round_offset + rnd
        if crash_spec is not None:
            newly = _strike(
                crash_spec, fseed, srnd, rnd, running, lo, crash_records
            )
            (total_crashed,) = comm.allreduce(int(newly.size))
            total_running -= total_crashed
            if total_running == 0:
                break
        if rnd > max_rounds:
            watchdog = (np.flatnonzero(running) + lo).tolist()
            break

        run_idx = np.flatnonzero(running)
        halts_own = 0
        if rnd % 2 == 1:
            # Odd round 2k-1: leave on MIS announcements delivered from
            # the round-(2k-2) winners, then draw the attempt-k priority.
            k = (rnd + 1) // 2
            if rnd > 1 and run_idx.size:
                _ej, nbs, owners = own_edges(run_idx)
                wm = term[nbs] == rnd - 1
                if wm.any():
                    keep = _kept(fseed, drop, srnd - 1, nbs[wm], owners[wm])
                    leavers = np.unique(owners[wm][keep])
                    if leavers.size:
                        term[leavers] = rnd
                        running[leavers - lo] = False
                        halts_own = int(leavers.size)
                        run_idx = np.flatnonzero(running)
            vg = run_idx + lo
            rand[vg] = rng.u01_many(seed, rng.VERTEX, ids_arr[vg], k - 1)
            lastp[vg] = rnd
        else:
            # Even round 2k: absorb attempt-k priorities and leave
            # announcements sent at 2k-1, then the win check over the
            # accumulated per-edge view.
            k = rnd // 2
            if run_idx.size:
                ej, nbs, owners = own_edges(run_idx)
                pm = lastp[nbs] == rnd - 1
                if pm.any():
                    keep = _kept(fseed, drop, srnd - 1, nbs[pm], owners[pm])
                    e_att[ej[pm][keep]] = k
                fm = term[nbs] == rnd - 1
                if fm.any():
                    keep = _kept(fseed, drop, srnd - 1, nbs[fm], owners[fm])
                    disc[ej[fm][keep]] = True
                ea = e_att[ej]
                rv, iv = rand[owners], ids_arr[owners]
                beaten = (rand[nbs] < rv) | ((rand[nbs] == rv) & (ids_arr[nbs] < iv))
                ok = disc[ej] | ((ea > 0) & (ea < k)) | ((ea == k) & beaten)
                blocked = np.bincount(
                    owners[~ok] - lo, minlength=size
                ).astype(bool)
                winners = run_idx[~blocked[run_idx]] + lo
                if winners.size:
                    term[winners] = rnd
                    running[winners - lo] = False
                    halts_own = int(winners.size)
        comm.sync()

        # Phase B: receiver-side accounting of this round's broadcasts
        # (attempt priorities + leave announcements at odd rounds, MIS
        # announcements at even rounds -- every sender is marked in the
        # shared arrays: lastp == rnd or term == rnd).
        own_term = term[lo:hi]
        cand_i = np.flatnonzero((own_term == 0) | (own_term == rnd))
        counted = same = recv_loc = 0
        if cand_i.size:
            _ej, nbs, owners = own_edges(cand_i)
            if rnd % 2 == 1:
                sm = (lastp[nbs] == rnd) | (term[nbs] == rnd)
            else:
                sm = term[nbs] == rnd
            us, ws = nbs[sm], owners[sm]
            if drop and us.size:
                keep = _kept(fseed, drop, srnd, us, ws)
                if record_drops and not keep.all():
                    km = ~keep
                    drop_records.extend(
                        zip([rnd] * int(km.sum()), us[km].tolist(), ws[km].tolist())
                    )
                us, ws = us[keep], ws[keep]
            tw = term[ws]
            live = tw == 0
            counted = int(live.sum())
            same = int((tw == rnd).sum())
            recv_loc = int(np.unique(ws[live]).size)
        g = comm.allreduce(
            counted, same, recv_loc, halts_own, int(running.sum())
        )
        per_round.append((g[0] + g[1], g[0] + g[3], g[2], g[3]))
        total_running = g[4]

    return {
        "rounds": per_round,
        "crashes": crash_records,
        "drops": drop_records,
        "watchdog": watchdog,
        "session_rounds": rnd,
    }


def sharded_luby_mis(
    graph: Graph,
    ids: Sequence[int] | None = None,
    seed: int = 0,
    max_rounds: int | None = None,
):
    """Sharded (or, without a session, in-process) Luby MIS; crash-stop
    and message-drop plans are supported via the round-lockstep kernel."""
    from repro.core.extension import MISResult
    from repro.faults.plan import current

    n = graph.n
    ids_arr = resolve_ids(graph, ids)
    if max_rounds is None:
        max_rounds = 64 * (n.bit_length() + 4) + 64

    injector = current()
    if injector is not None:
        return _sharded_luby_faulted(
            graph, ids_arr, seed, max_rounds, injector
        )

    payloads, copies, _bounds = _launch(
        "luby",
        graph,
        {
            "term": ((n,), np.int64),
            "rand": ((n,), np.float64),
            "alive": np.ones(n, dtype=bool),
            "ids": ids_arr,
        },
        {"n": n, "seed": seed, "max_rounds": max_rounds},
        copy_keys=("term",),
    )
    term = copies["term"]

    wd = [p["watchdog"] for p in payloads]
    if any(w is not None for w in wd):
        acts = [v for w in wd if w is not None for v in w[1]]
        prevs = [v for w in wd if w is not None for v in w[2]]
        raise RoundLimitExceeded(max_rounds, acts + prevs, None)

    rounds = payloads[0]["rounds"]
    outputs, in_mis, h_index = _luby_outputs(term)
    res = finalize_run(
        outputs,
        term,
        [r[0] for r in rounds],
        [r[1] for r in rounds],
        [r[2] for r in rounds],
    )
    return MISResult(in_mis=in_mis, h_index=h_index, metrics=res.metrics)


def _luby_outputs(term: np.ndarray):
    """Decode (attempt, joined?) from Luby termination parity: winners
    terminate at even round 2k, losers one round later at 2k+1.

    Returns the ``(attempt, joined)`` outputs and the ``in_mis`` and
    ``h_index`` dicts, over the vertices that terminated.
    """
    done = np.flatnonzero(term > 0)
    t = term[done]
    vs, att, joined = done.tolist(), (t // 2).tolist(), (t % 2 == 0).tolist()
    return (
        dict(zip(vs, zip(att, joined))),
        dict(zip(vs, joined)),
        dict(zip(vs, att)),
    )


def _fault_params(injector, n: int, name: str, bus) -> dict[str, Any]:
    """The shared fault-plan -> kernel-params translation: crash-stop and
    message-drop plans are evaluated inside the kernels via the pure
    counter-based draws; duplicate/delay plans have no receiver-side
    replay and are rejected up front."""
    plan = injector.plan
    mf = plan.messages
    if mf is not None and (mf.duplicate or mf.delay):
        raise BulkUnsupported(
            f"{name} supports crash-stop and message-drop faults only; "
            "duplicate/delay plans need the 'fast' or 'reference' engine"
        )
    pre_crashed = sorted(v for v in injector.begin_run(None) if v < n)
    params: dict[str, Any] = {
        "fault_seed": plan.seed,
        "round_offset": injector._round,
        "pre_crashed": pre_crashed,
    }
    if plan.crashes is not None and plan.crashes.active:
        params["crashes"] = {
            "at": dict(plan.crashes.at),
            "hazard": plan.crashes.hazard,
        }
    if mf is not None and mf.drop:
        params["drop"] = mf.drop
        params["record_drops"] = bus is not None and bus.active
    return params


def _sharded_luby_faulted(graph, ids_arr, seed, max_rounds, injector):
    """The faulted half of :func:`sharded_luby_mis`."""
    import repro.obs as obs
    from repro.core.extension import MISResult

    n = graph.n
    bus = obs.current()
    params = _fault_params(injector, n, "luby MIS", bus)
    params.update({"n": n, "seed": seed, "max_rounds": max_rounds})
    pre_crashed = params["pre_crashed"]

    payloads, copies, _bounds = _execute_kernel(
        "luby_faulted",
        graph,
        {
            "term": ((n,), np.int64),
            "rand": ((n,), np.float64),
            "lastp": ((n,), np.int64),
            "ids": ids_arr,
        },
        params,
        copy_keys=("term",),
    )
    term = copies["term"]

    wd = [p["watchdog"] for p in payloads]
    if any(w is not None for w in wd):
        injector.absorb_rounds(
            payloads[0]["session_rounds"],
            [v for p in payloads for (_r, v) in p["crashes"]],
        )
        raise RoundLimitExceeded(
            max_rounds, [v for w in wd if w is not None for v in w], None
        )

    rounds = payloads[0]["rounds"]
    crash_rounds = dict(
        sorted(((v, r) for p in payloads for (r, v) in p["crashes"]))
    )
    injector.absorb_rounds(payloads[0]["session_rounds"], list(crash_rounds))
    outputs, in_mis, h_index = _luby_outputs(term)
    res = finalize_faulted_run(
        outputs,
        term,
        crash_rounds,
        pre_crashed,
        [r[0] for r in rounds],
        [r[1] for r in rounds],
        [r[2] for r in rounds],
        crashed_all=[v for v in injector.crashed if v < n],
        drops=[d for p in payloads for d in p.get("drops", ())],
    )
    return MISResult(in_mis=in_mis, h_index=h_index, metrics=res.metrics)


# ---------------------------------------------------------------------------
# Cole-Vishkin ring 3-coloring
# ---------------------------------------------------------------------------


def _kernel_cole_vishkin(task: ShardTask) -> dict[str, Any]:
    """One shard of Cole-Vishkin: the color array is double-buffered so a
    step reads buffer ``s & 1`` and writes the other; one barrier per
    halving/recolor step."""
    p = task.params
    offsets = task.views["offsets"]
    indices = task.views["indices"]
    buf = task.views["colors"]  # (2, n)
    succ = task.views["succ"]
    lo, hi = task.lo, task.hi
    comm = task.comm
    steps = p["steps"]

    deg_loc = _local_deg(offsets, lo, hi)
    cur = 0
    for _ in range(steps):
        c0, c1 = buf[cur], buf[1 - cur]
        cs = c0[succ[lo:hi]]
        diff = c0[lo:hi] ^ cs
        low = diff & -diff
        i = np.log2(low.astype(np.float64)).astype(np.int64)
        c1[lo:hi] = 2 * i + ((c0[lo:hi] >> i) & 1)
        comm.sync()
        cur = 1 - cur
    own = np.arange(lo, hi, dtype=np.int64)
    src = np.repeat(own, deg_loc) - lo
    nb = indices[offsets[lo] : offsets[hi]]
    size = hi - lo
    for cls in (5, 4, 3):
        c0, c1 = buf[cur], buf[1 - cur]
        nbc = c0[nb]
        used0 = np.zeros(size, dtype=bool)
        used0[src[nbc == 0]] = True
        used1 = np.zeros(size, dtype=bool)
        used1[src[nbc == 1]] = True
        pick = np.where(~used0, 0, np.where(~used1, 1, 2))
        c1[lo:hi] = np.where(c0[lo:hi] == cls, pick, c0[lo:hi])
        comm.sync()
        cur = 1 - cur
    return {"cur": cur}


def _kernel_cole_vishkin_faulted(task: ShardTask) -> dict[str, Any]:
    """One shard of Cole-Vishkin under crash-stop / message-drop faults.

    Runs in round lockstep like the fast program: rounds ``1..steps+1``
    broadcast the halving chain (round r reduces with the successor's
    round-``r-1`` value), rounds ``steps+2..steps+4`` process the greedy
    recolor classes 5, 4, 3; everyone still alive terminates at
    ``steps+4``.  The program *never waits*: a missing successor value
    (crashed sender or dropped copy) skips the reduce and keeps the
    current color -- identical to the fast program's keep-color-on-missing
    rule -- so Cole-Vishkin cannot non-terminate under this adversary,
    only degrade (the validators flag the resulting defects).

    Shared state is parity-disciplined: ``colors[r & 1][v]`` is the value
    v broadcast at round r (written in phase A of round r, read by
    neighbors in phase A of round r+1 -- the other slot), and the
    monotone ``bstamp[v]`` is the last round v broadcast, so receivers
    gate delivery on ``bstamp[u] >= r-1`` without racing the current
    round's stamps.
    """
    from repro.faults.plan import CrashSpec

    p = task.params
    offsets = task.views["offsets"]
    indices = task.views["indices"]
    buf = task.views["colors"]  # (2, n): slot r & 1 = round-r broadcast
    bstamp = task.views["bstamp"]
    term = task.views["term"]
    col = task.views["col"]
    succ = task.views["succ"]
    ids_arr = task.views["ids"]
    lo, hi = task.lo, task.hi
    comm = task.comm
    n = p["n"]
    steps = p["steps"]
    fseed = p["fault_seed"]
    crash_spec = CrashSpec(**p["crashes"]) if p.get("crashes") else None
    drop = p.get("drop", 0.0)
    record_drops = bool(p.get("record_drops"))
    round_offset = p.get("round_offset", 0)

    size = hi - lo
    deg_loc = _local_deg(offsets, lo, hi)
    e_lo = int(offsets[lo])
    nb_own = indices[e_lo : int(offsets[hi])].astype(np.int64)
    e_off = (offsets[lo : hi + 1] - e_lo).astype(np.int64)
    own_succ = succ[lo:hi].astype(np.int64)
    own_edges = partial(_own_edges, deg_loc, e_off, nb_own, lo)
    running = np.ones(size, dtype=bool)
    for v in p.get("pre_crashed", ()):
        if lo <= v < hi:
            running[v - lo] = False
    crash_records: list[tuple[int, int]] = []
    drop_records: list[tuple[int, int, int]] = []
    per_round: list[tuple[int, int, int, int]] = []
    total_running = n - len(p.get("pre_crashed", ()))
    rnd = 0

    while total_running > 0 and rnd < steps + 4:
        rnd += 1
        srnd = round_offset + rnd
        if crash_spec is not None:
            newly = _strike(
                crash_spec, fseed, srnd, rnd, running, lo, crash_records
            )
            (total_crashed,) = comm.allreduce(int(newly.size))
            total_running -= total_crashed
            if total_running == 0:
                break

        run_idx = np.flatnonzero(running)
        halts_own = 0
        if run_idx.size:
            vg = run_idx + lo
            if rnd == 1:
                c_new = ids_arr[vg].astype(np.int64)
            else:
                c_new = buf[(rnd - 1) & 1][vg].copy()
                if rnd <= steps + 1:
                    # halving step: reduce with the successor's round-(r-1)
                    # value when it arrived, keep the color otherwise
                    su = own_succ[run_idx]
                    got = bstamp[su] >= rnd - 1
                    if got.any():
                        got &= _kept(fseed, drop, srnd - 1, su, vg)
                    # keep-color on missing *or equal* successor value
                    # (the latter is reachable once a step was skipped)
                    got &= buf[(rnd - 1) & 1][su] != c_new
                    if got.any():
                        cs = buf[(rnd - 1) & 1][su[got]]
                        c0 = c_new[got]
                        diff = c0 ^ cs
                        low = diff & -diff
                        i = np.log2(low.astype(np.float64)).astype(np.int64)
                        c_new[got] = 2 * i + ((c0 >> i) & 1)
                else:
                    # greedy recolor of class 5 / 4 / 3 over the delivered
                    # neighbor values from round r-1
                    cls = 5 - (rnd - steps - 2)
                    mine = np.flatnonzero(c_new == cls)
                    mi = run_idx[mine]
                    _ej, nbs, owners = own_edges(mi)
                    got = bstamp[nbs] >= rnd - 1
                    got &= _kept(fseed, drop, srnd - 1, nbs, owners)
                    val = buf[(rnd - 1) & 1][nbs]
                    used0 = np.zeros(size, dtype=bool)
                    used0[owners[got & (val == 0)] - lo] = True
                    used1 = np.zeros(size, dtype=bool)
                    used1[owners[got & (val == 1)] - lo] = True
                    c_new[mine] = np.where(
                        ~used0[mi], 0, np.where(~used1[mi], 1, 2)
                    )
            if rnd <= steps + 3:
                buf[rnd & 1][vg] = c_new
                bstamp[vg] = rnd
            else:
                col[vg] = c_new
                term[vg] = rnd
                running[run_idx] = False
                halts_own = int(run_idx.size)
        comm.sync()

        own_term = term[lo:hi]
        cand_i = np.flatnonzero((own_term == 0) | (own_term == rnd))
        counted = same = recv_loc = 0
        if cand_i.size:
            _ej, nbs, owners = own_edges(cand_i)
            sm = bstamp[nbs] == rnd
            us, ws = nbs[sm], owners[sm]
            if drop and us.size:
                keep = _kept(fseed, drop, srnd, us, ws)
                if record_drops and not keep.all():
                    km = ~keep
                    drop_records.extend(
                        zip([rnd] * int(km.sum()), us[km].tolist(), ws[km].tolist())
                    )
                us, ws = us[keep], ws[keep]
            tw = term[ws]
            live = tw == 0
            counted = int(live.sum())
            same = int((tw == rnd).sum())
            recv_loc = int(np.unique(ws[live]).size)
        g = comm.allreduce(
            counted, same, recv_loc, halts_own, int(running.sum())
        )
        per_round.append((g[0] + g[1], g[0] + g[3], g[2], g[3]))
        total_running = g[4]

    return {
        "rounds": per_round,
        "crashes": crash_records,
        "drops": drop_records,
        "watchdog": None,
        "session_rounds": rnd,
    }


def _sharded_cv_faulted(graph, successor, ids_arr, seed, injector):
    """The faulted half of :func:`sharded_ring_three_coloring`."""
    import repro.obs as obs
    from repro.baselines.cole_vishkin import _cv_steps
    from repro.core.coloring import ColoringResult

    n = graph.n
    bus = obs.current()
    params = _fault_params(injector, n, "ring 3-coloring", bus)
    steps = _cv_steps(id_space(ids_arr))
    params.update({"n": n, "steps": steps})
    pre_crashed = params["pre_crashed"]

    payloads, copies, _bounds = _execute_kernel(
        "cole_vishkin_faulted",
        graph,
        {
            "colors": ((2, n), np.int64),
            "bstamp": ((n,), np.int64),
            "term": ((n,), np.int64),
            "col": ((n,), np.int64),
            "succ": np.asarray(list(successor), dtype=np.int64),
            "ids": ids_arr,
        },
        params,
        copy_keys=("term", "col"),
    )
    term = copies["term"]
    col = copies["col"]

    rounds = payloads[0]["rounds"]
    crash_rounds = dict(
        sorted(((v, r) for p in payloads for (r, v) in p["crashes"]))
    )
    injector.absorb_rounds(payloads[0]["session_rounds"], list(crash_rounds))
    colors = column_dict(col, term > 0)
    res = finalize_faulted_run(
        {v: (1, c) for v, c in colors.items()},
        term,
        crash_rounds,
        pre_crashed,
        [r[0] for r in rounds],
        [r[1] for r in rounds],
        [r[2] for r in rounds],
        crashed_all=[v for v in injector.crashed if v < n],
        drops=[d for p in payloads for d in p.get("drops", ())],
    )
    return ColoringResult(
        colors=colors,
        h_index=dict.fromkeys(colors, 1),
        metrics=res.metrics,
        palette_bound=3,
    )


def sharded_ring_three_coloring(
    graph: Graph,
    successor: Sequence[int],
    ids: Sequence[int] | None = None,
    seed: int = 0,
):
    """Sharded Cole-Vishkin; accounting is closed-form in the parent for
    fault-free runs, receiver-side per round under a fault session."""
    from repro.baselines.cole_vishkin import _cv_steps
    from repro.core.coloring import ColoringResult
    from repro.faults.plan import current

    n = graph.n
    ids_arr = resolve_ids(graph, ids)

    injector = current()
    if injector is not None:
        return _sharded_cv_faulted(graph, successor, ids_arr, seed, injector)
    offsets, _ = graph.csr(dtype="auto")
    deg = (offsets[1:] - offsets[:-1]).astype(np.int64)
    m2 = int(offsets[-1])
    steps = _cv_steps(id_space(ids_arr))

    if n:
        colors0 = np.zeros((2, n), dtype=np.int64)
        colors0[0] = ids_arr
        payloads, copies, _bounds = _launch(
            "cole_vishkin",
            graph,
            {
                "colors": colors0,
                "succ": np.asarray(list(successor), dtype=np.int64),
            },
            {"n": n, "steps": steps},
            copy_keys=("colors",),
        )
        c = copies["colors"][payloads[0]["cur"]]
    else:
        c = np.zeros(0, dtype=np.int64)

    rounds_total = steps + 4
    if n:
        term = np.full(n, rounds_total, dtype=np.int64)
        n_recv = int((deg > 0).sum())
        sent = [m2] * (rounds_total - 1) + [0]
        msgs = [m2] * (rounds_total - 1) + [n]
        recv = [n_recv] * (rounds_total - 1) + [0]
    else:
        term = np.zeros(0, dtype=np.int64)
        sent, msgs, recv = [], [], []
    colors = column_dict(c)
    res = finalize_run(
        {v: (1, col) for v, col in colors.items()}, term, sent, msgs, recv
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


def _kernel_defective(task: ShardTask) -> dict[str, Any]:
    """One shard of the defective-coloring schedule.

    The cover-free family schedule is recomputed locally (it is a pure
    function of ``(id_space, A, d)``), and each family step runs the
    per-vertex ``fam.pick`` loop over the shard's own slice against the
    previous buffer — this Python loop is exactly the part that profits
    from sharding.
    """
    from repro.core.defective import defective_schedule

    p = task.params
    offsets = task.views["offsets"]
    indices = task.views["indices"]
    buf = task.views["colors"]  # (2, n)
    lo, hi = task.lo, task.hi
    comm = task.comm

    schedule = defective_schedule(p["space"], p["A"], p["d"])
    off = (offsets[lo : hi + 1] - offsets[lo]).tolist()
    nb = indices[offsets[lo] : offsets[hi]].tolist()
    cur = 0
    for fam in schedule:
        c0 = buf[cur].tolist()
        c1 = buf[1 - cur]
        c1[lo:hi] = [
            fam.pick(c0[v], [c0[u] for u in nb[off[i] : off[i + 1]]])
            for i, v in enumerate(range(lo, hi))
        ]
        comm.sync()
        cur = 1 - cur
    return {"cur": cur}


def _kernel_defective_faulted(task: ShardTask) -> dict[str, Any]:
    """One shard of the defective-coloring schedule under crash-stop /
    message-drop faults.

    The fast program is *self-synchronizing*: it broadcasts family step k
    and then waits until every neighbor's step k arrived, with no resend.
    Two consequences shape this kernel.  First, a vertex released from a
    long wait catches up by broadcasting several steps in one round, so a
    (src, dst) pair can carry multiple copies per round -- the adversary's
    per-copy index is the step's offset within the sender's round batch.
    Second, one dropped copy (or a crashed neighbor) stalls its receiver
    at that step forever, which cascades; the watchdog reports the same
    legitimate non-termination the fast engine does.

    Shared state: ``ustep[r & 1][v]`` is v's cumulative broadcast count as
    of round r (written every round v is alive, so the previous-parity
    slot is always fresh for delivery), ``ucol[s & 1][v]`` the color value
    of v's step-s broadcast (neighbor step skew is at most one wait, so a
    slot is consumed at least one barrier before it is overwritten), and
    the monotone ``ulast[v]`` stamps v's last live round so accounting
    never counts phantom sends from a parity-frozen dead sender.
    Receiver-owned per-edge state: ``e_seen[j]`` copies fate-processed so
    far, ``e_gap[j]`` the first step not yet delivered (the wait barrier
    -- a drop freezes it permanently).
    """
    from repro.core.defective import defective_schedule
    from repro.faults.plan import CrashSpec, drop_many

    p = task.params
    offsets = task.views["offsets"]
    indices = task.views["indices"]
    ustep = task.views["ustep"]  # (2, n)
    ucol = task.views["ucol"]  # (2, n)
    ulast = task.views["ulast"]
    term = task.views["term"]
    col = task.views["col"]
    ids_arr = task.views["ids"]
    lo, hi = task.lo, task.hi
    comm = task.comm
    n = p["n"]
    max_rounds = p["max_rounds"]
    fseed = p["fault_seed"]
    crash_spec = CrashSpec(**p["crashes"]) if p.get("crashes") else None
    drop = p.get("drop", 0.0)
    record_drops = bool(p.get("record_drops"))
    round_offset = p.get("round_offset", 0)

    schedule = defective_schedule(p["space"], p["A"], p["d"])
    n_steps = len(schedule)
    size = hi - lo
    deg_loc = _local_deg(offsets, lo, hi)
    e_lo = int(offsets[lo])
    nb_own = indices[e_lo : int(offsets[hi])].astype(np.int64)
    e_off = (offsets[lo : hi + 1] - e_lo).astype(np.int64)
    own_edges = partial(_own_edges, deg_loc, e_off, nb_own, lo)
    # row starts of the non-isolated own vertices, for per-row minima
    nz = deg_loc > 0
    nz_starts = e_off[:-1][nz]
    nb_list, off_list = nb_own.tolist(), e_off.tolist()
    e_seen = np.zeros(nb_own.size, dtype=np.int64)
    e_gap = np.zeros(nb_own.size, dtype=np.int64)
    running = np.ones(size, dtype=bool)
    for v in p.get("pre_crashed", ()):
        if lo <= v < hi:
            running[v - lo] = False
    bc = [0] * size  # steps broadcast so far; picks done = bc - 1 or bc
    cols = [int(x) for x in ids_arr[lo:hi]]
    crash_records: list[tuple[int, int]] = []
    drop_records: list[tuple[int, int, int]] = []
    per_round: list[tuple[int, int, int, int]] = []
    total_running = n - len(p.get("pre_crashed", ()))
    watchdog = None
    rnd = 0

    while total_running > 0:
        rnd += 1
        srnd = round_offset + rnd
        if crash_spec is not None:
            newly = _strike(
                crash_spec, fseed, srnd, rnd, running, lo, crash_records
            )
            (total_crashed,) = comm.allreduce(int(newly.size))
            total_running -= total_crashed
            if total_running == 0:
                break
        if rnd > max_rounds:
            watchdog = (np.flatnonzero(running) + lo).tolist()
            break

        run_idx = np.flatnonzero(running)
        halts_own = 0
        # Phase A1: fate-process the copies broadcast at round rnd-1
        # (delivery advances each edge's contiguous-prefix gap; a dropped
        # step freezes it -- there are no resends).
        if rnd > 1 and run_idx.size:
            ej, us, owners = own_edges(run_idx)
            cnt = ustep[(rnd - 1) & 1][us]
            fresh = cnt > e_seen[ej]
            ej, us, owners, cnt = ej[fresh], us[fresh], owners[fresh], cnt[fresh]
            base = e_seen[ej]
            # copies delivered before the first dropped one, per edge
            adv = cnt - base
            if drop and ej.size:
                item, kidx = _expand(adv)
                lost = drop_many(fseed, srnd - 1, us[item], owners[item], kidx, drop)
                np.minimum.at(adv, item[lost], kidx[lost])
            at_gap = e_gap[ej] == base
            e_gap[ej[at_gap]] += adv[at_gap]
            e_seen[ej] = cnt
        # Phase A2: make progress -- first activation broadcasts step 0,
        # then every satisfied wait picks and broadcasts the next step
        # (possibly several in one round), terminating after the last pick.
        gap_min = np.full(size, n_steps + 1, dtype=np.int64)
        if nz_starts.size:
            gap_min[nz] = np.minimum.reduceat(e_gap, nz_starts)
        gap_min = gap_min.tolist()
        for i in run_idx.tolist():
            v = lo + i
            b = bc[i]
            done = False
            if b == 0:
                if n_steps == 0:
                    done = True
                else:
                    ucol[0][v] = cols[i]
                    b = 1
            if not done:
                while b >= 1 and gap_min[i] >= b:
                    fam = schedule[b - 1]
                    cols[i] = fam.pick(
                        cols[i],
                        [
                            int(ucol[(b - 1) & 1][u])
                            for u in nb_list[off_list[i] : off_list[i + 1]]
                        ],
                    )
                    if b == n_steps:
                        done = True
                        break
                    ucol[b & 1][v] = cols[i]
                    b += 1
            bc[i] = b
            ustep[rnd & 1][v] = b
            ulast[v] = rnd
            if done:
                term[v] = rnd
                col[v] = cols[i]
                running[i] = False
                halts_own += 1
        comm.sync()

        # Phase B: receiver-side accounting of this round's batched
        # broadcasts (ulast gates out parity-frozen dead senders).
        own_term = term[lo:hi]
        cand_i = np.flatnonzero((own_term == 0) | (own_term == rnd))
        _ej, us, ws = own_edges(cand_i)
        sm = ulast[us] == rnd
        us, ws = us[sm], ws[sm]
        item, kidx = _expand(ustep[rnd & 1][us] - ustep[(rnd - 1) & 1][us])
        us, ws = us[item], ws[item]
        if drop and us.size:
            lost = drop_many(fseed, srnd, us, ws, kidx, drop)
            if record_drops and lost.any():
                drop_records.extend(
                    zip([rnd] * int(lost.sum()), us[lost].tolist(), ws[lost].tolist())
                )
            ws = ws[~lost]
        live = term[ws] == 0
        counted = int(live.sum())
        same = int(ws.size) - counted
        recv_loc = int(np.unique(ws[live]).size)
        g = comm.allreduce(
            counted, same, recv_loc, halts_own, int(running.sum())
        )
        per_round.append((g[0] + g[1], g[0] + g[3], g[2], g[3]))
        total_running = g[4]

    return {
        "rounds": per_round,
        "crashes": crash_records,
        "drops": drop_records,
        "watchdog": watchdog,
        "session_rounds": rnd,
    }


def _sharded_defective_faulted(graph, d, degree_limit, ids_arr, seed, injector):
    """The faulted half of :func:`sharded_defective_coloring`."""
    import repro.obs as obs
    from repro.core.defective import DefectiveColoringResult, defective_schedule

    n = graph.n
    bus = obs.current()
    params = _fault_params(injector, n, "defective coloring", bus)
    A = degree_limit if degree_limit is not None else graph.max_degree()
    A = max(A, 1)
    space = id_space(ids_arr)
    schedule = defective_schedule(space, A, d)
    bound = schedule[-1].ground_size if schedule else space
    max_rounds = 4 * len(schedule) + 64
    params.update(
        {"n": n, "space": space, "A": A, "d": d, "max_rounds": max_rounds}
    )
    pre_crashed = params["pre_crashed"]

    payloads, copies, _bounds = _execute_kernel(
        "defective_faulted",
        graph,
        {
            "ustep": ((2, n), np.int64),
            "ucol": ((2, n), np.int64),
            "ulast": ((n,), np.int64),
            "term": ((n,), np.int64),
            "col": ((n,), np.int64),
            "ids": ids_arr,
        },
        params,
        copy_keys=("term", "col"),
    )
    term = copies["term"]
    col = copies["col"]

    wd = [p["watchdog"] for p in payloads]
    if any(w is not None for w in wd):
        injector.absorb_rounds(
            payloads[0]["session_rounds"],
            [v for p in payloads for (_r, v) in p["crashes"]],
        )
        raise RoundLimitExceeded(
            max_rounds, [v for w in wd if w is not None for v in w], None
        )

    rounds = payloads[0]["rounds"]
    crash_rounds = dict(
        sorted(((v, r) for p in payloads for (r, v) in p["crashes"]))
    )
    injector.absorb_rounds(payloads[0]["session_rounds"], list(crash_rounds))
    res = finalize_faulted_run(
        column_dict(col, term > 0),
        term,
        crash_rounds,
        pre_crashed,
        [r[0] for r in rounds],
        [r[1] for r in rounds],
        [r[2] for r in rounds],
        crashed_all=[v for v in injector.crashed if v < n],
        drops=[dd for p in payloads for dd in p.get("drops", ())],
    )
    return DefectiveColoringResult(
        colors=res.outputs,
        metrics=res.metrics,
        palette_bound=bound,
        defect_bound=d,
    )


def sharded_defective_coloring(
    graph: Graph,
    d: int,
    degree_limit: int | None = None,
    ids: Sequence[int] | None = None,
    seed: int = 0,
):
    """Sharded d-defective coloring; accounting closed-form in the parent
    for fault-free runs, receiver-side per round under a fault session."""
    from repro.core.defective import DefectiveColoringResult, defective_schedule
    from repro.faults.plan import current

    injector = current()
    if injector is not None:
        return _sharded_defective_faulted(
            graph, d, degree_limit, resolve_ids(graph, ids), seed, injector
        )

    n = graph.n
    ids_arr = resolve_ids(graph, ids)
    A = degree_limit if degree_limit is not None else graph.max_degree()
    A = max(A, 1)
    space = id_space(ids_arr)
    schedule = defective_schedule(space, A, d)
    bound = schedule[-1].ground_size if schedule else space

    if n and schedule:
        colors0 = np.zeros((2, n), dtype=np.int64)
        colors0[0] = ids_arr
        payloads, copies, _bounds = _launch(
            "defective",
            graph,
            {"colors": colors0},
            {"n": n, "space": space, "A": A, "d": d},
            copy_keys=("colors",),
        )
        colors = copies["colors"][payloads[0]["cur"]].tolist()
    else:
        colors = [int(x) for x in ids_arr]

    steps = len(schedule)
    offsets, _ = graph.csr(dtype="auto")
    deg = (offsets[1:] - offsets[:-1]).astype(np.int64)
    m2 = int(offsets[-1])
    n_iso = int((deg == 0).sum())
    n_ni = n - n_iso
    term = np.ones(n, dtype=np.int64)
    if steps and n_ni:
        term[deg > 0] = steps + 1
        sent = [m2] * steps + [0]
        msgs = [m2 + n_iso] + [m2] * (steps - 1) + [n_ni]
        recv = [n_ni] * steps + [0]
    elif n:
        sent, msgs, recv = [0], [n], [0]
    else:
        term = np.zeros(0, dtype=np.int64)
        sent, msgs, recv = [], [], []
    res = finalize_run(dict(enumerate(colors)), term, sent, msgs, recv)
    return DefectiveColoringResult(
        colors=res.outputs,
        metrics=res.metrics,
        palette_bound=bound,
        defect_bound=d,
    )


#: kernel name -> worker entry point (resolved inside worker processes)
SHARD_KERNELS = {
    "partition": _kernel_partition,
    "luby": _kernel_luby,
    "luby_faulted": _kernel_luby_faulted,
    "cole_vishkin": _kernel_cole_vishkin,
    "cole_vishkin_faulted": _kernel_cole_vishkin_faulted,
    "defective": _kernel_defective,
    "defective_faulted": _kernel_defective_faulted,
}

#: generator driver function name -> sharded twin (mirrors BULK_DRIVERS)
SHARD_DRIVERS = {
    "run_partition": sharded_partition,
    "run_luby_mis": sharded_luby_mis,
    "run_ring_three_coloring": sharded_ring_three_coloring,
    "run_defective_coloring": sharded_defective_coloring,
}
