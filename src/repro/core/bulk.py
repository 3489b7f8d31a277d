"""Columnar (bulk-engine) drivers for the data-parallel zoo algorithms.

Each ``bulk_*`` function is the vectorized twin of a generator driver:
same signature surface, same result type, **bit-identical** outputs and
round accounting (the three-way differential suite pins this).  State
lives in numpy arrays indexed by vertex; one synchronous round is a few
array operations over the cached CSR view, so n = 10^6 runs complete in
seconds where the generator engines would step a million coroutines per
round.

The accounting rule shared by all drivers (mirroring the fast engine):
at round r, a terminating vertex's broadcast is routed to every neighbor
not yet *known* halted -- i.e. with final termination round 0/unset,
``== r`` (same-round, routed then dropped) or ``> r`` -- and the round's
message total is the delivered copies (``term > r``) plus one halt
notice per vertex terminating this round.

Only :data:`BULK_DRIVERS` entries run on the bulk engine; the zoo
mirrors this registry through ``AlgorithmSpec.bulk_capable`` and
``zoo.check_registry`` fails on any drift.  Under an installed
:func:`repro.faults.session`, every driver delegates to its fault-aware
kernel in :mod:`repro.core.faulted`, which replays crash-stop and
message-drop plans bit-identically to the fast engine; duplicate/delay
plans are rejected up front (see docs/fault_tolerance.md).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import rng
from repro.graphs.graph import Graph
from repro.runtime.bulk import (
    BULK_CHUNK,
    column_dict,
    finalize_run,
    gather_rows,
    id_space,
    profiled,
    resolve_ids,
)
from repro.runtime.network import RoundLimitExceeded


def _faulted() -> bool:
    """Whether a fault session is installed (-> delegate to the
    fault-aware kernel instead of the closed-form bulk round)."""
    from repro.faults.plan import current

    return current() is not None


def _account_round(
    term: np.ndarray,
    nbrs: np.ndarray,
    rnd: int,
    halts: int,
    sent: list[int],
    msgs: list[int],
    recv: list[int],
) -> None:
    """Append one round of the shared accounting rule.

    ``nbrs`` is the concatenated neighbor multiset of this round's
    senders (every sender broadcasts once), ``halts`` the number of
    vertices terminating this round.
    """
    t = term[nbrs]
    live = (t == 0) | (t > rnd)
    counted = int(live.sum())
    sent.append(counted + int((t == rnd).sum()))
    msgs.append(counted + halts)
    # distinct receivers by boolean scatter: numpy 2.4's hash-based
    # np.unique costs ~50x a scatter at n = 10^6
    mask = np.zeros(term.size, dtype=bool)
    mask[nbrs[live]] = True
    recv.append(int(mask.sum()))


def _account_round_chunked(
    term: np.ndarray,
    offsets: np.ndarray,
    indices: np.ndarray,
    joiners: np.ndarray,
    rnd: int,
    sent: list[int],
    msgs: list[int],
    recv: list[int],
) -> np.ndarray:
    """Chunked twin of :func:`_account_round` for oversized rounds.

    Processes ``joiners`` in :data:`BULK_CHUNK`-sender chunks, counting
    distinct live receivers with a boolean scatter mask and accumulating
    the next round's JOIN-arrival bincount, which is returned so the
    caller never materialises the full concatenated neighbor multiset.
    """
    n = term.size
    counted = 0
    same = 0
    recv_mask = np.zeros(n, dtype=bool)
    inc = np.zeros(n, dtype=np.int64)
    for lo in range(0, joiners.size, BULK_CHUNK):
        nb = gather_rows(offsets, indices, joiners[lo : lo + BULK_CHUNK])
        t = term[nb]
        live = (t == 0) | (t > rnd)
        counted += int(live.sum())
        same += int((t == rnd).sum())
        recv_mask[nb[live]] = True
        inc += np.bincount(nb, minlength=n)
    sent.append(counted + same)
    msgs.append(counted + int(joiners.size))
    recv.append(int(recv_mask.sum()))
    return inc


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
    per round.  ``heard[v]`` counts neighbors that joined in earlier
    rounds; v joins at the first round with ``deg(v) - heard(v) <= A``.
    """
    from repro.core.common import degree_bound, partition_length_bound
    from repro.core.partition import PartitionResult

    if _faulted():
        from repro.core.faulted import faulted_partition

        return faulted_partition(
            graph, a, eps=eps, ids=ids, seed=seed, max_rounds=max_rounds
        )
    n = graph.n
    resolve_ids(graph, ids)  # IDs only validate; Partition is ID-oblivious
    A = degree_bound(a, eps)
    if max_rounds is None:
        max_rounds = partition_length_bound(n, eps) + 4
    offsets, indices = graph.csr(dtype="auto")
    deg = (offsets[1:] - offsets[:-1]).astype(np.int64)

    term = np.zeros(n, dtype=np.int64)
    heard = np.zeros(n, dtype=np.int64)
    sent: list[int] = []
    msgs: list[int] = []
    recv: list[int] = []
    active = np.arange(n, dtype=np.int64)
    inc = None
    rnd = 0
    with profiled("kernel"):
        while active.size:
            rnd += 1
            if rnd > max_rounds:
                raise RoundLimitExceeded(max_rounds, active.tolist(), None)
            if inc is not None:
                # JOIN broadcasts from last round's joiners arrive now
                heard += inc
                inc = None
            join = (deg[active] - heard[active]) <= A
            joiners = active[join]
            term[joiners] = rnd
            if joiners.size <= BULK_CHUNK:
                nbrs = gather_rows(offsets, indices, joiners)
                _account_round(
                    term, nbrs, rnd, int(joiners.size), sent, msgs, recv
                )
                if nbrs.size:
                    inc = np.bincount(nbrs, minlength=n)
            else:
                # Chunked pass: identical accounting, scratch bounded by
                # the chunk's degree mass instead of the round's.
                inc = _account_round_chunked(
                    term, offsets, indices, joiners, rnd, sent, msgs, recv
                )
            active = active[~join]

    res = finalize_run(column_dict(term), term, sent, msgs, recv)
    return PartitionResult(h_index=res.outputs, A=A, metrics=res.metrics)


# ---------------------------------------------------------------------------
# Luby's randomized MIS (Table 2 baseline)
# ---------------------------------------------------------------------------


def bulk_luby_mis(
    graph: Graph,
    ids: Sequence[int] | None = None,
    seed: int = 0,
    max_rounds: int | None = None,
):
    """Columnar Luby MIS in lockstep attempts.

    Attempt k: every alive vertex draws ``u01(seed, VERTEX, id, k-1)``
    (its k-th ``ctx.rng.random()``, the value the generator driver
    consumes) for the whole array at once and broadcasts it at round
    2k-1; round 2k the vertices beating every alive neighbor join the MIS
    and terminate; round 2k+1 their alive neighbors leave and terminate.
    """
    if _faulted():
        from repro.core.faulted import faulted_luby_mis

        return faulted_luby_mis(graph, ids=ids, seed=seed, max_rounds=max_rounds)
    from repro.core.extension import MISResult

    n = graph.n
    ids_arr = resolve_ids(graph, ids)
    if max_rounds is None:
        max_rounds = 64 * (n.bit_length() + 4) + 64
    offsets, indices = graph.csr(dtype="auto")
    deg = (offsets[1:] - offsets[:-1]).astype(np.int64)

    rand = np.zeros(n, dtype=np.float64)
    alive = np.ones(n, dtype=bool)
    term = np.zeros(n, dtype=np.int64)
    sent: list[int] = []
    msgs: list[int] = []
    recv: list[int] = []
    prev_l = np.zeros(0, dtype=np.int64)  # losers announcing next round
    k = 0
    with profiled("kernel"):
        while alive.any():
            k += 1
            r1 = 2 * k - 1
            act = np.flatnonzero(alive)
            if r1 > max_rounds:
                raise RoundLimitExceeded(
                    max_rounds, np.concatenate((act, prev_l)).tolist(), None
                )
            rand[act] = rng.u01_many(seed, rng.VERTEX, ids_arr[act], k - 1)
            # round 2k-1: alive vertices broadcast priorities; last
            # attempt's losers broadcast their leave announcement and
            # terminate
            nb = gather_rows(offsets, indices, np.concatenate((act, prev_l)))
            _account_round(term, nb, r1, int(prev_l.size), sent, msgs, recv)

            # round 2k: win check -- beat every alive neighbor on
            # (rand, id)
            r2 = 2 * k
            if r2 > max_rounds:
                raise RoundLimitExceeded(max_rounds, act.tolist(), None)
            sr = np.repeat(act, deg[act])
            nb2 = gather_rows(offsets, indices, act)
            am = alive[nb2]
            sr_a, nb_a = sr[am], nb2[am]
            beat = (rand[nb_a] > rand[sr_a]) | (
                (rand[nb_a] == rand[sr_a]) & (ids_arr[nb_a] > ids_arr[sr_a])
            )
            beaten = np.bincount(sr_a[beat], minlength=n).astype(bool)
            winners = np.flatnonzero(alive & ~beaten)
            term[winners] = r2
            alive[winners] = False
            nbw = gather_rows(offsets, indices, winners)
            lmask = np.zeros(n, dtype=bool)
            lmask[nbw[alive[nbw]]] = True
            _account_round(term, nbw, r2, int(winners.size), sent, msgs, recv)

            losers = np.flatnonzero(lmask)
            term[losers] = r2 + 1
            alive[losers] = False
            prev_l = losers
        if prev_l.size:
            # the final losers announce + terminate one round after the
            # loop
            r = 2 * k + 1
            nb = gather_rows(offsets, indices, prev_l)
            _account_round(term, nb, r, int(prev_l.size), sent, msgs, recv)

    outputs, in_mis, h_index = luby_outputs(term)
    res = finalize_run(outputs, term, sent, msgs, recv)
    return MISResult(in_mis=in_mis, h_index=h_index, metrics=res.metrics)


def luby_outputs(term: np.ndarray):
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

    Each halving step is ``diff = c ^ c[succ]``; the lowest set bit index
    comes from ``log2(diff & -diff)`` (exact in float64 for any index
    < 53, far beyond real ID spaces).  Three greedy recolor rounds
    (classes 5, 4, 3) finish the {0..5} -> {0..2} reduction.

    ``successor`` must already be validated (the ``run_ring_three_
    coloring`` wrapper dispatches here after its checks).
    """
    if _faulted():
        from repro.core.faulted import faulted_ring_three_coloring

        return faulted_ring_three_coloring(graph, successor, ids=ids, seed=seed)
    from repro.baselines.cole_vishkin import _cv_steps
    from repro.core.coloring import ColoringResult

    n = graph.n
    ids_arr = resolve_ids(graph, ids)
    offsets, indices = graph.csr(dtype="auto")
    deg = (offsets[1:] - offsets[:-1]).astype(np.int64)
    m2 = int(indices.size)
    steps = _cv_steps(id_space(ids_arr))

    c = ids_arr.copy()
    if n:
        with profiled("kernel"):
            succ = np.asarray(list(successor), dtype=np.int64)
            for _ in range(steps):
                cs = c[succ]
                diff = c ^ cs
                low = diff & -diff
                i = np.log2(low.astype(np.float64)).astype(np.int64)
                c = 2 * i + ((c >> i) & 1)
            src = np.repeat(np.arange(n, dtype=np.int64), deg)
            for cls in (5, 4, 3):
                nbc = c[indices]
                used0 = np.zeros(n, dtype=bool)
                used0[src[nbc == 0]] = True
                used1 = np.zeros(n, dtype=bool)
                used1[src[nbc == 1]] = True
                pick = np.where(~used0, 0, np.where(~used1, 1, 2))
                c = np.where(c == cls, pick, c)

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
# Defective coloring (Section 7.8.1 building block)
# ---------------------------------------------------------------------------


def bulk_defective_coloring(
    graph: Graph,
    d: int,
    degree_limit: int | None = None,
    ids: Sequence[int] | None = None,
    seed: int = 0,
):
    """Columnar d-defective coloring.

    The schedule's cover-free ``fam.pick`` decisions stay per-vertex
    Python calls (they are small combinatorial lookups), but all rounds
    advance in one simultaneous pass per family step over the CSR rows
    -- the lockstep the generator's self-synchronizing loop converges to
    on a whole graph.  Accounting: K broadcast rounds (isolated vertices
    finish all their picks in round 1), then one terminating round.
    """
    if _faulted():
        from repro.core.faulted import faulted_defective_coloring

        return faulted_defective_coloring(
            graph, d, degree_limit=degree_limit, ids=ids, seed=seed
        )
    from repro.core.defective import DefectiveColoringResult, defective_schedule

    n = graph.n
    ids_arr = resolve_ids(graph, ids)
    A = degree_limit if degree_limit is not None else graph.max_degree()
    A = max(A, 1)
    space = id_space(ids_arr)
    schedule = defective_schedule(space, A, d)
    bound = schedule[-1].ground_size if schedule else space

    rows = graph.csr_rows()
    colors = [int(x) for x in ids_arr]
    with profiled("kernel"):
        for fam in schedule:
            colors = [
                fam.pick(colors[v], [colors[u] for u in rows[v]])
                for v in range(n)
            ]

    steps = len(schedule)
    offsets, indices = graph.csr(dtype="auto")
    deg = (offsets[1:] - offsets[:-1]).astype(np.int64)
    m2 = int(indices.size)
    n_iso = int((deg == 0).sum())
    n_ni = n - n_iso
    term = np.ones(n, dtype=np.int64)
    if steps and n_ni:
        term[deg > 0] = steps + 1
        sent = [m2] * steps + [0]
        msgs = [m2 + n_iso] + [m2] * (steps - 1) + [n_ni]
        recv = [n_ni] * steps + [0]
    elif n:
        # no steps, or no edges: every vertex finishes in round 1
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


#: generator driver function name -> columnar twin.  The zoo's
#: ``bulk_capable`` flags must mirror this registry exactly
#: (``zoo.check_registry`` invariant).
BULK_DRIVERS = {
    "run_partition": bulk_partition,
    "run_luby_mis": bulk_luby_mis,
    "run_ring_three_coloring": bulk_ring_three_coloring,
    "run_defective_coloring": bulk_defective_coloring,
}
