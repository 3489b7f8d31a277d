"""The columnar bulk engine: vectorized rounds over the CSR view.

The generator engines (:mod:`repro.runtime.network`, the reference
specification) step ``n`` coroutines per round, which caps throughput
around a few million vertex-steps per second and makes n = 10^6 runs --
the scale where Lemma 6.1's decay and Theorem 6.3's O(1) vertex-averaged
bound become visually unambiguous -- impractically slow.  The bulk engine
removes the per-vertex interpreter entirely: algorithm state lives in
numpy columnar arrays indexed by vertex, and one synchronous round is a
handful of vectorized array operations over the graph's cached CSR view
(:meth:`repro.graphs.graph.Graph.csr`).

There is no generic bulk interpreter for arbitrary vertex programs --
vectorization requires knowing the algorithm's data flow -- so bulk
execution is opt-in per algorithm: a driver with a columnar variant
dispatches to it when the session's engine is ``"bulk"``
(:data:`repro.core.bulk.BULK_DRIVERS` is the registry; the zoo mirrors it
via ``AlgorithmSpec.bulk_capable``).  A program without one raises
:class:`BulkUnsupported` instead of silently running on the fast path.

Contract
--------
Bulk drivers are pinned **bit-identical** to the generator engines by the
three-way differential suite (``tests/runtime/test_equivalence.py``):
same outputs, same per-vertex termination rounds, same active trace, same
per-round message totals (program sends minus same-round drops, plus one
halt notice per terminating vertex).  The helpers here centralise the
shared accounting so each driver only supplies its algorithm-specific
array steps.

Results stay columnar: a kernel's per-vertex outputs (H-indices,
colors, MIS flags) are :class:`ColumnMap` views over its final arrays,
which behave as the dicts the generator drivers return but let the
validators read the arrays without boxing a Python object per vertex.

Tracing granularity caveat
--------------------------
The bulk engine never materialises individual messages, so it cannot emit
per-``send`` or per-receiver ``drop`` events.  Instead
:func:`finalize_run` emits one ``round_start`` / ``round_sends`` /
``round_end`` triple per round, plus a ``round_drops`` in rounds that
discarded same-round copies -- O(rounds) total -- and does so *after*
the vectorized execution finishes (events are derived from the final
arrays, not interleaved with the computation).  :class:`repro.obs.collect.MetricsCollector` accepts this
aggregate granularity; per-vertex ``halt``/``commit`` events are simply
absent from bulk traces.

Session settings: a bulk run reads the current
:class:`~repro.runtime.session.RunSession` like the generator engines
do -- its bus (for :func:`finalize_run`'s events and :func:`profiled`'s
phases), its fault injector (replayed by the kernels, refused by
:func:`require_no_faults`) and its mode.  In an async session a
kernel's result also carries the timing pass's virtual times
(:func:`run_times`), fed by the termination and crash rounds
:func:`finalize_run` reads too.

Fault injection: the algorithm kernels in :mod:`repro.core.bulk` step
one round per iteration and replay crash-stop and message-drop plans
themselves; a clean run is the empty plan, and every run finishes
through the one :func:`finalize_run` (its crash log empty on a clean
run).  Only :func:`bulk_broadcast_kernel` has no fault model; it calls
:func:`require_no_faults` so a session's adversary fails loudly rather
than being ignored.
"""

from __future__ import annotations

import operator
from collections.abc import ItemsView, Mapping, ValuesView
from contextlib import nullcontext
from typing import Any, Sequence

import numpy as np

from repro.graphs.graph import Graph
from repro.obs.events import (
    FaultCrash,
    FaultDrop,
    RoundDrops,
    RoundEnd,
    RoundSends,
    RoundStart,
)
from repro.runtime.async_sched import time_run
from repro.runtime.metrics import RoundMetrics, TimeMetrics
from repro.runtime.network import RunResult
from repro.runtime.session import current


class BulkUnsupported(RuntimeError):
    """The bulk engine cannot run this: no columnar driver, or a feature
    (fault injection, generic programs) the vectorized path lacks."""


#: senders per chunk in the chunked kernels.  Rounds whose sender set
#: exceeds this are processed in cache-sized pieces so the per-round
#: temporaries (gathered rows, liveness masks) stay bounded instead of
#: scaling with the round's total degree — the difference between an
#: n = 10^7 round peaking at ~10 MB of scratch versus ~1 GB.
BULK_CHUNK = 1 << 18


def profiled(phase: str):
    """A profiler section for ``phase``, or a no-op context manager.

    The bulk drivers' analogue of the generator engines' inline
    ``prof.add`` hooks: each driver wraps its vectorized round loop in
    ``with profiled("kernel")`` and :func:`finalize_run` times itself as
    ``"finalize"``.  When no :class:`~repro.obs.profile.PhaseProfiler`
    rides the session's bus this returns :func:`~contextlib.nullcontext`
    -- one attribute lookup per *run* (not per round), so the
    telemetry-off path stays inside the null-sink overhead budget.
    """
    bus = current().bus
    prof = bus.profiler if bus is not None else None
    if prof is None:
        return nullcontext()
    return prof.section(phase)


def resolve_ids(graph: Graph, ids: Sequence[int] | None) -> np.ndarray:
    """Validate an ID assignment exactly like ``SyncNetwork.__init__``.

    Returns the IDs as an int64 column (the bulk engines' native layout).
    """
    n = graph.n
    if ids is None:
        return np.arange(n, dtype=np.int64)
    if len(ids) != n:
        raise ValueError("ID assignment length must equal n")
    ids_arr = np.array(ids, dtype=np.int64)
    # a sort, not np.unique: numpy 2.4's hash-based unique takes ~50x
    # longer at n = 10^6 (and longer than a Python set)
    ordered = np.sort(ids_arr)
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("IDs must be distinct")
    return ids_arr


class ColumnMap(Mapping[int, Any]):
    """A read-only ``{v: column[v] for v where mask[v]}`` over numpy columns.

    The bulk kernels' per-vertex results (H-indices, colors, MIS flags)
    are columns indexed by vertex; this view gives them dict semantics --
    ``==`` with a dict either way round, ascending iteration, ``get``,
    ``in``, ``KeyError`` for absent, out-of-range and negative keys, plain
    Python values -- without boxing a per-vertex object.  The validators
    read :attr:`column` and :attr:`mask` directly
    (:mod:`repro.verify.columns`); ``values()`` and ``items()`` convert
    the column with one ``tolist`` instead of a lookup per key.
    """

    __slots__ = ("column", "mask", "full", "_len")

    def __init__(self, column: np.ndarray, mask: np.ndarray | None = None) -> None:
        n = column.shape[0]
        self.full = mask is None or bool(mask.all())
        if mask is None:
            mask = np.ones(n, dtype=bool)
        elif mask.shape != (n,) or mask.dtype != bool:
            raise ValueError("mask must be a boolean column as long as the values")
        #: the value of every vertex (meaningless where ``mask`` is unset)
        self.column = column.view()
        #: which vertices are keys
        self.mask = mask.view()
        self.column.flags.writeable = self.mask.flags.writeable = False
        self._len = n if self.full else int(np.count_nonzero(mask))

    def keys_array(self) -> np.ndarray:
        """The keys, ascending, as an int64 column."""
        if self.full:
            return np.arange(self.column.shape[0], dtype=np.int64)
        return np.flatnonzero(self.mask)

    def values_array(self) -> np.ndarray:
        """The values in key order, as a column."""
        return self.column if self.full else self.column[self.mask]

    def _index(self, key) -> int:
        try:
            i = operator.index(key)
        except TypeError:
            raise KeyError(key) from None
        if not (0 <= i < self.column.shape[0] and self.mask[i]):
            raise KeyError(key)
        return i

    def __getitem__(self, key):
        return self.column[self._index(key)].item()

    def __contains__(self, key) -> bool:
        try:
            self._index(key)
        except KeyError:
            return False
        return True

    def __iter__(self):
        return iter(self.keys_array().tolist())

    def __len__(self) -> int:
        return self._len

    def values(self):
        return _ColumnValues(self)

    def items(self):
        return _ColumnItems(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


class _ColumnValues(ValuesView):
    __slots__ = ()

    def __iter__(self):
        return iter(self._mapping.values_array().tolist())


class _ColumnItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        m = self._mapping
        return zip(m.keys_array().tolist(), m.values_array().tolist())


def id_space(ids_arr: np.ndarray) -> int:
    """One plus the maximum ID -- ``SyncNetwork.config["id_space"]``."""
    return int(ids_arr.max()) + 1 if ids_arr.size else 1


def require_no_faults(name: str) -> None:
    """Refuse to run in a session with a fault adversary.

    The vectorized rounds have no per-message hook for the adversary, so
    silently ignoring the session's injector would make a fault sweep
    report clean runs that were never actually attacked.
    """
    if current().injector is not None:
        raise BulkUnsupported(
            f"bulk driver {name!r} does not support fault injection; "
            "run it on the 'fast' or 'reference' engine, or drop the "
            "session's faults"
        )


def row_positions(offsets: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """The CSR edge positions of the rows of ``verts``, row after row.

    ``indices[row_positions(offsets, verts)]`` is the concatenated
    adjacency of ``verts``; the positions themselves address per-edge
    state stored alongside ``indices``.
    """
    starts = offsets[verts].astype(np.int64)
    counts = offsets[verts + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    pos = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    pos += np.arange(total, dtype=np.int64)
    return pos


def gather_rows(
    offsets: np.ndarray, indices: np.ndarray, verts: np.ndarray
) -> np.ndarray:
    """Concatenate the CSR adjacency rows of ``verts`` (with multiplicity).

    The standard row-gather: for each v in ``verts`` the slice
    ``indices[offsets[v]:offsets[v+1]]``, all in one vectorized pass.
    """
    if verts.size == 0:
        return indices[:0]
    lo, hi = int(verts[0]), int(verts[-1]) + 1
    if hi - lo == verts.size and (np.diff(verts) == 1).all():
        # a contiguous ascending run of vertices is one slice
        return indices[offsets[lo] : offsets[hi]]
    return indices[row_positions(offsets, verts)]


def finalize_run(
    term: np.ndarray,
    sent: Sequence[int],
    msgs: Sequence[int],
    receivers: Sequence[int],
    *,
    same_round: Sequence[int] = (),
    crash_rounds: dict[int, int] | None = None,
    pre_crashed: Sequence[int] = (),
    drops: Sequence[tuple[int, int, int]] = (),
) -> RoundMetrics:
    """The :class:`RoundMetrics` of a bulk run, from its final arrays.

    ``term`` is the per-vertex termination round (0 for a crashed
    vertex); ``sent`` / ``msgs`` / ``receivers`` are per-round totals
    matching the generator engines' accounting (``msgs`` includes the one
    halt notice per terminating vertex), and their length is the recorded
    round count.  ``same_round`` are the per-round copies discarded
    because their receiver terminated that same round (empty: none).
    The active trace is derived from ``term``: n_i is the number of
    vertices that terminate at round >= i or crash only at a later
    round's start.

    A clean run leaves the fault arguments empty.  Under a fault plan,
    ``crash_rounds`` maps each newly-crashed vertex to the round whose
    start it crashed at (its metrics round is that minus one, exactly the
    fast engine's accounting); ``pre_crashed`` are vertices already dead
    from an earlier run in the fault session (metrics round 0, no
    event).  A final round in which every remaining vertex crashed is
    *unrecorded*, mirroring the fast engine's break-before-trace, but its
    ``fault_crash`` events are still emitted after the last ``round_end``.
    ``drops`` are the adversary's dropped copies as ``(round, src, dst)``
    triples (emitted per round, sorted, right after ``round_start`` --
    the fast engine drops copies during routing, after the round has
    started).

    When the session's event bus is live, one ``round_start`` /
    ``round_sends`` / ``round_end`` triple per round is emitted -- the
    aggregate tracing granularity -- with a ``round_drops`` before the
    ``round_end`` of a round that discarded same-round copies.
    """
    with profiled("finalize"):
        n = int(term.size)
        rounds_run = len(sent)
        assert len(msgs) == rounds_run and len(receivers) == rounds_run

        crash_rounds = crash_rounds or {}
        crash_v = np.fromiter(crash_rounds, dtype=np.int64, count=len(crash_rounds))
        crash_r = np.fromiter(
            crash_rounds.values(), dtype=np.int64, count=len(crash_rounds)
        )
        rounds_arr = term
        if crash_v.size or len(pre_crashed):
            rounds_arr = term.copy()
            rounds_arr[crash_v] = crash_r - 1
            rounds_arr[np.asarray(pre_crashed, dtype=np.int64)] = 0

        # halts[r] = vertices terminating at round r (halts[0]: never did)
        halts = np.bincount(term, minlength=rounds_run + 2)
        # n_i = n - #{term < i} + #{crashes at a round start after i}
        crash_after = crash_r.size - np.cumsum(
            np.bincount(crash_r, minlength=rounds_run + 2)
        )
        active = n - np.cumsum(halts)[:rounds_run] + crash_after[1 : rounds_run + 1]

        crashes_by_round: dict[int, list[int]] = {}
        for v, c in sorted(crash_rounds.items()):
            crashes_by_round.setdefault(c, []).append(v)
        drops_by_round: dict[int, list[tuple[int, int]]] = {}
        for r, src, dst in drops:
            drops_by_round.setdefault(r, []).append((src, dst))

        bus = current().bus
        if bus is not None and bus.active:
            for i in range(rounds_run):
                rnd = i + 1
                for v in crashes_by_round.get(rnd, ()):
                    bus.emit(FaultCrash(rnd, v))
                bus.emit(RoundStart(rnd, int(active[i])))
                for src, dst in sorted(drops_by_round.get(rnd, ())):
                    bus.emit(FaultDrop(rnd, src, dst))
                if sent[i]:
                    bus.emit(RoundSends(rnd, int(sent[i])))
                if i < len(same_round) and same_round[i]:
                    bus.emit(RoundDrops(rnd, int(same_round[i])))
                bus.emit(
                    RoundEnd(rnd, int(msgs[i]), int(receivers[i]), int(halts[rnd]))
                )
            # crashes that emptied the network in the unrecorded final round
            for v in crashes_by_round.get(rounds_run + 1, ()):
                bus.emit(FaultCrash(rounds_run + 1, v))

        return RoundMetrics(
            rounds=tuple(rounds_arr.tolist()),
            active_trace=tuple(active.tolist()),
            messages_per_round=tuple(map(int, msgs)),
        )


def run_times(
    graph: Graph, term: np.ndarray, crash_log: Sequence[tuple[int, int]]
) -> TimeMetrics | None:
    """The asynchronous times of a bulk run in an async session,
    ``None`` in sync mode.

    The timing pass (:func:`repro.runtime.async_sched.time_run`) is fed
    the run's ``term`` and its crashes as ``(round, v)`` pairs: a vertex
    signals up to its termination round, or up to the round at whose
    start it crashed; a pre-crashed vertex (``term`` 0, no crash) never
    signals.  Bulk kernels have no commits.  Timed as the ``async``
    phase.
    """
    if current().mode != "async":
        return None
    with profiled("async"):
        last = term.copy()
        for rnd, v in crash_log:
            last[v] = rnd
        return time_run(graph, last)


def bulk_broadcast_kernel(graph: Graph, rounds: int = 10) -> RunResult:
    """Columnar twin of the bench broadcast kernel.

    Every vertex broadcasts a value each round and folds its neighbors'
    previous values into a running sum (the per-round delivery work an
    algorithm would do), runs ``rounds`` rounds, then terminates.  The
    :class:`RunResult` is bit-identical to the generator kernel's:
    ``2m`` routed copies per broadcast round, then ``n`` halt notices,
    outputs all ``None``.
    """
    require_no_faults("bulk_broadcast_kernel")
    n = graph.n
    offsets, indices = graph.csr(dtype="auto")
    deg = (offsets[1:] - offsets[:-1]).astype(np.int64)
    m2 = int(indices.size)
    step = 4 * BULK_CHUNK

    col = np.arange(n, dtype=np.int64)
    acc = np.zeros(n, dtype=np.float64)
    with profiled("kernel"):
        if m2 <= step:
            # single-chunk graphs take the unchunked path with int64 index
            # arrays hoisted out of the loop: bincount and fancy indexing
            # both want intp, and re-casting an int32 edge list every round
            # costs ~40% of the kernel's throughput at bench sizes
            idx = (
                indices
                if indices.dtype == np.int64
                else indices.astype(np.int64)
            )
            dst = np.repeat(np.arange(n, dtype=np.int64), deg)
            for _ in range(rounds):
                # each vertex sums the values its neighbors broadcast
                # last round
                acc += np.bincount(
                    dst, weights=col[idx].astype(np.float64), minlength=n
                )
                col = col + 1
        else:
            # oversized edge lists keep the narrow dtype and pay per-chunk
            # casts so the scratch stays chunk-bounded, not m2-bounded
            dst = np.repeat(np.arange(n, dtype=offsets.dtype), deg)
            for _ in range(rounds):
                for lo in range(0, m2, step):
                    hi = min(lo + step, m2)
                    acc += np.bincount(
                        dst[lo:hi],
                        weights=col[indices[lo:hi]].astype(np.float64),
                        minlength=n,
                    )
                col = col + 1

    term = np.full(n, rounds + 1, dtype=np.int64)
    n_recv = int((deg > 0).sum())
    sent = [m2] * rounds + [0]
    msgs = [m2] * rounds + [n]
    receivers = [n_recv] * rounds + [0]
    metrics = finalize_run(term, sent, msgs, receivers)
    return RunResult(
        outputs=dict.fromkeys(range(n)),
        metrics=metrics,
        output_rounds=metrics.rounds,
    )
