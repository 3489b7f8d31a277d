"""Sharded single-run BSP execution over shared-memory CSR.

The LOCAL model's synchronous round is a textbook BSP superstep, and the
columnar bulk engine (:mod:`repro.runtime.bulk`) already expresses one
round as a handful of array passes.  This module splits *one* such run
across worker processes:

* the vertex set is cut into **contiguous CSR ranges** by a pluggable
  partitioner (:data:`repro.graphs.graph.PARTITIONERS`; ``"range"``
  balances vertices, ``"edge"`` balances adjacency mass) — contiguity is
  load-bearing, because concatenating per-shard ``np.flatnonzero``
  results in shard order reproduces the global vertex order the
  unsharded drivers emit;
* the CSR arrays and all cross-shard algorithm state are published once
  via :mod:`multiprocessing.shared_memory`, so workers map them
  **zero-copy** — nothing graph-sized is ever pickled;
* each worker runs its shard's columnar per-round kernel, following an
  **owner-computes** discipline: a worker writes only its own vertex
  slice but may read any vertex's state.  Cross-shard "messages" are
  therefore pull-based reads of neighbor state after a round barrier —
  the only data crossing process boundaries at the barrier are the few
  ``int64`` words of an allreduce (per-round message totals, halts,
  active counts) in a double-buffered scratch array;
* the parent merges the per-round totals, per-vertex termination rounds
  and crash records and feeds them through the same
  :func:`repro.runtime.bulk.finalize_run` accounting, so outputs,
  metrics and aggregate trace events are **bit-identical** to the
  unsharded bulk engine for any shard count (the equivalence matrix in
  ``tests/runtime/test_shard.py`` pins this).

Fault injection under sharding reuses the fault layer's counter-based
draws in their vectorised forms
(:meth:`repro.faults.plan.CrashSpec.strikes_many`,
:func:`repro.faults.plan.drop_many`): every decision is a pure function
of ``(seed, round, vertex)`` or ``(seed, round, src, dst, k)``, so the
injected stream is invariant under the shard count by construction.

Synchronisation protocol
------------------------
One :class:`multiprocessing.Barrier` over all shards.  The allreduce
writes each shard's row of a ``(2, shards, K)`` scratch array, waits on
the barrier once, then sums the column; buffers alternate by step parity
so a fast worker entering allreduce ``s+1`` cannot clobber a slow
worker's unread sums from step ``s`` (it writes the *other* buffer, and
cannot reach step ``s+2`` — which reuses the first — before everyone
passed the barrier of step ``s+1``, i.e. finished reading step ``s``).
Plain state barriers rely on the same argument: writes to a shared array
happen-before the barrier, reads after it.

Executor fault tolerance
------------------------
Model faults (crash-stop vertices, dropped messages) are the
*adversary's*; this layer also survives faults of the *executor itself*
(see ``docs/fault_tolerance.md``):

* every barrier wait is bounded — a worker stuck at a barrier past its
  timeout raises :class:`ShardTimeout` naming the lagging shard (read
  from the ``__hb__`` heartbeat block each worker stamps before
  waiting) instead of blocking forever;
* kernels with checkpoint support stream per-round snapshots of their
  own state (local arrays **plus their own slices of every mutable
  shared array**) to the parent over the result queue;
* the parent's collect loop polls worker liveness; when a worker dies
  (e.g. SIGKILL), surviving workers are torn down and the whole group
  is restarted — with bounded retries and exponential backoff — from
  the newest *consistent* checkpoint (the highest round every shard
  reported).  Replay is **bit-identical**: all kernel decisions,
  including the injected fault stream, are pure functions of
  ``(seed, round, vertex)``, so recovery reproduces exactly the run an
  unfaulted executor would have produced;
* with retries exhausted (or no checkpoint to restart from) the run
  fails fast with :class:`ShardError` / :class:`ShardTimeout` — never a
  hang — and :class:`SharedArrays` guarantees segment cleanup via
  context-manager/``atexit`` discipline, so no shared-memory leaks.

Lifecycle: the parent creates and unlinks every shared segment; workers
attach and close.  Worker failure aborts the barrier so the remaining
shards fail fast instead of deadlocking.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory
from time import monotonic, perf_counter, sleep
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.runtime.bulk import BulkUnsupported

#: seconds a shard waits at a barrier before declaring the run wedged
BARRIER_TIMEOUT = 600.0

#: parent-side liveness poll interval while waiting on worker results
POLL_INTERVAL = 0.25

#: bounded restart policy for worker death: total attempts = retries + 1
SHARD_RETRIES = 2

#: base restart backoff in seconds (doubled per failed attempt)
RESTART_BACKOFF = 0.05

#: per-round checkpoints are streamed only up to this many vertices; a
#: checkpoint blob carries O(n / shards) array state per shard per
#: round, which is noise at test scale but would dominate the n = 10^7
#: bench runs (drivers may override via ``params["checkpoint"]``)
CHECKPOINT_MAX_N = 2_000_000

#: int64 lanes in the allreduce scratch row (widest per-round reduction)
_SCRATCH_LANES = 12

#: per-worker phases of the cross-process profiler, in timing-block lane
#: order: kernel compute (wall minus waits), barrier wait, allreduce
#: (write + barrier + column sum), shared-memory attach on the worker
#: side of publish.  When a :class:`~repro.obs.profile.PhaseProfiler`
#: rides the session bus, :func:`run_sharded` publishes a ``__times__``
#: block of shape ``(2, shards, len(SHARD_PHASES))`` float64 (seconds
#: row 0, hit counts row 1); each worker fills its own column slice and
#: the parent merges them via ``PhaseProfiler.record_shard``.
SHARD_PHASES = ("compute", "barrier", "allreduce", "publish")

_TIMES_KEY = "__times__"

#: heartbeat block: ``(shards, 2)`` float64 — each worker stamps
#: ``(monotonic(), waits_so_far)`` before every barrier entry, so both
#: sides can name the lagging shard when a wait times out
_HB_KEY = "__hb__"


class ShardError(RuntimeError):
    """A worker process died or the shard protocol broke."""


class ShardTimeout(ShardError):
    """A barrier wait (or the parent's collect loop) exceeded its
    deadline.  ``lagging`` is the index of the shard with the fewest
    recorded barrier entries at diagnosis time (-1 when unknown)."""

    def __init__(self, message: str, lagging: int = -1) -> None:
        super().__init__(message)
        self.lagging = lagging


#: executor-fault telemetry counters (process-wide, cumulative); see
#: :func:`stats_snapshot` / :func:`reset_stats`
SHARD_STATS: dict[str, int] = {
    "worker_lost": 0,
    "worker_restart": 0,
    "checkpoints": 0,
    "barrier_timeouts": 0,
}


#: chaos-test overrides merged into every :func:`run_sharded` params
#: dict (e.g. ``{"die_at": (shard, round)}`` or ``{"retries": 0}``);
#: set/clear from tests only
CHAOS: dict[str, Any] = {}


def stats_snapshot() -> dict[str, int]:
    """A copy of the executor-fault counters."""
    return dict(SHARD_STATS)


def reset_stats() -> None:
    """Zero the executor-fault counters (tests)."""
    for key in SHARD_STATS:
        SHARD_STATS[key] = 0


# ---------------------------------------------------------------------------
# Session (mirrors repro.runtime.network.engine_session)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardSession:
    """An active sharding request: shard count + partitioner name."""

    shards: int
    partitioner: str = "range"


_session: ShardSession | None = None


def current_shards() -> ShardSession | None:
    """The active :class:`ShardSession`, or ``None`` (unsharded)."""
    return _session


@contextmanager
def shard_session(shards: int, partitioner: str = "range") -> Iterator[ShardSession]:
    """Run every bulk-engine driver in the ``with`` body sharded.

    Composes with ``engine_session("bulk")``: the bulk dispatch seam in
    each driver checks for an active shard session and routes to the
    sharded twin (:data:`repro.core.shard.SHARD_DRIVERS`).  ``shards=1``
    still exercises the full executor (partition, shared memory, worker
    process, barriers) — useful as the degenerate equivalence case.
    """
    from repro.graphs.graph import PARTITIONERS

    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    if partitioner not in PARTITIONERS:
        raise ValueError(
            f"unknown partitioner {partitioner!r}; expected one of "
            f"{sorted(PARTITIONERS)}"
        )
    global _session
    previous = _session
    _session = ShardSession(shards, partitioner)
    try:
        yield _session
    finally:
        _session = previous


def resolve_bounds(graph, session: ShardSession) -> list[int]:
    """Partition ``graph`` per the session: ``shards + 1`` vertex bounds."""
    from repro.graphs.graph import PARTITIONERS

    return PARTITIONERS[session.partitioner](graph, session.shards)


# ---------------------------------------------------------------------------
# Shared-memory arrays
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SharedSpec:
    """Everything a worker needs to re-map one shared array (picklable)."""

    name: str
    shape: tuple[int, ...]
    dtype: str


#: parent-side registries still owning un-unlinked segments; the atexit
#: hook sweeps whatever a crashed/careless caller left behind
_LIVE_ARRAYS: list["SharedArrays"] = []
_ATEXIT_INSTALLED = False


def _cleanup_leaked() -> None:  # pragma: no cover - interpreter shutdown
    for arrays in list(_LIVE_ARRAYS):
        arrays.cleanup()


def active_segments() -> list[str]:
    """Names of shared-memory segments this process still owns.

    Empty once every :class:`SharedArrays` has been cleaned up — the
    leak-count test asserts exactly that.
    """
    return [
        shm.name for arrays in _LIVE_ARRAYS for shm in arrays._segments
    ]


class SharedArrays:
    """Parent-side registry of shared-memory numpy arrays.

    ``publish`` copies an array into a fresh segment (or zero-fills one
    of the given shape); :meth:`specs` is the picklable handle set passed
    to workers; :meth:`cleanup` closes **and unlinks** every segment —
    the parent owns the lifecycle, workers merely attach/close.

    Use as a context manager (``with SharedArrays() as shared: ...``)
    for a structural cleanup guarantee; every live instance is
    additionally registered with an ``atexit`` sweep, so segments cannot
    outlive the parent process even on unhandled exceptions.
    """

    def __init__(self) -> None:
        self._segments: list[shared_memory.SharedMemory] = []
        self.views: dict[str, np.ndarray] = {}
        self._specs: dict[str, SharedSpec] = {}
        global _ATEXIT_INSTALLED
        if not _ATEXIT_INSTALLED:
            atexit.register(_cleanup_leaked)
            _ATEXIT_INSTALLED = True
        _LIVE_ARRAYS.append(self)

    def __enter__(self) -> "SharedArrays":
        return self

    def __exit__(self, *exc) -> None:
        self.cleanup()

    def publish(
        self,
        key: str,
        arr: np.ndarray | None = None,
        *,
        shape: tuple[int, ...] | None = None,
        dtype=None,
    ) -> np.ndarray:
        if arr is not None:
            shape, dtype = arr.shape, arr.dtype
        dt = np.dtype(dtype)
        nbytes = max(int(np.prod(shape)) * dt.itemsize, 1)
        shm = shared_memory.SharedMemory(create=True, size=nbytes)
        # registered before the view exists, so a failing ndarray
        # construction still gets its segment unlinked by cleanup()
        self._segments.append(shm)
        view = np.ndarray(shape, dtype=dt, buffer=shm.buf)
        if arr is not None:
            view[...] = arr
        else:
            view[...] = 0
        self.views[key] = view
        self._specs[key] = SharedSpec(shm.name, tuple(shape), dt.str)
        return view

    def specs(self) -> dict[str, SharedSpec]:
        return dict(self._specs)

    def cleanup(self) -> None:
        # Drop array views before closing the buffers they alias.
        self.views.clear()
        for shm in self._segments:
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double cleanup
                pass
        self._segments.clear()
        self._specs.clear()
        try:
            _LIVE_ARRAYS.remove(self)
        except ValueError:
            pass


def attach_shared(
    specs: dict[str, SharedSpec],
) -> tuple[dict[str, np.ndarray], list[shared_memory.SharedMemory]]:
    """Worker-side: map every published segment; returns (views, handles)."""
    views: dict[str, np.ndarray] = {}
    handles: list[shared_memory.SharedMemory] = []
    for key, spec in specs.items():
        shm = shared_memory.SharedMemory(name=spec.name)
        handles.append(shm)
        views[key] = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf)
    return views, handles


# ---------------------------------------------------------------------------
# Barrier + allreduce
# ---------------------------------------------------------------------------


class ShardComm:
    """One shard's handle on the round-barrier protocol.

    With ``timed=True`` (a profiler rides the session), every barrier
    wait and allreduce accumulates into :attr:`phase_seconds` /
    :attr:`phase_counts` — two dict lookups and two ``perf_counter``
    calls per synchronisation, on a path that already pays a
    cross-process barrier, so the probe cost is noise.

    ``timeout`` bounds every barrier wait; a break or deadline miss
    raises :class:`ShardTimeout` (never an indefinite block).  When the
    ``hb`` heartbeat view is wired, the exception names the lagging
    shard — the one with the fewest stamped barrier entries.
    """

    def __init__(
        self,
        barrier,
        scratch: np.ndarray,
        idx: int,
        shards: int,
        timed: bool = False,
        timeout: float | None = None,
        hb: np.ndarray | None = None,
    ) -> None:
        self.barrier = barrier
        self.scratch = scratch  # (2, shards, _SCRATCH_LANES) int64
        self.idx = idx
        self.shards = shards
        self._step = 0
        self._waits = 0
        self.timed = timed
        self.timeout = BARRIER_TIMEOUT if timeout is None else timeout
        self.hb = hb  # (shards, 2) float64: (monotonic stamp, waits)
        self.phase_seconds = {"barrier": 0.0, "allreduce": 0.0}
        self.phase_counts = {"barrier": 0, "allreduce": 0}

    def _lagging(self) -> int:
        if self.hb is None or self.shards < 2:
            return -1
        waits = self.hb[:, 1].copy()
        waits[self.idx] = np.inf
        return int(np.argmin(waits))

    def _wait(self) -> None:
        self._waits += 1
        if self.hb is not None:
            self.hb[self.idx] = (monotonic(), float(self._waits))
        try:
            self.barrier.wait(timeout=self.timeout)
        except threading.BrokenBarrierError:
            SHARD_STATS["barrier_timeouts"] += 1
            lag = self._lagging()
            who = f" (lagging shard: {lag})" if lag >= 0 else ""
            raise ShardTimeout(
                f"shard {self.idx}/{self.shards}: barrier broken or timed "
                f"out after {self.timeout}s at wait #{self._waits}{who}",
                lagging=lag,
            ) from None

    def sync(self) -> None:
        """A plain state barrier: all prior shared writes become readable."""
        if not self.timed:
            self._wait()
            return
        t0 = perf_counter()
        self._wait()
        self.phase_seconds["barrier"] += perf_counter() - t0
        self.phase_counts["barrier"] += 1

    def allreduce(self, *values: int) -> tuple[int, ...]:
        """Sum each value across shards; one barrier, parity-buffered."""
        t0 = perf_counter() if self.timed else 0.0
        buf = self.scratch[self._step & 1]
        self._step += 1
        buf[self.idx, : len(values)] = values
        self._wait()
        out = tuple(int(x) for x in buf[:, : len(values)].sum(axis=0))
        if self.timed:
            self.phase_seconds["allreduce"] += perf_counter() - t0
            self.phase_counts["allreduce"] += 1
        return out


class LocalComm:
    """In-process stand-in for :class:`ShardComm` (one-shard semantics).

    Lets the faulted kernels in :mod:`repro.core.shard` run unsharded —
    the bulk engine's fault path executes the *same* kernel code through
    this no-op comm, so bulk == sharded(1) by construction.
    """

    idx = 0
    shards = 1
    timed = False

    def sync(self) -> None:
        pass

    def allreduce(self, *values: int) -> tuple[int, ...]:
        return tuple(int(v) for v in values)


def chaos_kill_hook(params: dict[str, Any], idx: int, rnd: int) -> None:
    """Kill-based chaos testing: SIGKILL this worker at a chosen round.

    Fires only on the **first** attempt (``__attempt__`` 0) when
    ``params["die_at"] == (shard, round)`` matches — the restarted run
    must survive, which is exactly what the chaos tests assert.
    """
    die_at = params.get("die_at")
    if not die_at or params.get("__attempt__", 0):
        return
    if int(die_at[0]) == idx and int(die_at[1]) == rnd:
        os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover - dies


# ---------------------------------------------------------------------------
# Worker harness
# ---------------------------------------------------------------------------


@dataclass
class ShardTask:
    """Everything a shard worker kernel receives."""

    idx: int
    lo: int
    hi: int
    bounds: list[int]
    comm: Any
    views: dict[str, np.ndarray]
    params: dict[str, Any]
    #: ``ckpt(round, blob)`` streams a checkpoint to the parent (None
    #: when running in-process or checkpointing is disabled)
    ckpt: Callable[[int, Any], None] | None = None
    #: the blob of the consistent checkpoint to resume from, or None
    resume: Any = None


def _worker_main(
    kernel_name, idx, bounds, specs, params, barrier, queue, resume=None
) -> None:
    """Top-level (spawn-safe) worker entry: attach, run the kernel, report."""
    from repro.core.shard import SHARD_KERNELS

    handles: list[shared_memory.SharedMemory] = []
    try:
        t_attach0 = perf_counter()
        views, handles = attach_shared(specs)
        t_attach = perf_counter() - t_attach0
        timed = _TIMES_KEY in views
        comm = ShardComm(
            barrier,
            views["__scratch__"],
            idx,
            len(bounds) - 1,
            timed=timed,
            timeout=params.get("barrier_timeout"),
            hb=views.get(_HB_KEY),
        )
        ckpt = None
        if params.get("checkpoint"):
            ckpt = lambda rnd, blob: queue.put((idx, "ckpt", (rnd, blob)))
        task = ShardTask(
            idx=idx,
            lo=bounds[idx],
            hi=bounds[idx + 1],
            bounds=bounds,
            comm=comm,
            views=views,
            params=params,
            ckpt=ckpt,
            resume=resume,
        )
        t_kernel0 = perf_counter()
        payload = SHARD_KERNELS[kernel_name](task)
        t_kernel = perf_counter() - t_kernel0
        if timed:
            # compute = kernel wall minus time provably spent waiting or
            # reducing; clamped at 0 against clock jitter.  Written
            # before the queue put, so the parent's post-collect read
            # happens-after.
            waits = comm.phase_seconds["barrier"]
            reduces = comm.phase_seconds["allreduce"]
            tb = views[_TIMES_KEY]
            tb[0, idx] = (
                max(t_kernel - waits - reduces, 0.0),
                waits,
                reduces,
                t_attach,
            )
            tb[1, idx] = (
                1,
                comm.phase_counts["barrier"],
                comm.phase_counts["allreduce"],
                1,
            )
        queue.put((idx, "ok", payload))
    except ShardTimeout as e:
        # A broken/expired barrier: either collateral damage of another
        # worker's death (the parent will restart or re-raise the real
        # cause) or a genuine wedge (the parent raises ShardTimeout).
        queue.put((idx, "barrier", str(e)))
    except Exception:  # noqa: BLE001 - relayed to the parent verbatim
        import traceback

        barrier.abort()
        queue.put((idx, "error", traceback.format_exc()))
    finally:
        for shm in handles:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - view still alive
                pass


class _WorkersLost(Exception):
    """Internal: the liveness poll found dead workers mid-collect."""

    def __init__(self, dead: list[int]) -> None:
        super().__init__(f"workers lost: {dead}")
        self.dead = dead


def _reap(procs: list, timeout: float = 30.0) -> None:
    for p in procs:
        p.join(timeout=timeout)
    for p in procs:
        if p.is_alive():
            p.terminate()
            p.join(timeout=10)


def _attempt(
    kernel_name: str,
    bounds: Sequence[int],
    shared: SharedArrays,
    params: dict[str, Any],
    ctx,
    resumes: list[Any],
    ckpts: dict[int, dict[int, Any]],
    timeout: float,
) -> list[Any]:
    """Run one worker group to completion; raises :class:`_WorkersLost`
    when the liveness poll finds a dead worker before its result."""
    shards = len(bounds) - 1
    barrier = ctx.Barrier(shards)
    queue = ctx.Queue()
    procs = [
        ctx.Process(
            target=_worker_main,
            args=(
                kernel_name,
                i,
                list(bounds),
                shared.specs(),
                params,
                barrier,
                queue,
                resumes[i],
            ),
            daemon=True,
        )
        for i in range(shards)
    ]
    for p in procs:
        p.start()
    payloads: dict[int, Any] = {}
    errors: dict[int, str] = {}
    barrier_reports: dict[int, str] = {}
    last_activity = monotonic()
    try:
        while len(payloads) + len(errors) + len(barrier_reports) < shards:
            try:
                idx, status, payload = queue.get(timeout=POLL_INTERVAL)
            except Exception:  # queue.Empty or a dead pipe
                done = payloads.keys() | errors.keys() | barrier_reports.keys()
                dead = [
                    i
                    for i, p in enumerate(procs)
                    if i not in done and not p.is_alive()
                ]
                if dead:
                    for p in procs:
                        if p.is_alive():
                            p.terminate()
                    raise _WorkersLost(dead)
                hb = shared.views.get(_HB_KEY)
                if hb is not None and float(hb[:, 0].max()) > last_activity:
                    last_activity = float(hb[:, 0].max())
                if monotonic() - last_activity > timeout:
                    barrier.abort()
                    for p in procs:
                        if p.is_alive():
                            p.terminate()
                    lag = (
                        int(np.argmin(hb[:, 1])) if hb is not None else -1
                    )
                    raise ShardTimeout(
                        f"sharded run {kernel_name!r}: no worker progress "
                        f"for {timeout}s (lagging shard: {lag})",
                        lagging=lag,
                    )
                continue
            last_activity = monotonic()
            if status == "ok":
                payloads[idx] = payload
            elif status == "ckpt":
                rnd, blob = payload
                ckpts.setdefault(idx, {})[rnd] = blob
                SHARD_STATS["checkpoints"] += 1
                if len(ckpts) == shards:
                    complete = min(max(d) for d in ckpts.values())
                    for d in ckpts.values():
                        for r in [r for r in d if r < complete]:
                            del d[r]
            elif status == "barrier":
                barrier_reports[idx] = payload
            else:
                errors[idx] = payload
    finally:
        _reap(procs)
    if errors:
        idx = min(errors)
        raise ShardError(
            f"sharded run {kernel_name!r}: shard {idx}/{shards} failed:\n"
            f"{errors[idx]}"
        )
    if barrier_reports:
        # nobody died and no worker errored, yet barriers broke: a wedge
        idx = min(barrier_reports)
        raise ShardTimeout(
            f"sharded run {kernel_name!r}: barrier timed out with all "
            f"workers alive: {barrier_reports[idx]}"
        )
    return [payloads[i] for i in range(shards)]


def run_sharded(
    kernel_name: str,
    bounds: Sequence[int],
    shared: SharedArrays,
    params: dict[str, Any],
) -> list[Any]:
    """Execute one sharded kernel across worker processes.

    Publishes the allreduce scratch + heartbeat blocks, spawns
    ``len(bounds) - 1`` workers running ``SHARD_KERNELS[kernel_name]``,
    and returns their payloads in shard order.  Raises
    :class:`ShardError` carrying the first worker traceback on failure
    and :class:`ShardTimeout` on a wedge — never hangs.  The caller owns
    ``shared`` and must call ``cleanup()`` (typically via ``with`` /
    ``try/finally``) after consuming any result arrays.

    **Worker death is survivable**: when a worker dies mid-run (SIGKILL,
    OOM-kill, ...) and the kernel streams checkpoints
    (``params["checkpoint"]``), the group restarts — up to
    ``params.get("retries", SHARD_RETRIES)`` times, with exponential
    backoff — from the newest round every shard checkpointed.  Blobs
    restore each shard's local state *and* its own slices of the mutable
    shared arrays, and every kernel decision is a pure function of the
    (seed, round, vertex) counters, so the replayed run is bit-identical
    to an unfaulted one.
    """
    import repro.obs as obs

    if CHAOS:
        params = {**params, **CHAOS}
    shards = len(bounds) - 1
    ctx = mp.get_context(
        "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    )
    scratch = shared.publish(
        "__scratch__", shape=(2, shards, _SCRATCH_LANES), dtype=np.int64
    )
    hb = shared.publish(_HB_KEY, shape=(shards, 2), dtype=np.float64)
    bus = obs.current()
    profiler = bus.profiler if bus is not None else None
    if profiler is not None:
        # per-worker timing slots; presence of this key is also the
        # worker-side signal to enable its probes (no object crosses the
        # process boundary, only the shared block)
        shared.publish(
            _TIMES_KEY, shape=(2, shards, len(SHARD_PHASES)), dtype=np.float64
        )
    timeout = params.get("barrier_timeout") or BARRIER_TIMEOUT
    retries = params.get("retries", SHARD_RETRIES)
    resumes: list[Any] = [None] * shards
    ckpts: dict[int, dict[int, Any]] = {}
    attempt = 0
    while True:
        try:
            payloads = _attempt(
                kernel_name, bounds, shared, params, ctx, resumes, ckpts, timeout
            )
            break
        except _WorkersLost as lost:
            SHARD_STATS["worker_lost"] += len(lost.dead)
            complete = (
                min(max(d) for d in ckpts.values())
                if len(ckpts) == shards
                else None
            )
            if bus is not None and bus.active:
                from repro.obs.events import WorkerLost

                for i in lost.dead:
                    bus.emit(WorkerLost(complete or 0, i))
            if attempt >= retries or complete is None:
                why = (
                    "no consistent checkpoint to restart from"
                    if complete is None
                    else f"retries exhausted after {attempt + 1} attempts"
                )
                raise ShardError(
                    f"sharded run {kernel_name!r}: worker(s) {lost.dead} "
                    f"died; {why}"
                ) from None
            sleep(RESTART_BACKOFF * (2**attempt))
            attempt += 1
            SHARD_STATS["worker_restart"] += 1
            if bus is not None and bus.active:
                from repro.obs.events import Checkpoint, WorkerRestart

                bus.emit(Checkpoint(complete, shards))
                bus.emit(WorkerRestart(complete, attempt))
            resumes = [ckpts[i][complete] for i in range(shards)]
            scratch[...] = 0
            hb[...] = 0
            params = {**params, "__attempt__": attempt}
    if profiler is not None:
        times = shared.views[_TIMES_KEY]
        for i in range(shards):
            for lane, phase in enumerate(SHARD_PHASES):
                profiler.record_shard(
                    i, phase, float(times[0, i, lane]), int(times[1, i, lane])
                )
    return payloads


# ---------------------------------------------------------------------------
# Crash-aware finalize (the faulted sibling of bulk.finalize_run)
# ---------------------------------------------------------------------------


def finalize_faulted_run(
    outputs: dict[int, Any],
    term: np.ndarray,
    crash_rounds: dict[int, int],
    pre_crashed: Sequence[int],
    sent: Sequence[int],
    msgs: Sequence[int],
    receivers: Sequence[int],
    crashed_all: Sequence[int],
    bus=None,
    drops: Sequence[tuple[int, int, int]] = (),
):
    """Assemble a :class:`RunResult` for a crash-faulted sharded run.

    ``term`` holds termination rounds (0 for crashed vertices);
    ``crash_rounds`` maps each newly-crashed vertex to the round whose
    start it crashed at (its metrics round is that minus one, exactly the
    fast engine's accounting); ``pre_crashed`` are vertices already dead
    from an earlier run in the fault session (metrics round 0, no event).
    The recorded round count is ``len(sent)`` — a final round in which
    every remaining vertex crashed is *unrecorded*, mirroring the fast
    engine's break-before-trace, but its ``fault_crash`` events are still
    emitted after the last ``round_end``.  ``drops`` are the adversary's
    dropped copies as ``(round, src, dst)`` triples (emitted per round,
    sorted, right after ``round_start`` -- the fast engine drops copies
    during routing, after the round has started).
    """
    import repro.obs as obs
    from repro.obs.events import (
        FaultCrash,
        FaultDrop,
        RoundEnd,
        RoundSends,
        RoundStart,
    )
    from repro.runtime.metrics import RoundMetrics
    from repro.runtime.network import RunResult

    n = int(term.size)
    rounds_run = len(sent)
    assert len(msgs) == rounds_run and len(receivers) == rounds_run

    crash_v = np.fromiter(crash_rounds, dtype=np.int64, count=len(crash_rounds))
    crash_r = np.fromiter(
        crash_rounds.values(), dtype=np.int64, count=len(crash_rounds)
    )
    rounds_arr = term.copy()
    rounds_arr[crash_v] = crash_r - 1
    rounds_arr[np.asarray(pre_crashed, dtype=np.int64)] = 0

    halts = np.bincount(
        term[term > 0], minlength=rounds_run + 2
    ) if n else np.zeros(rounds_run + 2, dtype=np.int64)
    # n_i = live vertices entering round i: uncrashed with term >= i plus
    # crashed vertices that only crash at a later round's start.
    rnds = np.arange(1, rounds_run + 1)
    active = (n - np.searchsorted(np.sort(term), rnds, side="left")) + (
        crash_r.size - np.searchsorted(np.sort(crash_r), rnds, side="right")
    )

    crashes_by_round: dict[int, list[int]] = {}
    for v, c in sorted(crash_rounds.items()):
        crashes_by_round.setdefault(c, []).append(v)
    drops_by_round: dict[int, list[tuple[int, int]]] = {}
    for r, src, dst in drops:
        drops_by_round.setdefault(r, []).append((src, dst))

    if bus is None:
        bus = obs.current()
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
            bus.emit(
                RoundEnd(rnd, int(msgs[i]), int(receivers[i]), int(halts[rnd]))
            )
        # crashes that emptied the network in the unrecorded final round
        for v in crashes_by_round.get(rounds_run + 1, ()):
            bus.emit(FaultCrash(rounds_run + 1, v))

    rounds_t = tuple(rounds_arr.tolist())
    metrics = RoundMetrics(
        rounds=rounds_t,
        active_trace=tuple(active.tolist()),
        messages_per_round=tuple(map(int, msgs)),
    )
    return RunResult(
        outputs=outputs,
        metrics=metrics,
        contexts=(),
        output_rounds=rounds_t,
        crashed=tuple(sorted(crashed_all)),
    )
