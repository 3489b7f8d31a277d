"""Synchronous LOCAL-model runtime.

This package simulates the static, synchronous message-passing model of
Section 1.1 of the paper: all processors operate in parallel in synchronous
rounds, exchanging messages of unbounded size with their neighbors.  A
vertex's *running time* is the round in which it terminates; per the paper's
variant of the model (Section 2), a terminating vertex transmits its final
output once to all neighbors and then performs no further computation or
communication.

Vertex programs are written as generator coroutines: one ``yield`` per
communication round (see :mod:`repro.runtime.program`); ``yield WAIT``
additionally lets the fast engine skip the vertex until mail arrives.
"""

from repro.runtime.async_sched import DELAY_DISTS, DelaySpec
from repro.runtime.bulk import BulkUnsupported, bulk_broadcast_kernel
from repro.runtime.context import WAIT, Context, RouterState
from repro.runtime.network import (
    MaxRoundsExceeded,
    RoundLimitExceeded,
    RunResult,
    SyncNetwork,
    default_max_rounds,
)
from repro.runtime.metrics import RoundMetrics, TimeMetrics
from repro.runtime.program import wait_rounds, wait_until_round
from repro.runtime.scheduler import SyncBarrierScheduler
from repro.runtime.session import ENGINES, MODES, RunSession
from repro.runtime.reference import ReferenceSyncNetwork

__all__ = [
    "BulkUnsupported",
    "Context",
    "DELAY_DISTS",
    "DelaySpec",
    "ENGINES",
    "MODES",
    "MaxRoundsExceeded",
    "ReferenceSyncNetwork",
    "RoundLimitExceeded",
    "RoundMetrics",
    "RouterState",
    "RunResult",
    "RunSession",
    "SyncBarrierScheduler",
    "SyncNetwork",
    "TimeMetrics",
    "WAIT",
    "bulk_broadcast_kernel",
    "default_max_rounds",
    "wait_rounds",
    "wait_until_round",
]
