"""Round accounting: the quantities the paper's theorems bound.

For an execution of algorithm A on graph G under ID assignment I, the paper
defines r_{G,I,A}(v) as the number of rounds until vertex v terminates, and

    vertex-averaged complexity  T-bar = (1/n) * sum_v r(v)
    worst-case complexity       T     = max_v r(v)
    RoundSum(V)                       = sum_v r(v)

plus the active-vertex counts n_i (the number of vertices still active in
round i), whose exponential decay (Lemma 6.1) powers every result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property


@dataclass(frozen=True)
class RoundMetrics:
    """Aggregate round statistics of one execution."""

    #: rounds-until-termination per vertex, indexed by vertex
    rounds: tuple[int, ...]
    #: n_i: number of vertices active during round i (index 0 = round 1)
    active_trace: tuple[int, ...] = field(default=())
    #: total messages sent per round (index 0 = round 1)
    messages_per_round: tuple[int, ...] = field(default=())

    @property
    def n(self) -> int:
        return len(self.rounds)

    # the sums below are computed once per instance: a result's metrics
    # are read by the CLI summary, the run manifest and the benchmark
    # digest, each an O(n) pass over ``rounds``

    @cached_property
    def round_sum(self) -> int:
        """RoundSum(V) = sum of rounds over all vertices."""
        return sum(self.rounds)

    @property
    def vertex_averaged(self) -> float:
        """T-bar(G) = RoundSum(V) / n (0.0 for the empty graph)."""
        if not self.rounds:
            return 0.0
        return self.round_sum / len(self.rounds)

    @cached_property
    def worst_case(self) -> int:
        """T(G) = max_v r(v) (0 for the empty graph)."""
        return max(self.rounds, default=0)

    @cached_property
    def total_messages(self) -> int:
        return sum(self.messages_per_round)

    def quantile(self, q: float) -> int:
        """The q-quantile of per-vertex round counts (e.g. the median
        running time, which the averaged measure is a proxy for)."""
        if not self.rounds:
            return 0
        ordered = sorted(self.rounds)
        idx = min(len(ordered) - 1, max(0, int(q * len(ordered))))
        return ordered[idx]

    def terminated_by(self, r: int) -> int:
        """How many vertices have terminated by the end of round r."""
        return sum(1 for x in self.rounds if x <= r)

    def check_active_trace(self) -> bool:
        """Internal consistency: n_i must equal the number of vertices with
        r(v) >= i, and RoundSum must equal sum_i n_i (Equation 1)."""
        for i, n_i in enumerate(self.active_trace, start=1):
            if n_i != sum(1 for x in self.rounds if x >= i):
                return False
        return sum(self.active_trace) == self.round_sum

    def summary(self) -> str:
        return (
            f"n={self.n} avg={self.vertex_averaged:.3f} "
            f"worst={self.worst_case} roundsum={self.round_sum} "
            f"msgs={self.total_messages}"
        )


@dataclass(frozen=True)
class TimeMetrics:
    """Virtual-time accounting of one *asynchronous* execution.

    The timing pass (:func:`repro.runtime.async_sched.time_run`) delays
    every signal by a seeded per-edge link delay; a vertex's completion
    time t(v) is the virtual time at which it executed its final local
    round (its crash point, for adversary-crashed vertices).  Times are
    *normalized* to round-equivalents by ``1 + t / mean_delay`` so they
    are comparable with round counts: under the degenerate fixed
    unit-delay distribution the normalized completion time of a vertex on
    a critical chain equals its synchronous round count exactly (round 1
    executes at t = 0, hence the ``1 +``).

    ``output_times`` is the commit-definition analogue (Feuilloley's
    first definition): the time the vertex *fixed* its output, which is
    its commit time when the program called ``ctx.commit`` earlier.
    """

    #: virtual completion time per vertex, indexed by vertex
    times: tuple[float, ...]
    #: virtual time at which each vertex's output was fixed
    output_times: tuple[float, ...] = field(default=())
    #: mean link delay of the distribution the run used (normalization)
    mean_delay: float = 1.0

    @property
    def n(self) -> int:
        return len(self.times)

    def _normalize(self, ts: tuple[float, ...]) -> tuple[float, ...]:
        m = self.mean_delay or 1.0
        return tuple(1.0 + t / m for t in ts)

    # cached: each read would otherwise be a Python pass over all n times
    @cached_property
    def normalized_times(self) -> tuple[float, ...]:
        """Per-vertex completion times in round-equivalents."""
        return self._normalize(self.times)

    @cached_property
    def vertex_averaged_time(self) -> float:
        """T-bar over virtual time: mean normalized completion time."""
        if not self.times:
            return 0.0
        return sum(self.normalized_times) / len(self.times)

    @cached_property
    def worst_case_time(self) -> float:
        """Max normalized completion time (0.0 for the empty graph)."""
        return max(self.normalized_times, default=0.0)

    @cached_property
    def averaged_output_time(self) -> float:
        """Vertex-averaged normalized *output* time -- the asynchronous
        analogue of the commit-based averaged measure."""
        if not self.output_times:
            return self.vertex_averaged_time
        ts = self.output_times
        return sum(self._normalize(ts)) / len(ts)

    def summary(self) -> str:
        return (
            f"n={self.n} avg-time={self.vertex_averaged_time:.3f} "
            f"worst-time={self.worst_case_time:.3f} "
            f"avg-output-time={self.averaged_output_time:.3f} "
            f"(mean delay {self.mean_delay:g})"
        )


def merge_metrics(parts: list[RoundMetrics]) -> RoundMetrics:
    """Combine metrics of executions on disjoint vertex sets (used when an
    algorithm is run independently per connected component)."""
    rounds: list[int] = []
    depth = max((len(p.active_trace) for p in parts), default=0)
    active = [0] * depth
    msgs_depth = max((len(p.messages_per_round) for p in parts), default=0)
    msgs = [0] * msgs_depth
    for p in parts:
        rounds.extend(p.rounds)
        for i, x in enumerate(p.active_trace):
            active[i] += x
        for i, x in enumerate(p.messages_per_round):
            msgs[i] += x
    return RoundMetrics(tuple(rounds), tuple(active), tuple(msgs))
