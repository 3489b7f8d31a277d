"""Asynchrony as a timing pass over the synchronous run.

Without a global round, a vertex runs its local round ``r`` once the
round-``r - 1`` signals of every neighbor it still expects one from have
arrived, each after a seeded per-edge link delay (:class:`DelaySpec`).
That is the alpha-synchronizer: every vertex sees the barrier's inboxes,
so outputs, rounds, commit rounds, traffic and crash sets equal the
synchronous run's, and the virtual times depend only on when each vertex
stops signalling.  An async session (``session(mode="async")``)
therefore runs the selected engine's synchronous run and then
:func:`time_run`, one numpy pass over the CSR arcs per round, which
fills ``RunResult.times``.  The argument
is spelled out in ``docs/model.md``; the event-queue executor the pass
replaced is the test suite's oracle (``tests/runtime/async_oracle.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from repro import rng
from repro.runtime.metrics import TimeMetrics
from repro.runtime.session import current

__all__ = ["DELAY_DISTS", "DelaySpec", "time_run"]

#: the supported link-delay distributions
DELAY_DISTS = ("fixed", "uniform", "exp")

#: arcs per chunk of the timing pass: bounds each round's delay draws
#: (a Python float per arc for ``exp``) to a few MB
_CHUNK = 1 << 18


@dataclass(frozen=True)
class DelaySpec:
    """Seeded per-edge link-delay model.

    The round-``r`` signal on directed edge ``src -> dst`` is delayed by
    an independent draw ``u = repro.rng.u01(seed, DELAY, src, dst, r)``
    -- a pure function, so the delay assignment is reproducible and
    independent of evaluation order:

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
        """The delay of the round-``rnd`` signal on edge ``src -> dst``."""
        if self.dist == "fixed":
            return self.scale
        u = rng.u01(self.seed, rng.DELAY, src, dst, rnd)
        if self.dist == "uniform":
            return self.scale * (0.5 + u)
        return -math.log(1.0 - u) * self.scale

    def arc_draw(self, src, dst) -> Callable[[Any, int], np.ndarray]:
        """:meth:`draw` over a fixed list of arcs, vectorised:
        ``arc_draw(src, dst)(idx, rnd)[j] == draw(src[i], dst[i], rnd)``
        bit for bit, where ``i = arange(len(src))[idx][j]`` (``idx`` is
        anything that indexes an array).

        ``src`` and ``dst`` are integer arrays.  The hash prefix
        ``fold(0, seed, DELAY, src[i], dst[i])`` is computed for every
        arc at once, so each call folds only its round.  ``exp`` takes
        each logarithm with the scalar ``math.log``: ``np.log`` differs
        from it in the last ulp on some inputs.
        """
        scale = self.scale
        if self.dist == "fixed":
            col = np.full(len(src), scale)
            return lambda idx, rnd: col[idx]
        pre = rng.hash64_many(self.seed, rng.DELAY, src, dst)

        def u01(idx, rnd):
            return rng.to_u01_many(rng.fold_many(pre[idx], rnd))

        if self.dist == "uniform":
            return lambda idx, rnd: scale * (0.5 + u01(idx, rnd))
        log = math.log

        def exp(idx, rnd):
            x = (1.0 - u01(idx, rnd)).tolist()
            return -np.fromiter(map(log, x), np.float64, len(x)) * scale

        return exp

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


def time_run(graph, last, commit=None) -> TimeMetrics:
    """The virtual times of a finished run under seeded link delays.

    ``last[v]`` is the last round in which ``v`` signals its neighbors:
    its termination round, or ``c`` when the adversary crashed it at the
    start of round ``c`` (the crash marker counts once, at ``c``), or 0
    when it never started (crashed in an earlier run of the fault
    session; nobody waits on it).  ``commit[v]`` is its commit round, 0
    or ``None`` when it never committed.  With ``d(u, v, s)`` the round-``s`` delay
    on arc ``u -> v``, the time ``v`` runs its local round ``r`` is

        T(v, 1) = 0
        T(v, r) = max(T(v, r-1), max over neighbors u with last[u] >= r-1
                                 of T(u, r-1) + d(u, v, r-1))

    for ``r <= last[v]``; ``times[v] = T(v, last[v])`` and
    ``output_times[v]`` is ``T(v, commit[v])`` for a vertex that
    committed, ``times[v]`` otherwise.  The delays are the current
    session's, fixed unit delays when it has none.
    """
    delays = current().delays or DelaySpec()
    n = graph.n
    last = np.asarray(last, dtype=np.int64)
    offsets, indices = graph.csr(dtype="auto")
    src = np.repeat(np.arange(n, dtype=indices.dtype), np.diff(offsets))
    # arc u -> v carries a signal v waits on in rounds 1 .. horizon
    horizon = np.minimum(last[src], last[indices] - 1)
    arcs = np.flatnonzero(horizon > 0)
    arcs = arcs[np.argsort(-horizon[arcs])]
    horizon = horizon[arcs]
    # the arcs live at round s are a prefix: live[s] of them
    live = np.cumsum(np.bincount(horizon, minlength=2)[::-1])[::-1]
    src, dst = src[arcs], indices[arcs]
    del arcs, horizon
    delay = delays.arc_draw(src, dst)

    by_commit: dict[int, list[int]] = {}
    if commit is not None:
        for v, c in enumerate(commit):
            if c:
                by_commit.setdefault(c, []).append(v)
    t = np.zeros(n)
    committed = []
    for s in range(1, max(live.size - 1, max(by_commit, default=0)) + 1):
        vs = by_commit.get(s)
        if vs:
            committed.append((vs, t[vs]))
        k = int(live[s]) if s < live.size else 0
        if k:
            # in chunks, which bound the scratch; every chunk reads this
            # round's times, so the maxima go to a copy
            nxt = t.copy()
            for lo in range(0, k, _CHUNK):
                at = slice(lo, min(lo + _CHUNK, k))
                np.maximum.at(nxt, dst[at], t[src[at]] + delay(at, s))
            t = nxt
    times = tuple(t.tolist())
    output_times = times
    if committed:
        for vs, at in committed:
            t[vs] = at
        output_times = tuple(t.tolist())
    return TimeMetrics(
        times=times, output_times=output_times, mean_delay=delays.mean_delay
    )
