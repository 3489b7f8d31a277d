"""Wall-clock phase profiling for the round engines.

:class:`PhaseProfiler` accumulates seconds per named phase.  The
generator engines time three sections of every round when a profiler
rides on the bus (``EventBus(..., profiler=PhaseProfiler())``):

* ``deliver`` -- fanning out last round's termination notices into the
  receivers' ``ctx.halted`` (and, in the fast engine, building the wake
  list);
* ``step`` -- advancing the vertex generators.  The fast engine routes
  messages *inside* this section (at ``ctx.send`` time), the reference
  engine routes ``_outgoing`` batches here too, so ``step`` is the bulk
  of both engines' work;
* ``route`` -- end-of-round bookkeeping: dropping mail addressed to
  vertices that terminated this round, and rotating (fast) or swapping
  (reference) the mail buffers.

The columnar bulk engine times ``kernel`` (its vectorized round loop)
and ``finalize`` (deriving events and metrics from the final arrays),
via :func:`repro.runtime.bulk.profiled`.

Profiling is independent of event emission: a profiler on a bus whose
only sink is a :class:`~repro.obs.sinks.NullSink` still collects timings
while the event machinery stays disabled.  The per-round cost is six
``perf_counter`` calls, which is why the hooks are per-round, not
per-vertex.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

class PhaseProfiler:
    """Accumulate wall-clock seconds (and hit counts) per phase."""

    __slots__ = ("seconds", "counts")

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    def add(self, phase: str, dt: float) -> None:
        """Record ``dt`` seconds spent in ``phase`` (one hit)."""
        self.seconds[phase] = self.seconds.get(phase, 0.0) + dt
        self.counts[phase] = self.counts.get(phase, 0) + 1

    @contextmanager
    def section(self, phase: str):
        """Context-manager convenience for non-hot-path call sites."""
        t0 = perf_counter()
        try:
            yield
        finally:
            self.add(phase, perf_counter() - t0)

    def total(self) -> float:
        return sum(self.seconds.values())

    def as_dict(self) -> dict[str, dict[str, float]]:
        """``{phase: {"seconds": s, "count": k, "share": s/total}}``."""
        total = self.total()
        return {
            phase: {
                "seconds": secs,
                "count": self.counts.get(phase, 0),
                "share": (secs / total) if total else 0.0,
            }
            for phase, secs in self.seconds.items()
        }

    def full_dict(self) -> dict:
        """Manifest-friendly snapshot: ``{"total_s", "phases": as_dict()}``
        (:meth:`as_dict`'s shape is pinned by callers, so the manifest
        nests it)."""
        return {"total_s": self.total(), "phases": self.as_dict()}

    def report(self) -> str:
        """A small aligned table of phase timings, largest first."""
        if not self.seconds:
            return "no phases recorded"
        total = self.total()
        lines = [f"{'phase':<10} {'seconds':>10} {'rounds':>8} {'share':>7}"]
        for phase, secs in sorted(self.seconds.items(), key=lambda kv: -kv[1]):
            share = (secs / total * 100.0) if total else 0.0
            lines.append(
                f"{phase:<10} {secs:>10.4f} "
                f"{self.counts.get(phase, 0):>8} {share:>6.1f}%"
            )
        lines.append(f"{'total':<10} {total:>10.4f}")
        return "\n".join(lines)

    def reset(self) -> None:
        self.seconds.clear()
        self.counts.clear()
