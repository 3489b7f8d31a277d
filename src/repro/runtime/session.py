"""The run session: every process-wide setting of an execution, in one place.

The paper's object is one synchronous LOCAL execution and its per-vertex
round counts.  Which engine simulates it, whether an asynchronous timing
pass follows, who observes it and which adversary attacks it are
settings of that run, not of the algorithm.  Algorithm drivers build
their networks internally, so callers cannot hand those settings to
``SyncNetwork.run``; they ride the process-wide :class:`RunSession`
instead::

    from repro.runtime.session import session

    with session(engine="reference", mode="async", delays=DelaySpec("exp"),
                 bus=EventBus(MemorySink()), faults=plan):
        repro.run_partition(g, a=3)

:func:`session` enters a new session for the ``with`` body and restores
the enclosing one on exit (also when the body raises).  A nested
session inherits every field it does not set.  :func:`current` is the
one reader: the engines, the barrier scheduler, the timing pass and the
bulk kernels resolve the session once per run through it.

The session is plain module state, not a thread-local: enter it from
the driving thread before fanning out work.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:
    from repro.faults.plan import FaultInjector
    from repro.obs.events import EventBus
    from repro.runtime.async_sched import DelaySpec

__all__ = ["ENGINES", "MODES", "RunSession", "current", "session"]

#: the selectable round engines: the throughput-optimised fast path, the
#: executable-specification reference implementation, and the columnar
#: bulk engine (numpy arrays over the CSR view; only algorithms with a
#: registered bulk driver can run on it -- see :mod:`repro.runtime.bulk`)
ENGINES = ("fast", "reference", "bulk")

#: the selectable execution modes: the synchronous global-round barrier
#: and asynchrony under seeded per-edge link delays (the same run plus
#: virtual times -- see :mod:`repro.runtime.async_sched`)
MODES = ("sync", "async")


@dataclass(frozen=True)
class RunSession:
    """The settings every run inside a :func:`session` body uses.

    ``engine`` selects the round engine; both generator engines produce
    bit-identical results, so it changes *how* rounds are simulated,
    never what they compute.  In ``mode="async"`` every run ends with
    the timing pass (:func:`repro.runtime.async_sched.time_run`) under
    the link-delay model ``delays`` (``None`` = fixed unit delays); a
    sync session carries no delays.  ``bus`` is the
    :class:`~repro.obs.events.EventBus` the engines narrate to and whose
    profiler they time phases with.  ``injector`` is the live
    :class:`~repro.faults.plan.FaultInjector`: its crash set and round
    counter span every run of the session, so the phases of a
    multi-phase driver see one consistent adversary.
    """

    engine: str = "fast"
    mode: str = "sync"
    delays: DelaySpec | None = None
    bus: EventBus | None = None
    injector: FaultInjector | None = None

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.mode == "sync" and self.delays is not None:
            raise ValueError(
                "delays is an async-mode parameter; sync runs have no "
                "link-delay model"
            )


_current = RunSession()


def current() -> RunSession:
    """The session new runs use (the defaults outside any ``with``)."""
    return _current


#: marks a field a :func:`session` call leaves to the enclosing session
_INHERIT: Any = object()


@contextmanager
def session(
    *,
    engine: str = _INHERIT,
    mode: str = _INHERIT,
    delays=_INHERIT,
    bus=_INHERIT,
    faults=_INHERIT,
) -> Iterator[RunSession]:
    """Run the ``with`` body under the enclosing session with the given
    fields replaced; yields the new :class:`RunSession`.

    ``faults`` takes a :class:`~repro.faults.plan.FaultPlan`, compiled
    into one injector here (an empty plan means no adversary), a live
    :class:`~repro.faults.plan.FaultInjector`, used as is, or ``None``.
    A session that sets ``mode="sync"`` drops inherited delays; passing
    ``delays`` with a sync mode, or an unknown engine or mode, raises
    ``ValueError``.
    """
    global _current
    given = {"engine": engine, "mode": mode, "delays": delays, "bus": bus}
    fields = {k: v for k, v in given.items() if v is not _INHERIT}
    if faults is not _INHERIT:
        from repro.faults.plan import FaultPlan

        if isinstance(faults, FaultPlan):
            faults = None if faults.empty else faults.injector()
        fields["injector"] = faults
    if fields.get("mode") == "sync" and "delays" not in fields:
        fields["delays"] = None
    previous = _current
    _current = replace(previous, **fields)
    try:
        yield _current
    finally:
        _current = previous
