"""Seeded, deterministic fault adversaries for the round engines.

The paper's vertex-averaged measure is a statement about graceful
degradation -- most vertices finish in O(1) rounds even when a few
stragglers run long -- and a fault adversary is the natural way to probe
it: crash-stop a few vertices, or drop/duplicate/delay messages, and ask
how the per-vertex termination behavior (the quantity Feuilloley [12] and
Balliu et al. study per node) responds.

The model
---------
* **Crash-stop** (:class:`CrashSpec`): a crashed vertex performs no
  computation from its crash round onward.  Unlike graceful termination it
  announces *nothing*: neighbors never see it in ``ctx.halted``, keep
  broadcasting to it, and may wait on it forever (which the engines'
  watchdog converts into a typed
  :class:`~repro.runtime.network.RoundLimitExceeded`).  Crashes are
  scheduled explicitly (``at``: vertex -> round) or drawn per active
  vertex per round with probability ``hazard``.
* **Message faults** (:class:`MessageFaults`): each routed copy is
  independently dropped, duplicated (one extra copy, delivered normally),
  or delayed by 1..``max_delay`` extra rounds.  Message faults apply to
  explicit ``ctx.send``/``broadcast`` traffic only; halt notices are part
  of the termination semantics and are never perturbed.

Determinism
-----------
Every fault decision is a pure function of ``(plan.seed, round, vertex)``
or ``(plan.seed, round, src, dst, k)``: a counter-based draw from
:mod:`repro.rng`, never shared-stream state.  A crash hazard is
``u01(seed, CRASH, round, v) < hazard``; the fates of message copy ``k``
are successive counters of the key ``(seed, MESSAGE, round, src, dst,
k)`` in a fixed order (drop, delay, delay length, duplicate).  The same
plan therefore produces bit-identical injections regardless of the
order, or the process, in which an engine evaluates them.  That is what
lets every engine replay the *same* faulted execution (enforced by
``tests/runtime/test_fault_equivalence.py``), and what lets the
columnar kernels draw a whole round at once through the vectorised
forms :meth:`CrashSpec.strikes_many` and :func:`drop_many`.

The injector boundary
---------------------
A :class:`FaultPlan` compiles into a :class:`FaultInjector`, the single
hook both engines drive at the deliver/route boundary:

* ``begin_run(emit)`` -- a new engine execution starts: in-flight delayed
  messages are discarded, already-crashed vertices (from earlier runs in
  the same session: crash-stop persists across algorithm phases) are
  reported so the engine removes them before round 1;
* ``on_round(rnd, active)`` -- the round begins: returns the vertices to
  crash now and the delayed messages due for delivery this round;
* ``fate(rnd, src, dst)`` -- called per routed copy from
  :meth:`repro.runtime.context.Context.send`/``broadcast`` (shared by
  both engines): returns the extra-delay values of the copies to route.

Each injection emits a typed ``fault_*`` event on the run's
:class:`~repro.obs.events.EventBus`, so traces and ``repro inspect`` show
exactly what was injected.  The run session
(:func:`repro.runtime.session.session`) carries the injector: ``faults=``
takes a plan, compiled once when the session is entered, or a live
injector.  An injector is stateful (crashed set, delay buffer): never
share one between two engine runs you want to compare -- give each its
own session over the *plan*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Any, Mapping

import numpy as np

from repro import rng
from repro.obs.events import FaultCrash, FaultDelay, FaultDrop, FaultDup


#: fixed counter slots of one message-fate key, in the documented draw
#: order: drop, then delay (and its length), then duplicate
_DROP, _DELAY, _DELAY_LEN, _DUP = range(4)


@lru_cache(maxsize=1024)
def _msg_prefix(seed: int, rnd: int) -> int:
    """The message stream's hash state for one (plan, round)."""
    return rng.hash64(seed, rng.MESSAGE, rnd)


def message_fates(
    mf: "MessageFaults", seed: int, rnd: int, src: int, dst: int, k: int
) -> tuple[int, ...]:
    """The full counter-based fate draw for one routed copy, as a pure
    function: the extra-delay values of the copies to route.

    ``()`` is a drop, ``(0,)`` normal delivery, ``(d,)`` a delay by ``d``
    extra rounds, ``(0, 0)``/``(d, 0)`` a duplication.  This is the draw
    :meth:`FaultInjector.fate` makes, factored out so an executor that
    evaluates fates outside an injector (the event-queue oracle of the
    test suite, where ``rnd`` is the sender's *local* round) replays the
    identical fault stream.  The draws are
    successive counters of one key ``(seed, MESSAGE, rnd, src, dst, k)``
    in a fixed order: drop, then delay, then its length, then duplicate.
    This order is part of the determinism contract; do not reorder.
    """
    h = rng.fold(_msg_prefix(seed, rnd), src, dst, k)
    if mf.drop and rng.to_u01(rng.fold(h, _DROP)) < mf.drop:
        return ()
    fates: tuple[int, ...] = (0,)
    if mf.delay and rng.to_u01(rng.fold(h, _DELAY)) < mf.delay:
        fates = (1 + int(rng.to_u01(rng.fold(h, _DELAY_LEN)) * mf.max_delay),)
    if mf.duplicate and rng.to_u01(rng.fold(h, _DUP)) < mf.duplicate:
        fates = fates + (0,)
    return fates


def drop_fate(seed: int, rnd: int, src: int, dst: int, k: int, drop: float) -> bool:
    """The counter-based drop draw: is copy ``k`` of ``src -> dst`` in
    session round ``rnd`` dropped?

    Pure function of its arguments -- the same draw
    :meth:`FaultInjector.fate` makes first -- so the columnar kernels,
    which evaluate a whole round's message fates at once and possibly
    in a different order, reproduce the identical drop stream.
    :func:`drop_many` is its vectorised form.
    """
    h = rng.fold(_msg_prefix(seed, rnd), src, dst, k, _DROP)
    return rng.to_u01(h) < drop


def drop_many(
    seed: int, rnd: int, src: np.ndarray, dst: np.ndarray, k, drop: float
) -> np.ndarray:
    """Vectorised :func:`drop_fate`: the drop mask of copies ``k``
    (an int or an array) of ``src[i] -> dst[i]`` sent in round ``rnd``."""
    return rng.u01_many(seed, rng.MESSAGE, rnd, src, dst, k, _DROP) < drop


@dataclass(frozen=True)
class CrashSpec:
    """Crash-stop schedule: explicit per-vertex rounds plus a hazard rate.

    ``at`` maps vertex -> earliest round at which it crashes (it crashes
    in the first round >= that in which it is still active).  ``hazard``
    is an independent per-active-vertex, per-round crash probability.
    """

    at: Mapping[int, int] = field(default_factory=dict)
    hazard: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.hazard <= 1.0:
            raise ValueError(f"hazard must be a probability, got {self.hazard}")
        for v, r in self.at.items():
            if r < 1:
                raise ValueError(f"crash round for vertex {v} must be >= 1, got {r}")

    @property
    def active(self) -> bool:
        return bool(self.at) or self.hazard > 0.0

    def strikes(self, seed: int, rnd: int, v: int) -> bool:
        """Does vertex ``v`` (still active) crash in round ``rnd``?"""
        at = self.at.get(v)
        if at is not None and rnd >= at:
            return True
        if self.hazard:
            return rng.u01(seed, rng.CRASH, rnd, v) < self.hazard
        return False

    @cached_property
    def _at_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        vs = np.array(sorted(self.at), dtype=np.int64)
        return vs, np.array([self.at[v] for v in vs.tolist()], dtype=np.int64)

    def strikes_many(self, seed: int, rnd: int, vs: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`strikes`: the crash mask of the (still
        active) vertices ``vs`` in round ``rnd``."""
        vs = np.asarray(vs, dtype=np.int64)
        hit = np.zeros(vs.size, dtype=bool)
        if self.at and vs.size:
            keys, rounds = self._at_arrays
            pos = np.minimum(np.searchsorted(keys, vs), keys.size - 1)
            hit = (keys[pos] == vs) & (rounds[pos] <= rnd)
        if self.hazard:
            hit |= rng.u01_many(seed, rng.CRASH, rnd, vs) < self.hazard
        return hit


@dataclass(frozen=True)
class MessageFaults:
    """Per-copy network misbehavior probabilities.

    ``drop``, ``duplicate`` and ``delay`` are independent probabilities;
    a delayed copy arrives 1..``max_delay`` rounds later than normal, a
    duplicated copy adds one extra normally-delivered copy (even when the
    original was delayed).
    """

    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    max_delay: int = 3

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "delay"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")
        if self.max_delay < 1:
            raise ValueError(f"max_delay must be >= 1, got {self.max_delay}")

    @property
    def active(self) -> bool:
        return bool(self.drop or self.duplicate or self.delay)


@dataclass(frozen=True)
class FaultPlan:
    """A composable, seeded description of what the adversary does.

    The plan is pure data: it serialises losslessly via
    :meth:`to_dict`/:meth:`from_dict` (the fuzz artifacts), and compiles
    into a fresh stateful :class:`FaultInjector` per session via
    :meth:`injector`.
    """

    seed: int = 0
    crashes: CrashSpec | None = None
    messages: MessageFaults | None = None

    @property
    def empty(self) -> bool:
        """True when the plan injects nothing (the null adversary)."""
        return not (
            (self.crashes is not None and self.crashes.active)
            or (self.messages is not None and self.messages.active)
        )

    def injector(self) -> "FaultInjector":
        return FaultInjector(self)

    # -- serialisation (fuzz artifacts) --------------------------------
    def to_dict(self) -> dict[str, Any]:
        rec: dict[str, Any] = {"seed": self.seed}
        if self.crashes is not None:
            rec["crashes"] = {
                "at": {str(v): r for v, r in sorted(self.crashes.at.items())},
                "hazard": self.crashes.hazard,
            }
        if self.messages is not None:
            m = self.messages
            rec["messages"] = {
                "drop": m.drop,
                "duplicate": m.duplicate,
                "delay": m.delay,
                "max_delay": m.max_delay,
            }
        return rec

    @classmethod
    def from_dict(cls, rec: Mapping[str, Any]) -> "FaultPlan":
        crashes = None
        if rec.get("crashes") is not None:
            c = rec["crashes"]
            crashes = CrashSpec(
                at={int(v): int(r) for v, r in c.get("at", {}).items()},
                hazard=float(c.get("hazard", 0.0)),
            )
        messages = None
        if rec.get("messages") is not None:
            m = rec["messages"]
            messages = MessageFaults(
                drop=float(m.get("drop", 0.0)),
                duplicate=float(m.get("duplicate", 0.0)),
                delay=float(m.get("delay", 0.0)),
                max_delay=int(m.get("max_delay", 3)),
            )
        return cls(seed=int(rec.get("seed", 0)), crashes=crashes, messages=messages)

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        if self.crashes is not None and self.crashes.active:
            c = self.crashes
            if c.at:
                parts.append(
                    "crash@{" + ", ".join(f"{v}:r{r}" for v, r in sorted(c.at.items())) + "}"
                )
            if c.hazard:
                parts.append(f"hazard={c.hazard:g}")
        if self.messages is not None and self.messages.active:
            m = self.messages
            parts.append(
                f"drop={m.drop:g} dup={m.duplicate:g} "
                f"delay={m.delay:g}(<= {m.max_delay})"
            )
        if len(parts) == 1:
            parts.append("no faults")
        return " ".join(parts)


class FaultInjector:
    """Compiled, stateful adversary: the hook both engines drive.

    State spans a *session*: the round counter and the crashed set persist
    across consecutive engine runs (multi-phase algorithm drivers), so a
    vertex crashed in phase 1 stays crashed in phase 2.  Rounds named in
    the plan refer to this session-wide counter; for a single engine run
    it coincides with the engine's round number.
    """

    __slots__ = (
        "plan",
        "crashed",
        "messages_active",
        "_round",
        "_held",
        "_pair_k",
        "_delayed_sent",
        "_emit",
    )

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        #: vertices crashed so far in this session (monotone)
        self.crashed: set[int] = set()
        self.messages_active = plan.messages is not None and plan.messages.active
        self._round = 0
        #: session round -> [(src, dst, payload)] delayed copies due then
        self._held: dict[int, list[tuple[int, int, Any]]] = {}
        #: per-round (src, dst) -> next copy index, for counter-based draws
        self._pair_k: dict[tuple[int, int], int] = {}
        #: delayed copies sent (held) this round, for traffic accounting
        self._delayed_sent = 0
        self._emit = None

    # -- engine boundary ------------------------------------------------
    def begin_run(self, emit) -> frozenset[int]:
        """A new engine execution starts.

        In-flight delayed messages die with the previous network; the
        returned set is the vertices already crashed in earlier runs of
        this session, which the engine removes before round 1.
        """
        self._held.clear()
        self._pair_k.clear()
        self._delayed_sent = 0
        self._emit = emit
        return frozenset(self.crashed)

    def on_round(
        self, rnd: int, active: list[int]
    ) -> tuple[list[int], list[tuple[int, int, Any]]]:
        """The deliver boundary of one round.

        Advances the session round counter and returns ``(crashes, due)``:
        the still-active vertices that crash *now* (they perform no
        computation this round) and the delayed ``(src, dst, payload)``
        copies whose delivery round has arrived (already filtered of
        crashed receivers; the engine filters terminated ones).
        """
        self._round += 1
        srnd = self._round
        self._pair_k.clear()
        self._delayed_sent = 0
        crashes: list[int] = []
        spec = self.plan.crashes
        if spec is not None and spec.active:
            seed = self.plan.seed
            emit = self._emit
            for v in active:
                if spec.strikes(seed, srnd, v):
                    crashes.append(v)
                    self.crashed.add(v)
                    if emit is not None:
                        emit(FaultCrash(rnd, v))
        due = self._held.pop(srnd, None)
        if not due:
            return crashes, []
        if self.crashed:
            due = [(s, d, p) for (s, d, p) in due if d not in self.crashed]
        return crashes, due

    def absorb_rounds(self, rounds: int, crashed) -> None:
        """Fold a bulk execution's outcome into the session state.

        The fault-aware bulk kernels evaluate the adversary's pure draws
        themselves instead of driving :meth:`on_round`/:meth:`fate`;
        afterwards the driver advances the session round counter by the
        rounds the run consumed and records who crashed, so a later run
        in the same fault session sees the identical adversary state a
        generator-engine run would have left behind.
        """
        self._round += rounds
        self.crashed.update(crashed)

    def take_delayed_count(self) -> int:
        """Copies held for later delivery this round (they left their
        senders, so they count as this round's traffic)."""
        return self._delayed_sent

    # -- route boundary (driven from Context.send/broadcast) ------------
    def fate(self, rnd: int, src: int, dst: int) -> tuple[int, ...]:
        """Decide what happens to one routed copy.

        Returns the extra-delay values of the copies to route: ``(0,)``
        is normal delivery, ``()`` a drop, ``(d,)`` a delay by ``d``
        extra rounds, ``(0, 0)``/``(d, 0)`` a duplication.  Pure function
        of ``(plan.seed, session round, src, dst, copy index)``.  A live
        bus hears ``fault_drop`` for a drop, else ``fault_delay`` for a
        delayed first copy and ``fault_dup`` for a duplicate, in that
        order; normal delivery narrates nothing.
        """
        mf = self.plan.messages
        key = (src, dst)
        k = self._pair_k.get(key, 0)
        self._pair_k[key] = k + 1
        fates = message_fates(mf, self.plan.seed, self._round, src, dst, k)
        emit = self._emit
        if emit is not None:
            if not fates:
                emit(FaultDrop(rnd, src, dst))
            else:
                if fates[0]:
                    emit(FaultDelay(rnd, src, dst, fates[0]))
                if len(fates) > 1:
                    emit(FaultDup(rnd, src, dst))
        return fates

    def hold(self, extra: int, src: int, dst: int, payload: Any) -> None:
        """Buffer a delayed copy for delivery ``extra`` rounds late."""
        self._held.setdefault(self._round + 1 + extra, []).append(
            (src, dst, payload)
        )
        self._delayed_sent += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultInjector({self.plan.describe()}, round={self._round}, "
            f"crashed={sorted(self.crashed)})"
        )
