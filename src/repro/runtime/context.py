"""Per-vertex execution context.

A :class:`Context` is the whole world as seen by one processor: its own
identifier, its incident communication links, the messages delivered this
round, the final outputs announced by already-terminated neighbors, and the
common knowledge every vertex starts with (``n``, the arboricity ``a``, the
ID-space bound -- whatever the algorithm driver places in ``config``).

Knowledge model: vertices know their own ID, the IDs at the other end of
their links (``neighbor_ids``, the KT1 assumption the paper's "orient the
edge towards the higher ID immediately upon formation of the H-set" steps
require), and global parameters that are deterministic functions of the
problem instance.

Two routing regimes
-------------------
A context can run *wired* or *unwired*.  The fast engine
(:class:`repro.runtime.network.SyncNetwork`) wires each context to a shared
:class:`RouterState`: ``send``/``broadcast`` then deliver straight into the
engine's pooled per-vertex mail slots (a broadcast allocates one
``(sender, payload)`` tuple and appends it to every active neighbor's
slot, and the receiver reads that slot in place as ``ctx.mail``).
Unwired contexts -- as driven by
:class:`repro.runtime.reference.ReferenceSyncNetwork`, the executable
specification of the round semantics -- fall back to accumulating
``(target, payload)`` tuples in ``_outgoing`` for the engine to route.
Both regimes share one routing path (``_route``) and the same targets:
the neighbors not in ``ctx.halted``, in neighbor order.  They produce
bit-identical executions; the differential tests in
``tests/runtime/test_equivalence.py`` enforce it.

Reading the round's messages
----------------------------
``ctx.mail`` is the read path: the round's messages as ``(sender,
payload)`` pairs in delivery order.  The fast engine hands over its
pooled slot unchanged, and the reference engine flattens its per-round
dict.
``ctx.inbox`` is the same mail grouped by sender (``sender -> list of
payloads``), built lazily on first access, for the few programs that
need per-sender grouping or a processing order that does not depend on
the engine.

Delivery order is the same on every engine except in one case: a
sender's normal copy and an adversary-delayed copy (:mod:`repro.faults`)
arriving in the same round.  ``ctx.mail`` on the fast engine lists
every delayed copy after all normal ones, while grouping
(and so the reference engine's flattened mail) puts it next to its
sender's normal copies.  Per sender, both orders agree.

Both views are valid only for the round they were delivered in: the
engines' mail buffers are pooled, so programs must not keep the list, or
assume messages remain observable in later rounds.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from repro.obs.events import Broadcast as _BroadcastEvent
from repro.obs.events import Commit as _CommitEvent
from repro.obs.events import Send as _SendEvent
from repro.rng import VertexRng


class RouterState:
    """Shared per-run routing state the engine wires into every context.

    ``slots_next`` holds one mail list per vertex (messages for the *next*
    round, as ``(sender, payload)`` tuples), ``dirty`` the receivers whose
    slot went from empty to non-empty this round (so each receiver is
    listed once), and ``msgs`` the running message count for the current
    round.
    """

    __slots__ = ("slots_next", "dirty", "msgs")

    def __init__(self) -> None:
        self.slots_next: list[list[tuple[int, Any]]] = []
        self.dirty: list[int] = []
        self.msgs = 0


class Shared(NamedTuple):
    """What every context of one run shares, handed to each
    :class:`Context` as one object: the common knowledge (``n``, the
    config, the network seed, the ID assignment ``neighbor_ids`` is read
    from) and the run's wiring (the engine's router, the live event bus,
    an injector with message faults; None leaves each unwired)."""

    n: int
    config: Mapping[str, Any]
    seed: int
    ids: Sequence[int]
    router: "RouterState | None" = None
    bus: Any = None
    faults: Any = None


_EMPTY_FROZENSET: frozenset[int] = frozenset()


class _Wait:
    """The type of :data:`WAIT` (one instance; it compares by identity)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "WAIT"


#: ``yield WAIT`` ends the round like a bare ``yield`` and promises that
#: resuming this vertex in a round with an empty inbox and no new halt
#: notice would change nothing and just yield again.  The fast engine
#: then keeps the vertex active (it is still charged every round) but
#: leaves it off its wake list, not touching it at all, until mail or a
#: halt notice arrives, so its per-round cost follows woken vertices,
#: not active ones; the reference engine steps it anyway.
WAIT = _Wait()


class Context:
    """The local state and communication interface of one vertex."""

    __slots__ = (
        "v",
        "id",
        "neighbors",
        "_neighbor_set",
        "_neighbor_ids",
        "n",
        "config",
        "halted",
        "newly_halted",
        "_targets",
        "_targets_at",
        "_rng",
        "_mail",
        "_inbox_d",
        "_round",
        "_outgoing",
        "_commit_round",
        "_commit_value",
        "_router",
        "_bus",
        "_faults",
        "_ids",
    )

    def __init__(
        self,
        v: int,
        vid: int,
        neighbors: tuple[int, ...],
        neighbor_set: frozenset[int],
        shared: Shared,
    ) -> None:
        self.v = v
        self.id = vid
        self.neighbors = neighbors
        #: ``neighbors`` as a set: ``send``'s O(1) neighbor test
        self._neighbor_set = neighbor_set
        #: built from ``_ids`` on first read of :attr:`neighbor_ids`
        self._neighbor_ids: dict[int, int] | None = None
        # ``_rng`` holds the network seed; ``ctx.rng`` keys a VertexRng
        # with it lazily on first use (most deterministic programs never
        # touch it).  The router, bus and injector are None when unwired.
        (
            self.n,
            self.config,
            self._rng,
            self._ids,
            self._router,
            self._bus,
            self._faults,
        ) = shared
        #: final outputs of terminated neighbors (accumulated); also the
        #: one record of which neighbors ``send``/``broadcast`` skip
        self.halted: dict[int, Any] = {}
        #: neighbors whose termination notice arrived this round
        self.newly_halted: frozenset[int] = _EMPTY_FROZENSET
        #: ``broadcast``'s targets, rebuilt when ``len(halted)`` moves
        #: off ``_targets_at`` (``halted`` only ever grows)
        self._targets = neighbors
        self._targets_at = 0
        self._mail: list[tuple[int, Any]] | None = None
        self._inbox_d: dict[int, list[Any]] | None = None
        self._round = 0
        self._outgoing: list[tuple[int, Any]] = []
        self._commit_round: int | None = None
        self._commit_value: Any = None

    # ------------------------------------------------------------------
    @property
    def neighbor_ids(self) -> dict[int, int]:
        """Neighbor vertex -> its ID (the KT1 knowledge), built on first
        read: a run pays for the dict only at the vertices that read it.
        Read it once into a local in a loop."""
        d = self._neighbor_ids
        if d is None:
            ids = self._ids
            d = self._neighbor_ids = {u: ids[u] for u in self.neighbors}
        return d

    @property
    def rng(self) -> VertexRng:
        """This vertex's private random source, keyed by ``(seed, id)``.

        Its k-th ``random()`` (k from 0) is ``repro.rng.u01(seed,
        VERTEX, id, k)`` and ``randrange(m)`` is ``int(random() * m)``;
        programs use only these two methods.
        """
        r = self._rng
        if type(r) is not VertexRng:
            r = self._rng = VertexRng(r, self.id)
        return r

    @property
    def mail(self) -> list[tuple[int, Any]]:
        """Messages delivered this round: ``(sender, payload)`` pairs in
        delivery order (see the module docstring).  Read it, do not keep
        or modify it."""
        m = self._mail
        if m is None:
            d = self._inbox_d
            m = self._mail = (
                [(u, p) for u, payloads in d.items() for p in payloads]
                if d
                else []
            )
        return m

    @property
    def inbox(self) -> dict[int, list[Any]]:
        """Messages delivered this round, grouped: sender -> list of
        payloads.

        Several messages from the same sender in one round are bundled in
        delivery order, senders in order of first appearance in
        :attr:`mail`.  The dict is built lazily from the mail on first
        access and cached for the rest of the round.
        """
        d = self._inbox_d
        if d is None:
            d = {}
            mail = self._mail
            if mail:
                for u, payload in mail:
                    lst = d.get(u)
                    if lst is None:
                        d[u] = [payload]
                    else:
                        lst.append(payload)
            self._inbox_d = d
        return d

    @inbox.setter
    def inbox(self, value: dict[int, list[Any]]) -> None:
        self._inbox_d = value
        self._mail = None

    @property
    def round(self) -> int:
        """The current communication round (1-based)."""
        return self._round

    @property
    def degree(self) -> int:
        return len(self.neighbors)

    def active_neighbors(self) -> list[int]:
        """Neighbors that have not terminated yet (in neighbor order)."""
        halted = self.halted
        return [u for u in self.neighbors if u not in halted]

    def active_degree(self) -> int:
        """The number of not-yet-terminated neighbors."""
        return len(self.neighbors) - len(self.halted)

    # ------------------------------------------------------------------
    def commit(self, value: Any) -> None:
        """Fix the final output *now* while continuing to participate.

        This is Feuilloley's first running-time definition (paper §2): a
        vertex chooses its output after some rounds, may keep transmitting
        and relaying afterwards, but can never change the output.  The
        engine records the commit round separately from the termination
        round; :class:`RunResult.output_metrics` averages commit times.
        A second commit, or committing a different value than eventually
        returned, is an error.
        """
        if self._commit_round is not None:
            raise RuntimeError(f"vertex {self.v} committed its output twice")
        self._commit_round = self._round
        self._commit_value = value
        b = self._bus
        if b is not None:
            b.emit(_CommitEvent(self._round, self.v))

    @property
    def committed(self) -> bool:
        return self._commit_round is not None

    # ------------------------------------------------------------------
    def send(self, u: int, payload: Any) -> None:
        """Send ``payload`` to neighbor ``u``; delivered next round.

        Sending to a non-neighbor is a model violation and raises.  Sends
        to already-terminated neighbors are silently dropped, matching the
        model: a terminated processor performs no further communication.
        """
        if u not in self._neighbor_set:
            raise ValueError(
                f"vertex {self.v} tried to message non-neighbor {u}: "
                "communication must follow the graph's links"
            )
        if u in self.halted:
            return
        b = self._bus
        if b is not None:
            b.emit(_SendEvent(self._round, self.v, u))
        self._route((u,), payload)

    def send_many(self, targets: Iterable[int], payload: Any) -> None:
        for u in targets:
            self.send(u, payload)

    def broadcast(self, payload: Any) -> None:
        """Send ``payload`` to every active neighbor."""
        halted = self.halted
        if not halted:
            targets = self.neighbors
        else:
            if len(halted) != self._targets_at:
                self._targets = [u for u in self.neighbors if u not in halted]
                self._targets_at = len(halted)
            targets = self._targets
        if not targets:
            return
        b = self._bus
        if b is not None:
            # the broadcast *intent*: per-copy deviations are narrated
            # by the injector's fault_* events
            b.emit(_BroadcastEvent(self._round, self.v, len(targets)))
        self._route(targets, payload)

    def _route(self, targets, payload: Any) -> None:
        """Route one copy of ``payload`` to each of ``targets``, in order.

        The fault adversary, when wired, decides each copy's fate first:
        dropped, held for late delivery, or duplicated.  The copies left
        go into the pooled slots (wired: one shared ``(sender, payload)``
        tuple per receiver) or onto ``_outgoing`` (unwired).
        """
        fi = self._faults
        if fi is not None:
            rnd, v = self._round, self.v
            normal = []
            for u in targets:
                for d in fi.fate(rnd, v, u):
                    if d:
                        fi.hold(d, v, u, payload)
                    else:
                        normal.append(u)
            targets = normal
        rt = self._router
        if rt is None:
            self._outgoing.extend([(u, payload) for u in targets])
            return
        t = (self.v, payload)
        slots = rt.slots_next
        dirty = rt.dirty
        for u in targets:
            slot = slots[u]
            if not slot:
                dirty.append(u)
            slot.append(t)
        rt.msgs += len(targets)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Context(v={self.v}, id={self.id}, round={self._round})"
