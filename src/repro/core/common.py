"""Shared plumbing for the distributed vertex programs.

All messages are ``(tag, payload)`` tuples; :class:`LocalView` is the
per-vertex message pump that folds every delivered message into tag-indexed
state, so that a sequential vertex program can absorb announcements arriving
from neighbors that are in *other* phases of a composed algorithm.
"""

from __future__ import annotations

from math import ceil, log
from typing import Any, Iterable

from repro.runtime.context import WAIT, Context

# Message tags used across the core algorithms.
JOIN = "join"          # payload: H-set index i (vertex joined H_i)
COLOR = "color"        # payload: current working color (Arb-Linial steps)
FINAL = "final"        # payload: final color (announced before termination)
PROPOSE = "propose"    # payload: randomized proposal (Section 9)
SEGCOLOR = "segcolor"  # payload: working color within a segment
EDGE = "edge"          # payload: edge-coloring bookkeeping
MATCH = "match"        # payload: matching bookkeeping
LISTS = "lists"        # payload: list-coloring bookkeeping
ARBD = "arbd"          # payload: arbdefective-coloring bookkeeping


class LocalView:
    """Tag-indexed accumulator over everything a vertex has heard.

    ``state[tag][u]`` is the most recent payload with that tag received from
    neighbor ``u``.  Programs call :meth:`absorb` exactly once per round,
    immediately after each ``yield``.

    The order of the senders inside one bucket (``state[tag]``, as
    returned by :meth:`get` and :meth:`wait_for`) is unspecified: it is
    the order in which senders first reached that bucket, and the engines
    deliver an adversary-delayed copy at different positions in
    ``ctx.mail`` (see :mod:`repro.runtime.context`).  Only the values per
    ``(tag, sender)`` are the same on every engine.  Consumers look
    senders up (``bucket[u]``, ``u in bucket``), iterate their own
    neighbor or member lists, or fold the bucket with an
    order-insensitive operation (``len``, ``set``, ``dict(...)`` used
    for lookups); none depends on bucket order.
    """

    __slots__ = ("state",)

    def __init__(self) -> None:
        self.state: dict[str, dict[int, Any]] = {}

    def absorb(self, ctx: Context) -> None:
        state = self.state
        for u, (tag, payload) in ctx.mail:
            bucket = state.get(tag)
            if bucket is None:
                bucket = state[tag] = {}
            bucket[u] = payload

    def get(self, tag: str) -> dict[int, Any]:
        """All payloads heard with this tag, keyed by sender."""
        return self.state.get(tag, {})

    def heard(self, tag: str, u: int) -> bool:
        bucket = self.state.get(tag)
        return bucket is not None and u in bucket

    def value(self, tag: str, u: int, default: Any = None) -> Any:
        return self.state.get(tag, {}).get(u, default)

    def wait_for(self, ctx: Context, tag: str, members: Iterable[int]):
        """``bucket = yield from view.wait_for(ctx, tag, members)``: end
        rounds with ``yield WAIT``, absorbing after each, until every
        member has been heard under ``tag``; returns the tag's bucket.

        Returns at once, without yielding, if every member has been heard
        already.  The wait only reacts to mail, so it keeps the
        ``yield WAIT`` promise.
        """
        state = self.state
        bucket = state.get(tag)
        missing = [u for u in members if bucket is None or u not in bucket]
        while missing:
            yield WAIT
            self.absorb(ctx)
            bucket = state.get(tag)
            if bucket is not None:
                missing = [u for u in missing if u not in bucket]
        return {} if bucket is None else bucket


def degree_bound(a: int, eps: float) -> int:
    """A = (2 + eps) * a, the H-set degree bound of Procedure Partition.

    Rounded up so the progress guarantee (at least an eps/(2+eps) fraction
    of active vertices has degree <= A) holds for integer degrees.
    """
    if a < 1:
        raise ValueError("arboricity must be >= 1")
    if not 0.0 < eps <= 2.0:
        raise ValueError("epsilon must be in (0, 2]")
    return ceil((2.0 + eps) * a)


def partition_length_bound(n: int, eps: float) -> int:
    """An upper bound on the number of iterations of Procedure Partition:
    ell = log_{(2+eps)/2} n, plus slack for rounding."""
    if n <= 1:
        return 1
    return int(ceil(log(n) / log((2.0 + eps) / 2.0))) + 2


def absorb_round(ctx: Context, view: LocalView):
    """``yield from absorb_round(ctx, view)``: end the round and fold the
    next round's inbox into the view (the standard per-round step)."""
    yield
    view.absorb(ctx)
