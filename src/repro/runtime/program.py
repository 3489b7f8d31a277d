"""Helpers for writing vertex programs.

Programs are generators; these utilities encapsulate the common "idle until
the schedule says go" patterns of the paper's compositions, where phase
start rounds are deterministic functions of (n, a, epsilon) known to every
vertex.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.runtime.context import WAIT, Context


def wait_rounds(ctx: Context, k: int) -> Generator[None, None, None]:
    """Idle for ``k`` communication rounds (the vertex stays active and
    keeps accumulating round count, per the model)."""
    for _ in range(k):
        yield


def wait_until_round(ctx: Context, r: int) -> Generator[None, None, None]:
    """Idle until the *start* of round ``r`` (no-op if already reached).

    After ``yield from wait_until_round(ctx, r)`` the vertex is executing
    round ``r`` (or later, if it was already past it).
    """
    while ctx.round < r:
        yield


def exchange(ctx: Context, payload: Any) -> Generator[None, None, dict[int, Any]]:
    """Broadcast ``payload`` and return next round's inbox, keeping the
    *last* payload per sender (one round)."""
    ctx.broadcast(payload)
    yield
    return {u: msgs[-1] for u, msgs in ctx.inbox.items()}


def collect_from(
    ctx: Context, senders: set[int], store: dict[int, Any]
) -> Generator[None, None, None]:
    """Run rounds until a message (or termination notice) has been received
    from every vertex in ``senders``; accumulate payloads into ``store``
    (last message per sender wins).

    Termination notices count: a halted neighbor's final output is its
    message.  Used by the "wait for all your parents to choose" waves.
    It waits with ``yield WAIT``: a round without mail or a new halt
    notice changes nothing here.
    """
    missing = set(senders) - set(store)
    for u in list(missing):
        if u in ctx.halted:
            store[u] = ctx.halted[u]
            missing.discard(u)
    while missing:
        yield WAIT
        for u, payloads in ctx.inbox.items():
            if u in missing:
                store[u] = payloads[-1]
                missing.discard(u)
        for u in list(missing):
            if u in ctx.halted:
                store[u] = ctx.halted[u]
                missing.discard(u)
