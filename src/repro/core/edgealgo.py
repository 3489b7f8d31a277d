"""Edge problems of the extension framework: (2 Delta - 1)-edge-coloring
(Corollary 8.6) and maximal matching (Corollary 8.8).

Both corollaries share one structure, implemented here as a generic
*edge-decision wave*:

1.  Procedure Partition + forest decomposition assign every edge a tail
    (the child endpoint), a head (the parent: later H-set, or same set with
    the higher ID) and a label in {1..A} distinct among the tail's
    out-edges.
2.  Every edge gets a **key**:  within-set edge (w -> v) in H_i:
    ``(i, 0, psi(v), label)`` where psi is the within-set Linial temp
    coloring; cross-set edge (w -> v), v in the later set H_i:
    ``(i, 1, 0, label)``.  Adjacent edges never share a key unless they
    also share their head, in which case the head decides them as a batch
    -- this is the paper's "loop over labels j = 1..A, each vertex handles
    its j-labelled star G_j(v)" (Corollaries 8.6/8.8), merged with the
    within-set phase (algorithm A) via the 0/1 flag (A runs before B).
3.  Edges are decided by their heads in increasing key order.  Every
    vertex broadcasts a monotone progress cursor (its smallest undecided
    incident key) together with its local state (used colors / matched
    flag).  A head decides a batch once its own cursor reaches the batch
    key and every tail's cursor has passed it; at that moment the tails'
    broadcast state is exactly the state contributed by their smaller-key
    edges, so greedy choices are conflict-free.

The wave is event-driven; its depth within an H-set is O(poly(A)) and
across sets one batch per (set, flag, psi, label) level, which is what
gives the O(a + log* n)-flavoured vertex-averaged behaviour (with the
DESIGN.md #1/#3 substitution, O(a^2 + log* n) in the worst case over an
H-set -- identical shape for constant arboricity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

from repro.core.arb_linial import arb_linial_steps, _step_tag
from repro.core.common import JOIN, LocalView, degree_bound, partition_length_bound
from repro.core.coverfree import palette_schedule
from repro.core.partition import join_h_set
from repro.graphs.graph import Graph, canonical_edge
from repro.runtime.context import WAIT, Context
from repro.runtime.metrics import RoundMetrics
from repro.runtime.network import SyncNetwork

PROG = "ep"   # broadcast: (cursor_key_or_None, local_state)
DECIDE = "ed"  # targeted: list of ((edge_head, edge_tail) irrelevant) -> we send (key, value)
LABEL = "lb"   # targeted: label of the edge from tail to this head

_INF = (1 << 60,)


def _key_lt(k1, k2) -> bool:
    return (k1 or _INF) < (k2 or _INF)


def _key_ge(k1, k2) -> bool:
    return not _key_lt(k1, k2)


class _WaveView(LocalView):
    """:class:`LocalView` that keeps each neighbor's newest ``PROG``
    snapshot.

    A vertex broadcasts its snapshot only when it changes, and its cursor
    only grows.  Under a message-delay adversary an older snapshot can
    arrive after a newer one; storing it would leave the head waiting on
    a stale cursor the tail never rebroadcasts.  A snapshot whose cursor
    is older than the stored one is therefore ignored (equal cursors
    carry equal snapshots).  Without delays snapshots arrive in order and
    every one is kept, as with the plain view.
    """

    __slots__ = ()

    def absorb(self, ctx: Context) -> None:
        state = self.state
        for u, (tag, payload) in ctx.mail:
            bucket = state.get(tag)
            if bucket is None:
                bucket = state[tag] = {}
            elif tag == PROG:
                old = bucket.get(u)
                # not _key_ge(payload[0], old[0]), inlined (once per PROG)
                if old is not None and (payload[0] or _INF) < (old[0] or _INF):
                    continue
            bucket[u] = payload


def _edge_wave_program_factory(
    decide_batch: Callable[[Context, dict, list[tuple[int, object]], dict[int, object]], dict[int, Hashable]],
    init_state: Callable[[Context], object],
    update_state: Callable[[object, int, Hashable, bool], object],
    worstcase_schedule: bool,
    ell: int,
    A: int,
):
    """Build the vertex program of the edge-decision wave.

    decide_batch(ctx, my_state_ref, batch, tail_states) -> {tail: value}:
        decide the equal-key in-edges ``batch`` (list of (tail, key) sorted
        by tail ID) given each tail's broadcast state; must be greedy-safe.
    init_state(ctx) -> the vertex's broadcastable local state.
    update_state(state, other_endpoint, value, i_am_head) -> new state,
        called whenever an incident edge is decided.
    """

    def program(ctx: Context):
        schedule = ctx.config["schedule"]
        view = _WaveView()
        h = yield from join_h_set(ctx, view, A)
        if worstcase_schedule:
            while ctx.round < ell + 1:
                yield
                view.absorb(ctx)
        yield
        view.absorb(ctx)
        same = [u for u in ctx.neighbors if view.value(JOIN, u) == h]
        psi = yield from arb_linial_steps(ctx, view, same, schedule, tag="x")
        last = _step_tag("x", len(schedule))
        ctx.broadcast((last, psi))
        # Wait until the H-index of every neighbor is known (all join by
        # round <= ell; announcements are local events), psi of same-set
        # neighbors has arrived, and in-edge labels have arrived.
        while True:
            joined = view.get(JOIN)
            if len(joined) == ctx.degree and all(
                view.heard(last, u) for u in same
            ):
                break
            yield WAIT
            view.absorb(ctx)
        my_id = ctx.id
        nid = ctx.neighbor_ids
        heads: list[int] = []   # my out-neighbors (I am the tail)
        tails: list[int] = []   # my in-neighbors (I am the head)
        for u in ctx.neighbors:
            hu = joined[u]
            if hu > h or (hu == h and nid[u] > my_id):
                heads.append(u)
            else:
                tails.append(u)
        heads.sort(key=nid.__getitem__)
        out_label = {u: i + 1 for i, u in enumerate(heads)}
        for u in heads:
            ctx.send(u, (LABEL, out_label[u]))
        # Keys of out-edges are computable locally once psi/h are known.
        keys: dict[int, tuple] = {}
        for u in heads:
            hu = joined[u]
            if hu == h:
                keys[u] = (h, 0, view.value(last, u), out_label[u])
            else:
                keys[u] = (hu, 1, 0, out_label[u])
        # Keys of in-edges need the tails' labels.  A head always ends
        # one round here first; that round may sleep through quiet rounds
        # (WAIT) only while a label is still missing -- a label that
        # arrived earlier lets the next round proceed, mail or not.
        if tails:
            labels = view.get(LABEL)
            yield WAIT if any(u not in labels for u in tails) else None
            view.absorb(ctx)
            yield from view.wait_for(ctx, LABEL, tails)
        for u in tails:
            lab = view.value(LABEL, u)
            if joined[u] == h:
                keys[u] = (h, 0, psi, lab)
            else:
                keys[u] = (h, 1, 0, lab)
        # The cursor (the smallest undecided incident key) only grows, so
        # it is a pointer into the once-sorted key list.  The batches this
        # vertex decides as head are grouped by key up front, tails in ID
        # order; a decided batch is removed.
        order = sorted((k, u) for u, k in keys.items())
        batches: dict[tuple, list[tuple[int, tuple]]] = {}
        for u in sorted(tails, key=nid.__getitem__):
            batches.setdefault(keys[u], []).append((u, keys[u]))
        in_edges = set(tails)
        decided: dict[int, Hashable] = {}
        my_state = init_state(ctx)
        announced: tuple | None = ("invalid",)  # force first broadcast
        pos = 0

        while True:
            while pos < len(order) and order[pos][1] in decided:
                pos += 1
            cur = order[pos][0] if pos < len(order) else None
            snapshot = (cur, my_state)
            if snapshot != announced:
                ctx.broadcast((PROG, snapshot))
                announced = snapshot
            if cur is None:
                return {
                    "h": h,
                    "decided": {
                        canonical_edge(ctx.v, u): val
                        for u, val in decided.items()
                        if u in in_edges
                    },
                    "state": my_state,
                }
            # Decide the batch at the cursor if we are its head and every
            # tail's announced cursor has reached it.
            batch = batches.get(cur)
            if batch is not None:
                prog = view.get(PROG)
                tail_states: dict[int, object] = {}
                for u, _k in batch:
                    p = prog.get(u)
                    if p is None or not _key_ge(p[0], cur):
                        break
                    tail_states[u] = p[1]
                else:
                    del batches[cur]
                    values = decide_batch(ctx, my_state, batch, tail_states)
                    for u, _k in batch:
                        val = values[u]
                        decided[u] = val
                        my_state = update_state(my_state, u, val, True)
                        ctx.send(u, (DECIDE, val))
                    continue
            # Only mail (tail cursors, our heads' decisions) moves this
            # vertex on.
            yield WAIT
            view.absorb(ctx)
            for u, (tag, payload) in ctx.mail:
                if tag == DECIDE and u not in decided:
                    decided[u] = payload
                    my_state = update_state(my_state, u, payload, False)

    return program


# ---------------------------------------------------------------------------
# Corollary 8.6: (2 Delta - 1)-edge-coloring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeColoringResult:
    """A proper edge coloring with its round accounting."""

    edge_colors: dict[tuple[int, int], int]
    h_index: dict[int, int]
    metrics: RoundMetrics
    palette_bound: int

    @property
    def colors_used(self) -> int:
        return len(set(self.edge_colors.values()))


def run_edge_coloring(
    graph: Graph,
    a: int,
    eps: float = 1.0,
    ids: Sequence[int] | None = None,
    seed: int = 0,
    worstcase_schedule: bool = False,
) -> EdgeColoringResult:
    """Corollary 8.6: (2 Delta - 1)-edge-coloring with vertex-averaged
    complexity O(poly(a) + log* n) (O(a + log* n) in the paper; see
    DESIGN.md #3).  ``worstcase_schedule=True`` runs the [previous work]
    shape instead: every vertex sits through the full Theta(log n)
    partition before any edge is colored."""
    A = degree_bound(a, eps)
    ell = partition_length_bound(graph.n, eps)
    delta = graph.max_degree()
    palette = max(2 * delta - 1, 1)

    def init_state(ctx: Context):
        return frozenset()

    def update_state(state, _u, value, _i_am_head):
        return state | {value}

    def decide_batch(ctx, my_used, batch, tail_states):
        values: dict[int, int] = {}
        used_here = set(my_used)
        for u, _k in batch:
            used_w = tail_states[u]
            for c in range(palette):
                if c not in used_here and c not in used_w:
                    values[u] = c
                    used_here.add(c)
                    break
            else:
                raise AssertionError("palette {0..2D-2} exhausted")
        return values

    program = _edge_wave_program_factory(
        decide_batch, init_state, update_state, worstcase_schedule, ell, A
    )
    net = SyncNetwork(graph, ids=ids, seed=seed, config={"a": a, "eps": eps})
    schedule = palette_schedule(net.config["id_space"], A)
    net.config["schedule"] = schedule
    fixpoint = schedule[-1].ground_size if schedule else net.config["id_space"]
    budget = (ell + 2) * (len(schedule) + fixpoint + A + 8) + 4 * graph.n + 256
    res = net.run(program, max_rounds=budget)
    edge_colors: dict[tuple[int, int], int] = {}
    for v, out in res.outputs.items():
        edge_colors.update(out["decided"])
    return EdgeColoringResult(
        edge_colors=edge_colors,
        h_index={v: out["h"] for v, out in res.outputs.items()},
        metrics=res.metrics,
        palette_bound=palette,
    )


# ---------------------------------------------------------------------------
# Corollary 8.8: maximal matching
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatchingResult:
    """A maximal matching with its round accounting."""

    matching: set[tuple[int, int]]
    h_index: dict[int, int]
    metrics: RoundMetrics


def run_maximal_matching(
    graph: Graph,
    a: int,
    eps: float = 1.0,
    ids: Sequence[int] | None = None,
    seed: int = 0,
    worstcase_schedule: bool = False,
) -> MatchingResult:
    """Corollary 8.8: maximal matching with vertex-averaged complexity
    O(poly(a) + log* n) (paper: O(a + log* n); DESIGN.md #3).  An edge
    joins the matching iff both endpoints are unmatched when its head
    processes its key batch -- the paper's label-loop, event-driven."""
    A = degree_bound(a, eps)
    ell = partition_length_bound(graph.n, eps)

    def init_state(ctx: Context):
        return False  # matched?

    def update_state(state, _u, value, _i_am_head):
        return state or bool(value)

    def decide_batch(ctx, my_matched, batch, tail_states):
        values: dict[int, bool] = {}
        taken = bool(my_matched)
        for u, _k in batch:
            if not taken and not tail_states[u]:
                values[u] = True
                taken = True
            else:
                values[u] = False
        return values

    program = _edge_wave_program_factory(
        decide_batch, init_state, update_state, worstcase_schedule, ell, A
    )
    net = SyncNetwork(graph, ids=ids, seed=seed, config={"a": a, "eps": eps})
    schedule = palette_schedule(net.config["id_space"], A)
    net.config["schedule"] = schedule
    fixpoint = schedule[-1].ground_size if schedule else net.config["id_space"]
    budget = (ell + 2) * (len(schedule) + fixpoint + A + 8) + 4 * graph.n + 256
    res = net.run(program, max_rounds=budget)
    matching: set[tuple[int, int]] = set()
    for v, out in res.outputs.items():
        for e, val in out["decided"].items():
            if val:
                matching.add(e)
    return MatchingResult(
        matching=matching,
        h_index={v: out["h"] for v, out in res.outputs.items()},
        metrics=res.metrics,
    )
