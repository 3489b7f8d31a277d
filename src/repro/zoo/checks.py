"""Problem-kind keyed validation: full validators and survivor checks.

Two check families, both selected by :attr:`AlgorithmSpec.problem` rather
than per-algorithm wiring:

* **Full validators** assert the complete problem definition (propriety
  *and* maximality/completeness) on the whole graph and return a one-line
  human summary.  These guard every fault-free ``repro run``.
* **Survivor checks** assert only the *safety* half restricted to the
  surviving (non-crashed) subgraph -- a crash adversary legitimately
  destroys completeness (an MIS cannot stay maximal around a dead
  vertex), so the fault harness checks proper coloring among survivors,
  independence, matching disjointness, and the H-partition degree bound.
  The harness imports them through the registry.

The vertex-coloring, MIS and H-partition checks, full and survivor, are
columnar (CSR view plus integer columns of the result, see
:mod:`repro.verify.columns`): they never build a ``Graph.from_csr``
graph's Python object layer, and report the lowest offending vertex or
canonical edge.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro import verify
from repro.verify import VerificationError
from repro.verify.columns import arcs, color_codes, first, key_mask, value_column, vertex_mask

# ---------------------------------------------------------------------------
# full validators (fault-free runs): validate(g, res) -> summary line
# ---------------------------------------------------------------------------

def _validate_coloring(g, res) -> str:
    verify.assert_proper_coloring(g, res.colors)
    return f"proper coloring, {res.colors_used} colors (bound {res.palette_bound})"


def _in_mis(g, res) -> np.ndarray:
    """The MIS as a boolean column over the vertices."""
    return np.asarray(value_column(g.n, res.in_mis, False), dtype=bool)


def _validate_mis(g, res) -> str:
    inside = _in_mis(g, res)
    verify.assert_maximal_independent_set(g, inside)
    return f"maximal independent set, |I| = {int(np.count_nonzero(inside))}"


def _validate_matching(g, res) -> str:
    verify.assert_maximal_matching(g, res.matching)
    return f"maximal matching, |M| = {len(res.matching)}"


def _validate_edge_coloring(g, res) -> str:
    verify.assert_proper_edge_coloring(g, res.edge_colors)
    return f"proper edge coloring, {res.colors_used} colors (bound {res.palette_bound})"


def _validate_partition(g, res) -> str:
    verify.assert_h_partition(g, res.h_index, res.A)
    return f"H-partition into {res.num_sets} sets (A = {res.A})"


def _validate_leader_election(g, res) -> str:
    outputs = res.outputs
    for v in g.vertices():
        if outputs.get(v) not in ("leader", "non-leader"):
            raise VerificationError(
                f"vertex {v} has no leader-election output "
                f"(got {outputs.get(v)!r})"
            )
    leaders = [v for v, out in outputs.items() if out == "leader"]
    if len(leaders) != 1:
        raise VerificationError(
            f"expected exactly one leader, got {sorted(leaders)}"
        )
    if leaders[0] != res.leader:
        raise VerificationError(
            f"result names leader {res.leader} but vertex {leaders[0]} "
            "output 'leader'"
        )
    return f"unique leader {res.leader} elected on ring of {g.n}"


def _validate_consensus(g, res) -> str:
    decisions, values = res.decisions, res.values
    for v in g.vertices():
        if decisions.get(v) not in (0, 1):
            raise VerificationError(
                f"vertex {v} has no binary decision (got {decisions.get(v)!r})"
            )
    comps = g.connected_components()
    for comp in comps:
        # fault-free flood-min decides exactly the component minimum
        want = min(values[v] for v in comp)
        for v in comp:
            if decisions[v] != want:
                raise VerificationError(
                    f"vertex {v} decided {decisions[v]} but its component's "
                    f"input minimum is {want}"
                )
    zeros = sum(1 for v in g.vertices() if decisions[v] == 0)
    return (
        f"consensus on {len(comps)} component(s): "
        f"{zeros} decided 0, {g.n - zeros} decided 1"
    )


#: problem kind -> full validator; the kind taxonomy is closed, so this
#: table is total over PROBLEM_KINDS (pinned by tests/zoo)
FULL_VALIDATORS: dict[str, Callable] = {
    "coloring": _validate_coloring,
    "mis": _validate_mis,
    "matching": _validate_matching,
    "edge-coloring": _validate_edge_coloring,
    "partition": _validate_partition,
    "leader-election": _validate_leader_election,
    "consensus": _validate_consensus,
}


# ---------------------------------------------------------------------------
# survivor-subgraph safety checks: check(g, res, alive) -> None | raise
#
# ``alive`` is a vertex set or a boolean column over the vertices.
# ---------------------------------------------------------------------------

def _survivors(g, alive, decided, what: str) -> np.ndarray:
    """The survivor mask; raises at the lowest survivor ``decided`` lacks."""
    live = vertex_mask(g.n, alive)
    v = first(live & ~key_mask(g.n, decided))
    if v is not None:
        raise VerificationError(f"surviving vertex {v} terminated without {what}")
    return live


def _alive_set(alive) -> set[int]:
    """The survivors as a set, for the loop-form checks."""
    if isinstance(alive, np.ndarray):
        return set(np.flatnonzero(alive).tolist())
    return alive


def check_vertex_coloring(g, res, alive) -> None:
    colors = res.colors
    live = _survivors(g, alive, colors, "a color")
    codes, _ = color_codes(g.n, colors)
    src, dst = arcs(g)
    hit = first(live[src] & live[dst] & (codes[src] == codes[dst]))
    if hit is not None:
        u, v = int(src[hit]), int(dst[hit])
        raise VerificationError(
            f"surviving neighbors {u} and {v} share color {colors[u]!r}"
        )


def check_partition(g, res, alive) -> None:
    _survivors(g, alive, res.h_index, "an H-index")
    verify.assert_h_partition(g, res.h_index, res.A, subset=alive)


def check_mis(g, res, alive) -> None:
    live = _survivors(g, alive, res.in_mis, "an MIS decision")
    both = live & _in_mis(g, res)
    src, dst = arcs(g)
    hit = first(both[src] & both[dst])
    if hit is not None:
        raise VerificationError(
            f"surviving MIS vertices {int(src[hit])} and {int(dst[hit])} "
            "are adjacent"
        )


def check_matching(g, res, alive) -> None:
    alive = _alive_set(alive)
    seen: dict[int, tuple[int, int]] = {}
    for e in res.matching:
        u, v = e
        if not g.has_edge(u, v):
            raise VerificationError(f"matching edge {e} is not in G")
        for x in (u, v):
            if x in alive and x in seen:
                raise VerificationError(
                    f"surviving vertex {x} is matched twice: {seen[x]} and {e}"
                )
            seen[x] = e


def check_edge_coloring(g, res, alive) -> None:
    from repro.graphs.graph import canonical_edge

    alive = _alive_set(alive)
    ec = res.edge_colors
    # adjacent survivor-survivor edges must have distinct colors
    for v in alive:
        by_color: dict[int, tuple[int, int]] = {}
        for u in g.neighbors(v):
            if u not in alive:
                continue
            e = canonical_edge(u, v)
            c = ec.get(e)
            if c is None:
                raise VerificationError(f"surviving edge {e} has no color")
            if c in by_color:
                raise VerificationError(
                    f"edges {by_color[c]} and {e} at surviving vertex {v} "
                    f"share color {c}"
                )
            by_color[c] = e


def check_leader_election(g, res, alive) -> None:
    """Safety half of leader election: no two surviving leaders.

    Completing at all under a crash is rare (the token must tour every
    ring vertex), but when it happens the survivors must not disagree on
    who leads, and every surviving vertex must have fixed an output.
    """
    alive = _alive_set(alive)
    outputs = res.outputs
    leaders = []
    for v in alive:
        out = outputs.get(v)
        if out not in ("leader", "non-leader"):
            raise VerificationError(
                f"surviving vertex {v} has no leader-election output "
                f"(got {out!r})"
            )
        if out == "leader":
            leaders.append(v)
    if len(leaders) > 1:
        raise VerificationError(
            f"multiple surviving leaders: {sorted(leaders)}"
        )


def check_consensus(g, res, alive) -> None:
    """Safety half of binary consensus among crash-stop survivors.

    Agreement per connected component of the *surviving* subgraph (a
    crash may disconnect survivors, and disconnected groups legitimately
    diverge), and validity against the *original* component's inputs: a
    crashed vertex's zero may have propagated before the crash, but no
    value outside the component's input set can ever be decided.
    """
    alive = _alive_set(alive)
    decisions, values = res.decisions, res.values
    for v in alive:
        if decisions.get(v) not in (0, 1):
            raise VerificationError(
                f"surviving vertex {v} has no binary decision "
                f"(got {decisions.get(v)!r})"
            )
    # inputs available within each component of the original graph
    full_inputs: dict[int, set[int]] = {}
    for comp in g.connected_components():
        inputs = {values[v] for v in comp}
        for v in comp:
            full_inputs[v] = inputs
    # agreement on each connected component of the surviving subgraph
    seen: set[int] = set()
    for root in sorted(alive):
        if root in seen:
            continue
        stack, comp = [root], [root]
        seen.add(root)
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w in alive and w not in seen:
                    seen.add(w)
                    stack.append(w)
                    comp.append(w)
        want = decisions[root]
        for v in comp:
            if decisions[v] != want:
                raise VerificationError(
                    f"surviving vertices {root} and {v} are connected but "
                    f"decided {want} and {decisions[v]}"
                )
        if want not in full_inputs[root]:
            raise VerificationError(
                f"component of {root} decided {want}, which no vertex of "
                "its original component had as input"
            )


#: problem kind -> survivor-restricted safety check
SURVIVOR_CHECKS: dict[str, Callable] = {
    "coloring": check_vertex_coloring,
    "mis": check_mis,
    "matching": check_matching,
    "edge-coloring": check_edge_coloring,
    "partition": check_partition,
    "leader-election": check_leader_election,
    "consensus": check_consensus,
}


def full_validator(problem: str) -> Callable:
    """The whole-graph validator for a problem kind."""
    return FULL_VALIDATORS[problem]


def survivor_check(problem: str) -> Callable:
    """The survivor-subgraph safety check for a problem kind."""
    return SURVIVOR_CHECKS[problem]
