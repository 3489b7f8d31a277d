"""Twin rows: pairs of registered algorithms that run the same computation.

Each pair shares its whole communication pattern and differs only in
what a vertex outputs: ``edge-coloring``/``matching`` run one
edge-decision wave, ``ka``/``oa`` and ``a2``/``ka2`` the same
partition-and-recoloring schedule, ``delta-plus-one``/``mis`` the same
priority wave.  Per-vertex rounds, the active trace and the message
trace must therefore be equal for every graph and ID assignment, so a
search for the worst ID assignment serves both rows of a pair with one
run.  Pinned here on forest unions with permuted IDs, on the fast engine.
"""

import pytest

from repro import zoo
from repro.bench.workloads import make_workload
from repro.graphs import generators as gen

TWINS = (
    ("edge-coloring", "matching"),
    ("ka", "oa"),
    ("delta-plus-one", "mis"),
    ("a2", "ka2"),
)


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize(
    "workload", ("forest_union_a2", "forest_union_a3", "forest_union_a5")
)
@pytest.mark.parametrize("pair", TWINS, ids="/".join)
def test_twins_share_rounds_and_traffic(pair, workload, seed):
    g, a = make_workload(workload)(150, seed=seed)
    ids = gen.random_ids(g.n, seed=500 + seed)  # a permutation of 0..n-1
    left, right = (
        zoo.execute(name, g, a, ids, seed, engine="fast") for name in pair
    )
    assert left.completed and right.completed
    m1, m2 = left.result.metrics, right.result.metrics
    assert m1.rounds == m2.rounds
    assert m1.active_trace == m2.active_trace
    assert m1.messages_per_round == m2.messages_per_round
    assert m1.total_messages == m2.total_messages
