"""A bulk run plus its validation never builds the Python object layer.

A graph holds only CSR arrays, whether built by ``Graph(n, edges)`` or
``Graph.from_csr``; ``g.edges()`` or ``g.neighbors()`` would materialise
tuples and frozensets for every vertex (``g._adj``).  Executing a bulk-capable algorithm on the bulk
engine and validating the result -- clean, or survivor-restricted under a
fault plan -- must read the CSR view only.  Nor does validation box the
result: it reads the :class:`~repro.runtime.bulk.ColumnMap` columns, never
an item of the view (error witnesses aside).
"""

import pytest

from repro import verify, zoo
from repro.faults import CrashSpec, FaultPlan, MessageFaults
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.runtime.bulk import ColumnMap
from repro.zoo.spec import AlgorithmSpec, DriverRef

N = 3000
DEFECT = 2

COLE_VISHKIN = AlgorithmSpec(
    name="cole-vishkin",
    problem="coloring",
    driver=DriverRef.make("run_ring_three_coloring", passes_a=False, passes_seed=True),
    bulk_capable=True,
)
DEFECTIVE = AlgorithmSpec(
    name="defective",
    problem="coloring",
    driver=DriverRef.make(
        "run_defective_coloring", params={"d": DEFECT}, passes_a=False, passes_seed=True
    ),
    bulk_capable=True,
)
#: a 0-defective coloring is proper, so the "coloring" kind's validators
#: accept it through Execution.validate
PROPER_DEFECTIVE = AlgorithmSpec(
    name="defective",
    problem="coloring",
    driver=DriverRef.make(
        "run_defective_coloring", params={"d": 0}, passes_a=False, passes_seed=True
    ),
    bulk_capable=True,
)


@pytest.fixture
def item_reads(monkeypatch):
    """Every per-item read of a ColumnMap made while the test runs, by
    method name; the test clears it before the reads it counts."""
    calls: list[str] = []
    for name in ("__getitem__", "__iter__"):
        orig = getattr(ColumnMap, name)

        def counted(self, *args, _orig=orig, _name=name):
            calls.append(_name)
            return _orig(self, *args)

        monkeypatch.setattr(ColumnMap, name, counted)
    return calls


def _forest():
    return gen.forest_union_csr(N, 3, seed=5)


def _edge_forest():
    # union_of_forests hands its Python edge set to Graph(n, edges)
    return gen.union_of_forests(N, 3, seed=5)


def _csr_ring():
    offsets, indices = gen.ring(N).csr()
    return Graph.from_csr(offsets.copy(), indices.copy())


def _crashes():
    return FaultPlan(seed=3, crashes=CrashSpec(at={v: 2 for v in range(0, N, 97)}))


def _start_crashes():
    # Cole-Vishkin degrades under crashes during its halving rounds (the
    # survivor check reports the clash); crashes before the first
    # broadcast leave the survivors properly colored
    return FaultPlan(seed=3, crashes=CrashSpec(at={v: 1 for v in range(0, N, 97)}))


def _crash_drop():
    return FaultPlan(
        seed=4,
        crashes=CrashSpec(at={0: 1}, hazard=0.01),
        messages=MessageFaults(drop=0.02),
    )


@pytest.mark.parametrize(
    "spec, make_graph, plan",
    [
        (zoo.get("partition"), _forest, None),
        (zoo.get("luby-mis"), _forest, None),
        (zoo.get("luby-mis"), _forest, _crashes),
        (zoo.get("partition"), _forest, _crash_drop),
        (COLE_VISHKIN, _csr_ring, None),
        (zoo.get("partition"), _forest, _crashes),
        (COLE_VISHKIN, _csr_ring, _start_crashes),
        (PROPER_DEFECTIVE, _forest, None),
        (PROPER_DEFECTIVE, _forest, _crashes),
        (zoo.get("partition"), _edge_forest, None),
        (zoo.get("luby-mis"), _edge_forest, _crashes),
        (COLE_VISHKIN, lambda: gen.ring(N), None),
    ],
    ids=[
        "partition", "luby-mis", "luby-mis@crash", "partition@crash-drop", "cole-vishkin",
        "partition@crash", "cole-vishkin@crash", "defective-0", "defective-0@crash",
        "partition-edges", "luby-mis-edges@crash", "cole-vishkin-edges",
    ],
)
def test_bulk_run_and_validation_keep_graph_columnar(spec, make_graph, plan, item_reads):
    g = make_graph()
    ids = gen.permutation_ids(g.n, seed=11)
    ex = zoo.execute(
        spec, g, 3, ids, 7, engine="bulk", faults=plan() if plan else None
    )
    assert ex.completed
    if plan is not None:
        assert ex.crashed, "the plan must crash someone to exercise survivors"
    assert any(isinstance(v, ColumnMap) for v in vars(ex.result).values())
    item_reads.clear()
    ex.validate(g)
    assert g._adj is None
    assert item_reads == []


def test_bulk_defective_coloring_validation_keeps_graph_columnar(item_reads):
    # a defective coloring is not proper, so it is checked against its own
    # validator rather than the "coloring" kind's full validator
    g = _forest()
    ex = zoo.execute(DEFECTIVE, g, None, gen.permutation_ids(g.n, seed=11), 0, engine="bulk")
    item_reads.clear()
    verify.assert_defective_coloring(g, ex.result.colors, DEFECT, max_colors=ex.result.colors_used)
    assert g._adj is None
    assert item_reads == []
