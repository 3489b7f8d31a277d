"""The paper's promises, as each registered spec's claim states them
(:class:`repro.zoo.Claim`), checked against measured executions."""

from math import log2

import pytest

import repro
from repro import zoo
from repro.analysis.fitting import fit_shape
from repro.bench.workloads import make_workload
from repro.core.common import degree_bound
from repro.graphs import generators as gen

#: the specs whose claim has a palette formula
PALETTE_SPECS = [s.name for s in zoo.all_specs() if s.claim and s.claim.palette]


def test_registry_covers_all_headline_algorithms():
    expected = {
        "partition", "a2logn", "a2", "oa", "ka2", "ka", "one-plus-eta",
        "delta-plus-one", "mis", "edge-coloring", "matching",
        "rand-delta-plus-one", "aloglogn",
    }
    assert {s.name for s in zoo.all_specs() if s.claim} == expected
    assert len(PALETTE_SPECS) == 9


def test_every_bound_names_its_section():
    for s in zoo.all_specs():
        if s.claim is None:
            continue
        assert s.paper_row is not None and s.paper_row.ref, s.name
        assert s.claim.avg in {"O(1)", "O(log* n)", "O(log log n)"}, s.name
        assert s.claim.baseline == "O(log n)", s.name


def test_claim_fits_at_feasible_n():
    """An O(1) claim passes a flat series and an O(log n) baseline a
    log-growing one; each fails the other's series."""
    ns = [2**k for k in range(8, 16)]
    flat = fit_shape(ns, [3.0] * len(ns))
    grows = fit_shape(ns, [log2(n) for n in ns])
    claim = zoo.Claim("O(1)")
    assert claim.fits(flat, grows)
    assert not claim.fits(grows)
    assert not claim.fits(baseline_fit=flat)


@pytest.mark.parametrize("seed", (11, 12))
@pytest.mark.parametrize("workload", ("forest_union_a3", "planar_grid", "caterpillar"))
@pytest.mark.parametrize("name", PALETTE_SPECS)
def test_measured_palettes_within_paper_bounds(name, workload, seed):
    """The claimed formula bounds the colours used and, at n = 400, is
    exactly the bound the driver reports for itself."""
    g, a = make_workload(workload)(400, seed)
    ex = zoo.execute(name, g, a, None, seed)
    ex.validate(g)
    res = ex.result
    assert res.colors_used <= ex.palette_claim == res.palette_bound, (
        res.colors_used, ex.palette_claim, res.palette_bound,
    )


def test_forest_decomposition_bound():
    g = gen.union_of_forests(400, 3, seed=11)
    fd = repro.run_parallelized_forest_decomposition(g, a=3)
    assert fd.num_forests <= degree_bound(3, 1.0)


def test_no_palette_keys_return_none():
    g = gen.union_of_forests(400, 3, seed=11)
    for name in ("partition", "mis", "matching", "one-plus-eta"):
        assert zoo.get(name).claim.palette_bound(g, 3, None) is None


def test_instance_helpers():
    inst = zoo.Instance(n=400, a=2, delta=9, id_space=400)
    assert inst.A == 6
    assert inst.k == 2  # rho(400): the k that run_ka2/run_ka default to
    assert inst.t == 6  # floor(2 log log 400)
    g = gen.union_of_forests(400, 2, seed=0)
    space = zoo.Claim("O(1)", palette=lambda i: i.id_space)
    assert space.palette_bound(g, 2, None) == 400
    assert space.palette_bound(g, 2, [999] + list(range(1, 400))) == 1000
