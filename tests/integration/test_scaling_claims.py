"""Scaling tests: the paper's headline quantitative claims, as each
spec's claim states them, asserted on n-sweeps.  These are the
test-suite versions of the benchmark assertions (smaller sweeps; the
benchmarks run the full ones)."""

import pytest

import repro
from repro import zoo
from repro.analysis.fitting import fit_shape
from repro.graphs import generators as gen

SWEEP = (250, 500, 1000, 2000, 4000)


def _avg_series(algo, a=3, eps=0.5, seeds=(0,)):
    out = []
    for n in SWEEP:
        vals = []
        for s in seeds:
            g = gen.union_of_forests(n, a, seed=s)
            vals.append(algo(g, n, s).metrics.vertex_averaged)
        out.append(sum(vals) / len(vals))
    return out


def test_partition_average_is_constant_shaped():
    ys = _avg_series(lambda g, n, s: repro.run_partition(g, a=3, eps=0.5))
    fit = fit_shape(SWEEP, ys)
    assert zoo.get("partition").claim.fits(fit), (ys, fit)


def test_partition_worstcase_baseline_is_log_shaped():
    ys = []
    for n in SWEEP:
        g = gen.union_of_forests(n, 3, seed=0)
        ys.append(repro.run_worstcase_forest_decomposition(g, a=3).metrics.vertex_averaged)
    fit = fit_shape(SWEEP, ys)
    assert zoo.get("partition").claim.fits(baseline_fit=fit), (ys, fit)


def test_a2logn_average_constant_vs_worstcase_log():
    ours = _avg_series(lambda g, n, s: repro.run_a2logn_coloring(g, a=3, eps=0.5))
    base = _avg_series(lambda g, n, s: repro.run_arb_linial_worstcase(g, a=3, eps=0.5))
    claim = zoo.get("a2logn").claim
    assert claim.fits(fit_shape(SWEEP, ours), fit_shape(SWEEP, base)), (ours, base)
    # who wins, by what factor: ours beats the baseline increasingly
    assert base[-1] / ours[-1] > base[0] / ours[0]
    assert base[-1] / ours[-1] > 3


def test_mis_average_flat_vs_worstcase_growing():
    ours = _avg_series(lambda g, n, s: repro.run_mis(g, a=3))
    fit = fit_shape(SWEEP, ours)
    assert zoo.get("mis").claim.fits(fit), (ours, fit)


def test_mm_average_flat():
    ours = _avg_series(lambda g, n, s: repro.run_maximal_matching(g, a=3))
    assert zoo.get("matching").claim.fits(fit_shape(SWEEP, ours)), ours


def test_randomized_delta_plus_one_average_constant():
    ours = _avg_series(
        lambda g, n, s: repro.run_rand_delta_plus_one(g, seed=s), seeds=(0, 1, 2)
    )
    assert zoo.get("rand-delta-plus-one").claim.fits(fit_shape(SWEEP, ours)), ours


def test_randomized_worst_case_grows():
    ys = []
    for n in SWEEP:
        g = gen.union_of_forests(n, 3, seed=0)
        vals = [
            repro.run_rand_delta_plus_one(g, seed=s).metrics.worst_case
            for s in range(3)
        ]
        ys.append(sum(vals) / 3)
    assert ys[-1] > ys[0]  # Theta(log n) w.h.p. for the last vertex


@pytest.mark.slow
def test_large_scale_gap():
    """At n = 20000 the averaged algorithms stay single-digit while the
    worst-case schedules pay tens of rounds."""
    n = 20000
    g = gen.union_of_forests(n, 3, seed=1)
    ours = repro.run_a2logn_coloring(g, a=3).metrics.vertex_averaged
    base = repro.run_worstcase_forest_decomposition(g, a=3).metrics.vertex_averaged
    assert ours < 5
    assert base > 15
    assert base / ours > 4
