"""Internal quantitative claims of Section 6: Lemma 6.1 (exponential decay
of active vertices), Theorem 6.3 (Partition: O(1) average vs Theta(log n)
worst case) and Corollary 6.4 (composition) -- DESIGN.md L6.1 / T6.3 / C6.4."""

import repro
from repro import obs, zoo
from repro.bench import make_workload, render_table, sweep
from repro.runtime.program import wait_rounds
from _common import SWEEP_FAST, emit, time_once

WL = make_workload("forest_union_a3")


def test_decay_lemma_61(benchmark):
    """Lemma 6.1: n_i <= (2/(2+eps))^(i-1) n, for several eps."""
    n = 4000
    rows = []
    ok = True
    for eps in (0.25, 0.5, 1.0, 2.0):
        g, a = WL(n, 0)
        res = repro.run_partition(g, a=a, eps=eps)
        ratio = 2.0 / (2.0 + eps)
        for i, n_i in enumerate(res.metrics.active_trace, start=1):
            bound = ratio ** (i - 1) * g.n
            rows.append([eps, i, n_i, f"{bound:.1f}", "ok" if n_i <= bound + 1e-9 else "VIOLATION"])
            ok &= n_i <= bound + 1e-9
    emit(
        "partition_decay_lemma61",
        render_table(
            "Lemma 6.1: active vertices n_i vs the (2/(2+eps))^(i-1) n bound",
            ["eps", "round i", "n_i", "bound", "check"],
            rows,
        ),
    )
    assert ok
    g, a = WL(n, 0)
    time_once(benchmark, lambda: repro.run_partition(g, a=a, eps=0.5))


def test_decay_curve_via_collector(benchmark):
    """The measured Lemma 6.1 decay curve, observed through the
    ``repro.obs`` event layer rather than the engine's own counters:
    a MetricsCollector on the bus must reproduce ``active_trace``
    exactly, and the measured shape must be monotone non-increasing
    with per-round ratio <= 1/2 after the warm-up round."""
    n = 4000
    g, a = WL(n, 0)
    with obs.collecting() as col:
        res = repro.run_partition(g, a=a, eps=0.5)
    curve = col.decay_curve()
    # the event stream sees exactly what the engine recorded
    assert curve == list(res.metrics.active_trace)
    assert col.delivered == list(res.metrics.messages_per_round)
    assert col.vertex_averaged() == res.metrics.vertex_averaged
    # Lemma 6.1 shape check on the measured curve
    assert col.check_decay(warmup=1, ratio=0.5), curve
    ratios = col.decay_ratios()
    rows = [
        [
            i + 1,
            n_i,
            f"{ratios[i - 1]:.4f}" if i else "-",
            len(col.terminated[i]) if i < len(col.terminated) else 0,
        ]
        for i, n_i in enumerate(curve)
    ]
    emit(
        "partition_decay_curve",
        render_table(
            "Measured active-vertex decay (Partition, eps=0.5, via the "
            "repro.obs collector): monotone, ratio <= 1/2 after warm-up",
            ["round i", "n_i", "n_i/n_{i-1}", "terminated"],
            rows,
        ),
    )
    g, a = WL(n, 0)

    def run_collected():
        with obs.collecting():
            repro.run_partition(g, a=a, eps=0.5)

    time_once(benchmark, run_collected)


def test_partition_avg_vs_worst(benchmark):
    """Theorem 6.3: Partition's vertex-averaged complexity is O(1) while
    the worst-case-scheduled variant pays Theta(log n)."""
    ours = sweep(
        "Partition (6.1)",
        lambda g, a, ids, s: repro.run_partition(g, a=a, eps=0.5, ids=ids),
        WL,
        SWEEP_FAST,
        parallel=True,
    )
    base = sweep(
        "Forest-Dec worst-case schedule",
        lambda g, a, ids, s: repro.run_worstcase_forest_decomposition(
            g, a=a, eps=0.5, ids=ids
        ),
        WL,
        SWEEP_FAST,
        parallel=True,
    )
    from repro.bench import render_rows

    emit(
        "partition_theorem63",
        render_rows("Theorem 6.3: Partition avg vs worst-case schedule", ours, base),
    )
    assert zoo.get("partition").claim.fits(ours.fit_avg(), base.fit_avg())
    assert base.points[-1].avg_mean / ours.points[-1].avg_mean > 8
    g, a = WL(SWEEP_FAST[-1], 0)
    time_once(benchmark, lambda: repro.run_partition(g, a=a, eps=0.5))


def test_composition_corollary_64(benchmark):
    """Corollary 6.4: composing Partition with a T_A-round per-H-set
    algorithm costs O(T_A) vertex-averaged rounds, for a range of T_A."""
    n = 2000
    rows = []
    for t_aux in (1, 4, 16):

        def dummy(ctx, view, h, same, t=t_aux):
            yield from wait_rounds(ctx, t)
            return h

        g, a = WL(n, 0)
        res = repro.compose_with_algorithm(g, a=a, per_set_algorithm=dummy, t_aux=t_aux)
        avg = res.metrics.vertex_averaged
        rows.append([t_aux, f"{avg:.2f}", f"{avg / (t_aux + 2):.2f}"])
        assert t_aux <= avg <= 6 * (t_aux + 2)
    emit(
        "partition_corollary64",
        render_table(
            "Corollary 6.4: vertex-averaged cost of composition ~ O(T_A)",
            ["T_A", "measured avg", "avg / (T_A + 2)"],
            rows,
        ),
    )
    g, a = WL(n, 0)

    def dummy1(ctx, view, h, same):
        yield from wait_rounds(ctx, 4)
        return h

    time_once(
        benchmark,
        lambda: repro.compose_with_algorithm(g, a=a, per_set_algorithm=dummy1, t_aux=4),
    )
