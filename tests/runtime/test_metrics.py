"""Tests for the round-accounting structures."""

import pytest

from repro.runtime.metrics import RoundMetrics, TimeMetrics, merge_metrics


def test_empty_metrics():
    m = RoundMetrics(rounds=())
    assert m.n == 0
    assert m.vertex_averaged == 0.0
    assert m.worst_case == 0
    assert m.round_sum == 0
    assert m.quantile(0.5) == 0


def test_basic_quantities():
    m = RoundMetrics(rounds=(1, 2, 3, 6))
    assert m.round_sum == 12
    assert m.vertex_averaged == 3.0
    assert m.worst_case == 6


def test_quantile():
    m = RoundMetrics(rounds=(1, 1, 1, 1, 1, 1, 1, 1, 1, 100))
    assert m.quantile(0.5) == 1
    assert m.quantile(0.99) == 100
    # the median is far below the average on skewed executions
    assert m.quantile(0.5) < m.vertex_averaged


def test_terminated_by():
    m = RoundMetrics(rounds=(1, 2, 2, 5))
    assert m.terminated_by(0) == 0
    assert m.terminated_by(1) == 1
    assert m.terminated_by(2) == 3
    assert m.terminated_by(5) == 4


def test_check_active_trace_valid():
    m = RoundMetrics(rounds=(1, 2, 3), active_trace=(3, 2, 1))
    assert m.check_active_trace()


def test_check_active_trace_detects_mismatch():
    m = RoundMetrics(rounds=(1, 2, 3), active_trace=(3, 3, 1))
    assert not m.check_active_trace()


def test_equation_one_roundsum_equals_trace_sum():
    """Equation (1) of the paper: RoundSum(V) = sum_i n_i."""
    rounds = (1, 1, 4, 2, 7)
    trace = tuple(sum(1 for r in rounds if r >= i) for i in range(1, 8))
    m = RoundMetrics(rounds=rounds, active_trace=trace)
    assert m.check_active_trace()
    assert sum(trace) == m.round_sum


def test_messages():
    m = RoundMetrics(rounds=(1,), messages_per_round=(3, 4))
    assert m.total_messages == 7


def test_summary_string():
    m = RoundMetrics(rounds=(1, 3))
    s = m.summary()
    assert "avg=2.000" in s and "worst=3" in s


def test_merge_metrics():
    m1 = RoundMetrics(rounds=(1, 2), active_trace=(2, 1), messages_per_round=(4,))
    m2 = RoundMetrics(rounds=(3,), active_trace=(1, 1, 1), messages_per_round=(1, 1, 1))
    merged = merge_metrics([m1, m2])
    assert merged.rounds == (1, 2, 3)
    assert merged.active_trace == (3, 2, 1)
    assert merged.messages_per_round == (5, 1, 1)
    assert merged.check_active_trace()


def test_merge_empty():
    m = merge_metrics([])
    assert m.n == 0


def test_frozen():
    m = RoundMetrics(rounds=(1,))
    with pytest.raises(AttributeError):
        m.rounds = (2,)


def test_time_summaries_are_pinned_bit_for_bit():
    """The summaries sum and take the max of the normalised times in
    vertex order; any other reduction (a numpy pairwise sum, say) moves
    the last bits.  Without output times the output average is T-bar."""
    times = tuple((i * 0.37) % 5.3 for i in range(1000))
    tm = TimeMetrics(times, tuple(t / 3 for t in times), mean_delay=0.7)
    assert tm.vertex_averaged_time.hex() == "0x1.31329d6747186p+2"
    assert tm.worst_case_time.hex() == "0x1.11d41d41d41d8p+3"
    assert tm.averaged_output_time.hex() == "0x1.20cc68ef84bb0p+1"
    bare = TimeMetrics(times, mean_delay=0.7)
    assert bare.averaged_output_time.hex() == "0x1.31329d6747186p+2"
    assert bare.normalized_times is bare.normalized_times  # normalised once
