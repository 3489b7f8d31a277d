"""Crash-tolerant flood-min binary consensus (:mod:`repro.core.consensus`).

Fault-free runs must decide the minimum input per connected component
(validity + agreement); under crash-stop plans the survivors of each
surviving component must still agree on some original component input.
The vertex-averaged story: on an all-or-mostly-zero instance almost
every vertex decides in O(1) rounds while the worst case stays Theta(n).
"""

import pytest

from repro.core.consensus import ConsensusResult, decision_horizon, run_consensus
from repro.faults import CrashSpec, FaultPlan
from repro.graphs import generators as gen
from repro.runtime import DelaySpec
from repro.runtime.session import session
from repro.zoo.checks import check_consensus


class TestFaultFree:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_decides_component_minimum(self, seed):
        g = gen.gnp(60, 0.06, seed=seed)
        res = run_consensus(g, seed=seed)
        for comp in g.connected_components():
            want = min(res.values[v] for v in comp)
            assert all(res.decisions[v] == want for v in comp)

    def test_all_ones_decides_one(self):
        g = gen.ring(20)
        res = run_consensus(g, values=[1] * 20)
        assert set(res.decisions.values()) == {1}
        # the 1-deciders must wait out the full horizon
        assert res.metrics.worst_case >= decision_horizon(20)

    def test_explicit_values_respected(self):
        g = gen.ring(10)
        values = [1] * 10
        values[3] = 0
        res = run_consensus(g, values=values)
        assert res.values == tuple(values)
        assert set(res.decisions.values()) == {0}

    def test_nonbinary_values_rejected(self):
        g = gen.ring(4)
        with pytest.raises(ValueError, match="binary"):
            run_consensus(g, values=[0, 1, 2, 0])

    def test_zero_instances_decide_in_constant_averaged_rounds(self):
        # one zero in a long path: the averaged ROUND count is small for
        # the zero side... but the paper-relevant measure is the averaged
        # OUTPUT time; with all-zero inputs everyone commits in round 1.
        n = 200
        g = gen.ring(n)
        res = run_consensus(g, values=[0] * n)
        assert res.output_metrics.vertex_averaged == 1.0
        assert set(res.decisions.values()) == {0}

    def test_result_surface(self):
        g = gen.ring(8)
        res = run_consensus(g, seed=1)
        assert isinstance(res, ConsensusResult)
        assert set(res.decisions) == set(g.vertices())
        assert res.times is None  # sync run


class TestCrashTolerance:
    @pytest.mark.parametrize("seed", range(8))
    def test_survivors_agree_and_stay_valid_under_hazard(self, seed):
        g = gen.gnp(50, 0.07, seed=seed)
        plan = FaultPlan(seed=seed, crashes=CrashSpec(hazard=0.02))
        with session(faults=plan) as rs:
            res = run_consensus(g, seed=seed)
        adversary = rs.injector
        alive = set(g.vertices()) - set(adversary.crashed)
        check_consensus(g, res, alive)

    def test_targeted_crash_of_the_zero_carrier(self):
        # vertex 0 holds the only zero and crashes before round 2: it
        # still broadcast in round 1 (crash-stop is round-atomic), or not
        # at all -- either way survivors must agree on a valid value.
        n = 12
        g = gen.ring(n)
        values = [1] * n
        values[0] = 0
        plan = FaultPlan(seed=0, crashes=CrashSpec(at={2: 1}))
        with session(faults=plan) as rs:
            res = run_consensus(g, values=values)
        adversary = rs.injector
        alive = set(g.vertices()) - set(adversary.crashed)
        check_consensus(g, res, alive)


class TestAsyncMode:
    @pytest.mark.parametrize("dist", ["fixed", "uniform", "exp"])
    def test_async_decisions_match_sync(self, dist):
        g = gen.gnp(40, 0.08, seed=2)
        sync = run_consensus(g, seed=2)
        with session(mode="async", delays=DelaySpec(dist=dist, seed=4)):
            async_ = run_consensus(g, seed=2)
        assert async_.decisions == sync.decisions
        assert async_.metrics.rounds == sync.metrics.rounds
        assert async_.times is not None

    def test_averaged_output_time_constant_on_zero_heavy_instance(self):
        # every vertex holds 0: all commit in local round 1 at t = 0, so
        # the averaged output time is 1.0 regardless of the horizon.
        n = 60
        g = gen.ring(n)
        with session(mode="async", delays=DelaySpec(dist="exp", scale=2.0)):
            res = run_consensus(g, values=[0] * n)
        assert res.times.averaged_output_time == 1.0


class TestHorizon:
    def test_horizon_is_linear(self):
        assert decision_horizon(10) == 24
        assert decision_horizon(1) == 6
