"""The bulk engine's shared plumbing: CSR row-gather, round-metrics
assembly, the columnar bench kernel, and the refusal paths
(:class:`BulkUnsupported` for generic programs and fault sessions).

The algorithm-level bit-identity pins live in ``test_equivalence.py``
(three-way matrix); this file covers the helpers those drivers share.
"""

import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.runtime import BulkUnsupported, bulk_broadcast_kernel
from repro.runtime.bulk import (
    finalize_run,
    gather_rows,
    id_space,
    require_no_faults,
    resolve_ids,
)
from repro.runtime.network import RoundLimitExceeded, SyncNetwork
from repro.runtime.session import session


class TestGatherRows:
    def test_matches_per_vertex_slices(self):
        g = gen.union_of_forests(60, 3, seed=0)
        offsets, indices = g.csr()
        # scattered, repeated, contiguous (one slice) and descending runs
        for vs in ([0, 5, 5, 17, 59], [3, 4, 5, 6], [7], [6, 5, 4, 3], [2, 3, 3, 5]):
            verts = np.array(vs, dtype=np.int64)
            expect = np.concatenate(
                [indices[offsets[v] : offsets[v + 1]] for v in verts]
            )
            got = gather_rows(offsets, indices, verts)
            assert np.array_equal(got, expect)

    def test_empty_vertex_set(self):
        g = gen.ring(5)
        offsets, indices = g.csr()
        out = gather_rows(offsets, indices, np.zeros(0, dtype=np.int64))
        assert out.size == 0

    def test_zero_degree_vertices_contribute_nothing(self):
        g = gen.star_forest(1, 3)  # plus isolated-free; add empty graph too
        offsets, indices = g.csr()
        leaves = np.array([1, 2, 3], dtype=np.int64)
        assert gather_rows(offsets, indices, leaves).tolist() == [0, 0, 0]


class TestResolveIds:
    def test_identity_default(self):
        g = gen.ring(4)
        assert resolve_ids(g, None).tolist() == [0, 1, 2, 3]

    def test_validation_matches_sync_network(self):
        g = gen.ring(4)
        with pytest.raises(ValueError, match="length"):
            resolve_ids(g, [1, 2, 3])
        with pytest.raises(ValueError, match="distinct"):
            resolve_ids(g, [1, 1, 2, 3])

    def test_id_space(self):
        assert id_space(np.array([3, 9, 0], dtype=np.int64)) == 10
        assert id_space(np.zeros(0, dtype=np.int64)) == 1


class TestFinalizeRun:
    def test_derives_active_trace_from_term(self):
        term = np.array([1, 2, 2, 3], dtype=np.int64)
        metrics = finalize_run(
            term,
            sent=[4, 2, 1],
            msgs=[5, 4, 2],
            receivers=[3, 2, 0],
        )
        assert metrics.rounds == (1, 2, 2, 3)
        assert metrics.active_trace == (4, 3, 1)
        assert metrics.messages_per_round == (5, 4, 2)
        assert metrics.check_active_trace()

    def test_emits_aggregate_events_on_live_bus(self):
        from repro.obs.events import EventBus
        from repro.obs.sinks import MemorySink

        mem = MemorySink()
        term = np.array([2, 1], dtype=np.int64)
        with session(bus=EventBus(mem)):
            finalize_run(
                term,
                sent=[3, 0],
                msgs=[4, 1],
                receivers=[1, 0],
            )
        kinds = [e.kind for e in mem.events]
        # round_sends only for rounds that actually routed something
        assert kinds == ["round_start", "round_sends", "round_end", "round_start", "round_end"]
        assert mem.events[1].msgs == 3
        assert mem.events[2].halts == 1

    def test_empty_graph(self):
        metrics = finalize_run(np.zeros(0, dtype=np.int64), [], [], [])
        assert metrics.rounds == ()
        assert metrics.active_trace == ()


class TestBroadcastKernel:
    @pytest.mark.parametrize("n,rounds", [(60, 3), (200, 10)])
    def test_bit_identical_to_generator_kernel(self, n, rounds):
        from repro.bench.baseline import broadcast_program

        g = gen.union_of_forests(n, 3, seed=0)
        ref = SyncNetwork(g).run(broadcast_program(rounds))
        bulk = bulk_broadcast_kernel(g, rounds=rounds)
        assert bulk.outputs == ref.outputs
        assert bulk.metrics.rounds == ref.metrics.rounds
        assert bulk.metrics.active_trace == ref.metrics.active_trace
        assert (
            bulk.metrics.messages_per_round == ref.metrics.messages_per_round
        )
        assert bulk.output_rounds == ref.output_rounds


class TestRefusals:
    def test_require_no_faults_is_noop_without_session(self):
        require_no_faults("anything")

    def test_require_no_faults_raises_under_session(self):
        from repro.faults import CrashSpec, FaultPlan

        plan = FaultPlan(seed=3, crashes=CrashSpec(hazard=0.5))
        with session(faults=plan.injector()):
            with pytest.raises(BulkUnsupported, match="fault injection"):
                require_no_faults("bulk_partition")

    def test_generic_program_raises_under_bulk_session(self):
        g = gen.ring(6)

        def program(ctx):
            yield
            return None

        with session(engine="bulk"):
            with pytest.raises(BulkUnsupported, match="columnar driver"):
                SyncNetwork(g).run(program)


class TestLargeN:
    """The million-vertex acceptance path, scaled to test budget: the
    columnar Partition driver completes quickly at n = 10^5 and its
    watchdog failure is cheap (lazy summaries, no contexts)."""

    def test_partition_at_one_hundred_thousand(self):
        import repro

        g = gen.union_of_forests(100_000, 3, seed=0)
        with session(engine="bulk"):
            res = repro.run_partition(g, a=3)
        m = res.metrics
        assert len(res.h_index) == 100_000
        assert m.check_active_trace()
        # Theorem 6.3's shape: O(1) vertex-averaged at any scale
        assert m.vertex_averaged < 4.0
        assert m.worst_case <= 10

    def test_bulk_watchdog_is_lazy_at_large_n(self):
        from repro.core.bulk import bulk_partition

        # a = 1 undersizes the degree bound for an arboricity-3 graph, so
        # the high-degree core never drains and the budget runs out with
        # tens of thousands of vertices still active
        g = gen.union_of_forests(50_000, 3, seed=0)
        with pytest.raises(RoundLimitExceeded) as exc:
            bulk_partition(g, 1, max_rounds=1)
        err = exc.value
        assert err.limit == 1
        assert err._summaries is None  # nothing materialized by raising
        assert len(err.active) > 1_000
        # message names only a 12-vertex prefix of the stragglers
        assert "... " in str(err) and " more" in str(err)
        # summaries degrade to (v, limit, None, None, None) -- no contexts
        v, limit, ad, h, c = err.summaries[0]
        assert limit == 1 and ad is None and h is None and c is None


class TestChunkedKernels:
    """BULK_CHUNK-sized tiling must be invisible: forcing a tiny chunk
    size reproduces the untiled results bit-for-bit."""

    def test_partition_chunked_matches(self, monkeypatch):
        import repro
        import repro.core.bulk as cb

        g = gen.union_of_forests(600, 3, seed=2)
        with session(engine="bulk"):
            ref = repro.run_partition(g, a=3)
        monkeypatch.setattr(cb, "BULK_CHUNK", 7)
        with session(engine="bulk"):
            got = repro.run_partition(g, a=3)
        assert got.h_index == ref.h_index
        assert got.metrics == ref.metrics

    @pytest.mark.parametrize("driver", ["partition", "luby"])
    def test_chunked_matches_under_crash_and_drop(self, monkeypatch, driver):
        """Fault-aware runs tile too: outputs, metrics, the crashed set
        and the ``fault_drop`` stream survive a 7-vertex chunk."""
        import repro
        import repro.core.bulk as cb
        from repro.faults import CrashSpec, FaultPlan, MessageFaults
        from repro.obs.events import EventBus, FaultDrop
        from repro.obs.sinks import MemorySink

        g = gen.union_of_forests(600, 3, seed=2)
        plan = FaultPlan(
            seed=5,
            crashes=CrashSpec(at={3: 2, 40: 3, 41: 4, 200: 5}, hazard=0.01),
            messages=MessageFaults(drop=0.05),
        )
        run, extract = {
            "partition": (lambda: repro.run_partition(g, a=3), lambda r: r.h_index),
            "luby": (lambda: repro.run_luby_mis(g, seed=1), lambda r: r.in_mis),
        }[driver]

        def outcome():
            sink = MemorySink()
            with session(engine="bulk", faults=plan, bus=EventBus(sink)) as rs:
                inj = rs.injector
                try:
                    res = run()
                except RoundLimitExceeded as err:
                    res = err
            drops = [e.to_record() for e in sink.events if isinstance(e, FaultDrop)]
            if isinstance(res, RoundLimitExceeded):
                return ("watchdog", sorted(res.active), drops)
            return (extract(res), res.metrics, sorted(inj.crashed), drops)

        ref = outcome()
        assert ref[0] != "watchdog" and ref[2] and ref[3]
        monkeypatch.setattr(cb, "BULK_CHUNK", 7)
        assert outcome() == ref

    def test_broadcast_kernel_chunked_matches(self, monkeypatch):
        import repro.runtime.bulk as rb

        g = gen.gnp(80, 0.1, seed=1)
        ref = bulk_broadcast_kernel(g, rounds=4)
        monkeypatch.setattr(rb, "BULK_CHUNK", 3)
        got = bulk_broadcast_kernel(g, rounds=4)
        assert got.metrics == ref.metrics


@pytest.mark.parametrize(
    "faults",
    [None, "crash"],
    ids=["clean", "crash"],
)
def test_profiled_bulk_run_times_kernel_and_finalize(faults):
    """The single finalizer times itself: a profiled bulk run reports
    both the ``kernel`` and the ``finalize`` phase, clean or faulted."""
    from repro import zoo
    from repro.faults import CrashSpec, FaultPlan

    plan = FaultPlan(seed=3, crashes=CrashSpec(hazard=0.01)) if faults else None
    g = gen.forest_union_csr(2000, 3, seed=1)
    ex = zoo.execute("partition", g, a=3, engine="bulk", profile=True, faults=plan)
    assert ex.completed
    assert {"kernel", "finalize"} <= set(ex.profiler.as_dict())
