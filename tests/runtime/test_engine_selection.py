"""The run session's engine: `session(engine=...)` / `current().engine`.

Drivers construct their networks internally, so `zoo.execute` cannot pass
an engine down the call stack; instead `SyncNetwork.run` consults the
run session and delegates to the reference engine when it selects one.
These tests pin the engine field's nesting and the delegation itself.
"""

import pytest

from repro.bench.workloads import make_workload
from repro.graphs import generators as gen
from repro.runtime import ENGINES
from repro.runtime.network import SyncNetwork
from repro.runtime.reference import ReferenceSyncNetwork
from repro.runtime.session import current, session


def prog_beat(ctx):
    for r in range(3):
        ctx.broadcast(("beat", ctx.id, r))
        yield
    return (ctx.id, sum(len(m) for m in ctx.inbox.values()))


def _instance(n=80, seed=0):
    g, _a = make_workload("forest_union_a3")(n, seed=seed)
    ids = gen.random_ids(g.n, seed=1000 + seed)
    return g, ids


class TestSessionStack:
    def test_default_engine_is_fast(self):
        assert current().engine == "fast"

    def test_session_sets_and_restores(self):
        with session(engine="reference"):
            assert current().engine == "reference"
        assert current().engine == "fast"

    def test_sessions_nest(self):
        with session(engine="reference"):
            with session(engine="fast"):
                assert current().engine == "fast"
            assert current().engine == "reference"

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with session(engine="reference"):
                raise RuntimeError("boom")
        assert current().engine == "fast"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            with session(engine="turbo"):
                pass

    def test_engines_constant(self):
        assert ENGINES == ("fast", "reference", "bulk")

    def test_bulk_session_rejects_programs_without_drivers(self):
        """Under session(engine='bulk'), a generator program with no
        columnar twin must fail loudly, not silently run the slow path."""
        from repro.runtime import BulkUnsupported

        g, ids = _instance(n=40)
        with session(engine="bulk"):
            with pytest.raises(BulkUnsupported, match="columnar driver"):
                SyncNetwork(g, ids=ids, seed=0).run(prog_beat)

    def test_bulk_session_selects_columnar_driver(self):
        """A bulk-capable driver run inside session(engine='bulk') must be
        bit-identical to its fast-engine run."""
        import repro

        g, ids = _instance(n=120)
        fast = repro.run_partition(g, a=3, ids=ids)
        with session(engine="bulk"):
            bulk = repro.run_partition(g, a=3, ids=ids)
        assert bulk.h_index == fast.h_index
        assert bulk.metrics.rounds == fast.metrics.rounds
        assert bulk.metrics.messages_per_round == fast.metrics.messages_per_round


class TestDelegation:
    def test_fast_network_delegates_to_reference_under_session(self):
        """A SyncNetwork run inside session(engine='reference') must be
        bit-identical to running ReferenceSyncNetwork directly."""
        g, ids = _instance()
        direct = ReferenceSyncNetwork(g, ids=ids, seed=0).run(prog_beat)
        with session(engine="reference"):
            via_session = SyncNetwork(g, ids=ids, seed=0).run(prog_beat)
        assert via_session.outputs == direct.outputs
        assert via_session.metrics.rounds == direct.metrics.rounds
        assert (
            via_session.metrics.messages_per_round
            == direct.metrics.messages_per_round
        )

    def test_reference_subclass_is_not_redirected(self):
        """The delegation guard is `type(self) is SyncNetwork`: an explicit
        ReferenceSyncNetwork must not recurse through itself."""
        g, ids = _instance(n=40)
        with session(engine="reference"):
            res = ReferenceSyncNetwork(g, ids=ids, seed=0).run(prog_beat)
        assert res.metrics.worst_case > 0

    def test_full_driver_agrees_across_engines(self):
        import repro

        g, ids = _instance(n=120)
        fast = repro.run_a2_coloring(g, a=3, ids=ids)
        with session(engine="reference"):
            ref = repro.run_a2_coloring(g, a=3, ids=ids)
        assert fast.colors == ref.colors
        assert fast.metrics.worst_case == ref.metrics.worst_case
        assert fast.metrics.vertex_averaged == ref.metrics.vertex_averaged
