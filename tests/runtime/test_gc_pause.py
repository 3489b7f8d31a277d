"""The generator engines run with the cyclic garbage collector paused.

Two things are pinned: the pause's contract (the caller's
``gc.isenabled()`` comes back on every exit path, and a caller's
disabled collector stays disabled) and its premise (a registry run
leaves no cyclic garbage, so the pause cannot hide a leak).
"""

import gc
from contextlib import nullcontext

import pytest

from repro import zoo
from repro.bench.workloads import make_workload
from repro.graphs import generators as gen
from repro.runtime.network import RoundLimitExceeded, SyncNetwork
from repro.runtime.reference import ReferenceSyncNetwork

ENGINES = [SyncNetwork, ReferenceSyncNetwork]


def _returns(ctx):
    yield
    return ctx.id


def _forever(ctx):
    while True:
        ctx.broadcast(ctx.id)
        yield


class Boom(Exception):
    pass


def _raises(ctx):
    yield
    if ctx.v == 3:
        raise Boom
    return None


def _seen_enabled(ctx):
    # the collector as the program sees it, mid-run
    ctx.config["seen"].append(gc.isenabled())
    return None
    yield  # pragma: no cover


@pytest.fixture
def collector():
    """Leave the collector as the test found it, whatever the test does."""
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.__name__)
@pytest.mark.parametrize(
    "program, raises",
    [(_returns, None), (_forever, RoundLimitExceeded), (_raises, Boom)],
    ids=["ok", "watchdog", "raises"],
)
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_run_restores_the_callers_collector(
    collector, engine, program, raises, enabled
):
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(raises) if raises else nullcontext():
        engine(gen.ring(8)).run(program, max_rounds=3)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.__name__)
def test_programs_run_with_the_collector_paused(collector, engine):
    gc.enable()
    seen = []
    engine(gen.ring(4), config={"seen": seen}).run(_seen_enabled)
    assert seen == [False] * 4
    assert gc.isenabled()


def test_delegated_reference_run_restores_the_collector(collector):
    """``SyncNetwork.run`` hands a reference-engine session to
    ``ReferenceSyncNetwork.run``: the two pauses nest."""
    from repro.runtime.session import session

    gc.enable()
    with session(engine="reference"):
        with pytest.raises(Boom):
            SyncNetwork(gen.ring(8)).run(_raises)
    assert gc.isenabled()


@pytest.mark.parametrize("name", [s.name for s in zoo.all_specs()])
def test_registry_runs_leave_no_cyclic_garbage(name):
    """The premise of the pause: after one warm-up run (lazy imports,
    first-call caches), executing and validating a registered algorithm
    creates nothing that only the cyclic collector could free."""
    spec = zoo.get(name)
    workload = spec.workloads[0] if spec.workloads else "forest_union_a3"
    g, a = make_workload(workload)(60, seed=1)
    ids = gen.random_ids(g.n, seed=1001)

    def once():
        zoo.execute(name, g, a, ids, 0).validate(g)

    once()
    gc.collect()
    once()
    assert gc.collect() == 0
