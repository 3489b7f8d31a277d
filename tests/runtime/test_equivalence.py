"""Differential equivalence: fast vs reference vs bulk engines.

:class:`repro.runtime.network.SyncNetwork` (pooled mail slots, CSR
fan-out, broadcast fast path) must replay any vertex program with results
identical to :class:`repro.runtime.reference.ReferenceSyncNetwork` (the
seed implementation, kept as the executable specification).  These tests
replay randomized programs exercising every observable engine feature --
``ctx.send``, ``ctx.broadcast``, ``ctx.send_many``, ``ctx.commit``,
``ctx.inbox``, ``ctx.halted`` / ``ctx.newly_halted``, final-round sends --
over every workload family and several seeds, and compare the complete
:class:`RunResult` surface plus the full engine event streams.

The three-way matrix at the bottom extends the pin to the columnar bulk
engine: every driver with a bulk twin (``repro.core.bulk.BULK_DRIVERS``)
must produce bit-identical outputs *and* round/message accounting under
all three engines, across the workload families and several seeds; bulk
runs under an active fault session must refuse loudly rather than skip
the adversary.
"""

import pytest

from repro.bench.workloads import WORKLOADS
from repro.obs.events import EventBus
from repro.runtime.network import SyncNetwork
from repro.runtime.reference import ReferenceSyncNetwork
from repro.runtime.session import session
from repro.obs.sinks import MemorySink

# every family the benchmark tables quantify over (>= 5 required)
FAMILIES = sorted(WORKLOADS)
SEEDS = (0, 1, 2)
N = 120


# ---------------------------------------------------------------------------
# Program zoo: each exercises a different slice of the engine's semantics.
# All are deterministic given (graph, ids, seed) via ctx.rng.
# ---------------------------------------------------------------------------

def prog_broadcast_staggered(ctx):
    """Broadcast-heavy with randomized per-vertex lifetimes."""
    lifetime = 1 + ctx.rng.randrange(6)
    total = 0
    for r in range(lifetime):
        ctx.broadcast(("beat", ctx.id, r))
        yield
        for u, msgs in ctx.inbox.items():
            total += len(msgs)
    return (ctx.id, total)


def prog_send_gossip(ctx):
    """Explicit sends to random active neighbors; reacts to newly_halted."""
    best = ctx.id
    seen_halt = 0
    for r in range(8):
        nbrs = ctx.active_neighbors()
        if nbrs:
            # a couple of targeted sends plus a bundle to one neighbor
            u = nbrs[ctx.rng.randrange(len(nbrs))]
            ctx.send(u, best)
            ctx.send(u, ("again", best))
            ctx.send_many(nbrs[:2], ("bundle", r))
        yield
        for u, msgs in ctx.inbox.items():
            for m in msgs:
                if isinstance(m, int) and m > best:
                    best = m
        seen_halt += len(ctx.newly_halted)
        for u in ctx.newly_halted:
            out = ctx.halted[u]
            if isinstance(out, tuple) and isinstance(out[0], int) and out[0] > best:
                best = out[0]
        if ctx.rng.random() < 0.25:
            # final-round send: delivered to live neighbors next round
            ctx.broadcast(("parting", ctx.id))
            return (best, seen_halt)
    return (best, seen_halt)


def prog_commit_then_linger(ctx):
    """Commit early, keep relaying, terminate later (Feuilloley's first
    definition): output_rounds must differ from termination rounds."""
    commit_at = 1 + ctx.rng.randrange(3)
    linger = ctx.rng.randrange(4)
    for r in range(commit_at):
        ctx.broadcast(("pre", r))
        yield
    ctx.commit(("out", ctx.id, ctx.round))
    for r in range(linger):
        ctx.broadcast(("relay", r, sorted(ctx.inbox)))
        yield
    return None  # output fixed by the commit


def prog_collect_wave(ctx):
    """Waits on specific neighbors; mixes halted-notice reads with inbox."""
    parents = [u for u in ctx.neighbors if ctx.neighbor_ids[u] > ctx.id]
    got = {}
    ctx.broadcast(("me", ctx.id))
    yield
    waited = 0
    while len(got) < len(parents) and waited < 10:
        for u in parents:
            if u in ctx.inbox:
                got[u] = ctx.inbox[u][-1]
            elif u in ctx.halted:
                got[u] = ctx.halted[u]
        if len(got) < len(parents):
            ctx.broadcast(("still-waiting", waited))
            yield
            waited += 1
    return (ctx.active_degree(), tuple(sorted(got)))


def prog_mixed_chatter(ctx):
    """Interleaves broadcast and sends in one round (ordering-sensitive:
    payload bundles to a receiver must keep send order)."""
    for r in range(5):
        nbrs = ctx.active_neighbors()
        if nbrs:
            u = nbrs[r % len(nbrs)]
            ctx.send(u, ("a", r))
            ctx.broadcast(("b", r))
            ctx.send(u, ("c", r))
        yield
        bundle = tuple(
            (u, tuple(map(tuple, msgs))) for u, msgs in sorted(ctx.inbox.items())
        )
        if ctx.rng.random() < 0.3:
            return bundle
    return None


PROGRAMS = {
    "broadcast_staggered": prog_broadcast_staggered,
    "send_gossip": prog_send_gossip,
    "commit_then_linger": prog_commit_then_linger,
    "collect_wave": prog_collect_wave,
    "mixed_chatter": prog_mixed_chatter,
}


def _run_both(family, seed, program, with_events=False):
    from repro.graphs import generators as gen

    wl = WORKLOADS[family]
    g, _a = wl(N, seed=seed)
    ids = gen.random_ids(g.n, seed=1000 + seed)
    results = []
    streams = []
    for cls in (SyncNetwork, ReferenceSyncNetwork):
        if with_events:
            mem = MemorySink()
            with session(bus=EventBus(mem)):
                res = cls(g, ids=ids, seed=seed).run(program)
            streams.append(mem.events)
        else:
            res = cls(g, ids=ids, seed=seed).run(program)
        results.append(res)
    return results, streams


def _assert_equal_results(fast, ref):
    assert fast.outputs == ref.outputs
    assert fast.metrics.rounds == ref.metrics.rounds
    assert fast.metrics.active_trace == ref.metrics.active_trace
    assert fast.metrics.messages_per_round == ref.metrics.messages_per_round
    assert fast.output_rounds == ref.output_rounds
    # both engines agree with Equation (1)
    assert fast.metrics.check_active_trace()
    assert ref.metrics.check_active_trace()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_engines_agree_on_gossip(family, seed):
    (fast, ref), _ = _run_both(family, seed, prog_send_gossip)
    _assert_equal_results(fast, ref)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_engines_agree_on_broadcast(family, seed):
    (fast, ref), _ = _run_both(family, seed, prog_broadcast_staggered)
    _assert_equal_results(fast, ref)


@pytest.mark.parametrize("program_name", sorted(PROGRAMS))
@pytest.mark.parametrize("family", ["forest_union_a3", "star_forest", "deep_tree"])
def test_engines_agree_across_programs(program_name, family):
    (fast, ref), _ = _run_both(family, 0, PROGRAMS[program_name])
    _assert_equal_results(fast, ref)


@pytest.mark.parametrize("family", ["forest_union_a3", "planar_grid", "caterpillar"])
@pytest.mark.parametrize("seed", SEEDS)
def test_commit_and_trace_golden(family, seed):
    """Committed-then-terminated vertices report identical output_rounds
    and identical event streams (every commit, halt and message, in
    order) under both engines."""
    (fast, ref), (ev_fast, ev_ref) = _run_both(
        family, seed, prog_commit_then_linger, with_events=True
    )
    _assert_equal_results(fast, ref)
    # commit rounds strictly before termination rounds for lingerers
    assert any(
        o < r for o, r in zip(fast.output_rounds, fast.metrics.rounds)
    ) or all(o == r for o, r in zip(fast.output_rounds, fast.metrics.rounds))
    assert fast.output_metrics.rounds == ref.output_metrics.rounds
    assert ev_fast == ev_ref
    assert any(e.kind == "commit" for e in ev_fast)


@pytest.mark.parametrize("family", ["ring", "gnp_sparse"])
def test_trace_equivalence_on_chatter(family):
    (fast, ref), (ev_fast, ev_ref) = _run_both(
        family, 1, prog_mixed_chatter, with_events=True
    )
    _assert_equal_results(fast, ref)
    assert ev_fast == ev_ref


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_event_streams_identical(family, seed):
    """The instrumentation layer sees the *same execution* from both
    engines: the full typed event stream (round boundaries, every send,
    broadcast, commit, halt, and drop, in order) is bit-identical."""
    from repro.graphs import generators as gen
    from repro.obs.events import EventBus
    from repro.obs.sinks import MemorySink

    wl = WORKLOADS[family]
    g, _a = wl(N, seed=seed)
    ids = gen.random_ids(g.n, seed=1000 + seed)
    streams = []
    for cls in (SyncNetwork, ReferenceSyncNetwork):
        mem = MemorySink()
        with session(bus=EventBus(mem)):
            cls(g, ids=ids, seed=seed).run(prog_send_gossip)
        streams.append(mem.events)
    fast_events, ref_events = streams
    assert fast_events == ref_events
    assert any(e.kind == "send" for e in fast_events)


@pytest.mark.parametrize("program_name", sorted(PROGRAMS))
def test_event_streams_identical_across_programs(program_name):
    from repro.graphs import generators as gen
    from repro.obs.events import EventBus
    from repro.obs.sinks import MemorySink

    wl = WORKLOADS["forest_union_a3"]
    g, _a = wl(N, seed=2)
    ids = gen.random_ids(g.n, seed=1002)
    streams = []
    for cls in (SyncNetwork, ReferenceSyncNetwork):
        mem = MemorySink()
        with session(bus=EventBus(mem)):
            cls(g, ids=ids, seed=2).run(PROGRAMS[program_name])
        streams.append(mem.events)
    assert streams[0] == streams[1]


# ---------------------------------------------------------------------------
# Three-way matrix: every bulk-capable driver, fast vs reference vs bulk
# ---------------------------------------------------------------------------

def _metrics_surface(m):
    return (
        m.rounds,
        m.active_trace,
        m.messages_per_round,
        m.vertex_averaged,
        m.worst_case,
        m.round_sum,
        m.total_messages,
    )


def _instance(family, seed, n=N):
    from repro.graphs import generators as gen

    g, a = WORKLOADS[family](n, seed=seed)
    ids = gen.random_ids(g.n, seed=1000 + seed)
    return g, a, ids


def _three_way(run):
    """Run ``run()`` under each engine session; returns {engine: result}."""
    out = {"fast": run()}
    with session(engine="reference"):
        out["reference"] = run()
    with session(engine="bulk"):
        out["bulk"] = run()
    return out


def _assert_three_way(results, payload):
    fast = results["fast"]
    for engine in ("reference", "bulk"):
        other = results[engine]
        assert payload(other) == payload(fast), engine
        assert _metrics_surface(other.metrics) == _metrics_surface(fast.metrics), engine
    assert fast.metrics.check_active_trace()
    assert results["bulk"].metrics.check_active_trace()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_three_way_partition(family, seed):
    import repro

    g, a, ids = _instance(family, seed)
    results = _three_way(lambda: repro.run_partition(g, a=a, ids=ids))
    _assert_three_way(results, lambda r: r.h_index)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_three_way_luby_mis(family, seed):
    import repro

    g, _a, ids = _instance(family, seed)
    results = _three_way(lambda: repro.run_luby_mis(g, ids=ids, seed=seed))
    _assert_three_way(results, lambda r: (r.in_mis, r.h_index))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [3, 8, 120])
def test_three_way_cole_vishkin(seed, n):
    import repro
    from repro.graphs import generators as gen

    g = gen.ring(n)
    ids = gen.random_ids(n, seed=1000 + seed)
    results = _three_way(lambda: repro.run_ring_three_coloring(g, ids=ids))
    _assert_three_way(results, lambda r: r.colors)


@pytest.mark.parametrize("family", ["forest_union_a3", "star_forest", "gnp_sparse"])
@pytest.mark.parametrize("d", [1, 3])
def test_three_way_defective_coloring(family, d):
    import repro

    g, _a, ids = _instance(family, seed=d)
    results = _three_way(lambda: repro.run_defective_coloring(g, d=d, ids=ids))
    _assert_three_way(results, lambda r: (r.colors, r.palette_bound, r.defect_bound))


@pytest.mark.parametrize("driver", ["run_partition", "run_luby_mis"])
def test_bulk_fault_sessions_delegate_and_agree(driver):
    """Under a live crash/drop fault session the bulk twin's single
    kernel (repro.core.bulk) replays the fast engine's
    counter-based adversary exactly; only duplicate/delay plans -- which
    need multi-round buffering -- are refused loudly."""
    import repro
    from repro.faults import CrashSpec, FaultPlan, MessageFaults
    from repro.runtime import BulkUnsupported

    g, a, ids = _instance("forest_union_a3", seed=0, n=40)
    plan = FaultPlan(seed=1, crashes=CrashSpec(at={0: 2}))
    run = {
        "run_partition": lambda: repro.run_partition(g, a=a, ids=ids),
        "run_luby_mis": lambda: repro.run_luby_mis(g, ids=ids, seed=0),
    }[driver]
    extract = {
        "run_partition": lambda r: r.h_index,
        "run_luby_mis": lambda r: r.in_mis,
    }[driver]
    with session(faults=plan.injector()):
        ref = run()
    with session(engine="bulk", faults=plan.injector()):
        got = run()
    assert extract(got) == extract(ref)
    assert got.metrics.active_trace == ref.metrics.active_trace

    dup = FaultPlan(seed=1, messages=MessageFaults(duplicate=0.5))
    with session(engine="bulk", faults=dup.injector()):
        with pytest.raises(BulkUnsupported, match="duplicate/delay"):
            run()


def test_newly_halted_and_inbox_views_agree():
    """Spot-check the per-round *views* (inbox dict contents, newly_halted
    sets) agree between engines, not just the aggregate result."""
    from repro.graphs import generators as gen

    g = gen.star(8)
    logs = {}

    def make_program(tag):
        def program(ctx):
            log = logs.setdefault(tag, {}).setdefault(ctx.v, [])
            for r in range(3 + (ctx.v % 3)):
                ctx.broadcast(("r", r))
                yield
                log.append(
                    (
                        ctx.round,
                        sorted((u, tuple(ms)) for u, ms in ctx.inbox.items()),
                        sorted(ctx.newly_halted),
                        sorted(ctx.halted),
                    )
                )
            return ctx.v

        return program

    SyncNetwork(g).run(make_program("fast"))
    ReferenceSyncNetwork(g).run(make_program("ref"))
    assert logs["fast"] == logs["ref"]
