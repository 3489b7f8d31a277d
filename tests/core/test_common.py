"""Direct tests for the shared program plumbing (LocalView, bounds)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.common import (
    JOIN,
    LocalView,
    absorb_round,
    degree_bound,
    partition_length_bound,
)
from repro.graphs.graph import Graph
from repro.runtime.context import WAIT, Context, Shared
from repro.runtime.network import SyncNetwork


def test_localview_last_payload_wins():
    g = Graph(2, [(0, 1)])
    seen = {}

    def program(ctx):
        view = LocalView()
        ctx.send(1 - ctx.v, ("t", "first"))
        ctx.send(1 - ctx.v, ("t", "second"))
        yield
        view.absorb(ctx)
        seen[ctx.v] = view.value("t", 1 - ctx.v)
        return None

    SyncNetwork(g).run(program)
    assert seen == {0: "second", 1: "second"}


def test_localview_accumulates_across_rounds():
    g = Graph(2, [(0, 1)])
    out = {}

    def program(ctx):
        view = LocalView()
        ctx.send(1 - ctx.v, (JOIN, 1))
        yield
        view.absorb(ctx)
        ctx.send(1 - ctx.v, ("c", 9))
        yield
        view.absorb(ctx)
        out[ctx.v] = (view.get(JOIN), view.get("c"), view.heard("c", 1 - ctx.v))
        return None

    SyncNetwork(g).run(program)
    assert out[0] == ({1: 1}, {1: 9}, True)


def test_localview_value_default():
    view = LocalView()
    assert view.value("missing", 3) is None
    assert view.value("missing", 3, default=-1) == -1
    assert view.get("missing") == {}
    assert not view.heard("missing", 3)


def test_absorb_round_helper():
    g = Graph(2, [(0, 1)])
    got = {}

    def program(ctx):
        view = LocalView()
        ctx.broadcast(("x", ctx.v))
        yield from absorb_round(ctx, view)
        got[ctx.v] = view.value("x", 1 - ctx.v)
        return None

    SyncNetwork(g).run(program)
    assert got == {0: 1, 1: 0}


@pytest.mark.parametrize(
    "a,eps,expected",
    [(1, 1.0, 3), (2, 2.0, 8), (3, 0.25, 7), (5, 1.0, 15)],
)
def test_degree_bound_values(a, eps, expected):
    assert degree_bound(a, eps) == expected


def test_partition_length_bound_monotone_in_n_and_eps():
    assert partition_length_bound(100, 1.0) <= partition_length_bound(10**6, 1.0)
    # larger eps -> faster decay -> shorter bound
    assert partition_length_bound(10**6, 2.0) <= partition_length_bound(10**6, 0.25)


# ---------------------------------------------------------------------------
# absorb reads ctx.mail: the same per-(tag, sender) values as the grouped
# ctx.inbox, whatever the delivery order
# ---------------------------------------------------------------------------


def _ctx(n=6):
    nbrs = tuple(range(1, n))
    return Context(0, 0, nbrs, frozenset(nbrs), Shared(n, {}, 0, range(n)))


def _deliver(ctx, mail):
    """What the fast and async engines do: hand over a mail list."""
    ctx._mail = mail
    ctx._inbox_d = None


def _absorb_grouped(inbox):
    """The grouped absorb: walk sender -> payload lists."""
    state = {}
    for u, payloads in inbox.items():
        for tag, payload in payloads:
            state.setdefault(tag, {})[u] = payload
    return state


def _values(state):
    """Buckets as plain comparable content (bucket order ignored)."""
    return {tag: sorted(bucket.items()) for tag, bucket in state.items()}


def test_absorb_mail_with_delayed_copy_out_of_order():
    # Sender 2's normal copy, then 1's, then 2's adversary-delayed copy
    # after everyone's normal mail -- the fast engine's order.  Grouping
    # moves the delayed copy next to 2's normal one; per sender the two
    # orders agree, so the last payload per (tag, sender) is the same.
    mail = [(2, ("s", "x")), (1, ("t", "a")), (2, ("t", "b")), (2, ("t", "late"))]
    ctx = _ctx()
    _deliver(ctx, mail)
    assert ctx.inbox == {2: [("s", "x"), ("t", "b"), ("t", "late")], 1: [("t", "a")]}
    view = LocalView()
    view.absorb(ctx)
    assert view.state == {"s": {2: "x"}, "t": {1: "a", 2: "late"}}
    assert _values(view.state) == _values(_absorb_grouped(ctx.inbox))
    # only the bucket's key order may differ between the two walks
    assert list(view.get("t")) == [1, 2]
    assert list(_absorb_grouped(ctx.inbox)["t"]) == [2, 1]


_mail_lists = st.lists(
    st.tuples(
        st.integers(1, 5),
        st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 9)),
    ),
    max_size=25,
)


@settings(max_examples=200, deadline=None)
@given(mail=_mail_lists, prior=_mail_lists)
def test_absorb_mail_equals_grouped_inbox(mail, prior):
    """Property: over arbitrary mail (senders repeated, interleaved, out
    of order) absorbing ``ctx.mail`` and walking the grouped
    ``ctx.inbox`` give the same values, on top of an earlier round."""
    ctx = _ctx()
    view = LocalView()
    _deliver(ctx, prior)
    view.absorb(ctx)
    expected = _absorb_grouped(ctx.inbox)
    _deliver(ctx, mail)
    view.absorb(ctx)
    for tag, bucket in _absorb_grouped(ctx.inbox).items():
        expected.setdefault(tag, {}).update(bucket)
    assert _values(view.state) == _values(expected)


@given(mail=_mail_lists)
def test_mail_flattens_a_grouped_inbox(mail):
    """The reference engine sets ``ctx.inbox``; ``ctx.mail`` then lists
    the grouped messages sender by sender, and absorbing it agrees."""
    ctx = _ctx()
    _deliver(ctx, mail)
    grouped = {u: list(ps) for u, ps in ctx.inbox.items()}
    ref = _ctx()
    ref.inbox = grouped
    assert ref.mail == [(u, p) for u, ps in grouped.items() for p in ps]
    assert sorted(ref.mail) == sorted(mail)
    a, b = LocalView(), LocalView()
    a.absorb(ctx)
    b.absorb(ref)
    assert _values(a.state) == _values(b.state)


def test_fresh_context_has_no_mail():
    ctx = _ctx()
    assert ctx.mail == [] and ctx.inbox == {}


# ---------------------------------------------------------------------------
# LocalView.wait_for
# ---------------------------------------------------------------------------


def test_wait_for_returns_without_yielding_when_all_heard():
    ctx = _ctx()
    view = LocalView()
    _deliver(ctx, [(1, ("t", 10)), (2, ("t", 20))])
    view.absorb(ctx)
    gen = view.wait_for(ctx, "t", [1, 2])
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == {1: 10, 2: 20}
    # no members: no wait, and no bucket is created
    gen = view.wait_for(ctx, "absent", [])
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == {} and "absent" not in view.state


def test_wait_for_yields_wait_until_every_member_is_heard():
    ctx = _ctx()
    view = LocalView()
    gen = view.wait_for(ctx, "t", [1, 3])
    assert next(gen) is WAIT
    _deliver(ctx, [(1, ("t", "one")), (3, ("u", "other tag"))])
    assert gen.send(None) is WAIT
    _deliver(ctx, [])
    assert gen.send(None) is WAIT
    _deliver(ctx, [(3, ("t", "three")), (4, ("t", "not a member"))])
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    assert stop.value.value == {1: "one", 3: "three", 4: "not a member"}
    assert stop.value.value is view.get("t")


def test_wait_for_in_a_network():
    """Path 0 - 1 - 2: vertex 1 waits for both ends, which announce in
    rounds 1 and 3; it resumes once both are in, in round 4."""
    g = Graph(3, [(0, 1), (1, 2)])
    got = {}

    def program(ctx):
        view = LocalView()
        if ctx.v == 1:
            bucket = yield from view.wait_for(ctx, "hi", [0, 2])
            got["round"] = ctx.round
            got["bucket"] = dict(bucket)
            return None
        for _ in range(0 if ctx.v == 0 else 2):
            yield
        ctx.send(1, ("hi", ctx.v))
        return None

    res = SyncNetwork(g).run(program)
    assert got == {"round": 4, "bucket": {0: 0, 2: 2}}
    assert res.metrics.rounds == (1, 4, 3)
