"""Tests for the polynomial cover-free set systems -- the combinatorial
heart of every Linial-style step."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.coverfree import (
    PolyFamily,
    build_family,
    colors_after_one_step,
    fixpoint_palette,
    is_prime,
    next_prime,
    palette_schedule,
    steps_to_fixpoint,
    _int_root_ceil,
    _poly_row,
)


class TestPrimes:
    def test_is_prime_small(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
        for x in range(25):
            assert is_prime(x) == (x in primes)

    def test_next_prime(self):
        assert next_prime(1) == 2
        assert next_prime(8) == 11
        assert next_prime(13) == 13
        assert next_prime(90) == 97

    def test_int_root_ceil(self):
        assert _int_root_ceil(1000, 3) == 10
        assert _int_root_ceil(1001, 3) == 11
        assert _int_root_ceil(1, 5) == 1
        assert _int_root_ceil(17, 2) == 5


class TestFamilyStructure:
    def test_numpy_capacity_builds_the_same_family(self):
        import numpy as np

        assert build_family(np.int64(1000), np.int64(3)) == build_family(1000, 3)

    def test_members_have_size_q(self):
        fam = build_family(100, 3)
        for c in (0, 5, 99):
            pts = fam.member_points(c)
            assert len(pts) == fam.q
            assert len(set(pts)) == fam.q
            assert all(0 <= p < fam.ground_size for p in pts)

    def test_distinct_colors_distinct_sets(self):
        fam = build_family(64, 3)
        assert set(fam.member_points(3)) != set(fam.member_points(4))

    def test_evaluate_is_polynomial(self):
        fam = PolyFamily(capacity=9, A=1, slack=0, q=3, degree=1)
        # color 5 = digits (2, 1) base 3 => P(x) = 2 + 1*x
        assert [fam.evaluate(5, x) for x in range(3)] == [2, 0, 1]

    def test_intersection_bounded_by_degree(self):
        fam = build_family(200, 4)
        for c1 in range(0, 40, 7):
            for c2 in range(1, 40, 9):
                if c1 == c2:
                    continue
                inter = set(fam.member_points(c1)) & set(fam.member_points(c2))
                assert len(inter) <= fam.degree

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError, match="field too small"):
            PolyFamily(capacity=100, A=1, slack=0, q=3, degree=1)
        with pytest.raises(ValueError, match="cover-freeness"):
            PolyFamily(capacity=4, A=10, slack=0, q=2, degree=1)


class TestPick:
    def test_pick_avoids_neighbors(self):
        fam = build_family(500, 4)
        mine = 123
        nbrs = [7, 450, 88, 201]
        chosen = fam.pick(mine, nbrs)
        assert chosen in fam.member_points(mine)
        for u in nbrs:
            assert chosen not in fam.member_points(u)

    def test_pick_skips_equal_colors(self):
        fam = build_family(100, 2)
        # an equal-colored neighbor cannot be avoided and is skipped
        chosen = fam.pick(10, [10, 10])
        assert chosen in fam.member_points(10)

    def test_pick_deterministic(self):
        fam = build_family(300, 3)
        assert fam.pick(5, [9, 17, 33]) == fam.pick(5, [9, 17, 33])

    def test_pick_with_slack_allows_shared_points(self):
        fam = build_family(100, 8, slack=2)
        chosen = fam.pick(3, list(range(4, 12)))
        covered = sum(
            1 for u in range(4, 12) if chosen in fam.member_points(u)
        )
        assert covered <= 2

    def test_pick_over_bound_neighbors_raises(self):
        fam = build_family(50, 2)
        # more neighbors than the family was built for may exhaust it
        with pytest.raises(AssertionError):
            # force failure: every point of color 0's set covered
            fam.pick(0, list(range(1, 50)))


def _pick_by_full_count(fam, color, neighbor_colors):
    """The full-count rule ``PolyFamily.pick`` replaced, kept verbatim as
    its oracle: count agreements at every point, take the first point
    with the fewest."""
    q = fam.q
    counts = [0] * q
    mine = _poly_row(q, fam.degree, color)
    for cu in neighbor_colors:
        if cu == color:
            continue
        theirs = _poly_row(q, fam.degree, cu)
        for x in range(q):
            if theirs[x] == mine[x]:
                counts[x] += 1
    # the first point with the fewest agreements
    fewest = min(counts)
    if fewest > fam.slack:
        raise AssertionError(
            "cover-free guarantee violated: too many neighbors "
            f"({fewest} > slack {fam.slack}); A bound exceeded?"
        )
    best_x = counts.index(fewest)
    return best_x * q + mine[best_x]


@st.composite
def _families(draw):
    """A family drawn over (q, D, slack), with the largest A it admits."""
    q = draw(st.sampled_from([2, 3, 5, 7, 11, 19]))
    degree = draw(st.integers(1, 3))
    slack = draw(st.integers(0, 3))
    A = (q * (slack + 1) - 1) // degree
    return PolyFamily(capacity=q ** (degree + 1), A=A, slack=slack, q=q, degree=degree)


@settings(max_examples=400, deadline=None)
@given(fam=_families(), data=st.data())
def test_property_first_free_pick_is_the_full_count_pick(fam, data):
    """The first free point is the full count's first minimal point, and
    without a free point (slack > 0) the fallback is the full count: the
    two rules return the same point or raise the same error -- own-color
    neighbors, repeated colors and more neighbors than A included."""
    top = fam.capacity - 1
    # a narrow color range makes equal and repeated colors common
    hi = data.draw(st.sampled_from([min(3, top), top]))
    color = data.draw(st.integers(0, hi), label="color")
    nbrs = data.draw(
        st.lists(st.integers(0, hi), max_size=3 * fam.A + 4), label="nbrs"
    )
    assert _pick_outcome(lambda: fam.pick(color, nbrs)) == _pick_outcome(
        lambda: _pick_by_full_count(fam, color, nbrs)
    )


def test_pick_without_a_free_point_falls_back_to_the_fewest():
    """Over F_2, color 0 is the zero polynomial; colors 2 and 3 each agree
    with it at one point, so together they leave no free point."""
    fam = PolyFamily(capacity=4, A=3, slack=1, q=2, degree=1)
    assert fam.pick(0, [2, 3]) == 0  # counts [1, 1]: the first point
    assert fam.pick(0, [2, 3, 2]) == 2  # counts [2, 1]: x = 1
    strict = PolyFamily(capacity=4, A=1, slack=0, q=2, degree=1)
    with pytest.raises(AssertionError, match=r"\(1 > slack 0\)"):
        strict.pick(0, [2, 3])


class TestSchedules:
    def test_one_step_palette_is_a2_logn_flavoured(self):
        # growing n with fixed A: one-step palette grows roughly like log n
        sizes = [colors_after_one_step(2**b, 4) for b in (10, 20, 40, 60)]
        assert sizes == sorted(sizes)
        assert sizes[-1] < 40 * sizes[0]  # far below linear growth

    def test_schedule_shrinks_monotonically(self):
        sched = palette_schedule(10**9, 5)
        sizes = [f.ground_size for f in sched]
        assert sizes == sorted(sizes, reverse=True)
        assert all(
            sched[i + 1].capacity == sched[i].ground_size
            for i in range(len(sched) - 1)
        )

    def test_fixpoint_is_quadratic_in_A(self):
        for A in (2, 4, 8, 16):
            fp = fixpoint_palette(A)
            assert fp <= (4 * A + 10) ** 2
            assert fp >= A * A  # cannot beat Linial's Omega(A^2)

    def test_steps_grow_like_log_star(self):
        assert steps_to_fixpoint(2**16, 3) <= steps_to_fixpoint(2**64, 3) <= 8

    def test_tiny_palette_gives_empty_schedule(self):
        assert palette_schedule(10, 8) == []


@settings(max_examples=40, deadline=None)
@given(
    capacity=st.integers(min_value=2, max_value=5000),
    A=st.integers(min_value=1, max_value=12),
)
def test_property_family_valid(capacity, A):
    fam = build_family(capacity, A)
    assert fam.q ** (fam.degree + 1) >= capacity
    assert fam.q > fam.A * fam.degree


@settings(max_examples=25, deadline=None)
@given(
    capacity=st.integers(min_value=50, max_value=2000),
    A=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_property_pick_always_avoids(capacity, A, data):
    """For any <= A distinctly-colored neighbors, the picked point avoids
    all their sets -- the cover-free guarantee."""
    fam = build_family(capacity, A)
    mine = data.draw(st.integers(min_value=0, max_value=capacity - 1))
    nbrs = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=capacity - 1),
            max_size=A,
        )
    )
    chosen = fam.pick(mine, nbrs)
    assert chosen in fam.member_points(mine)
    for u in nbrs:
        if u != mine:
            assert chosen not in fam.member_points(u)


def _pick_outcome(pick):
    try:
        return pick()
    except AssertionError as e:
        return str(e)


@settings(max_examples=150, deadline=None)
@given(
    # small palettes give small fields, where rows break slack often
    capacity=st.one_of(st.integers(2, 30), st.integers(2, 3000)),
    A=st.integers(min_value=1, max_value=6),
    slack=st.integers(min_value=0, max_value=3),
    data=st.data(),
)
def test_property_pick_many_is_pick(capacity, A, slack, data):
    """``pick_many`` over CSR rows equals the scalar ``pick`` per vertex --
    isolated vertices, equal-color neighbors and rows with more than A
    neighbors included -- or raises the scalar's first AssertionError."""
    import numpy as np

    fam = build_family(capacity, A, slack)
    n = data.draw(st.integers(min_value=1, max_value=14))
    # a narrow color range makes equal-color neighbors common
    top = data.draw(st.sampled_from([min(3, capacity - 1), capacity - 1]))
    colors = data.draw(
        st.lists(st.integers(0, top), min_size=n, max_size=n), label="colors"
    )
    width = data.draw(st.sampled_from([A, 3 * A + 2, 8 * A + 8]))
    rows = data.draw(
        st.lists(
            st.lists(st.integers(0, n - 1), max_size=width),
            min_size=n,
            max_size=n,
        ),
        label="rows",
    )
    verts = data.draw(
        st.lists(st.integers(0, n - 1), max_size=2 * n), label="verts"
    )
    dtype = data.draw(st.sampled_from([np.int32, np.int64]))
    offsets = np.zeros(n + 1, dtype=dtype)
    offsets[1:] = np.cumsum([len(r) for r in rows])
    indices = np.array([u for r in rows for u in r], dtype=dtype)

    want = _pick_outcome(
        lambda: [fam.pick(colors[v], [colors[u] for u in rows[v]]) for v in verts]
    )
    got = _pick_outcome(
        lambda: fam.pick_many(
            np.array(colors), offsets, indices, np.array(verts, dtype=np.int64)
        ).tolist()
    )
    assert got == want


def test_pick_many_raises_the_first_scalar_error():
    """Over F_2 every other degree-1 polynomial agrees with yours on one
    point, so a row holding all of them breaks slack 0; the first bad row
    in ``verts`` order names its count, as the scalar loop does."""
    import numpy as np

    fam = build_family(4, 1)
    assert fam.q == 2 and fam.degree == 1
    colors = np.array([0, 1, 2, 3])
    # vertex 3: every other color twice (count 2); vertex 0: once (count 1)
    rows = [[1, 2, 3], [], [], [0, 1, 2, 0, 1, 2]]
    offsets = np.cumsum([0] + [len(r) for r in rows])
    indices = np.array([u for r in rows for u in r])
    for verts, count in (([1, 3, 0], 2), ([0, 3], 1)):
        with pytest.raises(AssertionError, match=rf"\({count} > slack 0\)"):
            fam.pick_many(colors, offsets, indices, np.array(verts))
        with pytest.raises(AssertionError, match=rf"\({count} > slack 0\)"):
            [fam.pick(colors[v], colors[rows[v]].tolist()) for v in verts]
