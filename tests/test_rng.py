"""The counter-based random source: known answers, scalar == numpy,
range and uniformity, stream separation, and its monopoly on draws."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import rng

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

INT64 = st.integers(-(2**63), 2**63 - 1)
INT32 = st.integers(-(2**31), 2**31 - 1)
WORD = st.one_of(INT64, st.integers(-(2**80), 2**80))


class TestKnownAnswers:
    def test_single_fold_is_splitmix64(self):
        # one fold from state 0 is the first splitmix64 output seeded with
        # the word: the published reference values
        assert rng.fold(0, 0) == 0xE220A8397B1DCDAF
        assert rng.fold(0, 1234567) == 6457827717110365317

    def test_pinned_vectors(self):
        assert rng.hash64(0, 0) == 12035550249420947055
        assert rng.hash64(7, rng.VERTEX, 5, 0) == 14030820211679558850
        assert rng.u01(7, rng.VERTEX, 5, 0) == 0.7606122877628251
        assert rng.hash64(-1, 2**64 + 3, -(2**63)) == 2267740729029749533

    def test_words_are_taken_mod_2_64(self):
        assert rng.hash64(-1, 3) == rng.hash64(2**64 - 1, 3)
        assert rng.hash64(5, 2**64 + 3) == rng.hash64(5, 3)

    def test_prefix_folding_composes(self):
        h = rng.fold(0, 9, rng.MESSAGE, 4)
        assert rng.fold(h, 1, 2, 0) == rng.hash64(9, rng.MESSAGE, 4, 1, 2, 0)
        assert rng.to_u01(rng.hash64(3, 1, 2)) == rng.u01(3, 1, 2)


class TestScalarEqualsNumpy:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=WORD,
        stream=st.integers(0, 8),
        a=st.lists(INT64, min_size=1, max_size=20),
        tail=WORD,
    )
    def test_int64_words(self, seed, stream, a, tail):
        arr = np.array(a, dtype=np.int64)
        got = rng.hash64_many(seed, stream, arr, tail)
        assert got.tolist() == [rng.hash64(seed, stream, x, tail) for x in a]
        u = rng.u01_many(seed, stream, arr, tail)
        assert u.tolist() == [rng.u01(seed, stream, x, tail) for x in a]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=INT64,
        a=st.lists(INT32, min_size=1, max_size=20),
        k=st.integers(0, 2**40),
    )
    def test_int32_words_and_two_arrays(self, seed, a, k):
        a32 = np.array(a, dtype=np.int32)
        b = np.arange(len(a), dtype=np.uint64) * np.uint64(k % 97 + 1)
        got = rng.hash64_many(seed, rng.MESSAGE, 3, a32, b, k)
        want = [
            rng.hash64(seed, rng.MESSAGE, 3, x, int(y), k)
            for x, y in zip(a, b.tolist())
        ]
        assert got.tolist() == want

    def test_uint64_extremes_and_bools(self):
        a = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
        assert rng.hash64_many(1, 2, a).tolist() == [
            rng.hash64(1, 2, int(x)) for x in a.tolist()
        ]
        m = np.array([True, False])
        assert rng.hash64_many(1, 2, m).tolist() == [
            rng.hash64(1, 2, 1),
            rng.hash64(1, 2, 0),
        ]

    def test_float_words_are_rejected(self):
        with pytest.raises(TypeError):
            rng.hash64_many(1, 2, np.array([0.5]))

    def test_vertex_rng_matches_the_vectorised_draws(self):
        ids = np.array([3, 17, 2**40, 5], dtype=np.int64)
        for k in range(4):
            row = rng.u01_many(11, rng.VERTEX, ids, k)
            assert row.tolist() == [rng.u01(11, rng.VERTEX, int(i), k) for i in ids]
        r = rng.VertexRng(11, 17)
        assert [r.random() for _ in range(4)] == [
            rng.u01(11, rng.VERTEX, 17, k) for k in range(4)
        ]

    def test_randrange_is_one_scaled_draw(self):
        a, b = rng.VertexRng(2, 9), rng.VertexRng(2, 9)
        for m in (1, 2, 7, 1000):
            assert a.randrange(m) == int(b.random() * m)
        with pytest.raises(ValueError):
            a.randrange(0)


class TestDistribution:
    def test_values_lie_in_unit_interval(self):
        u = rng.u01_many(5, rng.CRASH, 1, np.arange(200_000))
        assert u.min() >= 0.0 and u.max() < 1.0
        # the top 53 bits of an all-ones hash stay below 1
        assert rng.to_u01(2**64 - 1) < 1.0

    @pytest.mark.parametrize("stream", [rng.VERTEX, rng.CRASH, rng.MESSAGE])
    def test_chi_square_16_bins(self, stream):
        n = 64_000
        u = rng.u01_many(42, stream, np.arange(n), 0)
        counts = np.bincount((u * 16).astype(np.int64), minlength=16)
        expected = n / 16
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 15 degrees of freedom: P(chi2 > 37.7) = 0.001
        assert chi2 < 37.7

    def test_distinct_streams_give_distinct_values(self):
        v = np.arange(1000)
        draws = [
            rng.hash64_many(1, s, 2, v)
            for s in (rng.VERTEX, rng.CRASH, rng.MESSAGE, rng.DELAY, rng.INPUT)
        ]
        everything = np.concatenate(draws)
        assert np.unique(everything).size == everything.size
        # and distinct seeds, counters and word orders within one stream
        assert rng.hash64(1, 1, 2, 3) != rng.hash64(2, 1, 2, 3)
        assert rng.hash64(1, 1, 2, 3) != rng.hash64(1, 1, 3, 2)
        assert rng.hash64(1, 1, 2) != rng.hash64(1, 1, 2, 0)


def test_no_mersenne_stream_on_the_hot_path():
    """Every vertex, crash, message and delay draw goes through repro.rng:
    no ``random.Random(`` construction remains in the engines, the
    algorithms or the adversary.  The fuzz sampler is set-up code that
    samples whole cases from one seeded stream."""
    allowed = {SRC / "faults" / "fuzz.py"}
    pattern = re.compile(r"\bRandom\(")
    offenders = [
        f"{path.relative_to(SRC)}:{i}"
        for pkg in ("core", "faults", "runtime")
        for path in sorted((SRC / pkg).rglob("*.py"))
        if path not in allowed
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == []
