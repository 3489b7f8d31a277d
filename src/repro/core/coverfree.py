"""Polynomial cover-free set systems -- the machinery behind Procedure
Arb-Linial-Coloring (Section 7.2; Linial [19]; Lemma 3.21 of the
Barenboim-Elkin book).

For a palette of p current colors and out-degree bound A we need a
collection J = {F_0, ..., F_{p-1}} of subsets of a small ground set such
that no F_c is covered by the union of any A other members: then a vertex
can pick a point of its own set avoided by all of its (at most A) parents,
and that point is its new color.

Construction (Reed-Solomon style): fix a prime q and a degree bound D with
q^{D+1} >= p, and identify color c < q^{D+1} with the polynomial P_c over
F_q whose coefficients are the base-q digits of c.  Let

    F_c = { x * q + P_c(x) : x in F_q }   (a subset of [q^2], |F_c| = q).

Two distinct polynomials agree on at most D points, so A parents can cover
at most A * D < q points of F_c whenever q > A * D -- a free point always
exists.  The new palette has q^2 = O(A^2 log p) colors for the best (q, D).

The same object with *coverage slack* d gives defective colorings
(Section 7.8 machinery): a vertex only needs a point of its set that lies
in at most d of its neighbors' sets, which exists whenever
q > A * D / (d + 1); each such choice is shared with at most d neighbors,
bounding the defect.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil
from typing import Iterable, Sequence

import numpy as np

from repro.runtime.bulk import BULK_CHUNK, gather_rows


def is_prime(x: int) -> bool:
    """Trial-division primality test (field sizes are small)."""
    if x < 2:
        return False
    if x < 4:
        return True
    if x % 2 == 0:
        return False
    f = 3
    while f * f <= x:
        if x % f == 0:
            return False
        f += 2
    return True


def next_prime(x: int) -> int:
    """The smallest prime >= x."""
    c = max(x, 2)
    while not is_prime(c):
        c += 1
    return c


def _int_root_ceil(p: int, k: int) -> int:
    """ceil(p ** (1/k)) computed exactly with integers."""
    if p <= 1:
        return 1
    lo, hi = 1, p
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k >= p:
            hi = mid
        else:
            lo = mid + 1
    return lo


@dataclass(frozen=True)
class PolyFamily:
    """An A-cover-free (with coverage slack) family of p sets over [q^2]."""

    capacity: int  # p: number of sets (current palette size)
    A: int  # out-degree / neighbor bound
    slack: int  # coverage slack d (0 = strictly cover-free)
    q: int  # field size (prime)
    degree: int  # polynomial degree bound D

    def __post_init__(self) -> None:
        if self.q ** (self.degree + 1) < self.capacity:
            raise ValueError("field too small for the palette")
        if self.q * (self.slack + 1) <= self.A * self.degree:
            raise ValueError("cover-freeness condition violated")

    @property
    def ground_size(self) -> int:
        """The size of the new palette: q^2."""
        return self.q * self.q

    def evaluate(self, color: int, x: int) -> int:
        """P_color(x) over F_q, digits of ``color`` in base q as
        coefficients."""
        return _poly_row(self.q, self.degree, color)[x]

    def member_points(self, color: int) -> list[int]:
        """The set F_color as ground-set points x*q + P(x)."""
        q = self.q
        row = _poly_row(q, self.degree, color)
        return [x * q + row[x] for x in range(q)]

    def pick(self, color: int, neighbor_colors: Iterable[int]) -> int:
        """A point of F_color lying in at most ``slack`` of the neighbors'
        sets; with slack 0, a point in none of them.

        Neighbors with the *same* color are skipped: their set is identical
        and unavoidable (in the strictly cover-free setting the caller
        guarantees parents have distinct colors; in the defective setting
        equal-color neighbors are accounted as existing defect).

        The point is the first one with the fewest agreements.  The first
        free point (in no other set) is that point whenever one exists,
        and almost every picker has one at a small x, so the scan stops
        there; only a picker with none (possible only with slack > 0)
        counts agreements at all q points.
        """
        q, degree = self.q, self.degree
        mine = _poly_row(q, degree, color)
        rows = [_poly_row(q, degree, cu) for cu in neighbor_colors if cu != color]
        for x in range(q):
            mx = mine[x]
            for theirs in rows:
                if theirs[x] == mx:
                    break
            else:
                return x * q + mx
        counts = [0] * q
        for theirs in rows:
            for x in range(q):
                if theirs[x] == mine[x]:
                    counts[x] += 1
        fewest = min(counts)
        if fewest > self.slack:
            raise AssertionError(
                "cover-free guarantee violated: too many neighbors "
                f"({fewest} > slack {self.slack}); A bound exceeded?"
            )
        best_x = counts.index(fewest)
        return best_x * q + mine[best_x]

    def pick_many(
        self,
        colors: np.ndarray,
        offsets: np.ndarray,
        indices: np.ndarray,
        verts: np.ndarray,
    ) -> np.ndarray:
        """:meth:`pick` for every vertex of ``verts`` at once: entry i is
        ``pick(colors[v], colors[u] for u in row v)`` for ``v = verts[i]``,
        the rows read from the CSR arrays ``offsets`` / ``indices``.

        The polynomial rows are evaluated once per vertex read and
        gathered over the rows' edges; agreements with each neighbor not
        of the vertex's own color are counted per (vertex, point), and
        the first minimal point wins, exactly the scalar rule.  Raises the
        scalar :class:`AssertionError` for the first vertex (in ``verts``
        order) whose best point lies in more than ``slack`` neighbor
        sets.  Pieces of ``BULK_CHUNK // q`` vertices bound the per-edge
        ``q``-wide scratch.
        """
        q = self.q
        colors = np.asarray(colors, dtype=np.int64)
        step = max(1, BULK_CHUNK // q)
        # one polynomial row per distinct color the call reads -- the
        # pickers' and their neighbors' -- in the narrowest dtype holding
        # F_q; ``slot`` maps a vertex to its color's row
        need = np.zeros(colors.size, dtype=bool)
        need[verts] = True
        for lo in range(0, verts.size, step):
            need[gather_rows(offsets, indices, verts[lo : lo + step])] = True
        who = np.flatnonzero(need)
        palette = np.sort(colors[who])
        first = np.ones(palette.size, dtype=bool)
        first[1:] = palette[1:] != palette[:-1]
        palette = palette[first]
        slot = np.zeros(colors.size, dtype=np.int64)
        slot[who] = np.searchsorted(palette, colors[who])
        table = np.empty((palette.size, q), dtype=np.uint8 if q <= 256 else np.int32)
        for lo in range(0, palette.size, step):
            table[lo : lo + step] = self._rows(palette[lo : lo + step])

        out = np.empty(verts.size, dtype=np.int64)
        for lo in range(0, verts.size, step):
            vs = verts[lo : lo + step]
            nbs = gather_rows(offsets, indices, vs)
            owner = np.repeat(np.arange(vs.size), offsets[vs + 1] - offsets[vs])
            # equal-color neighbors are skipped
            other = slot[nbs] != slot[vs][owner]
            nbs, owner = nbs[other], owner[other]
            mine = table[slot[vs]]
            # count the agreements per (vertex, point)
            hits = np.flatnonzero(table[slot[nbs]] == mine[owner])
            counts = np.bincount(
                owner[hits // q] * q + hits % q, minlength=vs.size * q
            ).reshape(vs.size, q)
            best = counts.argmin(axis=1)
            worst = counts[np.arange(vs.size), best]
            bad = np.flatnonzero(worst > self.slack)
            if bad.size:
                raise AssertionError(
                    "cover-free guarantee violated: too many neighbors "
                    f"({worst[bad[0]]} > slack {self.slack}); A bound exceeded?"
                )
            out[lo : lo + vs.size] = best * q + mine[np.arange(vs.size), best]
        return out

    def _rows(self, colors: np.ndarray) -> np.ndarray:
        """``P_c(x)`` for every color of ``colors`` (rows) and x in F_q
        (columns): :func:`_poly_row` by Horner over the low ``degree + 1``
        base-q digits."""
        q = self.q
        digits = []
        c = colors
        for _ in range(self.degree + 1):
            digits.append(c % q)
            c = c // q
        xs = np.arange(q, dtype=np.int64)
        acc = np.zeros((colors.size, q), dtype=np.int64)
        for d in reversed(digits):
            acc *= xs
            acc += d[:, None]
            acc %= q
        return acc


@lru_cache(maxsize=1 << 18)
def _poly_row(q: int, degree: int, color: int) -> tuple[int, ...]:
    """P_color evaluated at every x in F_q (Horner over base-q digits of
    ``color``), memoized: IDs and intermediate colors repeat across every
    vertex that has to avoid them, making this the simulator's hot path."""
    coeffs = []
    c = color
    for _ in range(degree + 1):
        coeffs.append(c % q)
        c //= q
    coeffs.reverse()
    out = []
    for x in range(q):
        acc = 0
        for a in coeffs:
            acc = (acc * x + a) % q
        out.append(acc)
    return tuple(out)


def build_family(capacity: int, A: int, slack: int = 0) -> PolyFamily:
    """The cheapest polynomial family for ``capacity`` colors, neighbor
    bound ``A`` and coverage slack: minimises the new palette q^2 over the
    polynomial degree D."""
    # numpy ID arrays hand in numpy integers (an ``id_space`` of
    # ``max(ids) + 1``); the family arithmetic needs Python ints
    capacity, A = int(capacity), int(A)
    if capacity < 1:
        raise ValueError("capacity must be positive")
    A = max(A, 1)
    best: PolyFamily | None = None
    max_degree = max(1, capacity.bit_length())
    for D in range(1, max_degree + 1):
        q_min = (A * D) // (slack + 1) + 1  # q*(slack+1) > A*D
        q = next_prime(max(q_min, _int_root_ceil(capacity, D + 1), 2))
        fam = PolyFamily(capacity=capacity, A=A, slack=slack, q=q, degree=D)
        if best is None or fam.ground_size < best.ground_size:
            best = fam
        if q == next_prime(max(q_min, 2)):
            # Larger D can only raise q_min once the root constraint is slack.
            break
    assert best is not None
    return best


def palette_schedule(
    start_palette: int, A: int, slack: int = 0, max_steps: int = 64
) -> list[PolyFamily]:
    """The sequence of families Arb-Linial-Coloring iterates through: the
    palette shrinks p -> O(A^2 log p) each step until it stops shrinking
    (fixpoint ~ (2A)^2 = O(A^2)).  Takes O(log* start_palette) steps.

    This schedule is a deterministic function of (ID space, A): common
    knowledge, so all vertices agree on the number of steps.
    """
    schedule: list[PolyFamily] = []
    p = start_palette
    for _ in range(max_steps):
        fam = build_family(p, A, slack)
        if fam.ground_size >= p:
            break  # fixpoint reached; a further step would not shrink
        schedule.append(fam)
        p = fam.ground_size
    return schedule


@lru_cache(maxsize=None)
def fixpoint_palette(A: int) -> int:
    """The palette size at the iteration fixpoint: final O(A^2) bound."""
    sched = palette_schedule(1 << 62, A)
    return sched[-1].ground_size if sched else 1


def colors_after_one_step(id_space: int, A: int) -> int:
    """Palette size after a single Arb-Linial step from an ID coloring:
    the O(A^2 log n) of Theorem 7.2."""
    return build_family(id_space, A).ground_size


def steps_to_fixpoint(id_space: int, A: int) -> int:
    """Number of iterated steps: O(log* id_space)."""
    return len(palette_schedule(id_space, A))
