"""Points of the wonderful compactification stored as a ``RowSpan``:
equality and hashing across spanning sets, Plucker coordinates computed on
read, membership by pivot reduction, the span's residual, and degenerate
curves in ``limit``."""

from fractions import Fraction

import pytest

from slicelab.exactnum import LaurentPoly, Mat, RationalStream, maximal_minors
from slicelab.liecore import (
    Ad,
    lie_algebra,
    sample_element,
    sample_group_element,
)
from slicelab.wonderful import (
    CurveSubspace,
    DegenerateCurveError,
    Subspace,
    graph_subspace,
    limit,
    pgl2_model,
)


def t_mat(rows):
    """Matrix of Laurent monomials given as (coefficient, exponent) or scalars."""
    def entry(e):
        return LaurentPoly.t_power(e[1], e[0]) if isinstance(e, tuple) else LaurentPoly.const(e)

    return Mat([[entry(e) for e in r] for r in rows])


def other_spanning_set(rows, seed):
    """Another spanning set of the same row space: the rows recombined by a
    seeded unit lower times unit upper triangular matrix, plus the sum of the
    first two as a redundant extra row."""
    k = len(rows)
    stream = RationalStream(seed)
    lower = [[stream.take() if j < i else Fraction(i == j) for j in range(k)] for i in range(k)]
    upper = [[stream.take() if j > i else Fraction(i == j) for j in range(k)] for i in range(k)]
    mixed = (Mat(lower) @ Mat(upper) @ Mat([list(r) for r in rows])).rows
    return list(mixed) + [tuple(a + b for a, b in zip(mixed[0], mixed[1]))]


def plucker_oracle(rows, ncols):
    """Maximal minors of any spanning set, divided by the first nonzero one."""
    minors = maximal_minors(rows, ncols, Fraction(0))
    lead = next(m for m in minors if m)
    return tuple(m / lead for m in minors)


def graph_rows(g):
    alg = g.algebra
    return [tuple(Ad(g, b).coords) + tuple(b.coords) for b in alg.basis_elements()]


def sl2_points(sl2):
    """Certified sl2 points of every construction, with a spanning set each."""
    points = []
    for i in range(3):
        g = sample_group_element(sl2, 41, i)
        points.append((graph_subspace(g), graph_rows(g)))
        g1 = sample_group_element(sl2, 43, 2 * i)
        g2 = sample_group_element(sl2, 43, 2 * i + 1)
        moved = graph_subspace(g).act(g1, g2)
        moved_rows = [
            tuple(Ad(g1, Ad(g, b)).coords) + tuple(Ad(g2, b).coords)
            for b in sl2.basis_elements()
        ]
        points.append((moved, moved_rows))
    for a in ([[1, 2], [3, 4]], [[0, 1], [0, 0]], [[1, 2], [2, 4]], [[1, 0], [0, 0]]):
        gamma = pgl2_model(sl2, Mat([[Fraction(x) for x in r] for r in a]))
        points.append((gamma, gamma.basis.rows))
    gamma = limit(CurveSubspace.from_group_curve(sl2, t_mat([[(1, 1), 0], [0, 1]])))
    points.append((gamma, gamma.basis.rows))
    return points


SL3_CURVES = [
    [[(1, 1), 0, 0], [0, (1, 2), 0], [0, 0, 1]],
    [[(1, 1), 1, 2], [0, (1, 2), (1, -1)], [1, 0, 1]],
]


def sl3_points(sl3):
    points = []
    for rows in SL3_CURVES:
        gamma = limit(CurveSubspace.from_group_curve(sl3, t_mat(rows)))
        points.append((gamma, gamma.basis.rows))
    g = sample_group_element(sl3, 47, 0)
    points.append((graph_subspace(g), graph_rows(g)))
    return points


class TestOneCanonicalForm:
    @pytest.mark.parametrize("n", [2, 3])
    def test_spanning_sets_give_one_point(self, n):
        alg = lie_algebra(n)
        points = sl2_points(alg) if n == 2 else sl3_points(alg)
        for k, (gamma, rows) in enumerate(points):
            a = Subspace(alg, rows)
            b = Subspace(alg, other_spanning_set(rows, 50 + k))
            assert a == b == gamma
            assert hash(a) == hash(b) == hash(gamma)
            table = {a: "a"}
            table[b] = "b"
            assert table == {gamma: "b"}

    def test_distinct_points_stay_distinct_keys(self):
        sl2 = lie_algebra(2)
        points = [gamma for gamma, _ in sl2_points(sl2)]
        assert len(set(points)) == len(points)


class TestPluckerOnRead:
    @pytest.mark.parametrize("n", [2, 3])
    def test_plucker_matches_normalized_minors_of_any_spanning_set(self, n):
        alg = lie_algebra(n)
        points = sl2_points(alg) if n == 2 else sl3_points(alg)
        for k, (gamma, rows) in enumerate(points):
            plucker = gamma.plucker
            assert next(m for m in plucker if m) == 1
            assert plucker == plucker_oracle(list(rows), 2 * alg.dim)
            mixed = other_spanning_set(gamma.basis.rows, 60 + k)[: alg.dim]
            assert plucker == plucker_oracle(mixed, 2 * alg.dim)

    def test_plucker_is_not_stored(self):
        assert "plucker" not in Subspace.__slots__


class TestContainsByReduction:
    @staticmethod
    def stacked_rank_oracle(gamma, pair):
        y1, y2 = pair
        vector = tuple(y1.coords) + tuple(y2.coords)
        return Mat(list(gamma.basis.rows) + [vector]).rank() == gamma.dim

    @pytest.mark.parametrize("n", [2, 3])
    def test_members_and_non_members_agree_with_stacked_rank(self, n):
        alg = lie_algebra(n)
        points = sl2_points(alg) if n == 2 else sl3_points(alg)
        verdicts = []
        for k, (gamma, _) in enumerate(points):
            for j in range(3):
                member = gamma.sample_member(70 + k, j)
                assert gamma.contains(member)
                assert self.stacked_rank_oracle(gamma, member)
                other = (sample_element(alg, 71 + k, 2 * j), sample_element(alg, 71 + k, 2 * j + 1))
                nudged = (member[0], member[1] + alg.basis_elements()[j])
                for pair in (other, nudged):
                    verdict = gamma.contains(pair)
                    assert verdict == self.stacked_rank_oracle(gamma, pair)
                    verdicts.append(verdict)
        assert False in verdicts

    def test_zero_pair_is_a_member(self):
        sl2 = lie_algebra(2)
        for gamma, _ in sl2_points(sl2):
            assert gamma.contains((sl2.zero(), sl2.zero()))


def reduce_oracle(basis_rows, vector):
    """Residual of a vector after clearing, in order, the pivot of each row of
    a reduced echelon basis of Fraction rows."""
    vector = list(vector)
    for row in basis_rows:
        pc = next(i for i, a in enumerate(row) if a)
        f = vector[pc]
        if f:
            vector = [a - f * b for a, b in zip(vector, row)]
    return vector


class TestResidual:
    """``RowSpan.residual`` of a point's span: d times the pivot-reduction
    residual, linear, and zero on the span."""

    @staticmethod
    def vectors(width, seed, count=4):
        stream = RationalStream(seed)
        return [tuple(stream.take() for _ in range(width)) for _ in range(count)]

    @pytest.mark.parametrize("n", [2, 3])
    def test_is_d_times_pivot_reduction(self, n):
        alg = lie_algebra(n)
        points = sl2_points(alg) if n == 2 else sl3_points(alg)
        seen_d = set()
        for k, (gamma, rows) in enumerate(points):
            span = gamma.span
            seen_d.add(span.d)
            for v in self.vectors(2 * alg.dim, 80 + k) + list(rows):
                expected = [span.d * a for a in reduce_oracle(gamma.basis.rows, v)]
                assert span.residual(v) == expected
        assert seen_d - {1}

    @pytest.mark.parametrize("n", [2, 3])
    def test_is_linear(self, n):
        alg = lie_algebra(n)
        points = sl2_points(alg) if n == 2 else sl3_points(alg)
        for k, (gamma, _) in enumerate(points):
            u, v, c = *self.vectors(2 * alg.dim, 90 + k, 2), Fraction(-7, 3)
            combined = gamma.span.residual(tuple(a + c * b for a, b in zip(u, v)))
            ru, rv = gamma.span.residual(u), gamma.span.residual(v)
            assert combined == [a + c * b for a, b in zip(ru, rv)]
            assert any(combined)

    @pytest.mark.parametrize("n", [2, 3])
    def test_vanishes_on_the_span(self, n):
        alg = lie_algebra(n)
        points = sl2_points(alg) if n == 2 else sl3_points(alg)
        for k, (gamma, rows) in enumerate(points):
            members = [
                tuple(y1.coords) + tuple(y2.coords)
                for y1, y2 in (gamma.sample_member(100 + k, j) for j in range(3))
            ]
            for v in list(rows) + other_spanning_set(rows, 110 + k) + members:
                assert not any(gamma.span.residual(v))


class TestDegenerateCurveLimit:
    """``limit`` on a directly built curve whose rows span too little."""

    @staticmethod
    def base_rows(n):
        alg = lie_algebra(n)
        diag = [[(1, 1) if i == j == 0 else int(i == j) for j in range(n)] for i in range(n)]
        return alg, [list(r) for r in CurveSubspace.from_group_curve(alg, t_mat(diag)).rows]

    @staticmethod
    def t_multiple(rows):
        rows[1] = [LaurentPoly.t_power(1) * e for e in rows[0]]
        return rows

    @staticmethod
    def zero_row(rows):
        rows[-1] = [LaurentPoly.zero()] * len(rows[-1])
        return rows

    @staticmethod
    def duplicate(rows):
        rows[2] = list(rows[0])
        return rows

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("spoil", ["t_multiple", "zero_row", "duplicate"])
    def test_degenerate_rows_raise(self, n, spoil):
        alg, rows = self.base_rows(n)
        limit(CurveSubspace(alg, rows))
        curve = CurveSubspace(alg, getattr(self, spoil)(rows))
        with pytest.raises(DegenerateCurveError, match="generic rank below"):
            limit(curve)
