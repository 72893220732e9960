import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicelab import exactnum
from slicelab.exactnum import (
    LaurentPoly,
    Mat,
    RowSpan,
    charpoly,
    integer_coords,
    lex_masks,
    lowest_minor_coefficients,
    maximal_minors,
    sample_rational,
    span_contains,
)
from slicelab.liecore import kappa, killing_covector, lie_algebra, sample_element


def frac_mat(rows):
    return Mat([[Fraction(x) for x in r] for r in rows])


def minor_rank_oracle(m: Mat) -> int:
    """Rank as the size of the largest nonvanishing minor, by brute enumeration."""

    def det(rows, cols):
        if len(rows) == 1:
            return m[rows[0], cols[0]]
        acc = Fraction(0)
        for k, c in enumerate(cols):
            sub = det(rows[1:], cols[:k] + cols[k + 1 :])
            term = m[rows[0], c] * sub
            acc += term if k % 2 == 0 else -term
        return acc

    for size in range(min(m.nrows, m.ncols), 0, -1):
        for rows in combinations(range(m.nrows), size):
            for cols in combinations(range(m.ncols), size):
                if det(rows, cols) != 0:
                    return size
    return 0


class TestSampleRational:
    def test_deterministic(self):
        assert sample_rational(1, 0) == sample_rational(1, 0)
        stream_a = [sample_rational(7, i) for i in range(50)]
        stream_b = [sample_rational(7, i) for i in range(50)]
        assert stream_a == stream_b

    def test_magnitude_bounds(self):
        for i in range(1000):
            q = sample_rational(3, i)
            assert -9 <= q.numerator / q.denominator <= 9
            assert abs(q.numerator) <= 9 * q.denominator
            # raw construction uses numerator in [-9, 9], denominator in {1, 2, 3}
            assert q.denominator in (1, 2, 3)

    def test_seeds_differ_quickly(self):
        diverged = [i for i in range(10) if sample_rational(1, i) != sample_rational(2, i)]
        assert diverged, "seeds 1 and 2 agree on the first ten samples"


class TestFieldAxioms:
    def test_rational_field_axioms_on_samples(self):
        for i in range(100):
            a = sample_rational(11, 3 * i)
            b = sample_rational(11, 3 * i + 1)
            c = sample_rational(11, 3 * i + 2)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if a:
                assert a * (1 / a) == 1
            assert a + (-a) == 0

    def test_rational_is_normalized(self):
        q = Fraction(6, -4)
        assert q.denominator > 0
        from math import gcd

        assert gcd(q.numerator, q.denominator) == 1


class TestLaurentPoly:
    def test_trim_invariant(self):
        p = LaurentPoly(-2, [0, 1, 2, 0])
        assert p.low == -1
        assert p.coeffs == (Fraction(1), Fraction(2))

    def test_valuation_additive(self):
        for i in range(100):
            coeffs_a = [sample_rational(21, 6 * i + k) for k in range(3)]
            coeffs_b = [sample_rational(22, 6 * i + k) for k in range(3)]
            a = LaurentPoly(-2 + i % 3, coeffs_a)
            b = LaurentPoly(1 - i % 4, coeffs_b)
            if a.is_zero() or b.is_zero():
                continue
            assert (a * b).valuation() == a.valuation() + b.valuation()

    def test_eval_and_substitute(self):
        p = LaurentPoly(-1, [1, 0, 3])  # t^-1 + 3t
        assert p.substitute_power(2) == LaurentPoly(-2, [1, 0, 0, 0, 3])
        with pytest.raises(ValueError):
            p.eval_at_zero()


class TestRref:
    def test_identity(self):
        m = Mat.identity(3)
        r, pivots, rank = m.rref()
        assert r == m
        assert pivots == (0, 1, 2)
        assert rank == 3

    def test_proportional_rows(self):
        m = frac_mat([[1, 2], [2, 4]])
        r, pivots, rank = m.rref()
        assert r == frac_mat([[1, 2], [0, 0]])
        assert rank == 1

    def test_rank_matches_minor_oracle_on_random_matrices(self):
        for trial in range(4):
            rows = [
                [sample_rational(31 + trial, 6 * i + j) for j in range(6)] for i in range(6)
            ]
            m = frac_mat(rows)
            assert m.rank() == minor_rank_oracle(m)

    def test_rank_matches_minor_oracle_on_degenerate(self):
        rows = [[sample_rational(41, 6 * i + j) for j in range(6)] for i in range(4)]
        rows.append([a + b for a, b in zip(rows[0], rows[1])])
        rows.append([2 * a for a in rows[2]])
        m = frac_mat(rows)
        assert m.rank() == minor_rank_oracle(m) == 4

    def test_idempotent(self):
        rows = [[sample_rational(51, 5 * i + j) for j in range(5)] for i in range(4)]
        m = frac_mat(rows)
        once = m.rref()[0]
        assert once.rref()[0] == once


class TestKernel:
    def test_zero_matrix(self):
        assert len(Mat.zeros(2, 2).kernel()) == 2

    def test_identity(self):
        assert Mat.identity(2).kernel() == []

    def test_kernel_vectors_annihilate(self):
        rows = [[sample_rational(61, 7 * i + j) for j in range(7)] for i in range(3)]
        m = frac_mat(rows)
        basis = m.kernel()
        assert len(basis) == 7 - m.rank()
        for v in basis:
            assert all(x == 0 for x in m.apply(v))


class TestLinearAlgebraHelpers:
    def test_solve_and_inverse(self):
        m = frac_mat([[2, 1], [1, 1]])
        assert m.solve((Fraction(3), Fraction(2))) == (Fraction(1), Fraction(1))
        assert m @ m.inverse() == Mat.identity(2)

    def test_span_contains(self):
        rows = [(Fraction(1), Fraction(0), Fraction(2)), (Fraction(0), Fraction(1), Fraction(1))]
        assert span_contains(rows, (Fraction(2), Fraction(3), Fraction(7)))
        assert not span_contains(rows, (Fraction(0), Fraction(0), Fraction(1)))

    def test_maximal_minors_against_det(self):
        rows = [[sample_rational(71, 4 * i + j) for j in range(4)] for i in range(2)]
        minors = maximal_minors(rows, 4, Fraction(0))
        pairs = list(combinations(range(4), 2))
        assert len(minors) == len(pairs)
        for (c1, c2), value in zip(pairs, minors):
            direct = rows[0][c1] * rows[1][c2] - rows[0][c2] * rows[1][c1]
            assert value == direct


def random_laurent_rows(seed, k, ncols, density):
    """Seeded k x ncols matrix of sparse Laurent polynomials: an entry is
    nonzero with the given probability and then has one to three terms with
    small rational coefficients and exponents in [-2, 3]."""
    rng = random.Random(seed)
    rows = []
    for _ in range(k):
        row = []
        for _ in range(ncols):
            entry = LaurentPoly.zero()
            if rng.random() < density:
                for _ in range(rng.randint(1, 3)):
                    c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    entry = entry + LaurentPoly.t_power(rng.randint(-2, 3), c)
            row.append(entry)
        rows.append(row)
    return rows


def lowest_coefficients_oracle(rows, ncols):
    """(mu, t^mu coefficients of every minor in lexicographic column order)
    read off the full Laurent minors."""
    minors = maximal_minors(rows, ncols, LaurentPoly.zero())
    mu = min(m.valuation() for m in minors if m)
    return mu, [m.coeff(mu) for m in minors]


def nonzero_by_mask(ncols, k, dense):
    """The nonzero entries of a dense lexicographic minor list, keyed by the
    column bitmask of their minor."""
    return {m: c for m, c in zip(lex_masks(ncols, k), dense) if c}


def row_scale(rows):
    """The factor prod_r lcm(denominators of row r) that the kernel's integer
    coefficients carry."""
    return prod(lcm(*(c.denominator for e in r for c in e.coeffs)) for r in rows)


def row_valuation_sum(rows):
    return sum(min(e.valuation() for e in r if e) for r in rows)


class TestLowestMinorCoefficients:
    def assert_matches_oracle(self, rows, ncols):
        mu, coeffs = lowest_minor_coefficients(rows)
        ref_mu, ref = lowest_coefficients_oracle(rows, ncols)
        assert mu == ref_mu
        scale = row_scale(rows)
        assert coeffs == nonzero_by_mask(ncols, len(rows), [c * scale for c in ref])
        assert all(isinstance(c, int) for c in coeffs.values())
        return mu

    @pytest.mark.parametrize("seed", range(8))
    def test_random_3x6(self, seed):
        rows = random_laurent_rows(900 + seed, 3, 6, 0.7)
        self.assert_matches_oracle(rows, 6)

    @pytest.mark.parametrize("seed", range(2))
    def test_random_8x16(self, seed):
        rows = random_laurent_rows(950 + seed, 8, 16, 0.25)
        self.assert_matches_oracle(rows, 16)

    @pytest.mark.parametrize("gap", [1, 2, 5, 9])
    def test_valuation_above_row_valuations(self, gap):
        # Rows a1, a1 + t^gap a2, a3 with constant a_i: every minor is t^gap
        # times a minor of (a1, a2, a3), so mu exceeds the row valuations by
        # exactly gap and the precision must grow past it.
        a1, a2, a3 = ([LaurentPoly.const(sample_rational(97, 6 * i + j)) for j in range(6)]
                      for i in range(3))
        rows = [a1, [x + y.shift(gap) for x, y in zip(a1, a2)], [x.shift(-1) for x in a3]]
        mu = self.assert_matches_oracle(rows, 6)
        assert mu - row_valuation_sum(rows) == gap

    def test_reparametrized_gap(self):
        # Replace row 1 by row 0 plus row 1 moved three past row 0's valuation:
        # the minors gain that shift, the row valuations do not, so the gap
        # is at least 3, and t -> t^k multiplies it by k.
        rows = random_laurent_rows(990, 3, 6, 0.8)
        v0, v1 = (min(e.valuation() for e in r if e) for r in rows[:2])
        rows[1] = [x + y.shift(v0 - v1 + 3) for x, y in zip(rows[0], rows[1])]
        gap = self.assert_matches_oracle(rows, 6) - row_valuation_sum(rows)
        assert gap >= 3
        for k in (2, 3):
            stretched = [[e.substitute_power(k) for e in r] for r in rows]
            mu = self.assert_matches_oracle(stretched, 6)
            assert mu - row_valuation_sum(stretched) == k * gap

    def test_sign_of_column_insertion(self):
        rows = [[LaurentPoly.const(0), LaurentPoly.const(1)],
                [LaurentPoly.const(1), LaurentPoly.const(0)]]
        assert lowest_minor_coefficients(rows) == (0, {0b11: -1})

    def test_all_minors_vanish(self):
        t = LaurentPoly.t_power(1)
        one = LaurentPoly.const(1)
        with pytest.raises(ValueError):
            lowest_minor_coefficients([[t, t * t], [one, t]])
        rows = random_laurent_rows(77, 2, 5, 0.9)
        rows.append([t * x + y for x, y in zip(rows[0], rows[1])])
        with pytest.raises(ValueError):
            lowest_minor_coefficients(rows)
        with pytest.raises(ValueError):
            lowest_minor_coefficients([[t, one], [LaurentPoly.zero()] * 2])


# --- Fraction oracles for the integer kernels under Mat ---------------------


def gauss_jordan_oracle(rows, ncols):
    """Plain Fraction Gauss-Jordan with first-nonzero pivots: (rows, pivots, rank)."""
    m = [list(r) for r in rows]
    nr = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [a / pv for a in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return m, tuple(pivots), r


def kernel_oracle(rows, ncols):
    reduced, pivots, _ = gauss_jordan_oracle(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(tuple(v))
    return basis


def laplace_det(rows):
    """Laplace expansion along the rows, one partial sum per set of columns used.

    Each row is first scaled to integers by the lcm of its denominators; the
    determinant is linear in each row, so the scales divide out at the end.
    """
    scales = [lcm(*(a.denominator for a in r)) for r in rows]
    partial = {0: 1}
    for r, scale in zip(rows, scales):
        ints = [int(a * scale) for a in r]
        nxt = {}
        for used, value in partial.items():
            sign = 1
            for c in reversed(range(len(ints))):
                if used >> c & 1:
                    sign = -sign
                elif ints[c]:
                    key = used | 1 << c
                    nxt[key] = nxt.get(key, 0) + sign * ints[c] * value
        partial = nxt
    return Fraction(sum(partial.values()), prod(scales))


def triple_loop_product(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


SHAPES = [(1, 1), (3, 3), (8, 8), (8, 16), (16, 8), (16, 16)]
KINDS = ["random", "zero-rows", "all-zero", "duplicate-rows", "singular", "60-bit"]


def kernel_case(kind, nr, nc, seed):
    """Seeded rational matrix of one of the KINDS, as a list of rows."""
    rng = random.Random(f"{kind}-{nr}x{nc}-{seed}")
    high = (1 << 60) if kind == "60-bit" else 9

    def entry():
        return Fraction(rng.randint(-high, high), rng.randint(1, 6))

    rows = [[entry() for _ in range(nc)] for _ in range(nr)]
    if kind == "all-zero":
        rows = [[Fraction(0)] * nc for _ in range(nr)]
    elif kind == "zero-rows":
        for i in range(0, nr, 3):
            rows[i] = [Fraction(0)] * nc
    elif kind == "duplicate-rows" and nr > 1:
        rows[nr - 1] = list(rows[0])
        rows[nr // 2] = list(rows[0])
    elif kind == "singular" and nr > 1:
        # last row a rational combination of the first two
        a, b = entry(), entry()
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    elif kind == "singular":
        rows = [[Fraction(0)]]
    return rows


CASES = [(kind, nr, nc) for kind in KINDS for nr, nc in SHAPES]


@pytest.mark.parametrize("kind,nr,nc", CASES)
class TestIntegerKernelsAgainstFractionOracles:
    def test_rref_rank_and_kernel(self, kind, nr, nc):
        rows = kernel_case(kind, nr, nc, 0)
        m = Mat(rows)
        reduced, pivots, rank = gauss_jordan_oracle(rows, nc)
        assert m.rref() == (Mat(reduced), pivots, rank)
        assert m.rank() == rank
        assert m.kernel() == kernel_oracle(rows, nc)

    def test_solve(self, kind, nr, nc):
        rows = kernel_case(kind, nr, nc, 1)
        m = Mat(rows)
        x = [sample_rational(nr * nc, j) for j in range(nc)]
        consistent = [row[0] for row in triple_loop_product(rows, [[v] for v in x])]
        assert list(m.apply(x)) == consistent
        with pytest.raises(ValueError, match="shape mismatch"):
            m.apply(x[:-1])
        free_rhs = [sample_rational(nr + nc, i) + 1 for i in range(nr)]
        for rhs in (consistent, free_rhs):
            aug = [list(r) + [b] for r, b in zip(rows, rhs)]
            reduced, pivots, _ = gauss_jordan_oracle(aug, nc + 1)
            got = m.solve(rhs)
            if nc in pivots:
                assert got is None
                continue
            expected = [Fraction(0)] * nc
            for r, pc in enumerate(pivots):
                expected[pc] = reduced[r][nc]
            assert got == tuple(expected)
            assert list(m.apply(got)) == rhs
        assert m.solve(consistent) is not None

    def test_product(self, kind, nr, nc):
        a = kernel_case(kind, nr, nc, 3)
        b = kernel_case("random", nc, nr, 4)
        assert Mat(a) @ Mat(b) == Mat(triple_loop_product(a, b))
        assert Mat(b) @ Mat(a) == Mat(triple_loop_product(b, a))


@pytest.mark.parametrize("kind,n", [(kind, nr) for kind, nr, nc in CASES if nr == nc])
def test_inverse_and_det_against_fraction_oracles(kind, n):
    rows = kernel_case(kind, n, n, 2)
    m = Mat(rows)
    det = laplace_det(rows)
    assert m.det() == det
    if det == 0:
        with pytest.raises(ValueError):
            m.inverse()
        return
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    reduced, _, _ = gauss_jordan_oracle(aug, 2 * n)
    assert m.inverse() == Mat([r[n:] for r in reduced])


def charpoly_oracle(m):
    """The Fraction form of charpoly: Faddeev-LeVerrier on Mat entries."""
    n = m.nrows
    coeffs, mk, ident = [], m, Mat.identity(n)
    for k in range(1, n + 1):
        ck = -mk.trace() / k
        coeffs.append(ck)
        if k < n:
            mk = m @ (mk + ident.scale(ck))
    return tuple(coeffs)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("kind", KINDS)
def test_charpoly_against_fraction_oracle(kind, n):
    m = Mat(kernel_case(kind, n, n, 5))
    got = charpoly(m)
    assert got == charpoly_oracle(m)
    assert all(type(c) is Fraction for c in got)
    for lam in (0, 1, -2):
        shifted = Mat([[lam * (i == j) - a for j, a in enumerate(r)] for i, r in enumerate(m.rows)])
        assert shifted.det() == lam**n + sum(c * lam ** (n - k) for k, c in enumerate(got, 1))


def test_charpoly_of_sl2_sl3_elements_and_int_entries():
    for n in (2, 3):
        alg = lie_algebra(n)
        for i in range(10):
            m = sample_element(alg, 61, i).matrix()
            assert charpoly(m) == charpoly_oracle(m)
    ints = Mat([[2, -1, 0], [4, 3, 7], [0, 5, -6]])
    got = charpoly(ints)
    assert got == charpoly_oracle(ints.map(Fraction))
    assert all(type(c) is Fraction for c in got)


class TestIntegerKernelEdges:
    def test_det_row_swaps_change_the_sign(self):
        # one swap, then two: -1 and +1 times the product of the diagonal
        swap = frac_mat([[0, 2, 0], [3, 0, 0], [0, 0, 5]])
        assert swap.det() == -30 == laplace_det(swap.rows)
        cycle = frac_mat([[0, 2, 0], [0, 0, 3], [5, 0, 0]])
        assert cycle.det() == 30 == laplace_det(cycle.rows)

    def test_empty_matrices(self):
        assert Mat([]).det() == 1
        assert Mat([[Fraction(1)], [Fraction(2)]]) @ Mat([[Fraction(3), Fraction(4)]]) == frac_mat(
            [[3, 4], [6, 8]]
        )

    def test_integer_entries_give_fractions(self):
        r, pivots, rank = Mat([[2, 4], [1, 3]]).rref()
        assert r == Mat.identity(2) and pivots == (0, 1) and rank == 2
        assert all(type(a) is Fraction for row in r.rows for a in row)

    def test_laurent_entries_keep_the_generic_product(self):
        t = LaurentPoly.t_power(1)
        a = [[LaurentPoly(i - j, [i + j, Fraction(1, j + 2)]) for j in range(3)] for i in range(2)]
        b = [[LaurentPoly(j, [Fraction(i * j + 1, 3)]) for j in range(2)] for i in range(3)]
        expected = [[sum((a[i][k] * b[k][j] for k in range(3)), LaurentPoly.zero())
                     for j in range(2)] for i in range(2)]
        assert Mat(a) @ Mat(b) == Mat(expected)
        mixed = Mat([[Fraction(1), Fraction(2)]]) @ Mat([[t], [LaurentPoly.const(3)]])
        assert mixed == Mat([[LaurentPoly(0, [6, 1])]])


def seeded_square(seed, n, k):
    return Mat([[sample_rational(seed, (k * n + i) * n + j) for j in range(n)] for i in range(n)])


def row_major(m):
    return tuple(a for r in m.rows for a in r)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_sylvester_rows_on_row_major_entries(n, seed):
    left, right, x = (seeded_square(seed, n, k) for k in range(3))
    system = exactnum.sylvester_rows(left, right)
    assert (system.nrows, system.ncols) == (n * n, n * n)
    assert system.apply(row_major(x)) == row_major(left @ x - x @ right)
    # left commutes with itself, so X = left lies in the span of the solutions
    solutions = exactnum.sylvester_solutions([(left, left)])
    assert solutions and all(left @ s == s @ left for s in solutions)
    assert Mat([row_major(s) for s in solutions]).rank() == len(solutions)
    assert Mat([row_major(s) for s in solutions] + [row_major(left)]).rank() == len(solutions)


def test_sylvester_rows_rejects_operands_of_other_shapes():
    with pytest.raises(ValueError, match="square"):
        exactnum.sylvester_rows(Mat.identity(2), Mat.identity(3))
    with pytest.raises(ValueError, match="square"):
        exactnum.sylvester_rows(Mat.zeros(2, 3), Mat.identity(2))


# --- The integer core of Mat against plain Fraction oracles ------------------

PROPS = settings(derandomize=True, deadline=None, max_examples=80, database=None)

# Mixed int and Fraction entries, zeros included.
entries = st.one_of(
    st.integers(-20, 20),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


def rows_of(nrows, ncols):
    return st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


sizes = st.integers(0, 4)


@st.composite
def one_matrix(draw, square=False):
    nr = draw(sizes)
    return draw(rows_of(nr, nr if square else draw(sizes)))


@st.composite
def same_shape_pair(draw):
    nr, nc = draw(sizes), draw(sizes)
    return draw(rows_of(nr, nc)), draw(rows_of(nr, nc))


@st.composite
def product_pair(draw):
    # a matrix without rows has no width, so both inner sizes are at least 1
    nr, nk, nc = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(sizes)
    return draw(rows_of(nr, nk)), draw(rows_of(nk, nc))


def fractions_of(rows):
    return [[Fraction(a) for a in r] for r in rows]


def assert_fraction_mat(m, rows):
    """m has exactly these entries, all of them Fractions, and its core is
    the unique one in lowest terms, so that it equals the row-built matrix."""
    assert m.rows == tuple(tuple(r) for r in fractions_of(rows))
    assert all(type(a) is Fraction for r in m.rows for a in r)
    assert m.core() == Mat(m.rows).core()
    assert m == Mat(rows)


def via_core(rows):
    """The same matrix, built from an unreduced core with a negative denominator."""
    d = lcm(*(Fraction(a).denominator for r in rows for a in r))
    return Mat.from_core(
        [[-3 * int(Fraction(a) * d) for a in r] for r in rows], -3 * d
    ) if rows else Mat([])


class TestIntegerCoreAgainstFractionOracles:
    @PROPS
    @given(product_pair())
    def test_product(self, pair):
        a, b = pair
        got = Mat(a) @ Mat(b)
        assert got.nrows == len(a)
        assert got == Mat(triple_loop_product(fractions_of(a), fractions_of(b)))
        assert got == via_core(a) @ via_core(b)
        assert all(type(x) is Fraction for r in got.rows for x in r)

    @PROPS
    @given(same_shape_pair(), entries)
    def test_sum_difference_and_scale(self, pair, c):
        a, b = pair
        fa, fb = fractions_of(a), fractions_of(b)
        assert_fraction_mat(Mat(a) + Mat(b), [[x + y for x, y in zip(*r)] for r in zip(fa, fb)])
        assert_fraction_mat(Mat(a) - Mat(b), [[x - y for x, y in zip(*r)] for r in zip(fa, fb)])
        assert_fraction_mat(Mat(a).scale(c), [[Fraction(c) * x for x in r] for r in fa])
        assert_fraction_mat(-Mat(a), [[-x for x in r] for r in fa])
        assert via_core(a) - via_core(b) == Mat(a) - Mat(b)

    @PROPS
    @given(one_matrix(square=True))
    def test_det_and_inverse(self, rows):
        n = len(rows)
        fr = fractions_of(rows)
        m = Mat(rows)
        det = laplace_det(fr)
        assert m.det() == det == via_core(rows).det()
        assert type(m.det()) is Fraction
        if det == 0:
            with pytest.raises(ValueError):
                m.inverse()
            return
        aug = [r + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(fr)]
        reduced, _, _ = gauss_jordan_oracle(aug, 2 * n)
        inverse = m.inverse()
        assert_fraction_mat(inverse, [r[n:] for r in reduced])
        assert via_core(rows).inverse() == inverse

    @PROPS
    @given(one_matrix())
    def test_rref(self, rows):
        nc = len(rows[0]) if rows else 0
        reduced, pivots, rank = gauss_jordan_oracle(fractions_of(rows), nc)
        got, got_pivots, got_rank = Mat(rows).rref()
        assert (got_pivots, got_rank) == (pivots, rank)
        assert_fraction_mat(got, reduced)
        assert via_core(rows).rref() == (got, pivots, rank)

    @PROPS
    @given(one_matrix(), st.data())
    def test_solve_and_apply(self, rows, data):
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        fr = fractions_of(rows)
        x = data.draw(st.lists(entries, min_size=nc, max_size=nc))
        image = [sum((a * Fraction(v) for a, v in zip(r, x)), Fraction(0)) for r in fr]
        assert Mat(rows).apply(x) == tuple(image) == via_core(rows).apply(x)
        assert all(type(v) is Fraction for v in Mat(rows).apply(x))
        rhs = data.draw(st.lists(entries, min_size=nr, max_size=nr))
        for b in (image, rhs):
            aug = [r + [Fraction(v)] for r, v in zip(fr, b)]
            reduced, pivots, _ = gauss_jordan_oracle(aug, nc + 1)
            got = Mat(rows).solve(b)
            if nc in pivots:
                assert got is None
                continue
            expected = [Fraction(0)] * nc
            for r, pc in enumerate(pivots):
                expected[pc] = reduced[r][nc]
            assert got == tuple(expected)
            assert via_core(rows).solve(b) == got

    @PROPS
    @given(one_matrix(), st.integers(-5, 5).filter(bool), st.integers(1, 4))
    def test_core_built_equals_row_built(self, rows, d, k):
        ints = [[int(Fraction(a) * 12) for a in r] for r in rows]
        by_core = Mat.from_core([[k * a for a in r] for r in ints], k * d)
        by_rows = Mat([[Fraction(a, d) for a in r] for r in ints])
        assert by_core == by_rows and by_rows == by_core
        assert hash(by_core) == hash(by_rows)
        assert by_core.core() == by_rows.core()
        assert by_core.core()[1] > 0
        assert_fraction_mat(by_core, by_rows.rows)
        assert (by_core.nrows, by_core.ncols) == (by_rows.nrows, by_rows.ncols)
        assert by_core.is_zero() == all(a == 0 for r in ints for a in r)


class TestIntegerCoreEdges:
    def test_zero_and_empty_matrices(self):
        assert Mat.zeros(2, 3) == frac_mat([[0, 0, 0], [0, 0, 0]])
        assert Mat.zeros(2, 3).is_zero() and Mat.zeros(0, 3) != Mat([])
        assert Mat.zeros(0, 3) != Mat.zeros(0, 2) and Mat.zeros(0, 3) == Mat.zeros(0, 3)
        assert Mat.from_core([[0, 0]], 7) == Mat.from_core([[0, 0]], -1) == frac_mat([[0, 0]])
        assert Mat.from_core([[0, 0]], 7).core() == (((0, 0),), 1)
        assert Mat.from_core([], 5) == Mat([]) and Mat.from_core([], 5).det() == 1
        assert Mat([]).inverse() == Mat([]) and Mat([]).rref() == (Mat([]), (), 0)
        assert Mat([[], []]).kernel() == [] and Mat([[], []]).solve([0, 0]) == ()
        assert Mat([[], []]).solve([1, 2]) is None
        assert Mat.zeros(3, 3).rank() == 0 and Mat.zeros(3, 3).det() == 0
        with pytest.raises(ZeroDivisionError):
            Mat.from_core([[1]], 0)
        with pytest.raises(ValueError, match="ragged"):
            Mat.from_core([[1], [1, 2]], 1)

    def test_matrix_without_rows_keeps_its_width(self):
        assert Mat.zeros(0, 3).ncols == 3 and Mat.zeros(0, 3).nrows == 0
        product = Mat.zeros(0, 3) @ Mat.zeros(3, 2)
        assert (product.nrows, product.ncols) == (0, 2) and product.rows == ()
        # an empty inner size gives the zero matrix of the outer shape
        product = Mat.zeros(2, 0) @ Mat.zeros(0, 3)
        assert (product.nrows, product.ncols) == (2, 3) and product == Mat.zeros(2, 3)
        # a transpose swaps the shape; rref and kernel of 0 x 3 keep the width
        for r, c in ((0, 3), (3, 0)):
            t = Mat.zeros(r, c).transpose()
            assert (t.nrows, t.ncols) == (c, r) and t == Mat.zeros(c, r)
        reduced, pivots, rank = Mat.zeros(0, 3).rref()
        assert reduced.ncols == 3 and reduced == Mat.zeros(0, 3) and (pivots, rank) == ((), 0)
        assert Mat.zeros(0, 3).kernel() == list(Mat.identity(3).rows)

    @pytest.mark.parametrize("kind", KINDS)
    def test_kernel_cores_are_the_kernel_in_lowest_terms(self, kind):
        m = Mat(kernel_case(kind, 5, 8, 3))
        cores = m.kernel_cores()
        assert [tuple(Fraction(a, d) for a in v) for v, d in cores] == m.kernel()
        for v, d in cores:
            assert d > 0 and gcd(d, *v) == 1
            assert not any(m.apply_core((v, d))[0])

    def test_apply_core_matches_apply(self):
        rows = [[sample_rational(67, 5 * i + j) for j in range(5)] for i in range(4)]
        vec = [sample_rational(71, j) for j in range(5)]
        m = frac_mat(rows)
        ints, d = m.apply_core(integer_coords(vec))
        assert tuple(Fraction(a, d) for a in ints) == m.apply(vec)
        assert d > 0 and gcd(d, *ints) == 1
        with pytest.raises(ValueError, match="shape"):
            m.apply_core(([1, 2], 1))

    def test_mixed_entries_are_rationals(self):
        m = Mat([[2, Fraction(1, 2)], [Fraction(-3, 4), 1]])
        assert m.core() == (((8, 2), (-3, 4)), 4)
        assert_fraction_mat(m @ Mat.identity(2), [[2, Fraction(1, 2)], [Fraction(-3, 4), 1]])
        assert m.scale(Fraction(2, 3)) == m.scale(2).scale(Fraction(1, 3))

    def test_laurent_entries_have_no_core(self):
        t = LaurentPoly.t_power(1)
        curve = Mat([[t, LaurentPoly.const(1)], [LaurentPoly.zero(), t]])
        assert curve.core() is None
        with pytest.raises(TypeError):
            curve.rref()
        assert curve @ Mat.identity(2) == curve

    def test_core_is_computed_once(self, monkeypatch):
        calls = []
        original = exactnum._core_of

        def counting(rows):
            calls.append(rows)
            return original(rows)

        monkeypatch.setattr(exactnum, "_core_of", counting)
        alg = lie_algebra(3)
        x = sample_element(alg, 5, 0)
        gram = Mat(alg.killing_gram.rows)
        assert gram.apply(x.coords) == gram.apply(x.coords) == killing_covector(x)
        assert len(calls) == 1
        # the Gram matrix and its inverse are built from integer cores:
        # applying them computes no core
        killing_covector(x)
        kappa(alg, killing_covector(x))
        assert len(calls) == 1


class TestRowSpan:
    @pytest.mark.parametrize("seed", range(6))
    def test_membership_against_span_contains(self, seed):
        rng = random.Random(seed)
        nc = rng.randint(1, 8)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nc)]
                for _ in range(rng.randint(0, nc))]
        span = RowSpan(rows)
        for _ in range(12):
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in rows]
            inside = [sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0))
                      for j in range(nc)]
            other = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(nc)]
            assert span.contains(inside) and span_contains(rows, inside)
            assert span.contains(other) == span_contains(rows, other)

    def test_missing_vector_is_rejected(self):
        rows = [(1, 0, 2), (0, 1, 1), (1, 1, 0)]
        assert RowSpan(rows).contains((2, 3, 5))
        assert not RowSpan(rows[:2]).contains(rows[2])
        assert RowSpan([]).contains((0, 0)) and not RowSpan([]).contains((0, 1))
