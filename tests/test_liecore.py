import copy
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicelab.exactnum import LaurentPoly, Mat, integer_coords, sample_rational
from slicelab.liecore import (
    Ad,
    Element,
    GroupElement,
    LieAlgebra,
    LieAlgebraError,
    algebra_by_tag,
    bracket,
    centralizer,
    chi,
    exp_ad,
    exp_nilpotent,
    is_regular,
    kappa,
    killing,
    killing_covector,
    lie_algebra,
    log_unipotent,
    sample_element,
    sample_group_element,
)


def frac_mat(rows):
    return Mat([[Fraction(x) for x in r] for r in rows])


def ad_matrix_oracle(alg, x_mat):
    """Matrix of [x, .] over the basis, computed from raw matrix commutators."""
    cols = []
    for b in alg.basis:
        comm = x_mat @ b - b @ x_mat
        cols.append(alg.coords_from_matrix(comm))
    return Mat(list(zip(*cols)))


class TestBasis:
    def test_sl2_order_is_e_h_f(self):
        sl2 = lie_algebra(2)
        assert sl2.basis_names == ("E12", "H1", "E21")
        assert sl2.named("e").matrix() == frac_mat([[0, 1], [0, 0]])
        assert sl2.named("h").matrix() == frac_mat([[1, 0], [0, -1]])
        assert sl2.named("f").matrix() == frac_mat([[0, 0], [1, 0]])

    def test_dimensions(self):
        assert lie_algebra(2).dim == 3
        assert lie_algebra(3).dim == 8

    def test_coordinate_roundtrip(self):
        for n in (2, 3):
            alg = lie_algebra(n)
            for i in range(10):
                x = sample_element(alg, 5, i)
                assert alg.element_from_matrix(x.matrix()) == x

    def test_gram_invertible(self):
        for n in (2, 3):
            alg = lie_algebra(n)
            assert alg.killing_gram.rank() == alg.dim


class TestBracket:
    def test_defining_relations_sl2(self):
        sl2 = lie_algebra(2)
        e = sl2.element((1, 0, 0))
        h = sl2.element((0, 1, 0))
        f = sl2.element((0, 0, 1))
        assert bracket(e, f) == h
        assert bracket(h, e) == sl2.element((2, 0, 0))
        assert bracket(h, f) == sl2.element((0, 0, -2))

    def test_antisymmetry_on_samples(self):
        sl2 = lie_algebra(2)
        for i in range(10):
            x = sample_element(sl2, 9, i)
            assert bracket(x, x).is_zero()

    def test_agrees_with_matrix_commutator(self):
        for n in (2, 3):
            alg = lie_algebra(n)
            for i in range(5):
                x = sample_element(alg, 13, 2 * i)
                y = sample_element(alg, 13, 2 * i + 1)
                xm, ym = x.matrix(), y.matrix()
                assert bracket(x, y).matrix() == xm @ ym - ym @ xm

    def test_jacobi_identity(self):
        for n in (2, 3):
            alg = lie_algebra(n)
            for i in range(50):
                x = sample_element(alg, 17, 3 * i)
                y = sample_element(alg, 17, 3 * i + 1)
                z = sample_element(alg, 17, 3 * i + 2)
                total = (
                    bracket(bracket(x, y), z)
                    + bracket(bracket(y, z), x)
                    + bracket(bracket(z, x), y)
                )
                assert total.is_zero()


class TestKilling:
    def test_sl2_values_against_ad_trace_oracle(self):
        sl2 = lie_algebra(2)
        e, h, f = sl2.named("e"), sl2.named("h"), sl2.named("f")
        for x, y, expected in [(e, f, 4), (h, h, 8), (e, e, 0)]:
            oracle = (ad_matrix_oracle(sl2, x.matrix()) @ ad_matrix_oracle(sl2, y.matrix())).trace()
            assert oracle == expected
            assert killing(x, y) == expected

    def test_invariance(self):
        for n in (2, 3):
            alg = lie_algebra(n)
            for i in range(50):
                x = sample_element(alg, 19, 3 * i)
                y = sample_element(alg, 19, 3 * i + 1)
                z = sample_element(alg, 19, 3 * i + 2)
                assert killing(bracket(x, y), z) + killing(y, bracket(x, z)) == 0

    def test_ad_invariance(self):
        for n in (2, 3):
            alg = lie_algebra(n)
            for i in range(20):
                g = sample_group_element(alg, 23, i)
                x = sample_element(alg, 23, 2 * i)
                y = sample_element(alg, 23, 2 * i + 1)
                assert killing(Ad(g, x), Ad(g, y)) == killing(x, y)

    def test_equals_2n_trace_form(self):
        for n in (2, 3):
            alg = lie_algebra(n)
            for i in range(20):
                x = sample_element(alg, 29, 2 * i)
                y = sample_element(alg, 29, 2 * i + 1)
                assert killing(x, y) == 2 * n * (x.matrix() @ y.matrix()).trace()


def bracket_coords_oracle(alg, x, y):
    """The Fraction form of bracket_coords: each structure constant times xi*yj, summed."""
    out = [Fraction(0)] * alg.dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = alg._bracket_table[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            c = xi * yj
            for k, s in enumerate(row[j]):
                if s:
                    out[k] = out[k] + c * s
    return tuple(out)


def killing_oracle(x, y):
    """The Fraction form of killing: the Gram matrix paired entry by entry."""
    gram = x.algebra.killing_gram
    acc = None
    for i, xi in enumerate(x.coords):
        if not xi:
            continue
        for j, yj in enumerate(y.coords):
            if not yj:
                continue
            term = xi * gram.rows[i][j] * yj
            acc = term if acc is None else acc + term
    return acc if acc is not None else Fraction(0)


COORD_KINDS = ["seeded", "zero", "sparse", "int", "60-bit"]


def coordinate_pair(alg, kind, seed):
    """Two seeded coordinate tuples of one of the COORD_KINDS."""
    rng = random.Random(f"{kind}-{alg.n}-{seed}")
    dim = alg.dim
    x = sample_element(alg, seed, 0).coords
    y = sample_element(alg, seed, 1).coords
    if kind == "zero":
        return x, (Fraction(0),) * dim
    if kind == "sparse":
        keep = [rng.random() < 0.4 for _ in range(dim)]
        return tuple(c if k else Fraction(0) for c, k in zip(x, keep)), y
    if kind == "int":
        return tuple(rng.randint(-9, 9) for _ in range(dim)), y
    if kind == "60-bit":
        big = 1 << 60
        return tuple(
            tuple(Fraction(rng.randint(-big, big), rng.randint(1, big)) for _ in range(dim))
            for _ in range(2)
        )
    return x, y


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", COORD_KINDS)
@pytest.mark.parametrize("n", [2, 3])
class TestIntegerLiePathsAgainstFractionOracles:
    def test_bracket_coords(self, n, kind, seed):
        alg = lie_algebra(n)
        x, y = coordinate_pair(alg, kind, seed)
        for a, b in [(x, y), (y, x)]:
            ints, d = alg.bracket_coords(integer_coords(a), integer_coords(b))
            assert tuple(Fraction(v, d) for v in ints) == bracket_coords_oracle(alg, a, b)
            assert d > 0 and gcd(d, *ints) == 1

    def test_killing(self, n, kind, seed):
        alg = lie_algebra(n)
        x, y = (alg.element(c) for c in coordinate_pair(alg, kind, seed))
        for a, b in [(x, y), (y, x), (x, x)]:
            got = killing(a, b)
            assert got == killing_oracle(a, b)
            assert type(got) is Fraction

    def test_killing_of_a_bracket_tangent(self, n, kind, seed):
        # The moment condition pairs fibre tangents [b, x] with b under killing;
        # invariance K([b, x], y) = -K(x, [b, y]) is the first-order part of
        # K(Ad_g x, Ad_g y) = K(x, y).
        alg = lie_algebra(n)
        x, y = (alg.element(c) for c in coordinate_pair(alg, kind, seed))
        b = sample_element(alg, seed, 2)
        for u, v in [(x, y), (y, x), (x, x)]:
            tangent = bracket(b, u)
            got = killing(tangent, v)
            assert got == killing_oracle(tangent, v)
            assert got == -killing(u, bracket(b, v))
            assert type(got) is Fraction

    def test_matrix_from_coords(self, n, kind, seed):
        alg = lie_algebra(n)
        x, _ = coordinate_pair(alg, kind, seed)
        expected = Mat.zeros(n, n)
        for c, b in zip(x, alg.basis):
            expected = expected + b.scale(c)
        assert alg.matrix_from_core(*integer_coords(x)) == expected
        assert alg.element(x).matrix() == expected


def test_int_coordinates_give_fractions():
    sl2 = lie_algebra(2)
    e, f = sl2.element((1, 0, 0)), sl2.element((0, 0, 1))
    assert bracket(e, f).coords == (Fraction(0), Fraction(1), Fraction(0))
    assert all(type(c) is Fraction for c in bracket(e, f).coords)
    assert killing(e, f) == 4 and type(killing(e, f)) is Fraction
    # det(lambda - [[2, 1], [3, -2]]) = lambda^2 - 7, exact even on int input
    coeffs = chi(sl2.element((1, 2, 3))).coeffs
    assert coeffs == (-7,) and type(coeffs[0]) is Fraction


# --- The integer core of Element against Fraction arithmetic on coords ------

PROPS = settings(derandomize=True, deadline=None, max_examples=60, database=None)

rationals = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-30, max_value=30, max_denominator=15),
)


@st.composite
def algebra_and_coords(draw, count):
    """An algebra (sl2 or sl3) and ``count`` coordinate tuples of mixed
    int and Fraction entries, zeros included."""
    alg = lie_algebra(draw(st.sampled_from([2, 3])))
    coords = st.lists(rationals, min_size=alg.dim, max_size=alg.dim).map(tuple)
    return alg, [draw(coords) for _ in range(count)]


def assert_core_of(x, coords):
    """x has these coordinates, as Fractions, and its core is the unique one."""
    ints, d = x.core()
    assert d > 0 and gcd(d, *ints) == 1 and type(ints) is tuple
    assert x.coords == tuple(Fraction(c) for c in coords)
    assert type(x.coords) is tuple and len(x.coords) == x.algebra.dim
    assert all(type(c) is Fraction for c in x.coords)
    assert tuple(Fraction(a, d) for a in ints) == x.coords


def exp_ad_oracle(z, x):
    """sum_k ad_z^k x / k! in Fraction arithmetic on coordinate tuples."""
    alg = x.algebra
    term = acc = tuple(Fraction(c) for c in x.coords)
    for k in range(1, alg.dim + 2):
        term = tuple(c / k for c in bracket_coords_oracle(alg, z.coords, term))
        if not any(term):
            return acc
        acc = tuple(a + t for a, t in zip(acc, term))
    raise AssertionError("ad_z is not nilpotent")


class TestElementCore:
    @PROPS
    @given(algebra_and_coords(2), rationals)
    def test_arithmetic_matches_fraction_arithmetic(self, case, c):
        alg, (xc, yc) = case
        x, y = alg.element(xc), alg.element(yc)
        assert_core_of(x + y, [a + b for a, b in zip(xc, yc)])
        assert_core_of(x - y, [a - b for a, b in zip(xc, yc)])
        assert_core_of(-x, [-a for a in xc])
        assert_core_of(c * x, [c * a for a in xc])
        assert_core_of(Fraction(c) * x, [c * a for a in xc])
        with pytest.raises(TypeError):
            0.5 * x

    @PROPS
    @given(algebra_and_coords(1))
    def test_equality_and_hash_agree_across_routes(self, case):
        alg, (xc,) = case
        x = alg.element(tuple(Fraction(c) for c in xc))
        routes = [
            alg.element(list(xc)),
            x + alg.zero(),
            alg.zero() + x,
            2 * x + (-1) * x,
            alg.element_from_matrix(x.matrix()),
            Element.from_core(alg, *x.core()),
            -(-x),
        ]
        if all(Fraction(c).denominator == 1 for c in xc):
            routes.append(alg.element(tuple(int(c) for c in xc)))
        for other in routes:
            assert other == x and x == other
            assert hash(other) == hash(x) and other.core() == x.core()
        assert len(set(routes + [x])) == 1
        assert (x + alg.basis_element(0) != x) and x != xc

    @PROPS
    @given(algebra_and_coords(2))
    def test_killing_matches_the_fraction_reference(self, case):
        alg, (xc, yc) = case
        x, y = alg.element(xc), alg.element(yc)
        for a, b in [(x, y), (y, x), (x, x), (x + y, y)]:
            assert killing(a, b) == killing_oracle(a, b)

    @PROPS
    @given(algebra_and_coords(2))
    def test_exp_ad_matches_the_fraction_reference(self, case):
        alg, (zc, xc) = case
        # keep the strictly lower triangular part of z, so ad_z is nilpotent
        lower = [name[0] == "E" and name[1] > name[2] for name in alg.basis_names]
        z = alg.element(tuple(c if keep else 0 for c, keep in zip(zc, lower)))
        x = alg.element(xc)
        got = exp_ad(z, x)
        assert_core_of(got, exp_ad_oracle(z, x))
        assert got == Ad(exp_nilpotent(z), x)

    def test_from_core_brings_the_core_to_lowest_terms(self):
        sl2 = lie_algebra(2)
        x = Element.from_core(sl2, [4, -6, 0], -8)
        assert x.core() == ((-2, 3, 0), 4)
        assert x.coords == (Fraction(-1, 2), Fraction(3, 4), Fraction(0))
        assert Element.from_core(sl2, [0, 0, 0], 5).core() == ((0, 0, 0), 1)
        with pytest.raises(ZeroDivisionError):
            Element.from_core(sl2, [1, 0, 0], 0)
        with pytest.raises(LieAlgebraError):
            Element.from_core(sl2, [1, 0], 1)

    def test_element_from_matrix_rejects_trace_and_non_rationals(self):
        sl2 = lie_algebra(2)
        with pytest.raises(LieAlgebraError, match="trace"):
            sl2.element_from_matrix(frac_mat([[1, 0], [0, 0]]))
        with pytest.raises(LieAlgebraError, match="rational"):
            sl2.element_from_matrix(Mat([[LaurentPoly.t_power(1), 0], [0, 0]]))

    def test_one_bracket_is_one_bracket_coords_call(self, monkeypatch):
        calls = []
        original = LieAlgebra.bracket_coords

        def counting(self, x, y):
            calls.append((x, y))
            return original(self, x, y)

        monkeypatch.setattr(LieAlgebra, "bracket_coords", counting)
        for n in (2, 3):
            alg = lie_algebra(n)
            x, y = sample_element(alg, 79, 0), sample_element(alg, 79, 1)
            before = len(calls)
            z = bracket(x, y)
            assert len(calls) == before + 1
            assert calls[-1] == (x.core(), y.core())
            assert z.coords == bracket_coords_oracle(alg, x.coords, y.coords)

    def test_elements_are_immutable(self):
        sl3 = lie_algebra(3)
        x = sample_element(sl3, 83, 0)
        for element in (x, x + x, sl3.zero(), sl3.basis_element(2), bracket(x, x)):
            coords, core, key = element.coords, element.core(), hash(element)
            for name in ("algebra", "coords", "_coords", "_core", "core", "extra"):
                with pytest.raises(AttributeError):
                    setattr(element, name, None)
                with pytest.raises(AttributeError):
                    delattr(element, name)
            assert element.coords == coords and element.core() == core
            assert hash(element) == key and element.algebra is sl3
            assert copy.copy(element) == element
        assert {x: 1}[sample_element(sl3, 83, 0)] == 1


class TestKappa:
    def test_roundtrip_from_element(self):
        for n in (2, 3):
            alg = lie_algebra(n)
            for i in range(10):
                x = sample_element(alg, 31, i)
                assert kappa(alg, killing_covector(x)) == x

    def test_postcondition_on_arbitrary_covector(self):
        sl2 = lie_algebra(2)
        # covector z -> 4 * (coefficient of z against e), i.e. 4 * dual basis of e
        alpha = (Fraction(4), Fraction(0), Fraction(0))
        y = kappa(sl2, alpha)
        for k, b in enumerate(sl2.basis_elements()):
            assert killing(y, b) == alpha[k]

    def test_zero(self):
        sl2 = lie_algebra(2)
        assert kappa(sl2, (0, 0, 0)).is_zero()


class TestAd:
    def test_identity(self):
        sl2 = lie_algebra(2)
        g = GroupElement.identity(sl2)
        for i in range(5):
            x = sample_element(sl2, 37, i)
            assert Ad(g, x) == x

    def test_exp_e_on_f(self):
        sl2 = lie_algebra(2)
        e, f = sl2.named("e"), sl2.named("f")
        g = exp_nilpotent(e)
        # oracle: [[1,1],[0,1]] [[0,0],[1,0]] [[1,-1],[0,1]] computed by hand
        gm = frac_mat([[1, 1], [0, 1]])
        oracle = gm @ f.matrix() @ gm.inverse()
        assert oracle == frac_mat([[1, -1], [1, -1]])
        assert Ad(g, f) == sl2.element((-1, 1, 1))

    def test_diag_on_e(self):
        sl2 = lie_algebra(2)
        g = GroupElement(sl2, frac_mat([[2, 0], [0, 1]]))
        assert Ad(g, sl2.named("e")) == sl2.element((2, 0, 0))

    def test_homomorphism(self):
        sl3 = lie_algebra(3)
        for i in range(5):
            g = sample_group_element(sl3, 41, 2 * i)
            h = sample_group_element(sl3, 41, 2 * i + 1)
            x = sample_element(sl3, 41, i)
            assert Ad(g * h, x) == Ad(g, Ad(h, x))

    def test_projective_equality(self):
        sl2 = lie_algebra(2)
        g1 = GroupElement(sl2, frac_mat([[2, 0], [0, 4]]))
        g2 = GroupElement(sl2, frac_mat([[1, 0], [0, 2]]))
        assert g1 == g2

    def test_exp_rejects_non_nilpotent(self):
        sl2 = lie_algebra(2)
        with pytest.raises(LieAlgebraError):
            exp_nilpotent(sl2.named("h"))

    def test_log_unipotent_roundtrip(self):
        sl3 = lie_algebra(3)
        z = sl3.named("E21") + Fraction(3, 2) * sl3.named("E31")
        g = exp_nilpotent(z)
        assert log_unipotent(g) == z


class TestIntegerCores:
    def test_int_entry_group_element_is_exact(self):
        sl2 = lie_algebra(2)
        g = GroupElement(sl2, Mat([[2, 1], [1, 1]]))
        assert g == GroupElement(sl2, frac_mat([[2, 1], [1, 1]]))
        half = Fraction(1, 2)
        assert g.matrix.rows == ((Fraction(1), half), (half, half))
        assert all(type(a) is Fraction for r in g.matrix.rows for a in r)
        assert g.inverse_matrix() == frac_mat([[2, -2], [-2, 4]])

    @pytest.mark.parametrize("n", [2, 3])
    def test_ad_matrix_against_commutators(self, n):
        alg = lie_algebra(n)
        for i in range(5):
            x = sample_element(alg, 67, i)
            assert alg.ad_matrix(x) == ad_matrix_oracle(alg, x.matrix())

    @pytest.mark.parametrize("n", [2, 3])
    def test_exp_ad_is_ad_of_exp(self, n):
        alg = lie_algebra(n)
        lower = [k for k, name in enumerate(alg.basis_names)
                 if name[0] == "E" and name[1] > name[2]]
        for i in range(5):
            z = alg.element([sample_rational(71, i * alg.dim + k) if k in lower else 0
                             for k in range(alg.dim)])
            x = sample_element(alg, 73, i)
            assert exp_ad(z, x) == Ad(exp_nilpotent(z), x)
        with pytest.raises(LieAlgebraError):
            exp_ad(alg.named("H1"), alg.named("E12"))


class TestGroupElementInverseCache:
    def test_repeated_ad_inverts_once(self, monkeypatch):
        sl3 = lie_algebra(3)
        g = sample_group_element(sl3, 43, 0)
        calls = []
        original = Mat.inverse

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Mat, "inverse", counting)
        for i in range(6):
            x = sample_element(sl3, 43, i)
            assert Ad(g, x) == sl3.element_from_matrix(g.matrix @ x.matrix() @ original(g.matrix))
        assert g.inverse() == GroupElement(sl3, original(g.matrix))
        assert len(calls) <= 1

    def test_cache_does_not_enter_equality_or_hash(self):
        sl3 = lie_algebra(3)
        g = sample_group_element(sl3, 47, 1)
        fresh = GroupElement(sl3, g.matrix)
        Ad(g, sample_element(sl3, 47, 0))
        assert g == fresh and fresh == g
        assert hash(g) == hash(fresh)
        assert len({g, fresh}) == 1
        assert g.inverse() == fresh.inverse()


class TestCentralizer:
    def test_zero_is_whole_algebra(self):
        sl2 = lie_algebra(2)
        assert len(centralizer(sl2.zero())) == 3

    def test_h_and_e_are_regular(self):
        sl2 = lie_algebra(2)
        h, e = sl2.named("h"), sl2.named("e")
        ch = centralizer(h)
        assert len(ch) == 1 and ch[0] == sl2.element((0, 1, 0))
        ce = centralizer(e)
        assert len(ce) == 1 and ce[0] == sl2.element((1, 0, 0))
        assert is_regular(h) and is_regular(e)
        assert not is_regular(sl2.zero())

    def test_centralizer_really_centralizes(self):
        sl3 = lie_algebra(3)
        x = sample_element(sl3, 43, 0)
        for z in centralizer(x):
            assert bracket(x, z).is_zero()


class TestChi:
    def test_sl2_examples(self):
        sl2 = lie_algebra(2)
        e, h, f = sl2.named("e"), sl2.named("h"), sl2.named("f")
        assert chi(e).coeffs == (0,)
        # det diag(1, -1) = -1
        assert chi(h).coeffs == (-1,)
        for i in range(10):
            c = sample_rational(47, i)
            x = e + c * f
            # char poly of [[0,1],[c,0]] is t^2 - c, computed by hand
            assert chi(x).coeffs == (-c,)

    def test_invariance_under_conjugation(self):
        for n in (2, 3):
            alg = lie_algebra(n)
            for i in range(20):
                g = sample_group_element(alg, 53, i)
                x = sample_element(alg, 53, i)
                assert chi(Ad(g, x)) == chi(x)

    def test_sl3_is_trace_of_powers(self):
        sl3 = lie_algebra(3)
        x = sample_element(sl3, 59, 1)
        m = x.matrix()
        c2, c3 = chi(x).coeffs
        # Newton's identities for a traceless 3x3 matrix
        assert c2 == -(m @ m).trace() / 2
        assert c3 == -(m @ m @ m).trace() / 3


class TestAlgebraTags:
    def test_tags(self):
        assert algebra_by_tag("a1").n == 2
        assert algebra_by_tag("a2").n == 3
        with pytest.raises(LieAlgebraError):
            algebra_by_tag("b2")
