import dataclasses
import random
from fractions import Fraction

import pytest

from slicelab.exactnum import Mat, sample_rational
from slicelab.liecore import (
    Ad,
    GroupElement,
    bracket,
    killing,
    killing_covector,
    lie_algebra,
    sample_element,
    sample_group_element,
)
from slicelab.poissongeom import (
    SPACES,
    CotangentPoint,
    MembershipError,
    MomentValue,
    UnsupportedSpaceError,
    bivector_rank,
    check_moment_condition,
    cotangent_bivector,
    cotangent_bivector_identity,
    cotangent_form,
    fundamental_vf,
    lie_poisson_apply,
    lie_poisson_bivector,
    moment_eval,
    product_bivector,
    product_moment_logd,
    product_moment_tstarg,
    slice_codimension,
    transversal_check,
)
from slicelab.slodowy import principal_slice, slodowy_slice, standard_triple, zero_triple
from slicelab.wonderful import LogCotangentPoint, diagonal_subspace, graph_subspace


def unit_covector(dim, i):
    return tuple(Fraction(k == i) for k in range(dim))


def covector_of(x):
    return tuple(killing_covector(x))


class TestLiePoissonApply:
    def test_h_e_bracket(self):
        sl2 = lie_algebra(2)
        h, e = sl2.named("h"), sl2.named("e")
        assert lie_poisson_apply(h, covector_of(e)) == bracket(h, e)
        assert bracket(h, e) == 2 * e

    def test_radial_covector_killed(self):
        sl2 = lie_algebra(2)
        for i in range(5):
            y = sample_element(sl2, 3, i)
            assert lie_poisson_apply(y, covector_of(y)).is_zero()

    def test_bracket_consistency(self):
        # pairing the output against beta reproduces <y, [kappa a, kappa b]>
        for n in (2, 3):
            alg = lie_algebra(n)
            for i in range(20):
                y = sample_element(alg, 5, 3 * i)
                a = sample_element(alg, 5, 3 * i + 1)
                b = sample_element(alg, 5, 3 * i + 2)
                out = lie_poisson_apply(y, covector_of(a))
                assert killing(b, out) == killing(y, bracket(a, b))

    @pytest.mark.parametrize("seed", [7, 8, 9])
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_bivector_matrix(self, n, seed):
        alg = lie_algebra(n)
        y = sample_element(alg, seed, 0)
        pb = lie_poisson_bivector(alg, y)
        for i in range(alg.dim):
            alpha = unit_covector(alg.dim, i)
            assert pb.apply(alpha) == lie_poisson_apply(y, alpha).coords


class TestCotangentForm:
    def test_killing_pairing(self):
        sl2 = lie_algebra(2)
        e, f = sl2.named("e"), sl2.named("f")
        zero = sl2.zero()
        p = CotangentPoint(GroupElement.identity(sl2), zero)
        assert cotangent_form(p, (e, zero), (zero, f)) == 4

    def test_antisymmetry(self):
        sl2 = lie_algebra(2)
        x = sample_element(sl2, 11, 0)
        p = CotangentPoint(GroupElement.identity(sl2), x)
        v = (sample_element(sl2, 11, 1), sample_element(sl2, 11, 2))
        assert cotangent_form(p, v, v) == 0

    def test_curvature_term(self):
        sl2 = lie_algebra(2)
        e, h, f = sl2.named("e"), sl2.named("h"), sl2.named("f")
        zero = sl2.zero()
        p = CotangentPoint(GroupElement.identity(sl2), h)
        assert cotangent_form(p, (e, zero), (f, zero)) == killing(h, bracket(e, f)) == 8


class TestCotangentBivector:
    def test_lemma_values(self):
        sl2 = lie_algebra(2)
        e, h, f = sl2.named("e"), sl2.named("h"), sl2.named("f")
        y, z = cotangent_bivector_identity(h, covector_of(e), covector_of(f))
        assert y == f
        assert z == bracket(h, f) - e
        assert z == -2 * f - e

    def test_alpha_zero_at_origin(self):
        sl2 = lie_algebra(2)
        beta = sample_element(sl2, 13, 0)
        y, z = cotangent_bivector_identity(
            sl2.zero(), covector_of(sl2.zero()), covector_of(beta)
        )
        assert y == beta
        assert z.is_zero()

    def test_omega_roundtrip(self):
        # omega(P(alpha, beta), (v, w)) = alpha(v) + beta(w) at 20 samples
        for n in (2, 3):
            alg = lie_algebra(n)
            ident = GroupElement.identity(alg)
            for i in range(20):
                x = sample_element(alg, 17, 5 * i)
                a = sample_element(alg, 17, 5 * i + 1)
                b = sample_element(alg, 17, 5 * i + 2)
                v = sample_element(alg, 17, 5 * i + 3)
                w = sample_element(alg, 17, 5 * i + 4)
                py, pz = cotangent_bivector_identity(x, covector_of(a), covector_of(b))
                lhs = cotangent_form(CotangentPoint(ident, x), (py, pz), (v, w))
                assert lhs == killing(a, v) + killing(b, w)

    @pytest.mark.parametrize("seed", [19, 20, 21])
    @pytest.mark.parametrize("n", [2, 3])
    def test_matrix_matches_identity_formula(self, n, seed):
        alg = lie_algebra(n)
        x = sample_element(alg, seed, 0)
        pb = cotangent_bivector(alg, x)
        dim = alg.dim
        for i in range(dim):
            alpha = unit_covector(dim, i)
            zero = tuple(Fraction(0) for _ in range(dim))
            y, z = cotangent_bivector_identity(x, alpha, zero)
            assert pb.apply(alpha + zero) == y.coords + z.coords
            y, z = cotangent_bivector_identity(x, zero, alpha)
            assert pb.apply(zero + alpha) == y.coords + z.coords


class TestMomentEval:
    def test_rho_at_identity(self):
        sl2 = lie_algebra(2)
        y = sample_element(sl2, 23, 0)
        p = CotangentPoint(GroupElement.identity(sl2), y)
        mv = moment_eval("tstarg-both", p)
        assert mv == MomentValue(y, y)

    def test_rho_exp_e_on_f(self):
        from slicelab.liecore import exp_nilpotent

        sl2 = lie_algebra(2)
        e, f = sl2.named("e"), sl2.named("f")
        p = CotangentPoint(exp_nilpotent(e), f)
        mv = moment_eval("tstarg-both", p)
        assert mv.left == sl2.element((-1, 1, 1))
        assert mv.right == f

    def test_product_moments(self):
        sl2 = lie_algebra(2)
        for i in range(5):
            nu_val = sample_element(sl2, 29, 3 * i)
            g = sample_group_element(sl2, 29, i)
            y = sample_element(sl2, 29, 3 * i + 1)
            mu = product_moment_tstarg(nu_val, CotangentPoint(g, y))
            assert mu.left == nu_val - Ad(g, y)
            assert mu.right == -1 * y
            assert moment_eval("product-tstarg", (nu_val, CotangentPoint(g, y))) == mu
        gd = diagonal_subspace(sl2)
        y = sample_element(sl2, 29, 100)
        log_point = LogCotangentPoint(gd, (y, y))
        mubar = product_moment_logd(nu_val, log_point)
        assert mubar.left == nu_val - y
        assert mubar.right == -1 * y
        assert moment_eval("product-logd", (nu_val, log_point)) == mubar

    def test_log_cotangent_moment_is_the_pair(self):
        sl2 = lie_algebra(2)
        gd = diagonal_subspace(sl2)
        y = sample_element(sl2, 113, 0)
        point = LogCotangentPoint(gd, (y, y))
        assert moment_eval("tstargbar-logd", point) == MomentValue(y, y)
        g = sample_group_element(sl2, 113, 0)
        moved = point.act(g, GroupElement.identity(sl2))
        assert moment_eval("tstargbar-logd", moved) == MomentValue(Ad(g, y), y)

    def test_g_stau_membership(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        g = sample_group_element(sl2, 31, 0)
        s = slc.point([Fraction(2)])
        assert moment_eval("g-stau", (g, s), slc) == Ad(g, s)
        with pytest.raises(MembershipError):
            moment_eval("g-stau", (g, sl2.named("h")), slc)

    def test_gbar_stau_moment_is_first_component(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        s = slc.point([Fraction(1)])
        point = LogCotangentPoint(diagonal_subspace(sl2), (s, s))
        assert moment_eval("gbar-stau", point, slc) == s

    def test_equivariance_rho(self):
        sl2 = lie_algebra(2)
        for i in range(20):
            g0 = sample_group_element(sl2, 37, 2 * i)
            g = sample_group_element(sl2, 37, 2 * i + 1)
            y = sample_element(sl2, 37, i)
            p = CotangentPoint(g0, y)
            # (g, e)-action on T*G in left trivialization: (g g0, y)
            moved = CotangentPoint(g * g0, y)
            assert moment_eval("tstarg-left", moved) == Ad(g, moment_eval("tstarg-left", p))


class TestMomentCondition:
    def test_lie_poisson_adjoint(self):
        for n in (2, 3):
            alg = lie_algebra(n)
            for i in range(20):
                y = sample_element(alg, 41, 2 * i)
                b = sample_element(alg, 41, 2 * i + 1)
                ok, witness = check_moment_condition("lie-poisson", y, b)
                assert ok, witness

    def test_zero_b(self):
        sl2 = lie_algebra(2)
        y = sample_element(sl2, 43, 0)
        ok, _ = check_moment_condition("lie-poisson", y, sl2.zero())
        assert ok

    def test_tstarg_right(self):
        for n in (2, 3):
            alg = lie_algebra(n)
            ident = GroupElement.identity(alg)
            for i in range(20):
                x = sample_element(alg, 47, 2 * i)
                b = sample_element(alg, 47, 2 * i + 1)
                ok, witness = check_moment_condition(
                    "tstarg-right", CotangentPoint(ident, x), b
                )
                assert ok, witness

    def test_tstarg_left(self):
        sl2 = lie_algebra(2)
        ident = GroupElement.identity(sl2)
        for i in range(20):
            x = sample_element(sl2, 53, 2 * i)
            b = sample_element(sl2, 53, 2 * i + 1)
            ok, witness = check_moment_condition("tstarg-left", CotangentPoint(ident, x), b)
            assert ok, witness

    def test_wrong_sign_is_detected(self):
        # pairing rho_R without the second-factor sign flip must fail
        sl2 = lie_algebra(2)
        y = sample_element(sl2, 59, 0)
        b = sample_element(sl2, 59, 1)
        pb = lie_poisson_bivector(sl2, y)
        alpha = covector_of(b)  # differential of +<y, b>
        hamiltonian = tuple(-c for c in pb.apply(alpha))
        fundamental = fundamental_vf("lie-poisson", y, b)
        assert hamiltonian != tuple(-c for c in fundamental)

    def test_unsupported_space(self):
        sl2 = lie_algebra(2)
        with pytest.raises(UnsupportedSpaceError):
            check_moment_condition("gbar-stau", sl2.zero(), sl2.zero())

    def test_requires_identity_base_point(self):
        sl2 = lie_algebra(2)
        g = sample_group_element(sl2, 61, 0)
        with pytest.raises(UnsupportedSpaceError):
            check_moment_condition(
                "tstarg-right", CotangentPoint(g, sl2.zero()), sl2.named("e")
            )


class TestFundamentalField:
    def test_adjoint_field_is_bracket(self):
        sl2 = lie_algebra(2)
        for i in range(10):
            y = sample_element(sl2, 67, 2 * i)
            b = sample_element(sl2, 67, 2 * i + 1)
            assert fundamental_vf("lie-poisson", y, b) == bracket(b, y).coords

    def test_right_field_at_identity(self):
        sl2 = lie_algebra(2)
        x = sample_element(sl2, 71, 0)
        b = sample_element(sl2, 71, 1)
        p = CotangentPoint(GroupElement.identity(sl2), x)
        v = fundamental_vf("tstarg-right", p, b)
        assert v == tuple((-1 * b).coords) + tuple(bracket(b, x).coords)

    def test_left_field_at_general_point(self):
        sl2 = lie_algebra(2)
        g = sample_group_element(sl2, 73, 0)
        x = sample_element(sl2, 73, 1)
        b = sample_element(sl2, 73, 2)
        v = fundamental_vf("tstarg-left", CotangentPoint(g, x), b)
        assert v == tuple(Ad(g.inverse(), b).coords) + tuple(sl2.zero().coords)


def commutator_oracle(b, x):
    """b*x - x*b on Fraction matrices: the eps-part of (1 + eps*b) x (1 - eps*b)."""
    bm, xm = b.matrix(), x.matrix()
    return x.algebra.element_from_matrix(bm @ xm - xm @ bm)


JET_KINDS = ["seeded", "zero-x", "zero-b", "int", "60-bit"]


def jet_case(alg, kind, seed):
    """A seeded direction b and point x of one of the JET_KINDS."""
    rng = random.Random(f"jet-{kind}-{alg.n}-{seed}")
    b, x = sample_element(alg, 79 + seed, 0), sample_element(alg, 79 + seed, 1)
    if kind == "zero-x":
        x = alg.zero()
    elif kind == "zero-b":
        b = alg.zero()
    elif kind == "int":
        x = alg.element(tuple(rng.randint(-9, 9) for _ in range(alg.dim)))
    elif kind == "60-bit":
        big = 1 << 60
        b, x = (
            alg.element(tuple(Fraction(rng.randint(-big, big), rng.randint(1, big))
                              for _ in range(alg.dim)))
            for _ in range(2)
        )
    return b, x


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", JET_KINDS)
@pytest.mark.parametrize("n", [2, 3])
def test_fibre_tangent_against_matrix_commutator(n, kind, seed):
    alg = lie_algebra(n)
    b, x = jet_case(alg, kind, seed)
    velocity = commutator_oracle(b, x).coords
    assert all(type(c) is Fraction for c in velocity)
    assert fundamental_vf("lie-poisson", x, b) == velocity
    p = CotangentPoint(sample_group_element(alg, 83, seed), x)
    assert fundamental_vf("tstarg-right", p, b) == tuple((-1 * b).coords) + velocity


MOMENT_TAGS = [tag for tag, model in SPACES.items() if model.moment_condition is not None]


def moment_tangents_oracle(tag, point):
    """d nu along each coordinate eps-curve, from coordinates and matrices:
    a fibre or Lie-Poisson direction moves nu = x by its unit vector; a
    group direction exp(eps*b_i) leaves nu = x fixed under rho_R and moves
    nu = Ad_g x by b_i*x - x*b_i under rho_L at g = e."""
    x = point if tag == "lie-poisson" else point.x
    alg = x.algebra
    units = [alg.element(tuple(Fraction(i == j) for j in range(alg.dim))) for i in range(alg.dim)]
    if tag == "lie-poisson":
        return units
    if tag == "tstarg-right":
        return [alg.zero()] * alg.dim + units
    return [commutator_oracle(b, x) for b in units] + units


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("tag", MOMENT_TAGS)
def test_moment_tangents_against_coordinate_curves(tag, n):
    alg = lie_algebra(n)
    model = SPACES[tag]
    condition = model.moment_condition
    for i in range(3):
        x = sample_element(alg, 97, i)
        point = x if model.member(x, None) else CotangentPoint(GroupElement.identity(alg), x)
        got = condition.moment_tangents(point)
        assert len(got) == condition.bivector(point).dim
        assert [t.coords for t in got] == [t.coords for t in moment_tangents_oracle(tag, point)]
        assert all(type(c) is Fraction for t in got for c in t.coords)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("tag", MOMENT_TAGS)
def test_negated_moment_tangents_fail_the_moment_condition(monkeypatch, tag, n):
    alg = lie_algebra(n)
    model = SPACES[tag]
    condition = model.moment_condition
    points = []
    for i in range(3):
        x, b = sample_element(alg, 89, 2 * i), sample_element(alg, 89, 2 * i + 1)
        point = x if model.member(x, None) else CotangentPoint(GroupElement.identity(alg), x)
        assert check_moment_condition(tag, point, b)[0]
        points.append((point, b))
    negated = dataclasses.replace(
        condition, moment_tangents=lambda p: [-t for t in condition.moment_tangents(p)]
    )
    monkeypatch.setitem(SPACES, tag, dataclasses.replace(model, moment_condition=negated))
    for point, b in points:
        ok, witness = check_moment_condition(tag, point, b)
        assert not ok
        assert witness["hamiltonian_field"] != witness["negated_fundamental_field"]


class TestTransversality:
    def test_slice_at_nilpotent(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        e = sl2.named("e")
        pb = lie_poisson_bivector(sl2, e)
        result = transversal_check(pb, [d.coords for d in slc.directions])
        assert result.ok
        # complement = span{e, h}
        complement = Mat(list(result.complement_basis))
        expected = Mat([sl2.named("e").coords, sl2.named("h").coords])
        assert complement.rank() == 2
        assert Mat(list(complement.rows) + list(expected.rows)).rank() == 2

    def test_failure_is_a_value(self):
        sl2 = lie_algebra(2)
        e = sl2.named("e")
        pb = lie_poisson_bivector(sl2, e)
        result = transversal_check(pb, [e.coords])
        assert not result.ok
        assert result.witness["rank"] == 1

    def test_full_tangent_space_trivial(self):
        sl2 = lie_algebra(2)
        x = sample_element(sl2, 79, 0)
        pb = cotangent_bivector(sl2, x)
        dim = 2 * sl2.dim
        tangent = [tuple(Fraction(k == i) for k in range(dim)) for i in range(dim)]
        result = transversal_check(pb, tangent)
        assert result.ok
        assert result.complement_basis == ()

    @pytest.mark.parametrize("n,rank", [(2, 2), (3, 6)])
    def test_empty_tangent(self, n, rank):
        # no tangent: every covector annihilates it, and only a symplectic
        # ambient sends them onto a complement of the whole space
        alg = lie_algebra(n)
        x = sample_element(alg, 79, n)
        result = transversal_check(cotangent_bivector(alg, x), [])
        assert result.ok and result.tangent_basis == ()
        assert len(result.complement_basis) == 2 * alg.dim
        m = result.induced_matrix
        assert (m.nrows, m.ncols) == (0, 0)
        result = transversal_check(lie_poisson_bivector(alg, x), [])
        assert not result.ok and result.induced_matrix is None
        assert result.witness == {
            "rank": rank, "ambient_dim": alg.dim, "pieces": (0, alg.dim)
        }

    @pytest.mark.parametrize(
        "n,partition,codim",
        [(2, (2,), 2), (3, (3,), 6), (3, (2, 1), 4)],
    )
    def test_slice_transversal_and_codimension(self, n, partition, codim):
        alg = lie_algebra(n)
        slc = slodowy_slice(standard_triple(alg, partition))
        assert slice_codimension(slc) == codim
        tangent = [d.coords for d in slc.directions]
        for i in range(20):
            coeffs = [sample_rational(83 + n, slc.dim() * i + k) for k in range(slc.dim())]
            y = slc.point(coeffs)
            result = transversal_check(lie_poisson_bivector(alg, y), tangent)
            assert result.ok
            assert len(result.complement_basis) == codim

    @pytest.mark.parametrize(
        "n,partition", [(2, (2,)), (3, (3,)), (3, (2, 1))]
    )
    def test_orbit_transversality(self, n, partition):
        # T_y(S_tau) + T_y(G y) spans g at sampled slice points
        alg = lie_algebra(n)
        slc = slodowy_slice(standard_triple(alg, partition))
        tangent = [d.coords for d in slc.directions]
        for i in range(20):
            coeffs = [sample_rational(89 + n, slc.dim() * i + k) for k in range(slc.dim())]
            y = slc.point(coeffs)
            orbit = [
                fundamental_vf("lie-poisson", y, b) for b in alg.basis_elements()
            ]
            assert Mat(tangent + orbit).rank() == alg.dim

    def test_zero_triple_codimension(self):
        sl2 = lie_algebra(2)
        slc = slodowy_slice(zero_triple(sl2))
        assert slice_codimension(slc) == 0

    def test_induced_bivector_is_skew_and_even(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        y = slc.point([Fraction(3)])
        result = transversal_check(
            lie_poisson_bivector(sl2, y), [d.coords for d in slc.directions]
        )
        assert result.ok
        m = result.induced_matrix
        assert m.transpose() == -m


class TestBivectorRank:
    def test_lie_poisson_at_zero(self):
        sl2 = lie_algebra(2)
        assert bivector_rank(lie_poisson_bivector(sl2, sl2.zero())) == 0

    def test_lie_poisson_at_h(self):
        sl2 = lie_algebra(2)
        assert bivector_rank(lie_poisson_bivector(sl2, sl2.named("h"))) == 2

    def test_cotangent_is_nondegenerate(self):
        sl2 = lie_algebra(2)
        x = sample_element(sl2, 97, 0)
        assert bivector_rank(cotangent_bivector(sl2, x)) == 6


class TestJacobiAndProduct:
    def test_lie_poisson_jacobi_on_linear_functions(self):
        # {f_a, f_b}(y) = <y, [a, b]> makes Jacobi for the bracket literal
        for n in (2, 3):
            alg = lie_algebra(n)
            for i in range(50):
                y = sample_element(alg, 101, 4 * i)
                a = sample_element(alg, 101, 4 * i + 1)
                b = sample_element(alg, 101, 4 * i + 2)
                c = sample_element(alg, 101, 4 * i + 3)
                total = (
                    killing(y, bracket(bracket(a, b), c))
                    + killing(y, bracket(bracket(b, c), a))
                    + killing(y, bracket(bracket(c, a), b))
                )
                assert total == 0

    def test_product_bivector_blocks(self):
        sl2 = lie_algebra(2)
        p1 = lie_poisson_bivector(sl2, sl2.named("h"))
        p2 = lie_poisson_bivector(sl2, sl2.named("e"))
        prod = product_bivector(p1, p2)
        assert prod.dim == 6
        for i in range(3):
            for j in range(3):
                assert prod.matrix[i, j] == p1.matrix[i, j]
                assert prod.matrix[3 + i, 3 + j] == -p2.matrix[i, j]
                assert prod.matrix[i, 3 + j] == 0


class TestEquivariance:
    def test_rho_pair_equivariance(self):
        sl2 = lie_algebra(2)
        for i in range(20):
            g1 = sample_group_element(sl2, 103, 3 * i)
            g2 = sample_group_element(sl2, 103, 3 * i + 1)
            g0 = sample_group_element(sl2, 103, 3 * i + 2)
            y = sample_element(sl2, 103, i)
            p = CotangentPoint(g0, y)
            moved = CotangentPoint(g1 * g0 * g2.inverse(), Ad(g2, y))
            mv = moment_eval("tstarg-both", p)
            mv_moved = moment_eval("tstarg-both", moved)
            assert mv_moved.left == Ad(g1, mv.left)
            assert mv_moved.right == Ad(g2, mv.right)

    def test_rho_tau_equivariance(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        for i in range(20):
            g = sample_group_element(sl2, 107, 2 * i)
            g0 = sample_group_element(sl2, 107, 2 * i + 1)
            s = slc.point([sample_rational(107, i)])
            value = moment_eval("g-stau", (g0, s), slc)
            moved = moment_eval("g-stau", (g * g0, s), slc)
            assert moved == Ad(g, value)

    def test_rho_bar_tau_equivariance(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        ident = GroupElement.identity(sl2)
        for i in range(20):
            g = sample_group_element(sl2, 109, i)
            s = slc.point([sample_rational(109, i)])
            point = LogCotangentPoint(graph_subspace(ident), (s, s))
            moved = point.act(g, ident)
            value = moment_eval("gbar-stau", point, slc)
            assert moment_eval("gbar-stau", moved, slc) == Ad(g, value)
