from fractions import Fraction

import pytest

from slicelab.exactnum import Mat, sample_rational
from slicelab.liecore import (
    Ad,
    GroupElement,
    exp_nilpotent,
    lie_algebra,
    sample_element,
    sample_group_element,
)
from slicelab.poissongeom import CotangentPoint, moment_eval
from slicelab.slices import (
    HamiltonianSpacePoint,
    compactified_fibre_pgl2,
    group_stabilizer_pgl2,
    k_tau,
    k_zero,
    normalize_class,
    pgl2_model_matrix,
    pi_maps_commute,
    psi_tau,
    quotient_model,
    slice_membership,
    stabilizer_infinitesimal,
    subspace_stabilizer,
    universal_centralizer_contains,
)
from slicelab.slodowy import SliceError, principal_slice
from slicelab.wonderful import (
    CurveSubspace,
    LogCotangentPoint,
    MembershipError,
    diagonal_subspace,
    graph_subspace,
    limit,
    pgl2_model,
)
from slicelab.exactnum import LaurentPoly


def frac_mat(rows):
    return Mat([[Fraction(x) for x in r] for r in rows])


def slice_point(slc, c):
    return slc.point([Fraction(c)])


def centralizing_group_element(slc, s, a, b):
    """a*I + b*s as a group element; centralizes s whenever invertible."""
    sl2 = slc.algebra
    m = Mat.identity(2).scale(Fraction(a)) + s.matrix().scale(Fraction(b))
    return GroupElement(sl2, m)


def some_centralizing_element(slc, s):
    """First invertible a*I + b*s from a fixed candidate list."""
    for a, b in [(1, 0), (2, 1), (1, 1), (3, 1), (3, 2)]:
        m = Mat.identity(2).scale(Fraction(a)) + s.matrix().scale(Fraction(b))
        if m.det() != 0:
            return GroupElement(slc.algebra, m)
    raise AssertionError("no invertible pencil member among candidates")


def e22_limit_point(sl2):
    curve = CurveSubspace.from_group_curve(
        sl2,
        Mat(
            [
                [LaurentPoly.t_power(1), LaurentPoly.zero()],
                [LaurentPoly.zero(), LaurentPoly.const(1)],
            ]
        ),
    )
    return limit(curve)


class TestSliceMembership:
    def test_tstarg_right_slice_points(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        g = sample_group_element(sl2, 3, 0)
        s = slice_point(slc, 2)
        p = HamiltonianSpacePoint("tstarg-right", CotangentPoint(g, s))
        assert slice_membership(p, slc)
        q = HamiltonianSpacePoint("tstarg-right", CotangentPoint(g, sl2.named("h")))
        assert not slice_membership(q, slc)

    def test_tstarg_both_is_universal_centralizer(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        # 50 sampled points and non-points agree with the direct definition
        for i in range(50):
            if i % 2 == 0:
                s = slice_point(slc, sample_rational(5, i))
                g = some_centralizing_element(slc, s)
                y = s
            else:
                g = sample_group_element(sl2, 5, i)
                y = sample_element(sl2, 5, i)
            p = HamiltonianSpacePoint("tstarg-both", CotangentPoint(g, y))
            assert slice_membership(p, slc) == universal_centralizer_contains(g, y, slc)

    def test_g_stau_membership_enforced(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        g = sample_group_element(sl2, 7, 0)
        with pytest.raises(MembershipError):
            HamiltonianSpacePoint("g-stau", (g, sl2.named("h")), slc)


class TestSpacePoints:
    def test_gbar_stau_membership(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        s = slice_point(slc, 1)
        point = LogCotangentPoint(diagonal_subspace(sl2), (s, s))
        p = HamiltonianSpacePoint("gbar-stau", point, slc)
        assert p.nu() == s
        off_slice = LogCotangentPoint(diagonal_subspace(sl2), (sl2.named("h"), sl2.named("h")))
        with pytest.raises(MembershipError):
            HamiltonianSpacePoint("gbar-stau", off_slice, slc)

    def test_logd_point_needs_no_slice(self):
        sl2 = lie_algebra(2)
        y = sl2.named("h")
        point = LogCotangentPoint(diagonal_subspace(sl2), (y, y))
        p = HamiltonianSpacePoint("tstargbar-logd", point)
        value = p.nu()
        assert value.left == y and value.right == y

    def test_moment_eval_shares_the_membership_test(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        g = sample_group_element(sl2, 7, 1)
        h = sl2.named("h")
        s = slice_point(slc, 1)
        on_slice = LogCotangentPoint(diagonal_subspace(sl2), (s, s))
        off_slice = LogCotangentPoint(diagonal_subspace(sl2), (h, h))
        bad = [
            ("g-stau", (g, h), slc),
            ("gbar-stau", off_slice, slc),
            ("gbar-stau", on_slice, None),
            ("tstargbar-logd", CotangentPoint(g, h), None),
            ("tstarg-left", on_slice, None),
        ]
        for tag, data, space_slice in bad:
            with pytest.raises(MembershipError):
                HamiltonianSpacePoint(tag, data, space_slice)
            with pytest.raises(MembershipError):
                moment_eval(tag, data, space_slice)

    def test_unknown_tag_rejected(self):
        sl2 = lie_algebra(2)
        with pytest.raises(Exception):
            HamiltonianSpacePoint("weird-space", sl2.zero())


class TestUniversalCentralizer:
    def test_identity_with_slice_points(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        ident = GroupElement.identity(sl2)
        for c in (0, 1, 4, -3):
            assert universal_centralizer_contains(ident, slice_point(slc, c), slc)

    def test_unipotent_fixes_its_nilpotent(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        e = sl2.named("e")
        assert universal_centralizer_contains(exp_nilpotent(e), e, slc)

    def test_diag_moves_antidiagonal(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        g = GroupElement(sl2, frac_mat([[4, 0], [0, 1]]))
        assert not universal_centralizer_contains(g, slice_point(slc, 1), slc)


class TestPsiTau:
    def test_tstarg_right_representative(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        g = sample_group_element(sl2, 11, 0)
        s = slice_point(slc, 3)
        x = HamiltonianSpacePoint("tstarg-right", CotangentPoint(g, s))
        cls = psi_tau(x, slc)
        assert cls.second == (GroupElement.identity(sl2), s)
        # zero moment holds by construction (constructor verifies); idempotence:
        assert normalize_class(cls).second == cls.second
        assert normalize_class(cls).x == cls.x

    def test_g_stau_representative_uses_conjugated_moment(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        s = slice_point(slc, 1)
        g = centralizing_group_element(slc, s, 2, 1)
        x = HamiltonianSpacePoint("g-stau", (g, s), slc)
        cls = psi_tau(x, slc)
        assert cls.second[1] == Ad(g, s)

    def test_precondition(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        g = sample_group_element(sl2, 13, 0)
        x = HamiltonianSpacePoint("g-stau", (g, slice_point(slc, 2)), slc)
        if not slice_membership(x, slc):
            with pytest.raises(SliceError):
                psi_tau(x, slc)

    def test_tstarg_left_point_round_trips(self):
        # psi accepts any space with an element-valued moment; its canonical
        # representative is already normalized, so no X-action is needed
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        g = sample_group_element(sl2, 14, 0)
        y = Ad(g.inverse(), slice_point(slc, 2))
        x = HamiltonianSpacePoint("tstarg-left", CotangentPoint(g, y))
        assert slice_membership(x, slc)
        cls = psi_tau(x, slc)
        renorm = normalize_class(cls)
        assert renorm.x == cls.x
        assert renorm.second == cls.second

    def test_zero_moment_for_sampled_points(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        for i in range(20):
            g = sample_group_element(sl2, 17, i)
            s = slice_point(slc, sample_rational(17, i))
            x = HamiltonianSpacePoint("tstarg-right", CotangentPoint(g, s))
            cls = psi_tau(x, slc)  # constructor enforces nu(x) = Ad_g(y)
            assert cls.second[1] == x.nu()


class TestKTau:
    def test_representative_at_identity(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        s = slice_point(slc, 2)
        x = HamiltonianSpacePoint(
            "tstarg-right", CotangentPoint(GroupElement.identity(sl2), s)
        )
        cls = k_tau(x, slc)
        assert cls.second.gamma == diagonal_subspace(sl2)
        assert cls.second.pair == (s, s)
        assert cls.second.gamma.is_boundary() is False

    def test_g_stau_second_factor_on_section(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        s = slice_point(slc, 4)
        g = centralizing_group_element(slc, s, 1, 1)
        x = HamiltonianSpacePoint("g-stau", (g, s), slc)
        cls = k_tau(x, slc)
        nu = Ad(g, s)
        assert cls.second.pair == (nu, nu)


class TestNormalizeClass:
    def test_normalizes_x_group_component(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        g = sample_group_element(sl2, 19, 0)
        s = slice_point(slc, 1)
        x = HamiltonianSpacePoint("tstarg-right", CotangentPoint(g, s))
        cls = normalize_class(k_tau(x, slc))
        assert cls.x.data.g == GroupElement.identity(sl2)
        assert cls.x.data.x == Ad(g, s)
        # the left-factor action transports only the first pair component,
        # keeping the slice-valued component fixed
        assert cls.second.pair == (Ad(g, s), s)

    def test_already_normalized_fixed(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        s = slice_point(slc, 3)
        x = HamiltonianSpacePoint(
            "tstarg-right", CotangentPoint(GroupElement.identity(sl2), s)
        )
        cls = k_tau(x, slc)
        norm = normalize_class(cls)
        assert norm.x == cls.x
        assert norm.second.pair == cls.second.pair
        assert norm.second.gamma == cls.second.gamma

    def test_orbit_sweep_normalizes_identically(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        g0 = sample_group_element(sl2, 23, 0)
        s = slice_point(slc, 2)
        x = HamiltonianSpacePoint("tstarg-right", CotangentPoint(g0, s))
        cls = k_tau(x, slc)
        reference = normalize_class(cls)
        for i in range(10):
            g = sample_group_element(sl2, 23, i + 1)
            moved = cls.act(g)
            renorm = normalize_class(moved)
            assert renorm.x == reference.x
            assert renorm.second.gamma == reference.second.gamma
            assert renorm.second.pair == reference.second.pair
        assert cls == moved  # class equality is representative-independent

    def test_g_stau_ambient_normalization(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        s = slice_point(slc, 1)
        g = centralizing_group_element(slc, s, 3, 1)
        x = HamiltonianSpacePoint("g-stau", (g, s), slc)
        cls = normalize_class(k_tau(x, slc))
        assert cls.x.data[0] == GroupElement.identity(sl2)


class TestPiMaps:
    def test_commutes_for_tstarg_right(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        for i in range(20):
            g = sample_group_element(sl2, 29, i)
            s = slice_point(slc, sample_rational(29, i))
            x = HamiltonianSpacePoint("tstarg-right", CotangentPoint(g, s))
            probe = sample_group_element(sl2, 31, i)
            ok, witness = pi_maps_commute(x, slc, probe)
            assert ok, witness

    def test_commutes_for_g_stau(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        for i in range(20):
            s = slice_point(slc, sample_rational(37, i))
            g = some_centralizing_element(slc, s)
            x = HamiltonianSpacePoint("g-stau", (g, s), slc)
            probe = sample_group_element(sl2, 37, i)
            ok, witness = pi_maps_commute(x, slc, probe)
            assert ok, witness

    def test_quotient_models(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        s = slice_point(slc, 2)
        g = sample_group_element(sl2, 41, 0)
        x = HamiltonianSpacePoint("tstarg-right", CotangentPoint(g, s))
        assert quotient_model(x) == Ad(g, s)
        y = HamiltonianSpacePoint("g-stau", (centralizing_group_element(slc, s, 1, 0), s), slc)
        assert quotient_model(y) == s

    def test_nu_bar_restricts_to_nu(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        for i in range(20):
            g = sample_group_element(sl2, 43, i)
            s = slice_point(slc, sample_rational(43, i))
            x = HamiltonianSpacePoint("tstarg-right", CotangentPoint(g, s))
            k0 = k_zero(x)
            assert k0.second.pair[1] == x.nu()


class TestCompactifiedFibre:
    @pytest.mark.parametrize("c", [0, 1, 4])
    def test_fibre_is_p1(self, c):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        fibre = compactified_fibre_pgl2(slice_point(slc, c), slc)
        assert fibre.projective_dim == 1
        assert fibre.x_tau == slice_point(slc, c)

    def test_fibre_over_nilpotent_basis(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        e = sl2.named("e")
        fibre = compactified_fibre_pgl2(e, slc)
        # span{I, e}
        span = [tuple(b.rows[0]) + tuple(b.rows[1]) for b in fibre.basis]
        assert Mat(span + [(1, 0, 0, 1)]).rank() == 2
        assert Mat(span + [(0, 1, 0, 0)]).rank() == 2

    def test_fibre_over_s1_boundary_classes(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        s1 = slice_point(slc, 1)
        fibre = compactified_fibre_pgl2(s1, slc)
        boundary = fibre.boundary_members()
        assert len(boundary) == 2
        expected = {
            pgl2_model(sl2, Mat.identity(2) + s1.matrix()),
            pgl2_model(sl2, Mat.identity(2) - s1.matrix()),
        }
        got = {pgl2_model(sl2, m) for m in boundary}
        assert got == expected
        for m in boundary:
            assert m.det() == 0
            assert pgl2_model(sl2, m).is_boundary() is True

    def test_fibre_over_s4_boundary_rational(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        fibre = compactified_fibre_pgl2(slice_point(slc, 4), slc)
        boundary = fibre.boundary_members()
        assert len(boundary) == 2
        for m in boundary:
            assert pgl2_model(sl2, m).is_boundary() is True

    def test_fibre_over_nilpotent_has_single_boundary_class(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        fibre = compactified_fibre_pgl2(sl2.named("e"), slc)
        boundary = fibre.boundary_members()
        assert len(boundary) == 1
        assert pgl2_model(sl2, boundary[0]) == pgl2_model(sl2, sl2.named("e").matrix())

    def test_open_part_is_group_centralizer(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        s1 = slice_point(slc, 1)
        fibre = compactified_fibre_pgl2(s1, slc)
        for i in range(10):
            a = sample_rational(47, 2 * i)
            b = sample_rational(47, 2 * i + 1)
            member = fibre.member((a, b))
            if member.det() == 0:
                continue
            g = GroupElement(sl2, member)
            assert universal_centralizer_contains(g, s1, slc)
            assert pgl2_model(sl2, member).is_boundary() is False

    def test_group_centralizer_lands_in_fibre(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        s1 = slice_point(slc, 1)
        fibre = compactified_fibre_pgl2(s1, slc)
        span = [tuple(b.rows[0]) + tuple(b.rows[1]) for b in fibre.basis]
        for a, b in [(2, 1), (1, 0), (3, -1)]:
            g = centralizing_group_element(slc, s1, a, b)
            flat = tuple(g.matrix.rows[0]) + tuple(g.matrix.rows[1])
            assert Mat(span + [flat]).rank() == 2

    def test_fibre_over_generic_element(self):
        # fibre over a non-slice element x uses the pair (x, x_tau)
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        h = sl2.named("h")
        fibre = compactified_fibre_pgl2(h, slc)
        assert fibre.projective_dim == 1
        assert fibre.x_tau == slice_point(slc, 1)

    def test_rejects_sl3(self):
        sl3 = lie_algebra(3)
        slc3 = principal_slice(sl3)
        with pytest.raises(SliceError):
            compactified_fibre_pgl2(sl3.named("E12"), slc3)


class TestStabilizers:
    def test_free_x_component_kills_stabilizer(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        for i in range(20):
            g = sample_group_element(sl2, 53, i)
            s = slice_point(slc, sample_rational(53, i))
            x = HamiltonianSpacePoint("tstarg-right", CotangentPoint(g, s))
            cls = k_tau(x, slc)
            basis = stabilizer_infinitesimal(cls.second, cls.x)
            assert basis == []

    def test_boundary_subspace_alone_has_stabilizer(self):
        sl2 = lie_algebra(2)
        gamma = e22_limit_point(sl2)
        basis = subspace_stabilizer(gamma)
        assert len(basis) == 2
        # span{h, f}
        rows = [b.coords for b in basis]
        assert Mat(rows + [sl2.named("h").coords]).rank() == 2
        assert Mat(rows + [sl2.named("f").coords]).rank() == 2

    def test_boundary_point_with_pair_and_trivial_x(self):
        sl2 = lie_algebra(2)
        gamma = e22_limit_point(sl2)
        point = LogCotangentPoint(gamma, (sl2.zero(), sl2.named("e")))
        basis = stabilizer_infinitesimal(point, None)
        assert len(basis) == 2

    def test_group_level_agrees_with_infinitesimal(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        cases = []
        # free cases through k_tau
        for i in range(5):
            g = sample_group_element(sl2, 59, i)
            s = slice_point(slc, sample_rational(59, i))
            x = HamiltonianSpacePoint("tstarg-right", CotangentPoint(g, s))
            cls = k_tau(x, slc)
            cases.append((cls.second, cls.x))
        # boundary cases with trivial X
        gamma = e22_limit_point(sl2)
        cases.append((LogCotangentPoint(gamma, (sl2.zero(), sl2.named("e"))), None))
        diag = diagonal_subspace(sl2)
        h = sl2.named("h")
        cases.append((LogCotangentPoint(diag, (h, h)), None))
        for i in range(3):
            g = sample_group_element(sl2, 61, i)
            gamma_g = graph_subspace(g)
            y = Ad(g, sample_element(sl2, 61, i))
            pair = (Ad(g, sample_element(sl2, 61, i)), sample_element(sl2, 61, i))
            cases.append((LogCotangentPoint(gamma_g, pair), None))
        assert len(cases) >= 10
        for second, x in cases:
            inf = stabilizer_infinitesimal(second, x)
            grp = group_stabilizer_pgl2(second, x)
            inf_rows = [b.coords for b in inf]
            grp_rows = [b.coords for b in grp]
            assert len(inf) == len(grp)
            if inf:
                assert Mat(inf_rows + grp_rows).rank() == len(inf)

    def test_diagonal_with_regular_pair_has_centralizer_stabilizer(self):
        # stabilizer of (g_Delta, (h, h)) under (g, e): must fix g_Delta and h
        sl2 = lie_algebra(2)
        diag = diagonal_subspace(sl2)
        h = sl2.named("h")
        basis = stabilizer_infinitesimal(LogCotangentPoint(diag, (h, h)), None)
        # g_Delta is preserved only by b with [b, y] in the diagonal relation;
        # (ad_b + 0) g_Delta inside g_Delta forces [b, y] = 0 for all y, so b = 0
        assert basis == []

    def test_pgl2_model_matrix_roundtrip(self):
        sl2 = lie_algebra(2)
        for i in range(5):
            g = sample_group_element(sl2, 67, i)
            gamma = graph_subspace(g)
            m = pgl2_model_matrix(gamma)
            assert pgl2_model(sl2, m) == gamma
