from fractions import Fraction

import pytest

import slicelab.wonderful as wonderful
from slicelab.exactnum import (
    LaurentPoly,
    Mat,
    lex_masks,
    lowest_minor_coefficients,
    maximal_minors,
    sample_rational,
)
from slicelab.liecore import (
    Ad,
    GroupElement,
    lie_algebra,
    sample_element,
    sample_group_element,
)
from slicelab.slodowy import InternalCheckError, principal_slice
from slicelab.wonderful import (
    CertificateError,
    CurveSubspace,
    DegenerateCurveError,
    LogCotangentPoint,
    MembershipError,
    Subspace,
    chi_compatible,
    diagonal_subspace,
    graph_subspace,
    in_gbar_stau,
    limit,
    pgl2_model,
)


def frac_mat(rows):
    return Mat([[Fraction(x) for x in r] for r in rows])


def t_mat(rows):
    """Matrix of Laurent monomials given as (coefficient, exponent) or scalars."""
    out = []
    for r in rows:
        row = []
        for e in r:
            if isinstance(e, tuple):
                c, k = e
                row.append(LaurentPoly.t_power(k, c))
            else:
                row.append(LaurentPoly.const(e))
        out.append(row)
    return Mat(out)


def diag_t_limit_rows(sl2):
    """Frozen expected basis of the diag(t, 1) limit: span {(0,e), (h,h), (f,0)}."""
    e, h, f = sl2.named("e"), sl2.named("h"), sl2.named("f")
    zero = sl2.zero()
    return [
        tuple(zero.coords) + tuple(e.coords),
        tuple(h.coords) + tuple(h.coords),
        tuple(f.coords) + tuple(zero.coords),
    ]


class TestGraphSubspace:
    def test_identity_is_diagonal(self):
        sl2 = lie_algebra(2)
        gd = diagonal_subspace(sl2)
        for i in range(5):
            y = sample_element(sl2, 3, i)
            assert gd.contains((y, y))

    def test_diag21_rows(self):
        sl2 = lie_algebra(2)
        g = GroupElement(sl2, frac_mat([[2, 0], [0, 1]]))
        gamma = graph_subspace(g)
        e, h, f = sl2.named("e"), sl2.named("h"), sl2.named("f")
        assert gamma.contains((2 * e, e))
        assert gamma.contains((h, h))
        assert gamma.contains((Fraction(1, 2) * f, f))
        assert not gamma.contains((e, e))

    def test_equivariance(self):
        sl2 = lie_algebra(2)
        for i in range(10):
            g1 = sample_group_element(sl2, 5, 3 * i)
            g = sample_group_element(sl2, 5, 3 * i + 1)
            g2 = sample_group_element(sl2, 5, 3 * i + 2)
            lhs = graph_subspace(g1 * g * g2.inverse())
            rhs = graph_subspace(g).act(g1, g2)
            assert lhs == rhs

    def test_injective_on_projective_classes(self):
        sl2 = lie_algebra(2)
        seen = {}
        for i in range(20):
            g = sample_group_element(sl2, 7, i)
            gamma = graph_subspace(g)
            if gamma.plucker in seen:
                assert seen[gamma.plucker] == g
            seen[gamma.plucker] = g
        assert len(seen) > 1

    def test_not_boundary(self):
        sl2 = lie_algebra(2)
        g = sample_group_element(sl2, 9, 0)
        assert graph_subspace(g).is_boundary() is False


class TestLimit:
    def test_diag_t_1(self):
        sl2 = lie_algebra(2)
        curve = CurveSubspace.from_group_curve(sl2, t_mat([[(1, 1), 0], [0, 1]]))
        gamma = limit(curve)
        expected = Subspace(sl2, diag_t_limit_rows(sl2), certified=True, source="expected")
        assert gamma == expected
        assert gamma.is_boundary() is True

    def test_constant_curve(self):
        sl2 = lie_algebra(2)
        g = GroupElement(sl2, frac_mat([[1, 2], [1, 3]]))
        curve = CurveSubspace.from_group_curve(sl2, g.matrix.map(LaurentPoly.lift))
        assert limit(curve) == graph_subspace(g)
        assert limit(curve).is_boundary() is False

    def test_reparametrization_invariance(self):
        sl2 = lie_algebra(2)
        base = t_mat([[(1, 1), 1], [0, 1]])
        curve = CurveSubspace.from_group_curve(sl2, base)
        assert limit(curve.substitute_power(2)) == limit(curve)
        assert limit(curve.substitute_power(3)) == limit(curve)

    def test_unit_row_scaling_invariance(self):
        sl2 = lie_algebra(2)
        curve = CurveSubspace.from_group_curve(sl2, t_mat([[(1, 1), 0], [1, 1]]))
        units = [LaurentPoly.t_power(2), LaurentPoly.const(3), LaurentPoly.t_power(-1, 5)]
        assert limit(curve.scale_rows(units)) == limit(curve)

    def test_projective_equivalence_of_torus_curves(self):
        # diag(t, t^-1) and diag(t^2, 1) are the same pgl2 curve
        sl2 = lie_algebra(2)
        a = CurveSubspace.from_group_curve(sl2, t_mat([[(1, 1), 0], [0, (1, -1)]]))
        b = CurveSubspace.from_group_curve(sl2, t_mat([[(1, 2), 0], [0, 1]]))
        assert limit(a) == limit(b)

    def test_degenerate_curve_rejected(self):
        sl2 = lie_algebra(2)
        with pytest.raises(DegenerateCurveError):
            CurveSubspace.from_group_curve(sl2, t_mat([[(1, 1), 0], [(1, 1), 0]]))

    def test_polynomial_entries_with_unit_factor(self):
        # t*(1+t) times a torus direction has the same limit as t alone
        sl2 = lie_algebra(2)
        plain = CurveSubspace.from_group_curve(sl2, t_mat([[(1, 1), 0], [0, 1]]))
        dressed = Mat(
            [
                [LaurentPoly(1, [1, 1]), LaurentPoly.zero()],
                [LaurentPoly.zero(), LaurentPoly.const(1)],
            ]
        )
        assert limit(CurveSubspace.from_group_curve(sl2, dressed)) == limit(plain)

    def test_polynomial_curve_through_identity(self):
        sl2 = lie_algebra(2)
        gmat = Mat(
            [
                [LaurentPoly(0, [1, 1]), LaurentPoly.t_power(1)],
                [LaurentPoly.t_power(1), LaurentPoly.const(1)],
            ]
        )
        curve = CurveSubspace.from_group_curve(sl2, gmat)
        assert limit(curve) == diagonal_subspace(sl2)
        assert limit(curve).is_boundary() is False

    def test_sl3_limit_runs_and_is_chi_compatible(self):
        sl3 = lie_algebra(3)
        curve = CurveSubspace.from_group_curve(
            sl3, t_mat([[(1, 1), 0, 0], [0, 1, 0], [0, 0, 1]])
        )
        gamma = limit(curve)
        assert gamma.is_boundary() is True
        ok, witness = chi_compatible(gamma, 10, seed=13)
        assert ok, witness


class TestLeadingMinorRoute:
    """The Plucker route of ``limit`` on curves whose minors vanish to higher
    order than the sum of their row valuations."""

    def test_reparametrized_curves_match_full_minors(self):
        sl3 = lie_algebra(3)
        base = CurveSubspace.from_group_curve(
            sl3, t_mat([[(1, 1), 1, 0], [0, 1, (1, -1)], [0, 0, 1]])
        )
        for k in (1, 2, 3):
            curve = base.substitute_power(k)
            mu, coeffs = lowest_minor_coefficients(curve.rows)
            minors = maximal_minors(curve.rows, 16, LaurentPoly.zero())
            assert mu == min(m.valuation() for m in minors if m)
            assert mu - sum(min(e.valuation() for e in r if e) for r in curve.rows) == 3 * k
            ref = [m.coeff(mu) for m in minors]
            ref_lead = next(c for c in ref if c)
            expected = tuple(c / ref_lead for c in ref)
            nonzero = {m: c for m, c in zip(lex_masks(16, 8), ref) if c}
            assert coeffs.keys() == nonzero.keys()
            lead_mask = next(iter(nonzero))
            assert all(
                Fraction(c, coeffs[lead_mask]) == nonzero[m] / ref_lead
                for m, c in coeffs.items()
            )
            assert limit(curve).plucker == expected

    @pytest.mark.parametrize(
        "algebra_n, gmat",
        [
            (2, [[(1, 1), 0], [0, 1]]),
            (3, [[(1, 1), 1, 2], [0, (1, 2), (1, -1)], [1, 0, 1]]),
        ],
    )
    def test_planted_minor_fault_is_an_internal_error(self, monkeypatch, algebra_n, gmat):
        curve = CurveSubspace.from_group_curve(lie_algebra(algebra_n), t_mat(gmat))
        real = wonderful.lowest_minor_coefficients

        def one_wrong_coefficient(rows):
            mu, coeffs = real(rows)
            coeffs[max(coeffs)] += 1
            return mu, coeffs

        monkeypatch.setattr(wonderful, "lowest_minor_coefficients", one_wrong_coefficient)
        with pytest.raises(InternalCheckError):
            limit(curve)


class TestSparseCrossCheck:
    """``limit`` compares the nonzero leading minor coefficients with the
    result's integer minors: the same column sets, proportional values."""

    DENSE = [[(1, 1), 1, 2], [0, (1, 2), (1, -1)], [1, 0, 1]]

    @staticmethod
    def last_nonzero_mask(coeffs):
        """The last column set with a nonzero coefficient, in lexicographic
        order: never the leading one when there are several."""
        present = [m for m in lex_masks(16, 8) if m in coeffs]
        assert len(present) > 1
        return present[-1]

    @staticmethod
    def nonzero_where_minor_vanishes(coeffs):
        coeffs[next(m for m in lex_masks(16, 8) if m not in coeffs)] = 1

    @classmethod
    def non_leading_minor_removed(cls, coeffs):
        del coeffs[cls.last_nonzero_mask(coeffs)]

    @classmethod
    def non_leading_minor_zeroed(cls, coeffs):
        coeffs[cls.last_nonzero_mask(coeffs)] = 0

    @staticmethod
    def scaled_by_minus_three(coeffs):
        for m in coeffs:
            coeffs[m] *= -3

    @pytest.mark.parametrize(
        "fault, detected",
        [
            ("nonzero_where_minor_vanishes", True),
            ("non_leading_minor_removed", True),
            ("non_leading_minor_zeroed", True),
            ("scaled_by_minus_three", False),
        ],
    )
    def test_planted_faults(self, monkeypatch, fault, detected):
        curve = CurveSubspace.from_group_curve(lie_algebra(3), t_mat(self.DENSE))
        expected = limit(curve)
        real = wonderful.lowest_minor_coefficients

        def planted(rows):
            mu, coeffs = real(rows)
            getattr(self, fault)(coeffs)
            return mu, coeffs

        monkeypatch.setattr(wonderful, "lowest_minor_coefficients", planted)
        if detected:
            with pytest.raises(InternalCheckError, match="disagree"):
                limit(curve)
        else:
            assert limit(curve) == expected


def laplace_det(rows):
    """Determinant of square Laurent rows by Laplace expansion along row 0."""
    if len(rows) == 1:
        return rows[0][0]
    acc = LaurentPoly.zero()
    for j, entry in enumerate(rows[0]):
        term = entry * laplace_det([r[:j] + r[j + 1:] for r in rows[1:]])
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def cofactor_adjugate(rows):
    """adj[i][j] = (-1)^(i+j) det(rows without row j and column i)."""
    n = len(rows)
    if n == 1:
        return [[LaurentPoly.const(1)]]
    return [
        [
            (-1) ** (i + j)
            * laplace_det([r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j])
            for j in range(n)
        ]
        for i in range(n)
    ]


def laurent_coords(alg, m):
    """Basis coordinates of a trace-zero Laurent matrix, read off the basis
    names: E_ij is the (i, j) entry, H_i the sum of the first i diagonal
    entries."""
    out = []
    for name in alg.basis_names:
        if name[0] == "E":
            out.append(m[int(name[1]) - 1, int(name[2]) - 1])
        else:
            out.append(sum((m[k, k] for k in range(int(name[1:]))), LaurentPoly.zero()))
    return tuple(out)


def old_route_rows(alg, gmat):
    """The graph curve's rows by the generic route: g @ b @ adj as Laurent
    matrix products, scaled against det(g) times the coordinates of b."""
    g = gmat.map(LaurentPoly.lift)
    rows = [list(r) for r in g.rows]
    det = laplace_det(rows)
    adj = Mat(cofactor_adjugate(rows))
    out = []
    for b in alg.basis:
        bl = b.map(LaurentPoly.lift)
        first = laurent_coords(alg, g @ bl @ adj)
        second = tuple(det * c for c in laurent_coords(alg, bl))
        out.append(first + second)
    return tuple(out)


def seeded_laurent(seed, n, low, high):
    """Seeded n x n matrix of Laurent polynomials with exponents in
    [low, high] and small rational coefficients, about a quarter of its
    entries zero."""
    index = 0
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            entry = LaurentPoly.zero()
            for k in range(low, high + 1):
                entry = entry + LaurentPoly.t_power(k, sample_rational(seed, index))
                index += 1
            if sample_rational(seed, index) < -2:
                entry = LaurentPoly.zero()
            index += 1
            row.append(entry)
        rows.append(row)
    return rows


def translated_torus(seed, exps, sides):
    """L diag(t^a) U for seeded unit lower L and unit upper U; a side not
    named in ``sides`` is the identity."""
    n = len(exps)

    def unipotent(lower, offset):
        return Mat(
            [
                [
                    LaurentPoly.const(
                        int(i == j) if (i <= j if lower else i >= j)
                        else sample_rational(seed, offset + n * i + j)
                    )
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )

    torus = Mat(
        [[LaurentPoly.t_power(exps[i]) if i == j else LaurentPoly.zero() for j in range(n)]
         for i in range(n)]
    )
    g = torus
    if "L" in sides:
        g = unipotent(True, 0) @ g
    if "U" in sides:
        g = g @ unipotent(False, n * n)
    return g


class TestFromGroupCurve:
    """The outer-product route of ``from_group_curve`` against the generic
    route of Laurent matrix products."""

    CASES = [
        (2, (1, 0), ""),
        (2, (-1, 1), "L"),
        (2, (2, 0), "U"),
        (2, (1, -1), "LU"),
        (3, (2, 1, 0), ""),
        (3, (1, -1, 0), ""),
        (3, (1, -1, 0), "L"),
        (3, (2, 1, 0), "U"),
        (3, (1, 0, 0), "LU"),
        (3, (0, -1, 2), "LU"),
    ]

    @pytest.mark.parametrize("n, exps, sides", CASES)
    @pytest.mark.parametrize("seed", [3, 8])
    def test_translated_torus_matches_old_route(self, n, exps, sides, seed):
        alg = lie_algebra(n)
        gmat = translated_torus(seed, exps, sides)
        assert CurveSubspace.from_group_curve(alg, gmat).rows == old_route_rows(alg, gmat)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", [40, 42, 43, 46])
    def test_dense_laurent_entries_match_old_route(self, n, seed):
        alg = lie_algebra(n)
        gmat = Mat(seeded_laurent(seed, n, -1, 1))
        assert CurveSubspace.from_group_curve(alg, gmat).rows == old_route_rows(alg, gmat)

    def test_pinned_curve_with_inverse_power_matches_old_route(self):
        alg = lie_algebra(3)
        gmat = t_mat([[(1, 1), 1, 2], [0, (1, 2), (1, -1)], [1, 0, 1]])
        assert CurveSubspace.from_group_curve(alg, gmat).rows == old_route_rows(alg, gmat)

    @pytest.mark.parametrize(
        "n, gmat",
        [
            (2, [[(1, 1), (1, 2)], [1, (1, 1)]]),
            (3, [[(1, 1), 1, 0], [(2, 1), 2, 0], [0, (1, -1), 1]]),
            (3, [[(1, 1), 0, 0], [0, 0, 0], [1, 2, (1, -1)]]),
        ],
    )
    def test_singular_curve_rejected(self, n, gmat):
        with pytest.raises(DegenerateCurveError, match="singular"):
            CurveSubspace.from_group_curve(lie_algebra(n), t_mat(gmat))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("seed", [70, 72, 73])
    def test_adjugate_times_matrix_is_det(self, n, seed):
        rows = seeded_laurent(seed, n, -1, 2)
        adj = wonderful._laurent_adjugate(rows)
        assert adj == cofactor_adjugate(rows)
        det = laplace_det(rows)
        assert det
        scalar = Mat(
            [[det if i == j else LaurentPoly.zero() for j in range(n)] for i in range(n)]
        )
        assert Mat(rows) @ Mat(adj) == scalar
        assert Mat(adj) @ Mat(rows) == scalar


class TestContains:
    def test_diagonal_contains_diagonal_pairs(self):
        sl2 = lie_algebra(2)
        gd = diagonal_subspace(sl2)
        for i in range(5):
            y = sample_element(sl2, 15, i)
            assert gd.contains((y, y))
            if not y.is_zero():
                assert not gd.contains((y, 2 * y))

    def test_limit_point_membership(self):
        sl2 = lie_algebra(2)
        curve = CurveSubspace.from_group_curve(sl2, t_mat([[(1, 1), 0], [0, 1]]))
        gamma = limit(curve)
        f, h = sl2.named("f"), sl2.named("h")
        assert gamma.contains((f, sl2.zero()))
        assert not gamma.contains((h, -1 * h))


class TestBoundary:
    def test_requires_certificate(self):
        sl2 = lie_algebra(2)
        rows = [
            (1, 0, 0, 0, 0, 0),
            (0, 1, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 0),
        ]
        raw = Subspace(sl2, [[Fraction(x) for x in r] for r in rows])
        with pytest.raises(CertificateError):
            raw.is_boundary()

    def test_limit_projection_ranks(self):
        sl2 = lie_algebra(2)
        curve = CurveSubspace.from_group_curve(sl2, t_mat([[(1, 1), 0], [0, 1]]))
        gamma = limit(curve)
        first, second = gamma.projection_ranks()
        # first projection only reaches span{h, f}
        assert (first, second) == (2, 2)


class TestChiCompatible:
    def test_diagonal(self):
        sl2 = lie_algebra(2)
        ok, _ = chi_compatible(diagonal_subspace(sl2), 20, seed=1)
        assert ok

    def test_boundary_limit(self):
        sl2 = lie_algebra(2)
        curve = CurveSubspace.from_group_curve(sl2, t_mat([[(1, 1), 0], [0, 1]]))
        ok, _ = chi_compatible(limit(curve), 20, seed=2)
        assert ok

    def test_random_subspace_generically_fails(self):
        sl2 = lie_algebra(2)
        rows = [
            [sample_rational(333, 6 * i + j) for j in range(6)] for i in range(3)
        ]
        raw = Subspace(sl2, rows)
        ok, witness = chi_compatible(raw, 20, seed=3)
        assert not ok
        assert witness is not None

    def test_curve_limits_satisfy_image_constraint(self):
        sl2 = lie_algebra(2)
        for i in range(20):
            a = 1 + i % 3
            c = sample_rational(17, i)
            gmat = Mat(
                [
                    [LaurentPoly.t_power(a), LaurentPoly.const(c)],
                    [LaurentPoly.zero(), LaurentPoly.const(1)],
                ]
            )
            gamma = limit(CurveSubspace.from_group_curve(sl2, gmat))
            ok, witness = chi_compatible(gamma, 20, seed=100 + i)
            assert ok, witness


class TestPgl2Model:
    def test_identity_gives_diagonal(self):
        sl2 = lie_algebra(2)
        assert pgl2_model(sl2, Mat.identity(2)) == diagonal_subspace(sl2)

    def test_e22_matches_diag_t_limit(self):
        sl2 = lie_algebra(2)
        a = frac_mat([[0, 0], [0, 1]])
        curve = CurveSubspace.from_group_curve(sl2, t_mat([[(1, 1), 0], [0, 1]]))
        assert pgl2_model(sl2, a) == limit(curve)

    def test_e12_is_three_dimensional(self):
        sl2 = lie_algebra(2)
        gamma = pgl2_model(sl2, frac_mat([[0, 1], [0, 0]]))
        e = sl2.named("e")
        h = sl2.named("h")
        # e is upper triangular and E12 * e = 0 = e... both strictly upper:
        # y1 = e, y2 = -e satisfies y1 A = A y2 with A = E12? e*E12 = 0, E12*(-e) = 0
        assert gamma.contains((e, -1 * e))
        assert gamma.contains((h, -1 * h))

    def test_matches_graph_for_group_matrices(self):
        sl2 = lie_algebra(2)
        for i in range(10):
            g = sample_group_element(sl2, 19, i)
            assert pgl2_model(sl2, g.matrix) == graph_subspace(g)

    def test_matches_limit_for_matrix_curves(self):
        # the projective limit of g(t) = [[t, c], [0, 1]] is E12-type when c != 0
        sl2 = lie_algebra(2)
        for i in range(10):
            c = sample_rational(23, i)
            gmat = Mat(
                [
                    [LaurentPoly.t_power(1), LaurentPoly.const(c)],
                    [LaurentPoly.zero(), LaurentPoly.const(1)],
                ]
            )
            gamma = limit(CurveSubspace.from_group_curve(sl2, gmat))
            limit_matrix = frac_mat([[0, c], [0, 1]])
            assert gamma == pgl2_model(sl2, limit_matrix)

    def test_zero_rejected(self):
        sl2 = lie_algebra(2)
        with pytest.raises(MembershipError):
            pgl2_model(sl2, Mat.zeros(2, 2))


class TestInGbarStau:
    def test_diagonal_slice_pairs(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        gd = diagonal_subspace(sl2)
        for i in range(5):
            s = slc.point([sample_rational(29, i)])
            assert in_gbar_stau(gd, (s, s), slc)

    def test_boundary_point_with_nilpotent_pair(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        curve = CurveSubspace.from_group_curve(sl2, t_mat([[(1, 1), 0], [0, 1]]))
        gamma = limit(curve)
        assert in_gbar_stau(gamma, (sl2.zero(), sl2.named("e")), slc)

    def test_chi_mismatch_fails(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        gd = diagonal_subspace(sl2)
        assert not in_gbar_stau(gd, (sl2.named("h"), sl2.named("e")), slc)


class TestLogCotangentPoint:
    def test_membership_enforced(self):
        sl2 = lie_algebra(2)
        gd = diagonal_subspace(sl2)
        y = sample_element(sl2, 31, 0)
        LogCotangentPoint(gd, (y, y))
        with pytest.raises(MembershipError):
            LogCotangentPoint(gd, (y, y + sl2.named("e")))

    def test_action(self):
        sl2 = lie_algebra(2)
        gd = diagonal_subspace(sl2)
        y = sample_element(sl2, 31, 1)
        p = LogCotangentPoint(gd, (y, y))
        g1 = sample_group_element(sl2, 31, 0)
        g2 = sample_group_element(sl2, 31, 1)
        moved = p.act(g1, g2)
        assert moved.pair[0] == Ad(g1, y)
        assert moved.gamma == gd.act(g1, g2)
