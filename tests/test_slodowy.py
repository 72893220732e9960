import dataclasses
from fractions import Fraction

import pytest

from slicelab.exactnum import Mat, RowSpan, sample_rational, span_contains
from slicelab.liecore import (
    Ad,
    GroupElement,
    bracket,
    centralizer,
    chi,
    exp_nilpotent,
    lie_algebra,
    sample_element,
    sample_group_element,
)
from slicelab import slodowy
from slicelab.liecore import LieAlgebra
from slicelab.slodowy import (
    InternalCheckError,
    SliceError,
    Sl2Triple,
    chi_section,
    conjugate_to_slice,
    grading,
    parse_partition,
    principal_slice,
    slodowy_slice,
    standard_triple,
    verify_triple,
    zero_triple,
)
from slicelab.suites import _SLICE_CASES


def frac_mat(rows):
    return Mat([[Fraction(x) for x in r] for r in rows])


def sample_in_xi_plus_parabolic(slc, seed, index):
    y = slc.base
    for k, b in enumerate(slc.parabolic):
        y = y + sample_rational(seed, index * len(slc.parabolic) + k) * b
    return y


class TestStandardTriple:
    def test_sl2_principal_is_e_h_f(self):
        sl2 = lie_algebra(2)
        t = standard_triple(sl2, (2,))
        assert t.xi == sl2.named("e")
        assert t.h == sl2.named("h")
        assert t.eta == sl2.named("f")
        assert verify_triple(t.xi, t.h, t.eta) == (True, None)

    def test_sl3_principal(self):
        sl3 = lie_algebra(3)
        t = standard_triple(sl3, (3,))
        assert t.xi.matrix() == frac_mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        assert t.h.matrix() == frac_mat([[2, 0, 0], [0, 0, 0], [0, 0, -2]])
        assert t.eta.matrix() == frac_mat([[0, 0, 0], [2, 0, 0], [0, 2, 0]])
        assert bracket(t.xi, t.eta) == t.h

    def test_sl3_subregular_partition(self):
        sl3 = lie_algebra(3)
        t = standard_triple(sl3, (2, 1))
        # minimal nilpotent: 4-dimensional centralizer of eta
        assert len(centralizer(t.eta)) == 4

    def test_invalid_partition(self):
        sl3 = lie_algebra(3)
        with pytest.raises(SliceError):
            standard_triple(sl3, (2, 2))
        with pytest.raises(SliceError):
            standard_triple(sl3, (3, 0))

    def test_parse_partition(self):
        assert parse_partition("2,1") == (2, 1)
        with pytest.raises(SliceError):
            parse_partition("2,x")

    def test_all_ones_partition_is_zero_triple(self):
        sl3 = lie_algebra(3)
        t = standard_triple(sl3, (1, 1, 1))
        assert t.is_zero()


class TestVerifyTriple:
    def test_rejects_bad_triple(self):
        sl2 = lie_algebra(2)
        e, h = sl2.named("e"), sl2.named("h")
        ok, failing = verify_triple(e, h, e)
        assert not ok
        assert failing == "[xi, eta] = h"
        with pytest.raises(SliceError):
            Sl2Triple.checked(e, h, e)

    def test_scaled_pair_is_still_a_triple(self):
        sl2 = lie_algebra(2)
        e, h, f = sl2.named("e"), sl2.named("h"), sl2.named("f")
        ok, _ = verify_triple(2 * e, h, Fraction(1, 2) * f)
        assert ok


class TestGrading:
    def test_principal_sl2(self):
        g = grading(standard_triple(lie_algebra(2), (2,)))
        assert g.eigenvalues == (-2, 0, 2)
        assert [len(g.eigenspaces[lam]) for lam in g.eigenvalues] == [1, 1, 1]

    def test_principal_sl3(self):
        g = grading(standard_triple(lie_algebra(3), (3,)))
        assert g.eigenvalues == (-4, -2, 0, 2, 4)
        assert [len(g.eigenspaces[lam]) for lam in g.eigenvalues] == [1, 2, 2, 2, 1]

    def test_zero_triple(self):
        sl2 = lie_algebra(2)
        g = grading(zero_triple(sl2))
        assert g.eigenvalues == (0,)
        assert len(g.eigenspaces[0]) == 3

    def test_bracket_respects_grading(self):
        g = grading(standard_triple(lie_algebra(3), (2, 1)))
        for la in g.eigenvalues:
            for lb in g.eigenvalues:
                for x in g.eigenspaces[la]:
                    for y in g.eigenspaces[lb]:
                        z = bracket(x, y)
                        if z.is_zero():
                            continue
                        assert g.component(z, la + lb) == z

    def test_projection_resolves_identity(self):
        alg = lie_algebra(3)
        g = grading(standard_triple(alg, (2, 1)))
        x = sample_element(alg, 3, 0)
        total = alg.zero()
        for lam in g.eigenvalues:
            total = total + g.component(x, lam)
        assert total == x


class TestSlodowySlice:
    @pytest.mark.parametrize("n,partition", [(2, (2,)), (3, (3,)), (3, (2, 1))])
    def test_dimension_bookkeeping(self, n, partition):
        alg = lie_algebra(n)
        slc = slodowy_slice(standard_triple(alg, partition))
        assert slc.dim() == len(centralizer(slc.triple.eta))
        assert slc.codim() == alg.dim - slc.dim()
        # S_tau lies inside xi + p_tau
        for i in range(5):
            coeffs = [sample_rational(7, slc.dim() * i + k) for k in range(slc.dim())]
            assert slc.in_xi_plus_parabolic(slc.point(coeffs))

    @pytest.mark.parametrize(
        "n,partition,expected_even",
        [(2, (2,), True), (3, (3,), True), (3, (2, 1), False)],
    )
    def test_stabilizer_equals_nilradical_iff_even(self, n, partition, expected_even):
        alg = lie_algebra(n)
        slc = slodowy_slice(standard_triple(alg, partition))
        is_even = -1 not in slc.grading.eigenvalues and 1 not in slc.grading.eigenvalues
        assert is_even == expected_even
        assert (len(slc.stabilizer_nilradical) == len(slc.nilradical)) == is_even

    def test_membership(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        assert slc.contains(sl2.named("e"))
        assert slc.contains(sl2.named("e") + 5 * sl2.named("f"))
        assert not slc.contains(sl2.named("h"))

    def test_zero_triple_slice_is_everything(self):
        sl2 = lie_algebra(2)
        slc = slodowy_slice(zero_triple(sl2))
        assert slc.dim() == 3
        assert slc.codim() == 0
        assert slc.contains(sample_element(sl2, 11, 4))


class TestSliceCaches:
    @pytest.mark.parametrize("n,partition", [(2, (2,)), (3, (3,)), (3, (2, 1))])
    def test_eta_sections_computed_once(self, n, partition, monkeypatch):
        alg = lie_algebra(n)
        slc = slodowy_slice(standard_triple(alg, partition))
        fresh = slodowy_slice(standard_triple(alg, partition))
        calls = []
        original = LieAlgebra.ad_matrix

        def counting(self, x):
            calls.append(x)
            return original(self, x)

        monkeypatch.setattr(LieAlgebra, "ad_matrix", counting)
        degrees = slc.grading.eigenvalues
        first = {lam: slodowy._eta_section(slc, lam) for lam in degrees}
        built = len(calls)
        assert built == len(degrees)
        y = sample_in_xi_plus_parabolic(slc, 53, 0)
        for _ in range(2):
            assert {lam: slodowy._eta_section(slc, lam) for lam in degrees} == first
            conjugate_to_slice(slc, y)
        assert len(calls) == built
        monkeypatch.undo()
        assert {lam: slodowy._eta_section(fresh, lam) for lam in degrees} == first
        assert slc == fresh

    @pytest.mark.parametrize("n,partition", [(2, (2,)), (3, (3,)), (3, (2, 1))])
    def test_is_principal_computed_once(self, n, partition, monkeypatch):
        alg = lie_algebra(n)
        slc = slodowy_slice(standard_triple(alg, partition))
        fresh = slodowy_slice(standard_triple(alg, partition))
        calls = []
        original = slodowy.is_regular

        def counting(x):
            calls.append(x)
            return original(x)

        monkeypatch.setattr(slodowy, "is_regular", counting)
        value = slc.is_principal()
        built = len(calls)
        assert built >= 1
        assert [slc.is_principal() for _ in range(3)] == [value] * 3
        if value:
            chi_section(slc, sample_element(alg, 59, 0))
        assert len(calls) == built
        monkeypatch.undo()
        assert fresh.is_principal() == value == (partition == (n,))


class TestConjugateToSlice:
    def test_already_on_slice(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        y = sl2.named("e") + 3 * sl2.named("f")
        res = conjugate_to_slice(slc, y)
        assert res.u == GroupElement.identity(sl2)
        assert res.s == y

    def test_e_plus_h_closed_form(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        e, h, f = sl2.named("e"), sl2.named("h"), sl2.named("f")
        res = conjugate_to_slice(slc, e + h)
        assert res.u == exp_nilpotent(-1 * f)
        assert res.s == e + f

    def test_e_2h_3f_closed_form(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        e, h, f = sl2.named("e"), sl2.named("h"), sl2.named("f")
        res = conjugate_to_slice(slc, e + 2 * h + 3 * f)
        assert res.u == exp_nilpotent(-2 * f)
        assert res.s == e + 7 * f
        assert chi(res.s) == chi(e + 2 * h + 3 * f)

    def test_sl2_general_closed_form(self):
        # y = e + a*h + c*f lands on s = e + (c + a^2) f
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        e, h, f = sl2.named("e"), sl2.named("h"), sl2.named("f")
        for i in range(20):
            a = sample_rational(13, 2 * i)
            c = sample_rational(13, 2 * i + 1)
            res = conjugate_to_slice(slc, e + a * h + c * f)
            assert res.s == e + (c + a * a) * f

    @pytest.mark.parametrize("n,partition", [(2, (2,)), (3, (3,)), (3, (2, 1))])
    def test_roundtrip_on_samples(self, n, partition):
        alg = lie_algebra(n)
        slc = slodowy_slice(standard_triple(alg, partition))
        for i in range(50):
            y = sample_in_xi_plus_parabolic(slc, 17 + n, i)
            res = conjugate_to_slice(slc, y)
            assert Ad(res.u, res.s) == y
            assert slc.contains(res.s)
            assert chi(res.s) == chi(y)

    def test_precondition_violation(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        with pytest.raises(SliceError):
            conjugate_to_slice(slc, sl2.named("h"))

    def test_zero_triple_is_identity_map(self):
        sl2 = lie_algebra(2)
        slc = slodowy_slice(zero_triple(sl2))
        y = sample_element(sl2, 19, 0)
        res = conjugate_to_slice(slc, y)
        assert res.u == GroupElement.identity(sl2)
        assert res.s == y


class TestChiSection:
    def test_sl2_examples(self):
        sl2 = lie_algebra(2)
        slc = principal_slice(sl2)
        e, h, f = sl2.named("e"), sl2.named("h"), sl2.named("f")
        assert chi_section(slc, e) == e
        # chi(h) = (-1) and chi(e + c f) = (-c) force c = 1
        assert chi_section(slc, h) == e + f
        # chi(f) = (0)
        assert chi_section(slc, f) == e

    def test_idempotent(self):
        for n in (2, 3):
            alg = lie_algebra(n)
            slc = principal_slice(alg)
            for i in range(10):
                x = sample_element(alg, 23, i)
                s = chi_section(slc, x)
                assert chi_section(slc, s) == s

    def test_conjugation_oracle(self):
        # chi_section recovers the exact slice point from any conjugate of it.
        for n in (2, 3):
            alg = lie_algebra(n)
            slc = principal_slice(alg)
            for i in range(10):
                coeffs = [sample_rational(29, (n - 1) * i + k) for k in range(slc.dim())]
                s0 = slc.point(coeffs)
                g = sample_group_element(alg, 29, i)
                assert chi_section(slc, Ad(g, s0)) == s0

    def test_sl3_brute_force_affine_model(self):
        # Independent solve: fit chi on the slice as an affine function of the
        # two slice coordinates, certify the model exactly on extra points,
        # and solve the 2x2 linear system directly.
        sl3 = lie_algebra(3)
        slc = principal_slice(sl3)
        probes = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 3), (-1, 2), (5, -4)]
        values = {p: chi(slc.point(p)).coeffs for p in probes}
        base = values[(0, 0)]
        col_a = tuple(v - b for v, b in zip(values[(1, 0)], base))
        col_b = tuple(v - b for v, b in zip(values[(0, 1)], base))
        for (a, b), v in values.items():
            fitted = tuple(
                base[k] + a * col_a[k] + b * col_b[k] for k in range(2)
            )
            assert fitted == v, "chi is not affine on the principal sl3 slice"
        system = Mat([[col_a[0], col_b[0]], [col_a[1], col_b[1]]])
        for i in range(10):
            x = sample_element(sl3, 31, i)
            target = chi(x).coeffs
            rhs = (target[0] - base[0], target[1] - base[1])
            a, b = system.solve(rhs)
            assert chi_section(slc, x) == slc.point((a, b))

    def test_rejects_non_principal(self):
        sl3 = lie_algebra(3)
        slc = slodowy_slice(standard_triple(sl3, (2, 1)))
        with pytest.raises(SliceError):
            chi_section(slc, sl3.named("E12"))

    def test_rejects_zero_triple(self):
        sl2 = lie_algebra(2)
        slc = slodowy_slice(zero_triple(sl2))
        with pytest.raises(SliceError):
            chi_section(slc, sl2.named("h"))

    def test_injective_on_slice_samples(self):
        sl3 = lie_algebra(3)
        slc = principal_slice(sl3)
        seen = {}
        for i in range(20):
            coeffs = (sample_rational(37, 2 * i), sample_rational(37, 2 * i + 1))
            value = chi(slc.point(coeffs)).coeffs
            if value in seen:
                assert seen[value] == coeffs
            seen[value] = coeffs


# --- The per-slice conjugation plan -------------------------------------------


def elimination_oracle(slc, y):
    """The per-call elimination the conjugation plan replaced: one exact
    solve per degree in full coordinates, and one group-side Ad per step."""
    alg = slc.algebra
    if slc.triple.is_zero():
        return GroupElement.identity(alg), y
    grad = slc.grading
    xi = slc.triple.xi
    u = GroupElement.identity(alg)
    s = y
    for nu in range(0, min(grad.eigenvalues) - 1, -1):
        defect = grad.component(s - xi, nu)
        if defect.is_zero():
            continue
        eta_part = slodowy._eta_section(slc, nu)
        z_basis = grad.eigenspaces.get(nu - 2, [])
        columns = [b.coords for b in eta_part] + [bracket(z, xi).coords for z in z_basis]
        sol = Mat(list(zip(*columns))).solve(defect.coords)
        assert sol is not None
        z = alg.zero()
        for c, b in zip(sol[len(eta_part):], z_basis):
            z = z + c * b
        if z.is_zero():
            continue
        step = exp_nilpotent(z)
        u = u * step
        s = Ad(step.inverse(), s)
    return u, s


PLAN_CASES = list(_SLICE_CASES) + [(3, (1, 1, 1))]


def plan_slice(n, partition):
    return slodowy_slice(standard_triple(lie_algebra(n), partition))


class TestConjugationPlan:
    @pytest.mark.parametrize("n,partition", PLAN_CASES)
    def test_matches_the_per_call_elimination(self, n, partition):
        slc = plan_slice(n, partition)
        for i in range(30):
            y = sample_in_xi_plus_parabolic(slc, 79 + n, i)
            res = conjugate_to_slice(slc, y)
            assert (res.u, res.s) == elimination_oracle(slc, y)

    @pytest.mark.parametrize("n,partition", _SLICE_CASES)
    def test_every_wrong_inverse_entry_is_caught(self, n, partition):
        y = sample_in_xi_plus_parabolic(plan_slice(n, partition), 83, 0)
        plan = plan_slice(n, partition)._conjugation_plan
        assert plan
        for k, step in enumerate(plan):
            ints, d = step.lift.core()
            for i, row in enumerate(ints):
                for j in range(len(row)):
                    planted = [list(r) for r in ints]
                    planted[i][j] += d
                    wrong = dataclasses.replace(step, lift=Mat.from_core(planted, d))
                    slc = plan_slice(n, partition)
                    slc.__dict__["_conjugation_plan"] = plan[:k] + (wrong,) + plan[k + 1:]
                    with pytest.raises(InternalCheckError):
                        conjugate_to_slice(slc, y)

    def test_degree_systems_are_certified(self):
        slc = plan_slice(3, (3,))
        y = sample_in_xi_plus_parabolic(slc, 89, 0)
        eta = slodowy._eta_section(slc, -2)
        assert len(eta) == 1
        # without its g_eta part the degree -2 system is not square
        slc._eta_sections[-2] = ()
        with pytest.raises(InternalCheckError, match="not square"):
            conjugate_to_slice(slc, y)
        # with [z, xi] in place of the g_eta part it is square but singular
        slc = plan_slice(3, (3,))
        z = slc.grading.eigenspaces[-4][0]
        slc._eta_sections[-2] = (bracket(z, slc.base),)
        with pytest.raises(InternalCheckError, match="singular"):
            conjugate_to_slice(slc, y)

    @pytest.mark.parametrize("n,partition", _SLICE_CASES)
    def test_missing_span_vector_is_rejected(self, n, partition):
        slc = plan_slice(n, partition)
        for k, d in enumerate(slc.directions):
            assert slc.contains(slc.base + d)
            others = slc.directions[:k] + slc.directions[k + 1:]
            slc.__dict__["_direction_span"] = RowSpan(e.coords for e in others)
            assert not slc.contains(slc.base + d)
            del slc.__dict__["_direction_span"]
        for k, b in enumerate(slc.parabolic):
            others = slc.parabolic[:k] + slc.parabolic[k + 1:]
            slc.__dict__["_parabolic_span"] = RowSpan(e.coords for e in others)
            assert not slc.in_xi_plus_parabolic(slc.base + b)
            del slc.__dict__["_parabolic_span"]

    @pytest.mark.parametrize("n,partition", PLAN_CASES)
    def test_membership_against_span_contains(self, n, partition):
        slc = plan_slice(n, partition)
        alg = slc.algebra
        spans = ((slc.contains, slc.directions), (slc.in_xi_plus_parabolic, slc.parabolic))
        for i in range(20):
            outside = sample_element(alg, 97, i)
            for member, basis in spans:
                rows = [b.coords for b in basis]
                inside = slc.base
                for k, b in enumerate(basis):
                    inside = inside + sample_rational(101, i * alg.dim + k) * b
                assert member(inside) and span_contains(rows, (inside - slc.base).coords)
                expected = span_contains(rows, (outside - slc.base).coords)
                assert member(outside) == expected

    def test_plan_is_built_once_and_stays_out_of_equality(self):
        slc = plan_slice(3, (2, 1))
        fresh = plan_slice(3, (2, 1))
        y = sample_in_xi_plus_parabolic(slc, 103, 0)
        conjugate_to_slice(slc, y)
        plan = slc._conjugation_plan
        conjugate_to_slice(slc, y)
        assert slc._conjugation_plan is plan
        assert slc == fresh
