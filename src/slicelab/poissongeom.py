"""Poisson structures at points: Lie-Poisson on g, the canonical structure
on T*G, moment maps, the moment-condition checker, and transversal tests.

Conventions, fixed once for the whole package:

* Bivectors act on coordinate covectors: ``apply(alpha)`` is the vector
  P(alpha), and the bracket is {f1, f2} = df2(P(df1)).  On g this makes
  P_y(alpha) = [y, kappa(alpha)], reproducing {f1, f2}(y) = <y, [df1, df2]>.
* Hamiltonian vector fields are H_f = -P(df), and fundamental vector
  fields are d/d eps of the exp(eps*b)-action, both computed with dual
  numbers (never by hand formulas).
* Covectors on g + g pair with a sign flip on the second summand,
  (x1, x2) -> (<x1, .>, -<x2, .>).  Moment values of right-factor actions
  (rho_R, and the adjoint action on g with its Lie-Poisson structure)
  pair through that second-factor identification; left-factor moment
  values pair plainly.  With any other sign assignment the moment
  condition fails outright for these actions.
* T*G is G x g in the left trivialization; tangent vectors at (g, x) are
  pairs (y, z) of algebra elements, and the bivector in these coordinates
  depends only on x, which is how left-translation transport enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import Dual, Mat, dual_mat_inverse, join_dual_matrix, span_contains
from .liecore import (
    Ad,
    Element,
    GroupElement,
    LieAlgebra,
    bracket,
    kappa,
    killing,
)
from .slodowy import SlodowySlice
from .wonderful import LogCotangentPoint, MembershipError


class UnsupportedSpaceError(ValueError):
    pass


@dataclass(frozen=True)
class CotangentPoint:
    """Point (g, x) of T*G = G x g in the left trivialization."""

    g: GroupElement
    x: Element


@dataclass(frozen=True)
class MomentValue:
    """A point of g + g, the target of the pair moment maps."""

    left: Element
    right: Element


class PointedBivector:
    """Skew matrix of a Poisson bivector at a point, in a declared basis.

    Entry (i, j) is {x^i, x^j} at the point, so ``apply`` contracts a
    coordinate covector in the first slot.
    """

    def __init__(self, label: str, matrix: Mat):
        if matrix.transpose() != -matrix:
            raise ValueError("bivector matrix must be exactly skew-symmetric")
        self.label = label
        self.matrix = matrix

    @property
    def dim(self) -> int:
        return self.matrix.nrows

    def apply(self, covector):
        covector = tuple(covector)
        if len(covector) != self.dim:
            raise ValueError("covector has wrong length")
        cols = range(self.dim)
        return tuple(
            sum((covector[i] * self.matrix.rows[i][j] for i in cols), Fraction(0))
            for j in cols
        )

    def rank(self) -> int:
        r = self.matrix.rank()
        if r % 2:
            raise AssertionError("skew matrix with odd rank")
        return r

    def __repr__(self):
        return f"PointedBivector({self.label}, dim={self.dim})"


def lie_poisson_bivector(algebra: LieAlgebra, y: Element) -> PointedBivector:
    """Lie-Poisson bivector at y: covector alpha goes to [y, kappa(alpha)]."""
    rows = []
    for i in range(algebra.dim):
        unit = tuple(Fraction(k == i) for k in range(algebra.dim))
        rows.append(bracket(y, kappa(algebra, unit)).coords)
    return PointedBivector(f"lie-poisson@{y!r}", Mat(rows))


def cotangent_bivector(algebra: LieAlgebra, x: Element) -> PointedBivector:
    """Bivector of T*G at (e, x) in left-trivialized coordinates.

    By left-invariance the same matrix serves at any (g, x).
    """
    n = algebra.dim
    zero = tuple(Fraction(0) for _ in range(n))
    rows = []
    kappas = [
        kappa(algebra, tuple(Fraction(k == i) for k in range(n))) for i in range(n)
    ]
    for i in range(n):
        rows.append(zero + tuple(-c for c in kappas[i].coords))
    for j in range(n):
        rows.append(kappas[j].coords + bracket(x, kappas[j]).coords)
    return PointedBivector(f"tstarg@(e,{x!r})", Mat(rows))


def lie_poisson_apply(y: Element, alpha) -> Element:
    """P_y(alpha) = [y, kappa(alpha)] for a coordinate covector alpha."""
    return bracket(y, kappa(y.algebra, tuple(alpha)))


def cotangent_form(p: CotangentPoint, v1, v2):
    """Canonical symplectic form on left-trivialized tangent pairs at (g, x)."""
    y1, z1 = v1
    y2, z2 = v2
    return killing(y1, z2) - killing(y2, z1) + killing(p.x, bracket(y1, y2))


def cotangent_bivector_identity(x: Element, alpha, beta):
    """The closed form (kappa(beta), [x, kappa(beta)] - kappa(alpha)) at (e, x)."""
    alg = x.algebra
    kb = kappa(alg, tuple(beta))
    ka = kappa(alg, tuple(alpha))
    return kb, bracket(x, kb) - ka


# --- moment maps ---------------------------------------------------------


def moment_eval(space: str, point, slc: SlodowySlice | None = None):
    """Exact moment-map value for the named space; membership is enforced
    for the slice-constrained spaces."""
    if space == "tstarg-left":
        return Ad(point.g, point.x)
    if space == "tstarg-right":
        return point.x
    if space == "tstarg-both":
        return MomentValue(Ad(point.g, point.x), point.x)
    if space == "tstargbar-logd":
        if not isinstance(point, LogCotangentPoint):
            raise UnsupportedSpaceError("tstargbar-logd expects a log-cotangent point")
        return MomentValue(point.pair[0], point.pair[1])
    if space == "g-stau":
        g, s = point
        if slc is None or not slc.contains(s):
            raise MembershipError("second component must lie on the slice")
        return Ad(g, s)
    if space == "gbar-stau":
        if slc is None or not isinstance(point, LogCotangentPoint):
            raise UnsupportedSpaceError("gbar-stau expects a log-cotangent point and a slice")
        if not slc.contains(point.pair[1]):
            raise MembershipError("second pair component must lie on the slice")
        return point.pair[0]
    if space == "product-tstarg":
        nu_value, inner = point
        return product_moment_tstarg(nu_value, inner)
    if space == "product-logd":
        nu_value, inner = point
        return product_moment_logd(nu_value, inner)
    raise UnsupportedSpaceError(f"unknown space {space!r}")


def product_moment_tstarg(nu_value: Element, p: CotangentPoint) -> MomentValue:
    """Moment of X x T*G for the diagonal-left/right pair action: (nu(x) - Ad_g(y), -y)."""
    return MomentValue(nu_value - Ad(p.g, p.x), -p.x)


def product_moment_logd(nu_value: Element, p: LogCotangentPoint) -> MomentValue:
    """Moment of X x T*Gbar(log D): (nu(x) - y1, -y2)."""
    return MomentValue(nu_value - p.pair[0], -p.pair[1])


# --- dual-number differentiation of actions ------------------------------


def _dual_ad(g_value: Mat, g_derivative: Mat, x: Element) -> Element:
    """Ad of the dual group curve g_value + eps*g_derivative on x (dual coords out)."""
    g = join_dual_matrix(g_value, g_derivative)
    inv_v, inv_d = dual_mat_inverse(g_value, g_derivative)
    ginv = join_dual_matrix(inv_v, inv_d)
    xm = x.matrix().map(Dual.lift)
    return x.algebra.element_from_matrix(g @ xm @ ginv)


def _eps_coords(x: Element):
    return tuple(Dual.lift(c).derivative for c in x.coords)


def _value_coords(x: Element):
    return tuple(Dual.lift(c).value for c in x.coords)


def fundamental_vf(space: str, point, b: Element):
    """Coordinates of the fundamental vector field of b at the point,
    computed as the exact eps-derivative of the exp(eps*b)-action."""
    alg = b.algebra
    ident = Mat.identity(alg.n)
    bm = b.matrix()
    if space == "lie-poisson":
        moved = _dual_ad(ident, bm, point)
        return _eps_coords(moved)
    if space in ("tstarg-right", "tstarg-left"):
        g0 = point.g.matrix
        if space == "tstarg-right":
            # exp(eps b) . (g, x) = (g exp(-eps b), Ad_exp(eps b) x)
            curve_value, curve_der = g0, -(g0 @ bm)
            fibre = _dual_ad(ident, bm, point.x)
        else:
            # exp(eps b) . (g, x) = (exp(eps b) g, x)
            curve_value, curve_der = g0, bm @ g0
            fibre = point.x.algebra.element_from_matrix(point.x.matrix().map(Dual.lift))
        # left-trivialized velocity: eps-part of g0^-1 g(eps)
        g0_inv = g0.inverse()
        value_part = g0_inv @ curve_value
        if value_part != ident:
            raise AssertionError("group curve does not start at the base point")
        v = tuple(alg.coords_from_matrix(g0_inv @ curve_der))
        w = _eps_coords(fibre)
        return v + w
    raise UnsupportedSpaceError(f"no fundamental field model for {space!r}")


def check_moment_condition(space: str, point, b: Element, slc: SlodowySlice | None = None):
    """Exactness test of H_(nu^b) = -V_b at the point; returns (ok, witness).

    The differential of nu^b is assembled coordinate by coordinate with
    dual numbers, then pushed through the pointed bivector; the fundamental
    field is the eps-derivative of the action.  Everything is exact, so a
    single mismatch is a definitive counterexample.
    """
    alg = b.algebra
    ident = Mat.identity(alg.n)
    if space == "lie-poisson":
        y = point
        pb = lie_poisson_bivector(alg, y)
        covector = []
        for i in range(alg.dim):
            dual_pt = alg.element(
                tuple(Dual(c, Fraction(k == i)) for k, c in enumerate(y.coords))
            )
            covector.append(_nu_b_dual(space, dual_pt, b))
        covector = tuple(c.derivative for c in covector)
        hamiltonian = tuple(-c for c in pb.apply(covector))
        fundamental = fundamental_vf(space, y, b)
    elif space in ("tstarg-right", "tstarg-left"):
        if point.g != GroupElement.identity(alg):
            raise UnsupportedSpaceError("T*G bivector is implemented at (e, x) only")
        x = point.x
        pb = cotangent_bivector(alg, x)
        covector = []
        for i in range(alg.dim):  # group directions
            dual_val = _nu_b_dual_tstarg(space, ident, alg.basis[i], x, b)
            covector.append(dual_val.derivative)
        for i in range(alg.dim):  # fibre directions
            dual_x = alg.element(
                tuple(Dual(c, Fraction(k == i)) for k, c in enumerate(x.coords))
            )
            dual_val = _nu_b_dual_tstarg(space, ident, Mat.zeros(alg.n, alg.n), dual_x, b)
            covector.append(dual_val.derivative)
        hamiltonian = tuple(-c for c in pb.apply(tuple(covector)))
        fundamental = fundamental_vf(space, point, b)
    else:
        raise UnsupportedSpaceError(f"moment condition not implemented on {space!r}")

    negated = tuple(-c for c in fundamental)
    ok = hamiltonian == negated
    witness = None
    if not ok:
        witness = {
            "b": b.coords,
            "hamiltonian_field": hamiltonian,
            "negated_fundamental_field": negated,
        }
    return ok, witness


def _nu_b_dual(space: str, dual_point: Element, b: Element) -> Dual:
    """nu^b on g with the Lie-Poisson structure of the adjoint (right-factor) action."""
    if space != "lie-poisson":
        raise UnsupportedSpaceError(space)
    return Dual.lift(-killing(dual_point, b))


def _nu_b_dual_tstarg(space: str, g_value: Mat, g_derivative: Mat, x: Element, b: Element) -> Dual:
    """nu^b on T*G: rho_R pairs with the second-factor sign, rho_L pairs plainly."""
    if space == "tstarg-right":
        return Dual.lift(-killing(x, b))
    if space == "tstarg-left":
        return Dual.lift(killing(_dual_ad(g_value, g_derivative, x), b))
    raise UnsupportedSpaceError(space)


# --- transversality ------------------------------------------------------


@dataclass
class TransversalDecomposition:
    ok: bool
    tangent_basis: tuple
    complement_basis: tuple
    induced_matrix: Mat | None
    witness: dict | None


def transversal_check(ambient: PointedBivector, tangent_basis) -> TransversalDecomposition:
    """Test TX = TY + P(TY^dagger) as a direct sum at the point.

    On success the induced slice bivector is returned in the basis of
    covectors that annihilate the complement (the embedded T*Y of the
    decomposition); failure is a value with a rank witness, not an error.
    """
    tangent = tuple(tuple(v) for v in tangent_basis)
    dim = ambient.dim
    annihilator = Mat(list(tangent)).kernel() if tangent else [
        tuple(Fraction(k == i) for k in range(dim)) for i in range(dim)
    ]
    complement = tuple(ambient.apply(a) for a in annihilator)
    stacked = list(tangent) + list(complement)
    rank = Mat(stacked).rank() if stacked else 0
    ok = rank == dim and len(tangent) + len(complement) == dim
    if not ok:
        return TransversalDecomposition(
            False,
            tangent,
            complement,
            None,
            {"rank": rank, "ambient_dim": dim, "pieces": (len(tangent), len(complement))},
        )
    if complement:
        embedded = Mat(list(complement)).kernel()
    else:
        embedded = [tuple(Fraction(k == i) for k in range(dim)) for i in range(dim)]
    induced = []
    for w in embedded:
        image = ambient.apply(w)
        if tangent and not span_contains(tangent, image):
            raise AssertionError("P(T*Y) escaped TY on a successful decomposition")
        induced.append([_pair(w2, image) for w2 in embedded])
    return TransversalDecomposition(True, tangent, complement, Mat(induced).transpose(), None)


def _pair(covector, vector):
    return sum((a * v for a, v in zip(covector, vector)), Fraction(0))


def slice_codimension(slc: SlodowySlice, space: str = "lie-poisson") -> int:
    """dim g - dim g_eta, checked against the transversal complement at sample points."""
    value = slc.algebra.dim - slc.dim()
    alg = slc.algebra
    for i in range(3):
        coeffs = [
            Fraction(((i + 1) * (k + 2)) % 5 - 2) for k in range(slc.dim())
        ]
        s = slc.point(coeffs)
        if space == "lie-poisson":
            pb = lie_poisson_bivector(alg, s)
            tangent = [d.coords for d in slc.directions]
        elif space == "tstarg-right":
            pb = cotangent_bivector(alg, s)
            zero = tuple(Fraction(0) for _ in range(alg.dim))
            tangent = [
                tuple(Fraction(k == j) for k in range(alg.dim)) + zero
                for j in range(alg.dim)
            ] + [zero + d.coords for d in slc.directions]
        else:
            raise UnsupportedSpaceError(space)
        result = transversal_check(pb, tangent)
        if not result.ok or len(result.complement_basis) != value:
            raise AssertionError("slice codimension disagrees with transversal complement")
    return value


def bivector_rank(pb: PointedBivector) -> int:
    return pb.rank()


def product_bivector(p1: PointedBivector, p2: PointedBivector) -> PointedBivector:
    """Product Poisson structure P1 + (-P2), as a block matrix."""
    n1, n2 = p1.dim, p2.dim
    rows = []
    for i in range(n1):
        rows.append(list(p1.matrix.rows[i]) + [Fraction(0)] * n2)
    for i in range(n2):
        rows.append([Fraction(0)] * n1 + [-c for c in p2.matrix.rows[i]])
    return PointedBivector(f"product({p1.label}, {p2.label})", Mat(rows))
