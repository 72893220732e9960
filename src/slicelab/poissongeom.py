"""Poisson structures at points: Lie-Poisson on g, the canonical structure
on T*G, moment maps, the moment-condition checker, and transversal tests.

Conventions, fixed once for the whole package:

* Bivectors act on coordinate covectors: ``apply(alpha)`` is the vector
  P(alpha), and the bracket is {f1, f2} = df2(P(df1)).  On g this makes
  P_y(alpha) = [y, kappa(alpha)], reproducing {f1, f2}(y) = <y, [df1, df2]>.
* Hamiltonian vector fields are H_f = -P(df), and fundamental vector
  fields are d/d eps of the exp(eps*b)-action.  Both are first order, so
  only tangents enter: on the fibre, d/d eps of Ad_exp(eps*b) x is the
  bracket [b, x].
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
from typing import Callable

from .exactnum import Mat, RowSpan
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
        # covector^T P = -(P covector), since P is skew
        return tuple(-c for c in self.matrix.apply(covector))

    def rank(self) -> int:
        r = self.matrix.rank()
        if r % 2:
            raise AssertionError("skew matrix with odd rank")
        return r

    def __repr__(self):
        return f"PointedBivector({self.label}, dim={self.dim})"


def lie_poisson_bivector(algebra: LieAlgebra, y: Element) -> PointedBivector:
    """Lie-Poisson bivector at y: covector alpha goes to [y, kappa(alpha)],
    so the matrix is (ad_y K)^T for the inverse Killing Gram K."""
    pi = algebra.ad_matrix(y) @ algebra.killing_gram_inverse
    return PointedBivector(f"lie-poisson@{y!r}", pi.transpose())


def cotangent_bivector(algebra: LieAlgebra, x: Element) -> PointedBivector:
    """Bivector of T*G at (e, x) in left-trivialized coordinates: the block
    matrix [[0, -K], [K, (ad_x K)^T]] for the inverse Killing Gram K.

    By left-invariance the same matrix serves at any (g, x).
    """
    k = algebra.killing_gram_inverse
    zero = Mat.zeros(algebra.dim, algebra.dim)
    fibre = (algebra.ad_matrix(x) @ k).transpose()
    return PointedBivector(f"tstarg@(e,{x!r})", _block([[zero, -k], [k, fibre]]))


def _block(grid) -> Mat:
    """The block matrix of a grid of matrices, given row of blocks by row of blocks."""
    return Mat([sum(rows, ()) for blocks in grid for rows in zip(*(b.rows for b in blocks))])


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
    """Exact moment-map value for the named space, after its membership test."""
    return check_member(space, point, slc).moment(point)


def product_moment_tstarg(nu_value: Element, p: CotangentPoint) -> MomentValue:
    """Moment of X x T*G for the diagonal-left/right pair action: (nu(x) - Ad_g(y), -y)."""
    return MomentValue(nu_value - Ad(p.g, p.x), -p.x)


def product_moment_logd(nu_value: Element, p: LogCotangentPoint) -> MomentValue:
    """Moment of X x T*Gbar(log D): (nu(x) - y1, -y2)."""
    return MomentValue(nu_value - p.pair[0], -p.pair[1])


# --- fundamental fields as eps-derivatives of actions --------------------


def _adjoint_field(y: Element, b: Element):
    return bracket(b, y).coords


def _right_field(p: CotangentPoint, b: Element):
    # exp(eps b) . (g, x) = (g exp(-eps b), Ad_exp(eps b) x)
    return _cotangent_velocity(p.g, -(p.g.matrix @ b.matrix()), bracket(b, p.x))


def _left_field(p: CotangentPoint, b: Element):
    # exp(eps b) . (g, x) = (exp(eps b) g, x)
    return _cotangent_velocity(p.g, b.matrix() @ p.g.matrix, p.x.algebra.zero())


def _cotangent_velocity(g0: GroupElement, g_derivative: Mat, fibre_tangent: Element):
    """Left-trivialized velocity of the curve (g0 + eps*g_derivative, x + eps*fibre_tangent):
    the eps-part of g0^-1 g(eps), then the fibre tangent."""
    alg = fibre_tangent.algebra
    return alg.coords_from_matrix(g0.inverse_matrix() @ g_derivative) + fibre_tangent.coords


def fundamental_vf(space: str, point, b: Element):
    """Coordinates of the fundamental vector field of b at the point,
    computed as the exact eps-derivative of the exp(eps*b)-action."""
    return space_part(space, "fundamental")(point, b)


def check_moment_condition(space: str, point, b: Element, slc: SlodowySlice | None = None):
    """Exactness test of H_(nu^b) = -V_b at the point; returns (ok, witness).

    The differential of nu^b is assembled coordinate by coordinate, as
    sign * <d nu, b> along each coordinate direction, then pushed through
    the pointed bivector; the fundamental field is the eps-derivative of
    the action.  Everything is exact, so a single mismatch is a definitive
    counterexample.
    """
    condition = space_part(space, "moment_condition")
    pb = condition.bivector(point)
    covector = tuple(
        condition.sign * killing(tangent, b) for tangent in condition.moment_tangents(point)
    )
    hamiltonian = tuple(-c for c in pb.apply(covector))
    negated = tuple(-c for c in fundamental_vf(space, point, b))
    ok = hamiltonian == negated
    witness = None
    if not ok:
        witness = {
            "b": b.coords,
            "hamiltonian_field": hamiltonian,
            "negated_fundamental_field": negated,
        }
    return ok, witness


# --- the table of Hamiltonian spaces ---------------------------------------


@dataclass(frozen=True)
class MomentCondition:
    """What the test H_(nu^b) = -V_b needs on a space: nu^b = sign * <nu, b>
    (-1 for right-factor actions, +1 for left-factor ones), the pointed
    bivector, and the tangents d nu along the eps-curves of the bivector's
    coordinates."""

    sign: int
    bivector: Callable
    moment_tangents: Callable


@dataclass(frozen=True)
class SpaceModel:
    """One Hamiltonian G-space: its points, moment map and action.

    ``member(data, slc)`` is the membership test.  On a member point,
    ``moment`` reads nu, ``action(data, g)`` moves it, ``fundamental(data,
    b)`` is the eps-derivative of the exp(eps*b)-action (the velocity the
    free-locus test asks to vanish), ``quotient`` its value in the explicit
    X/G model, and ``normalizer`` the group element whose action carries the
    free group component to the identity.  A piece the model lacks is None.
    """

    member: Callable
    moment: Callable
    action: Callable | None = None
    fundamental: Callable | None = None
    quotient: Callable | None = None
    normalizer: Callable | None = None
    moment_condition: MomentCondition | None = None


def _is_cotangent(p, slc):
    return isinstance(p, CotangentPoint)


def _left_factor_action(p: LogCotangentPoint, g: GroupElement) -> LogCotangentPoint:
    return p.act(g, GroupElement.identity(g.algebra))


def _bivector_at_identity(p: CotangentPoint) -> PointedBivector:
    if p.g != GroupElement.identity(p.x.algebra):
        raise UnsupportedSpaceError("T*G bivector is implemented at (e, x) only")
    return cotangent_bivector(p.x.algebra, p.x)


def _left_moment_tangents(p: CotangentPoint):
    """d(Ad_g x) along the group directions at (e, x), which is [b_i, x],
    then along the fibre directions, where g stays at e: the basis."""
    basis = p.x.algebra.basis_elements()
    return [bracket(b, p.x) for b in basis] + basis


SPACES = {
    # g with the adjoint action and its Lie-Poisson structure
    "lie-poisson": SpaceModel(
        lambda y, slc: isinstance(y, Element), lambda y: y, fundamental=_adjoint_field,
        moment_condition=MomentCondition(
            -1, lambda y: lie_poisson_bivector(y.algebra, y),
            lambda y: y.algebra.basis_elements(),
        ),
    ),
    # T*G with rho_R: exp(eps b) . (g, x) = (g exp(-eps b), Ad_exp(eps b) x)
    "tstarg-right": SpaceModel(
        _is_cotangent, lambda p: p.x,
        action=lambda p, g: CotangentPoint(p.g * g.inverse(), Ad(g, p.x)),
        fundamental=_right_field, quotient=lambda p: Ad(p.g, p.x), normalizer=lambda p: p.g,
        moment_condition=MomentCondition(
            -1, _bivector_at_identity,
            lambda p: [p.x.algebra.zero()] * p.x.algebra.dim + p.x.algebra.basis_elements(),
        ),
    ),
    # T*G with rho_L: exp(eps b) . (g, x) = (exp(eps b) g, x)
    "tstarg-left": SpaceModel(
        _is_cotangent, lambda p: Ad(p.g, p.x), fundamental=_left_field,
        moment_condition=MomentCondition(1, _bivector_at_identity, _left_moment_tangents),
    ),
    # T*G with the pair action rho_L x rho_R
    "tstarg-both": SpaceModel(_is_cotangent, lambda p: MomentValue(Ad(p.g, p.x), p.x)),
    # G x S_tau, the points (g, s) of T*G with s on the slice, under rho_L
    "g-stau": SpaceModel(
        lambda p, slc: slc is not None and slc.contains(p[1]),
        lambda p: Ad(p[0], p[1]), action=lambda p, g: (g * p[0], p[1]),
        fundamental=lambda p, b: _left_field(CotangentPoint(*p), b),
        quotient=lambda p: p[1], normalizer=lambda p: p[0].inverse(),
    ),
    # Gbar x S_tau and T*Gbar(log D) under the left-factor action
    "gbar-stau": SpaceModel(
        lambda p, slc: slc is not None
        and isinstance(p, LogCotangentPoint)
        and slc.contains(p.pair[1]),
        lambda p: p.pair[0], action=_left_factor_action,
    ),
    "tstargbar-logd": SpaceModel(
        lambda p, slc: isinstance(p, LogCotangentPoint),
        lambda p: MomentValue(p.pair[0], p.pair[1]), action=_left_factor_action,
    ),
    # X x T*G and X x T*Gbar(log D), a point being (nu(x), second factor)
    "product-tstarg": SpaceModel(
        lambda p, slc: isinstance(p[1], CotangentPoint),
        lambda p: product_moment_tstarg(p[0], p[1]),
    ),
    "product-logd": SpaceModel(
        lambda p, slc: isinstance(p[1], LogCotangentPoint),
        lambda p: product_moment_logd(p[0], p[1]),
    ),
}


def space_model(tag: str) -> SpaceModel:
    """The table entry of a space tag."""
    if tag not in SPACES:
        raise UnsupportedSpaceError(f"unknown space {tag!r} (expected one of {tuple(SPACES)})")
    return SPACES[tag]


def check_member(tag: str, data, slc: SlodowySlice | None = None) -> SpaceModel:
    """The model of the space, once the point passes its membership test."""
    model = space_model(tag)
    if not model.member(data, slc):
        raise MembershipError(f"not a point of the space {tag!r}")
    return model


def space_part(tag: str, part: str):
    """One field of a space's model; UnsupportedSpaceError if it is not implemented."""
    value = getattr(space_model(tag), part)
    if value is None:
        raise UnsupportedSpaceError(f"no {part} model for space {tag!r}")
    return value


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
    annihilator = (Mat(tangent) if tangent else Mat.zeros(0, dim)).kernel()
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
    embedded = (Mat(complement) if complement else Mat.zeros(0, dim)).kernel()
    induced = []
    span = RowSpan(tangent)
    for w in embedded:
        image = ambient.apply(w)
        if not span.contains(image):
            raise AssertionError("P(T*Y) escaped TY on a successful decomposition")
        induced.append([_pair(w2, image) for w2 in embedded])
    return TransversalDecomposition(True, tangent, complement, Mat(induced).transpose(), None)


def _pair(covector, vector):
    return sum((a * v for a, v in zip(covector, vector)), Fraction(0))


def slice_codimension(slc: SlodowySlice) -> int:
    """dim g - dim g_eta, checked against the transversal complement at sample points."""
    value = slc.algebra.dim - slc.dim()
    alg = slc.algebra
    tangent = [d.coords for d in slc.directions]
    for i in range(3):
        coeffs = [
            Fraction(((i + 1) * (k + 2)) % 5 - 2) for k in range(slc.dim())
        ]
        result = transversal_check(lie_poisson_bivector(alg, slc.point(coeffs)), tangent)
        if not result.ok or len(result.complement_basis) != value:
            raise AssertionError("slice codimension disagrees with transversal complement")
    return value


def bivector_rank(pb: PointedBivector) -> int:
    return pb.rank()


def product_bivector(p1: PointedBivector, p2: PointedBivector) -> PointedBivector:
    """Product Poisson structure P1 + (-P2), as a block matrix."""
    grid = [[p1.matrix, Mat.zeros(p1.dim, p2.dim)], [Mat.zeros(p2.dim, p1.dim), -p2.matrix]]
    return PointedBivector(f"product({p1.label}, {p2.label})", _block(grid))
