"""Poisson-slice spaces and their reduction bookkeeping.

Hamiltonian-space points carry a tag naming their ambient space; reduction
classes are stored as explicit representatives of the zero level of the
relevant product moment map, normalized by the unique group element that
carries a free component to the identity.  The compactified universal
centralizer lives here through its pgl2 fibres {gamma : (x, x_tau) in
gamma}, in the matrix model gamma_A = {(y1, y2) : y1 A = A y2}; each solver
there (fibres, model matrices, group stabilizers) solves one Sylvester
system L X = X R with ``exactnum.sylvester_solutions``.

Quotient models used for the projection maps:
* X = T*G with the right-factor action: X/G = g via (g, y) -> Ad_g(y),
  the conjugation-invariant of the orbit.
* X = G x S_tau with the residual left action: X/G = S_tau via (g, s) -> s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .exactnum import Mat, RowSpan, sylvester_solutions
from .liecore import Ad, Element, GroupElement, bracket
from .poissongeom import (
    MomentValue,
    UnsupportedSpaceError,
    check_member,
    fundamental_vf,
    space_model,
    space_part,
)
from .slodowy import InternalCheckError, SliceError, SlodowySlice, chi_section
from .wonderful import (
    LogCotangentPoint,
    MembershipError,
    Subspace,
    diagonal_subspace,
    in_gbar_stau,
    pgl2_model,
)


@dataclass(frozen=True)
class HamiltonianSpacePoint:
    """A point of one of the Hamiltonian spaces of ``poissongeom.SPACES``,
    membership-checked once, at construction."""

    tag: str
    data: object
    slc: SlodowySlice | None = None

    def __post_init__(self):
        check_member(self.tag, self.data, self.slc)

    def nu(self):
        """Moment value of the point for its space's distinguished action."""
        return space_model(self.tag).moment(self.data)

    def act(self, g: GroupElement) -> "HamiltonianSpacePoint":
        """The G-action of the space's Hamiltonian structure."""
        moved = space_part(self.tag, "action")(self.data, g)
        return HamiltonianSpacePoint(self.tag, moved, self.slc)


def slice_membership(p: HamiltonianSpacePoint, slc: SlodowySlice) -> bool:
    """The point lies on the Poisson slice: its moment value lands on S_tau
    (componentwise for the pair moment of the two-sided action)."""
    value = p.nu()
    if isinstance(value, MomentValue):
        return slc.contains(value.left) and slc.contains(value.right)
    return slc.contains(value)


def universal_centralizer_contains(
    g: GroupElement, x: Element, slc: SlodowySlice
) -> bool:
    """(g, x) lies in the universal centralizer: x on the principal slice, g fixing x."""
    return slc.contains(x) and Ad(g, x) == x


# the space of the second factor of each reduction ambient
AMBIENT_SPACES = {
    "g-stau-product": "g-stau",
    "gbar-stau-product": "gbar-stau",
    "logd-product": "tstargbar-logd",
}


@dataclass(frozen=True)
class ReductionClass:
    """Orbit of the zero moment level, stored as an explicit representative.

    ``ambient`` names the product: X x (G x S_tau) for the atomic slice
    presentation, X x (Gbar x S_tau) for its compactification, and
    X x T*Gbar(log D) for the tau = 0 case.
    """

    ambient: str
    x: HamiltonianSpacePoint
    second: object
    slc: SlodowySlice | None
    normalization_tag: str | None = None

    def __post_init__(self):
        model = check_member(self._second_tag(), self.second, self.slc)
        if self.x.nu() != _left_moment(model.moment(self.second)):
            raise MembershipError(
                "zero-moment condition fails: nu(x) differs from the second factor's left moment"
            )

    def _second_tag(self) -> str:
        if self.ambient not in AMBIENT_SPACES:
            raise UnsupportedSpaceError(f"unknown ambient {self.ambient!r}")
        return AMBIENT_SPACES[self.ambient]

    def act(self, g: GroupElement) -> "ReductionClass":
        """Diagonal action: the X-action paired with the left-factor action."""
        moved_x = self.x.act(g)
        moved_second = space_model(self._second_tag()).action(self.second, g)
        return ReductionClass(self.ambient, moved_x, moved_second, self.slc)

    def __eq__(self, other):
        if not isinstance(other, ReductionClass) or self.ambient != other.ambient:
            return False
        a = normalize_class(self)
        b = normalize_class(other)
        return a.x == b.x and a.second == b.second

    def __hash__(self):
        return hash(self.ambient)


def _left_moment(value):
    """The left-factor component of a moment value."""
    return value.left if isinstance(value, MomentValue) else value


def psi_tau(x: HamiltonianSpacePoint, slc: SlodowySlice) -> ReductionClass:
    """The atomic presentation x -> [x : (e, nu(x))] of the Poisson slice."""
    if not slice_membership(x, slc):
        raise SliceError("point is not on the Poisson slice")
    ident = GroupElement.identity(slc.algebra)
    return ReductionClass(
        "g-stau-product", x, (ident, x.nu()), slc, normalization_tag="second"
    )


def k_tau(x: HamiltonianSpacePoint, slc: SlodowySlice) -> ReductionClass:
    """The compactifying embedding x -> [x : (g_Delta, (nu(x), nu(x)))]."""
    if not slice_membership(x, slc):
        raise SliceError("point is not on the Poisson slice")
    nu_x = x.nu()
    gamma = diagonal_subspace(slc.algebra)
    if not in_gbar_stau(gamma, (nu_x, nu_x), slc):
        raise InternalCheckError("k_tau image escaped Gbar x S_tau")
    return ReductionClass(
        "gbar-stau-product", x, LogCotangentPoint(gamma, (nu_x, nu_x)), slc
    )


def k_zero(x: HamiltonianSpacePoint) -> ReductionClass:
    """The tau = 0 embedding into X x T*Gbar(log D), used by the moment triangle."""
    nu_x = x.nu()
    gamma = diagonal_subspace(nu_x.algebra)
    return ReductionClass("logd-product", x, LogCotangentPoint(gamma, (nu_x, nu_x)), None)


def normalize_class(cls: ReductionClass) -> ReductionClass:
    """Canonical representative: the unique translate with the free component
    at the identity (the G x S_tau group factor for the atomic ambient, the
    X group factor otherwise)."""
    normalizer = space_model(cls._second_tag()).normalizer
    if normalizer is not None:
        mover, tag = normalizer(cls.second), "second"
    else:
        mover, tag = space_part(cls.x.tag, "normalizer")(cls.x.data), "x"
    if mover != GroupElement.identity(mover.algebra):
        cls = cls.act(mover)
    return ReductionClass(cls.ambient, cls.x, cls.second, cls.slc, tag)


def quotient_model(x: HamiltonianSpacePoint):
    """Value of the orbit of x in the explicit X/G model."""
    return space_part(x.tag, "quotient")(x.data)


def pi_maps_commute(x: HamiltonianSpacePoint, slc: SlodowySlice, probe: GroupElement):
    """Both quotient legs agree through the compactification, and the
    descended moment of the tau = 0 enlargement restricts to nu.

    The compactified leg is evaluated on the normalized representative, and
    the descended moment on the raw representative and on a probe translate,
    exercising representative independence.  Returns (ok, witness).
    """
    direct = quotient_model(x)
    embedded = normalize_class(k_tau(x, slc))
    through_bar = quotient_model(embedded.x)
    if through_bar != direct:
        return False, {"pi_tau": direct.coords, "pi_bar_tau": through_bar.coords}

    k0 = k_zero(x)
    nu_bar = k0.second.pair[1]
    if nu_bar != x.nu():
        return False, {"nu": x.nu().coords, "nu_bar": nu_bar.coords}
    translated = k0.act(probe)
    if translated.second.pair[1] != nu_bar:
        return False, {"nu_bar_translate": translated.second.pair[1].coords}
    return True, None


@dataclass(frozen=True)
class ProjectiveFibre:
    """Fibre {gamma : (x, x_tau) in gamma} of the compactified projection,
    presented as the projectivization of a linear space of 2x2 matrices."""

    x: Element
    x_tau: Element
    basis: tuple
    projective_dim: int

    def member(self, coeffs) -> Mat:
        coeffs = tuple(coeffs)
        out = Mat.zeros(2, 2)
        for c, b in zip(coeffs, self.basis):
            out = out + b.scale(c)
        return out

    def boundary_members(self):
        """Rank-one members of a pencil (projective_dim 1), when rational.

        Solves det(a B1 + b B2) = 0 exactly; raises if the quadratic has
        irrational roots, which the library avoids by restricting worked
        examples to perfect-square slice parameters.
        """
        if self.projective_dim != 1:
            raise SliceError("boundary members are implemented for pencils only")
        b1, b2 = self.basis
        d1 = b1.det()
        d2 = b2.det()
        mixed = (b1 + b2).det() - d1 - d2
        roots = _projective_quadratic_roots(d1, mixed, d2)
        out = []
        for a, b in roots:
            member = b1.scale(a) + b2.scale(b)
            if member.is_zero():
                raise InternalCheckError("zero member on the boundary pencil")
            out.append(member)
        return out


def _projective_quadratic_roots(c2: Fraction, c1: Fraction, c0: Fraction):
    """Distinct projective roots (a : b) of c2 a^2 + c1 ab + c0 b^2 over Q."""
    if c2 == 0 and c1 == 0 and c0 == 0:
        raise SliceError("identically singular pencil")
    if c2 == 0:
        roots = [(Fraction(1), Fraction(0))]
        if c1 != 0:
            roots.append((-c0 / c1, Fraction(1)))
        return roots
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        raise SliceError("boundary points are not rational (negative discriminant)")
    root = _exact_sqrt(disc)
    if root is None:
        raise SliceError("boundary points are not rational (irrational discriminant)")
    if root == 0:
        return [((-c1) / (2 * c2), Fraction(1))]
    return [
        ((-c1 + root) / (2 * c2), Fraction(1)),
        ((-c1 - root) / (2 * c2), Fraction(1)),
    ]


def _exact_sqrt(q: Fraction):
    if q < 0:
        return None
    num = isqrt(q.numerator)
    den = isqrt(q.denominator)
    if num * num != q.numerator or den * den != q.denominator:
        return None
    return Fraction(num, den)


def compactified_fibre_pgl2(x: Element, slc: SlodowySlice) -> ProjectiveFibre:
    """Exact fibre of the compactified universal-centralizer projection over x.

    Solves the linear system x A = A x_tau over 2x2 matrices; every basis
    member is certified through the matrix model of the compactification.
    """
    alg = x.algebra
    if alg.n != 2:
        raise SliceError("compactified fibres are computed in the pgl2 model only")
    x_tau = chi_section(slc, x)
    basis = tuple(sylvester_solutions([(x.matrix(), x_tau.matrix())]))
    for a in basis:
        gamma = pgl2_model(alg, a)
        if not gamma.contains((x, x_tau)):
            raise InternalCheckError("fibre member fails the model certification")
    return ProjectiveFibre(x, x_tau, basis, len(basis) - 1)


# --- stabilizers ----------------------------------------------------------


def _gamma_condition_rows(gamma: Subspace, basis_elements):
    """Linear conditions on b for (ad_b + 0) gamma to stay inside gamma,
    as residuals of the moved basis pairs against gamma's span (scaled by d)."""
    n = gamma.algebra.dim
    rows = []
    for y1, _ in gamma.rows_as_pairs():
        residuals = []
        for b in basis_elements:
            moved = tuple(bracket(b, y1).coords) + tuple(Fraction(0) for _ in range(n))
            residuals.append(gamma.span.residual(moved))
        for p in range(2 * n):
            rows.append(tuple(res[p] for res in residuals))
    return rows


def subspace_stabilizer(gamma: Subspace):
    """Basis of {b : (ad_b + 0) gamma is inside gamma}, the infinitesimal
    stabilizer of the subspace under the left-factor action."""
    alg = gamma.algebra
    rows = _gamma_condition_rows(gamma, alg.basis_elements())
    return [Element.from_core(alg, *v) for v in Mat(rows).kernel_cores()]


def stabilizer_infinitesimal(second: LogCotangentPoint, x: HamiltonianSpacePoint | None):
    """Basis of {b : the fundamental vector field of b vanishes at the
    product point}; an empty basis certifies the free locus at the Lie
    algebra level.  Pass x = None for bare second-factor data.

    In the pgl2 model the independent group-level solve runs as well, and a
    disagreement with the infinitesimal answer is an internal error.
    """
    basis = _stabilizer_infinitesimal(second, x)
    alg = second.pair[0].algebra
    if alg.n == 2 and second.gamma.certified:
        group_basis = group_stabilizer_pgl2(second, x)
        rows = [b.coords for b in basis] + [b.coords for b in group_basis]
        agree = len(basis) == len(group_basis) and (
            not basis or Mat(rows).rank() == len(basis)
        )
        if not agree:
            raise InternalCheckError("group-level and infinitesimal stabilizers disagree")
    return basis


def _stabilizer_infinitesimal(second: LogCotangentPoint, x: HamiltonianSpacePoint | None):
    alg = second.pair[0].algebra
    n = alg.dim
    basis_elements = alg.basis_elements()
    condition_rows = []

    # X-part: velocity of the X-action must vanish.
    if x is not None:
        velocities = [fundamental_vf(x.tag, x.data, b) for b in basis_elements]
        for p in range(len(velocities[0])):
            condition_rows.append(tuple(v[p] for v in velocities))

    # Subspace part: gamma must be preserved.
    condition_rows.extend(_gamma_condition_rows(second.gamma, basis_elements))

    # Pair part: the marked point (y1, y2) of the fibre must be fixed.
    y1 = second.pair[0]
    brackets = [bracket(b, y1).coords for b in basis_elements]
    for p in range(n):
        condition_rows.append(tuple(br[p] for br in brackets))

    return [Element.from_core(alg, *v) for v in Mat(condition_rows).kernel_cores()]


def group_stabilizer_pgl2(second: LogCotangentPoint, x: HamiltonianSpacePoint | None):
    """Exact group-level stabilizer solve in the pgl2 matrix model.

    The stabilizer's Lie algebra holds the class of each m in gl2 with
    m A = lambda A, [m, y1] = 0, and m scalar if X is free.  m - lambda I has
    the same class and annihilates A, so this is the traceless part of the
    Sylvester solutions of m A = 0, [y1, m] = 0, and [b, m] = 0 for the basis
    b of sl2 if X is free (A != 0, so none is scalar).  Agreement with the
    infinitesimal computation is an acceptance property.
    """
    alg = second.pair[0].algebra
    if alg.n != 2:
        raise UnsupportedSpaceError("group-level solve is pgl2-specific")
    if x is not None and space_model(x.tag).normalizer is None:
        raise UnsupportedSpaceError(f"no group stabilizer model for X of tag {x.tag!r}")
    y1 = second.pair[0].matrix()
    pairs = [(Mat.zeros(2, 2), pgl2_model_matrix(second.gamma)), (y1, y1)]
    if x is not None:
        pairs += [(b, b) for b in alg.basis]
    span = RowSpan(
        alg.coords_from_matrix(m - Mat.identity(2).scale(m.trace() / 2))
        for m in sylvester_solutions(pairs)
    )
    return [Element.from_core(alg, r, span.d) for r in span.ints]


def pgl2_model_matrix(gamma: Subspace) -> Mat:
    """Inverse of the pgl2 matrix model: the matrix class with gamma_A = gamma,
    the one solution of y1 A = A y2 over the basis pairs."""
    alg = gamma.algebra
    if alg.n != 2:
        raise UnsupportedSpaceError("matrix model is pgl2-specific")
    pairs = [(y1.matrix(), y2.matrix()) for y1, y2 in gamma.rows_as_pairs()]
    kernel = sylvester_solutions(pairs)
    if len(kernel) != 1:
        raise InternalCheckError("model matrix is not unique up to scale")
    return kernel[0]
