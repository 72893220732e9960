"""sl2-triples, gradings, Slodowy slices, and slice conjugation.

A triple tau = (xi, h, eta) with [xi, eta] = h, [h, xi] = 2*xi and
[h, eta] = -2*eta determines the slice S_tau = xi + g_eta, the parabolic
p_tau (non-positive ad_h eigenspaces), its nilradical u_tau, and the
stabilizer subalgebra m = (u_tau)_xi spanned by eigenvalues <= -2.

Triples are supplied per partition of n (block sums of principal triples),
not by a general Jacobson-Morozov solver.  The zero triple, given by the
all-ones partition, is admitted everywhere and makes S_tau the whole
algebra with a trivial unipotent group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .exactnum import Mat, RowSpan
from .liecore import (
    Ad,
    Element,
    GroupElement,
    LieAlgebra,
    bracket,
    centralizer,
    chi,
    exp_ad,
    exp_nilpotent_matrix,
    is_regular,
    log_unipotent,
)


class SliceError(ValueError):
    pass


class InternalCheckError(AssertionError):
    """A mandatory a-posteriori verification failed; indicates a bug, not bad input."""


@dataclass(frozen=True)
class Sl2Triple:
    xi: Element
    h: Element
    eta: Element

    @property
    def algebra(self) -> LieAlgebra:
        return self.xi.algebra

    def is_zero(self) -> bool:
        return self.xi.is_zero() and self.h.is_zero() and self.eta.is_zero()

    @staticmethod
    def checked(xi: Element, h: Element, eta: Element) -> "Sl2Triple":
        ok, failing = verify_triple(xi, h, eta)
        if not ok:
            raise SliceError(f"not an sl2-triple: {failing} fails")
        return Sl2Triple(xi, h, eta)


def verify_triple(xi: Element, h: Element, eta: Element):
    """Check the three defining relations; returns (ok, name of first failing relation)."""
    if bracket(xi, eta) != h:
        return False, "[xi, eta] = h"
    if bracket(h, xi) != 2 * xi:
        return False, "[h, xi] = 2 xi"
    if bracket(h, eta) != -2 * eta:
        return False, "[h, eta] = -2 eta"
    return True, None


def parse_partition(text: str):
    """CLI partition syntax: comma-separated positive integers, e.g. '2,1'."""
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise SliceError(f"bad partition {text!r}") from exc
    return parts


def standard_triple(algebra: LieAlgebra, partition) -> Sl2Triple:
    """Block-diagonal sl2-triple whose nilpositive part is the Jordan form of the partition.

    Each part p contributes the principal triple of gl_p: xi the upper Jordan
    block, h = diag(p-1, p-3, ..., 1-p), eta with subdiagonal i*(p-i).
    """
    parts = tuple(partition)
    n = algebra.n
    if not parts or any(p < 1 for p in parts) or sum(parts) != n:
        raise SliceError(f"{parts} is not a partition of {n}")
    parts = tuple(sorted(parts, reverse=True))
    xi = [[Fraction(0)] * n for _ in range(n)]
    hm = [[Fraction(0)] * n for _ in range(n)]
    eta = [[Fraction(0)] * n for _ in range(n)]
    offset = 0
    for p in parts:
        for i in range(p - 1):
            r = offset + i
            xi[r][r + 1] = Fraction(1)
            eta[r + 1][r] = Fraction((i + 1) * (p - i - 1))
        for i in range(p):
            hm[offset + i][offset + i] = Fraction(p - 1 - 2 * i)
        offset += p
    make = algebra.element_from_matrix
    return Sl2Triple.checked(make(Mat(xi)), make(Mat(hm)), make(Mat(eta)))


def zero_triple(algebra: LieAlgebra) -> Sl2Triple:
    z = algebra.zero()
    return Sl2Triple(z, z, z)


@dataclass(frozen=True)
class Grading:
    """Integer ad_h eigenvalues with their eigenspace bases, plus exact projections."""

    algebra: LieAlgebra
    eigenvalues: tuple
    eigenspaces: dict
    _to_graded: Mat = field(repr=False)
    _slices: dict = field(repr=False)

    def component(self, x: Element, eigenvalue: int) -> Element:
        """Projection of x onto the given eigenspace (zero if absent)."""
        alg = self.algebra
        if eigenvalue not in self.eigenspaces:
            return alg.zero()
        graded = self._to_graded.apply(x.coords)
        start, basis = self._slices[eigenvalue]
        out = alg.zero()
        for k, b in enumerate(basis):
            out = out + graded[start + k] * b
        return out


def grading(triple: Sl2Triple) -> Grading:
    """ad_h eigenspace decomposition; integer eigenvalues are found by exact kernel scans."""
    alg = triple.algebra
    ad_h = alg.ad_matrix(triple.h)
    bound = 2 * (alg.n - 1)
    spaces = {}
    total = 0
    for lam in range(-bound, bound + 1):
        shifted = ad_h - Mat.identity(alg.dim).scale(Fraction(lam))
        basis = [Element.from_core(alg, *v) for v in shifted.kernel_cores()]
        if basis:
            spaces[lam] = basis
            total += len(basis)
    if total != alg.dim:
        raise SliceError("ad_h is not diagonalizable with integer eigenvalues")
    eigenvalues = tuple(sorted(spaces))
    columns = []
    slices = {}
    pos = 0
    for lam in eigenvalues:
        slices[lam] = (pos, spaces[lam])
        for b in spaces[lam]:
            columns.append(b.coords)
            pos += 1
    change = Mat(list(zip(*columns)))
    return Grading(alg, eigenvalues, spaces, change.inverse(), slices)


@dataclass(frozen=True)
class SlodowySlice:
    """S_tau = xi + g_eta together with the parabolic data of the triple.

    Data that depends on the slice alone (the graded pieces of g_eta,
    principality, the echelon bases that membership reduces against and
    the conjugation plan) is computed on first use and kept on the slice;
    none of it enters equality.
    """

    triple: Sl2Triple
    grading: Grading
    directions: tuple  # basis of g_eta
    parabolic: tuple  # basis of p_tau
    nilradical: tuple  # basis of u_tau
    stabilizer_nilradical: tuple  # basis of (u_tau)_xi
    _eta_sections: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def algebra(self) -> LieAlgebra:
        return self.triple.algebra

    @property
    def base(self) -> Element:
        return self.triple.xi

    def dim(self) -> int:
        return len(self.directions)

    def codim(self) -> int:
        return self.algebra.dim - len(self.directions)

    def contains(self, y: Element) -> bool:
        return _in_span(self._direction_span, y - self.base)

    def point(self, coeffs) -> Element:
        coeffs = tuple(coeffs)
        if len(coeffs) != len(self.directions):
            raise SliceError(f"slice has {len(self.directions)} directions")
        out = self.base
        for c, d in zip(coeffs, self.directions):
            out = out + c * d
        return out

    def is_principal(self) -> bool:
        return self._principal

    @cached_property
    def _principal(self) -> bool:
        t = self.triple
        if t.is_zero():
            return False
        return is_regular(t.xi) and is_regular(t.h) and is_regular(t.eta)

    def in_xi_plus_parabolic(self, y: Element) -> bool:
        return _in_span(self._parabolic_span, y - self.base)

    @cached_property
    def _direction_span(self) -> RowSpan:
        return RowSpan(d.coords for d in self.directions)

    @cached_property
    def _parabolic_span(self) -> RowSpan:
        return RowSpan(b.coords for b in self.parabolic)

    @cached_property
    def _stabilizer_span(self) -> RowSpan:
        return RowSpan(b.coords for b in self.stabilizer_nilradical)

    @cached_property
    def _conjugation_plan(self) -> tuple:
        return _conjugation_plan(self)


def _in_span(span: RowSpan, x: Element) -> bool:
    """Whether x lies in the span: the residual of its core's ints vanishes."""
    return not any(span.residual(x.core()[0]))


def slodowy_slice(triple: Sl2Triple) -> SlodowySlice:
    alg = triple.algebra
    grad = grading(triple)
    directions = tuple(centralizer(triple.eta)) if not triple.is_zero() else tuple(
        alg.basis_elements()
    )
    parabolic, nilradical, stabilizer = [], [], []
    for lam in grad.eigenvalues:
        for b in grad.eigenspaces[lam]:
            if lam <= 0:
                parabolic.append(b)
            if lam < 0:
                nilradical.append(b)
            if lam <= -2:
                stabilizer.append(b)
    slc = SlodowySlice(
        triple, grad, directions, tuple(parabolic), tuple(nilradical), tuple(stabilizer)
    )
    dim_xi = len(centralizer(triple.xi)) if not triple.is_zero() else alg.dim
    if len(directions) != dim_xi:
        raise InternalCheckError("dim g_eta != dim g_xi")
    for d in directions:
        if not slc.in_xi_plus_parabolic(triple.xi + d):
            raise InternalCheckError("g_eta is not contained in p_tau")
    return slc


def principal_slice(algebra: LieAlgebra) -> SlodowySlice:
    return slodowy_slice(standard_triple(algebra, (algebra.n,)))


@dataclass(frozen=True)
class SliceConjugation:
    """Witness pair for y = Ad(u, s) with u in (U_tau)_xi and s in S_tau."""

    u: GroupElement
    s: Element


@dataclass(frozen=True)
class _DegreeStep:
    """One degree nu <= 0 of the conjugation sweep.

    ``rows`` maps coordinates to the graded coordinates of degree nu (the
    ``_to_graded`` rows of that degree).  ``lift`` is the block of the
    inverse of the square system [g_eta & g_nu | [g_(nu-2), xi]] (columns
    in graded coordinates) that gives the g_(nu-2) part, and ``z_columns``
    has the basis of g_(nu-2) as its columns.
    """

    rows: Mat
    lift: Mat
    z_columns: Mat


def _conjugation_plan(slc: SlodowySlice) -> tuple:
    """The degree steps of ``conjugate_to_slice``, certified once per slice.

    For nu <= 0, ad_xi maps g_(nu-2) injectively into g_nu and its image is
    a complement of the lowest weight vectors g_eta & g_nu (sl2
    representation theory), so the system of each degree is square and
    invertible; a system that is not is an InternalCheckError.  Degrees
    without a g_(nu-2) lie in g_eta and need no step.
    """
    grad = slc.grading
    xi = slc.triple.xi
    to_graded, d = grad._to_graded.core()
    steps = []
    for nu in range(0, min(grad.eigenvalues) - 1, -1):
        if nu not in grad.eigenspaces:
            continue
        start, basis = grad._slices[nu]
        rows = Mat.from_core(to_graded[start:start + len(basis)], d)
        eta_part = _eta_section(slc, nu)
        z_basis = grad.eigenspaces.get(nu - 2, [])
        columns = [rows.apply(b.coords) for b in eta_part]
        columns += [rows.apply(bracket(z, xi).coords) for z in z_basis]
        if len(columns) != len(basis):
            raise InternalCheckError(f"degree {nu} system is not square")
        try:
            inverse = Mat(list(zip(*columns))).inverse()
        except ValueError:
            raise InternalCheckError(f"degree {nu} system is singular") from None
        if z_basis:
            lift, den = inverse.core()
            steps.append(_DegreeStep(
                rows,
                Mat.from_core(lift[len(eta_part):], den),
                Mat(list(zip(*(z.coords for z in z_basis)))),
            ))
    return tuple(steps)


def conjugate_to_slice(slc: SlodowySlice, y: Element) -> SliceConjugation:
    """Unique (u, s) with u in (U_tau)_xi, s in S_tau and Ad(u, s) = y.

    Graded successive elimination: sweeping the defect degree nu from 0 down,
    the off-g_eta part of the degree-nu defect is cancelled by a correction
    z in degree nu - 2 of (u_tau)_xi, read off through the slice's cached
    inverse of that degree; the update s <- exp(-ad z) s pollutes only
    degrees <= nu - 2, so a single sweep terminates.  u is the product of
    the exp(z), made a group element once.  Both membership conditions and
    Ad(u, s) = y are re-verified on the group side before returning.
    """
    alg = slc.algebra
    triple = slc.triple
    if triple.is_zero():
        return SliceConjugation(GroupElement.identity(alg), y)
    if not slc.in_xi_plus_parabolic(y):
        raise SliceError("element is not in xi + p_tau")

    xi = triple.xi
    product = Mat.identity(alg.n)
    s = y
    for step in slc._conjugation_plan:
        defect = step.rows.apply_core((s - xi).core())
        if not any(defect[0]):
            continue
        z = Element.from_core(alg, *step.z_columns.apply_core(step.lift.apply_core(defect)))
        if z.is_zero():
            continue
        product = product @ exp_nilpotent_matrix(z)
        s = exp_ad(-z, s)
    u = GroupElement(alg, product)

    if not slc.contains(s):
        raise InternalCheckError("conjugated point left the slice")
    if Ad(u, s) != y:
        raise InternalCheckError("Ad(u, s) != y after elimination")
    if slc.stabilizer_nilradical:
        if not _in_span(slc._stabilizer_span, log_unipotent(u)):
            raise InternalCheckError("u is not in (U_tau)_xi")
    elif u != GroupElement.identity(alg):
        raise InternalCheckError("u should be trivial for this triple")
    return SliceConjugation(u, s)


def _eta_section(slc: SlodowySlice, lam: int) -> tuple:
    """Basis of g_eta intersected with the degree-lam eigenspace, once per slice."""
    cache = slc._eta_sections
    if lam not in cache:
        cache[lam] = _compute_eta_section(slc, lam)
    return cache[lam]


def _compute_eta_section(slc: SlodowySlice, lam: int) -> tuple:
    basis = slc.grading.eigenspaces.get(lam, [])
    if not basis:
        return ()
    ad_eta = slc.algebra.ad_matrix(slc.triple.eta)
    images = [ad_eta.apply(b.coords) for b in basis]
    kernel = Mat(list(zip(*images))).kernel()
    out = []
    for v in kernel:
        el = slc.algebra.zero()
        for c, b in zip(v, basis):
            el = el + c * b
        out.append(el)
    return tuple(out)


def chi_section(slc: SlodowySlice, x: Element) -> Element:
    """The unique point of a principal slice with the same adjoint-quotient value as x.

    The slice coordinates sit in distinct negative ad_h degrees, one per
    invariant, so the system chi(s) = chi(x) is triangular: each coefficient
    is solved by one exact linear interpolation in one new coordinate.  The
    full invariant vector of the result is compared with chi(x) at the end.
    """
    if not slc.is_principal():
        raise SliceError("chi_section needs a principal slice")
    alg = slc.algebra
    n = alg.n
    # One graded slice direction per depth -2, -4, ..., -2(n-1); one per invariant.
    ordered = []
    for k in range(1, n):
        graded = _eta_section(slc, -2 * k)
        if len(graded) != 1:
            raise InternalCheckError("principal g_eta is not one-dimensional per even depth")
        ordered.append(graded[0])

    target = chi(x).coeffs
    s = slc.base
    for k, direction in enumerate(ordered):
        at_zero = chi(s).coeffs[k]
        at_one = chi(s + direction).coeffs[k]
        slope = at_one - at_zero
        if slope == 0:
            raise InternalCheckError("degenerate triangular step in chi_section")
        s = s + ((target[k] - at_zero) / slope) * direction

    if chi(s).coeffs != target:
        raise InternalCheckError("triangular solve missed the invariant vector")
    if n == 2:
        # closed-form cross-check: chi(xi + c*d) = (scale * c,), so c = chi(x) / scale
        scale = chi(slc.base + ordered[0]).coeffs[0]
        expected = slc.base + (target[0] / scale) * ordered[0]
        if s != expected:
            raise InternalCheckError("sl2 closed form disagrees with triangular solve")
    return s
