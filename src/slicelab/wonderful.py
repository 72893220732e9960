"""The wonderful compactification of PGL_n inside Gr(dim g, g + g).

Points are n-dimensional subspaces of g + g, stored as a ``RowSpan``, the
package's one echelon type: equality and hashing read its basis, membership
its residual, and normalized Plucker coordinates are computed from its
integer core on read.  ``limit`` cross-checks its two routes on the integer
nonzero minors of that core.  Group points are graphs {(Ad_g y, y)};
boundary points are reached as exact limits of one-parameter curves with
Laurent-polynomial entries.  Membership of an arbitrary subspace in the
closure is not decided: a certificate (graph / limit / pgl2-model / action
of certified) travels with each value, and the operations that need
closure points demand it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .exactnum import (
    LaurentPoly,
    Mat,
    RowSpan,
    integer_coords,
    lowest_minor_coefficients,
    maximal_minors,
    minor_states,
    sample_rational,
)
from .liecore import Ad, Element, GroupElement, LieAlgebra, chi
from .slodowy import InternalCheckError, SlodowySlice, chi_section


_ZERO = Fraction(0)


class MembershipError(ValueError):
    """A point fails the membership test of its declared space."""


class DegenerateCurveError(ValueError):
    pass


class CertificateError(ValueError):
    """Operation needs a certified closure point but got a raw subspace."""


class Subspace:
    """dim g-dimensional subspace of g + g, canonically presented."""

    __slots__ = ("algebra", "span", "basis", "certified", "source")

    def __init__(self, algebra: LieAlgebra, rows, certified: bool = False, source: str = "raw"):
        n = algebra.dim
        span = RowSpan(rows)
        if len(span.pivots) != n:
            raise MembershipError(f"subspace basis has rank {len(span.pivots)}, expected {n}")
        self.algebra = algebra
        self.span = span
        self.basis = Mat.from_core(span.ints, span.d)
        self.certified = certified
        self.source = source

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def plucker(self) -> tuple:
        """Normalized Plucker coordinates, computed on each read: the integer
        maximal minors of the span's core in lexicographic column order over
        the first nonzero one.

        That is the minor on the pivot columns, det(dI): every earlier column
        set has i columns left of the i-th pivot, where only the first i - 1
        rows are nonzero, so its minor vanishes.
        """
        minors = maximal_minors(self.span.ints, 2 * self.dim, 0)
        lead = next(m for m in minors if m)
        return tuple(Fraction(m, lead) if m else _ZERO for m in minors)

    def rows_as_pairs(self):
        """The basis rows as element pairs, each half read from the span's core."""
        alg, n, d = self.algebra, self.dim, self.span.d
        return [
            (Element.from_core(alg, r[:n], d), Element.from_core(alg, r[n:], d))
            for r in self.span.ints
        ]

    def contains(self, pair) -> bool:
        """Whether the pair lies in the span: (y1, y2) scaled to integers by
        d1 * d2 has a vanishing residual."""
        (a, da), (b, db) = (y.core() for y in pair)
        return not any(self.span.residual([x * db for x in a] + [x * da for x in b]))

    def projection_ranks(self):
        n = self.dim
        first = Mat.from_core([r[:n] for r in self.span.ints], 1).rank()
        second = Mat.from_core([r[n:] for r in self.span.ints], 1).rank()
        return first, second

    def is_boundary(self) -> bool:
        if not self.certified:
            raise CertificateError("boundary detection needs a certified closure point")
        first, second = self.projection_ranks()
        return first < self.dim or second < self.dim

    def act(self, g1: GroupElement, g2: GroupElement) -> "Subspace":
        rows = []
        for y1, y2 in self.rows_as_pairs():
            rows.append(tuple(Ad(g1, y1).coords) + tuple(Ad(g2, y2).coords))
        return Subspace(self.algebra, rows, certified=self.certified, source="action")

    def sample_member(self, seed: int, index: int):
        """The combination of the basis rows with seeded rational weights,
        summed in ints on the span's core."""
        alg, n, span = self.algebra, self.dim, self.span
        weights, dw = integer_coords(
            [sample_rational(seed, index * n + k) for k in range(len(span.ints))]
        )
        total = [sum(map(mul, weights, column)) for column in zip(*span.ints)]
        d = dw * span.d
        return Element.from_core(alg, total[:n], d), Element.from_core(alg, total[n:], d)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.algebra is other.algebra
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((id(self.algebra), self.basis))

    def __repr__(self):
        flag = "certified" if self.certified else "raw"
        return f"Subspace({self.source}, {flag}, dim={self.dim})"


def graph_subspace(g: GroupElement) -> Subspace:
    """The point (g, e) . g_Delta of the compactification: {(Ad_g y, y)}."""
    alg = g.algebra
    rows = []
    for b in alg.basis_elements():
        rows.append(tuple(Ad(g, b).coords) + tuple(b.coords))
    return Subspace(alg, rows, certified=True, source="graph")


def diagonal_subspace(algebra: LieAlgebra) -> Subspace:
    return graph_subspace(GroupElement.identity(algebra))


@dataclass(frozen=True)
class LogCotangentPoint:
    """Point (gamma, (y1, y2)) of the log cotangent bundle; the pair must lie in gamma."""

    gamma: Subspace
    pair: tuple

    def __post_init__(self):
        if not self.gamma.contains(self.pair):
            raise MembershipError("pair does not lie in the subspace")

    def act(self, g1: GroupElement, g2: GroupElement) -> "LogCotangentPoint":
        y1, y2 = self.pair
        return LogCotangentPoint(self.gamma.act(g1, g2), (Ad(g1, y1), Ad(g2, y2)))


class CurveSubspace:
    """One-parameter family of subspaces with Laurent-polynomial basis rows."""

    __slots__ = ("algebra", "rows")

    def __init__(self, algebra: LieAlgebra, rows):
        self.algebra = algebra
        self.rows = tuple(tuple(LaurentPoly.lift(e) for e in r) for r in rows)
        n = algebra.dim
        if len(self.rows) != n or any(len(r) != 2 * n for r in self.rows):
            raise DegenerateCurveError("curve basis has the wrong shape")

    @staticmethod
    def from_group_curve(algebra: LieAlgebra, gmat: Mat) -> "CurveSubspace":
        """Graph curve of a matrix family g(t), read as rows of Laurent
        polynomials; rows are scaled by det g(t) so that the adjugate keeps
        all entries Laurent-polynomial.

        g E_ij adj is the outer product of column i of g and row j of adj,
        so the n^2 outer products are built once and each basis matrix maps
        to a signed sum of one or two of them.  The basis coordinates of the
        k-th basis matrix are the k-th unit vector, so the second half of
        row k is det at position k.
        """
        n = algebra.n
        if gmat.nrows != n or gmat.ncols != n:
            raise DegenerateCurveError("curve matrix has the wrong shape")
        g = [[LaurentPoly.lift(e) for e in r] for r in gmat.rows]
        adj = _laurent_adjugate(g)
        zero = LaurentPoly.zero()
        det = sum((a * r[0] for a, r in zip(g[0], adj)), zero)
        if det.is_zero():
            raise DegenerateCurveError("curve matrix is singular over the function field")
        outer = [[[[a * b for b in adj_row] for a in column] for adj_row in adj]
                 for column in zip(*g)]
        rows = []
        for k, b in enumerate(algebra.basis):
            terms = [(c, outer[i][j]) for i, r in enumerate(b.core()[0])
                     for j, c in enumerate(r) if c]
            image = [[sum((c * m[a][e] for c, m in terms), zero) for e in range(n)]
                     for a in range(n)]
            second = tuple(det if i == k else zero for i in range(algebra.dim))
            rows.append(algebra.coords_from_entries(image) + second)
        return CurveSubspace(algebra, rows)

    def substitute_power(self, k: int) -> "CurveSubspace":
        return CurveSubspace(
            self.algebra,
            [[e.substitute_power(k) for e in r] for r in self.rows],
        )

    def scale_rows(self, units) -> "CurveSubspace":
        """Multiply each basis row by a nonzero Laurent polynomial; the curve
        of subspaces is unchanged away from the roots, hence so is the limit."""
        rows = []
        for u, r in zip(units, self.rows):
            u = LaurentPoly.lift(u)
            if u.is_zero():
                raise DegenerateCurveError("row scaled by zero")
            rows.append([u * e for e in r])
        return CurveSubspace(self.algebra, rows)


def _laurent_adjugate(g):
    """Adjugate of a square matrix given as rows of Laurent polynomials, so
    that g adj = adj g = det(g) I: entry (i, j) is (-1)^(i+j) times the
    minor of g without row j and column i, read off ``minor_states`` of the
    rows other than j."""
    n = len(g)
    if n == 1:
        return [[LaurentPoly.const(1)]]
    full = (1 << n) - 1
    zero = LaurentPoly.zero()
    columns = []
    for j in range(n):
        minors = minor_states(g[:j] + g[j + 1:])
        column = [minors.get(full ^ (1 << i), zero) for i in range(n)]
        columns.append([-m if (i + j) % 2 else m for i, m in enumerate(column)])
    return [list(r) for r in zip(*columns)]


def limit(curve: CurveSubspace) -> Subspace:
    """Limit subspace of the curve at t = 0.

    Two independent algorithms run on every call: row reduction over the
    local ring (repeatedly replace a row combination that dies at t = 0 and
    strip the liberated power of t) and the leading coefficients of the
    maximal minors of the original basis, compared as integers proportional
    to the result's minors.  Disagreement is an internal error, never a value.
    """
    alg = curve.algebra
    n = alg.dim

    # Plucker-evaluation method, on the untouched basis.  Every maximal minor
    # vanishes exactly when the generic rank is below n.
    try:
        mu, leading = lowest_minor_coefficients(curve.rows)
    except ValueError:
        raise DegenerateCurveError(
            "curve has generic rank below the ambient requirement"
        ) from None

    # Row-reduction method over the local ring at t = 0.
    work = [list(r) for r in curve.rows]
    work, shed = _normalize_rows(work)
    cap = (mu - shed) + 1
    for _ in range(max(cap, 1)):
        m0 = Mat([[e.eval_at_zero() for e in r] for r in work])
        if m0.rank() == n:
            break
        left_kernel = m0.transpose().kernel()
        c = left_kernel[0]
        pivot = max(i for i, ci in enumerate(c) if ci)
        new_row = None
        for ci, row in zip(c, work):
            if not ci:
                continue
            scaled = [ci * e for e in row]
            new_row = scaled if new_row is None else [a + b for a, b in zip(new_row, scaled)]
        work[pivot] = new_row
        work, extra = _normalize_rows(work)
        shed += extra
    else:
        raise InternalCheckError("limit reduction did not terminate within its valuation budget")
    result = Subspace(alg, m0.rows, certified=True, source="limit")

    minors = minor_states(result.span.ints)
    j = next(iter(minors))
    if minors.keys() != leading.keys() or any(
        minors[j] * c != leading[j] * minors[k] for k, c in leading.items()
    ):
        raise InternalCheckError("limit algorithms disagree")
    return result


def _normalize_rows(rows):
    """Strip t^(row valuation) from every row; returns (rows, total stripped)."""
    out = []
    shed = 0
    for r in rows:
        vals = [e.valuation() for e in r if e]
        if not vals:
            raise DegenerateCurveError("curve basis contains a zero row")
        v = min(vals)
        shed += v
        out.append([e.shift(-v) for e in r])
    return out, shed


def chi_compatible(gamma: Subspace, samples: int, seed: int = 0):
    """chi(y1) = chi(y2) for sampled members (y1, y2) of gamma; returns (ok, witness)."""
    for j in range(samples):
        y1, y2 = gamma.sample_member(seed, j)
        if chi(y1) != chi(y2):
            return False, {"y1": y1.coords, "y2": y2.coords}
    return True, None


def in_gbar_stau(gamma: Subspace, pair, slc: SlodowySlice) -> bool:
    """Membership in the compactified slice space: (x, y) in gamma and y on the slice;
    for a principal slice the pair is forced onto the graph of the slice section."""
    if not gamma.certified:
        raise CertificateError("membership test needs a certified closure point")
    x, y = pair
    if not gamma.contains(pair):
        return False
    if not slc.contains(y):
        return False
    if slc.is_principal() and chi_section(slc, x) != y:
        return False
    return True


def pgl2_model(algebra: LieAlgebra, a: Mat) -> Subspace:
    """Closed-form model of the compactification of PGL_2: the subspace
    gamma_A = {(y1, y2) : y1 A = A y2}, which is 3-dimensional for A != 0."""
    if algebra.n != 2:
        raise MembershipError("the matrix model is specific to pgl2")
    if a.is_zero():
        raise MembershipError("the zero matrix does not define a model point")
    # column k holds the entries of b_k @ A, column dim + k those of -(A @ b_k)
    products = [b @ a for b in algebra.basis] + [-(a @ b) for b in algebra.basis]
    kernel = Mat([sum(m.rows, ()) for m in products]).transpose().kernel()
    if len(kernel) != 3:
        raise InternalCheckError("pgl2 model space is not 3-dimensional")
    return Subspace(algebra, kernel, certified=True, source="pgl2-model")
