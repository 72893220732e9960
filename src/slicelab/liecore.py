"""Type-A Lie algebras (sl_n) and their adjoint groups (PGL_n).

Conventions
-----------
* Basis order: upper root vectors E_ij (i < j, lexicographic), then the
  Cartan generators H_i = E_ii - E_(i+1)(i+1), then lower root vectors
  E_ij (i > j, lexicographic).  For sl2 this is (e, h, f) and coordinates
  are written (c_e, c_h, c_f).
* An ``Element`` is one integer core ``(ints, d)``: its coordinates are
  ``ints / d`` with ``d > 0`` and gcd 1, so the core is unique.  Sums,
  differences, rational multiples, brackets, ``kappa``, ``exp_ad`` and
  elements read off matrices or kernels are built as cores, and the
  ``Fraction`` coordinates are built only when ``coords`` is read.
* The structure constants of sl_n in this basis are integers, and the
  bracket table holds them as ints: ``_bracket_table[i][j]`` is the dense
  coordinate tuple of [b_i, b_j].  ``bracket_coords`` brackets two cores:
  it accumulates in ints and divides once by the product of the two
  denominators; the Killing form pairs two cores through an integer copy
  of its Gram matrix the same way.
* The Killing Gram is computed from its definition tr(ad_x ad_y) on the
  integer bracket table; the 2n*tr(xy) identity is a test oracle only.
* An element's matrix is its integer core laid out as a matrix core over
  the same denominator, and the element of a rational trace-zero matrix
  is read from the matrix core, so ``Ad``, ``exp`` and ``log`` build no
  ``Fraction``s.
* Group elements are projective: two representatives are equal iff
  proportional, and the stored representative has its first nonzero entry
  (row-major) scaled to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import factorial, gcd

from .exactnum import (
    Mat,
    RationalStream,
    charpoly,
    integer_coords,
    lowest_terms,
    sample_rational,
)

_ZERO = Fraction(0)


class LieAlgebraError(ValueError):
    pass


def _basis_layout(n: int):
    """Index layout: uppers (i<j), Cartans, lowers (i>j); entries are (kind, data)."""
    layout = []
    for i in range(n):
        for j in range(i + 1, n):
            layout.append(("E", (i, j)))
    for i in range(n - 1):
        layout.append(("H", i))
    for i in range(n):
        for j in range(i):
            layout.append(("E", (i, j)))
    return layout


class LieAlgebra:
    """sl_n realized by trace-zero matrices, with cached structure data."""

    def __init__(self, n: int):
        if n < 2:
            raise LieAlgebraError("sl_n needs n >= 2")
        self.n = n
        self.dim = n * n - 1
        self._layout = _basis_layout(n)
        names = []
        for kind, data in self._layout:
            if kind == "E":
                names.append(f"E{data[0] + 1}{data[1] + 1}")
            else:
                names.append(f"H{data + 1}")
        self.basis_names = tuple(names)
        self._roots = tuple(
            (k, data) for k, (kind, data) in enumerate(self._layout) if kind == "E"
        )
        self._cartan_start = n * (n - 1) // 2
        # Where each coordinate sits in a matrix: (i, j) for E_ij, and
        # (-1, i) for H_i, whose coordinate is the partial diagonal sum.
        self._sources = tuple(
            data if kind == "E" else (-1, data) for kind, data in self._layout
        )
        self._zero = _core_element(self, (0,) * self.dim, 1)
        self._units = tuple(
            _core_element(self, tuple(int(k == j) for j in range(self.dim)), 1)
            for k in range(self.dim)
        )
        self.basis = tuple(self._basis_matrix(k) for k in range(self.dim))
        self._bracket_table = self._build_bracket_table()
        self._gram_ints = self._build_killing_gram()
        self.killing_gram = Mat.from_core(self._gram_ints, 1)
        self.killing_gram_inverse = self.killing_gram.inverse()

    def _basis_matrix(self, k: int) -> Mat:
        kind, data = self._layout[k]
        n = self.n
        m = [[0] * n for _ in range(n)]
        if kind == "E":
            i, j = data
            m[i][j] = 1
        else:
            i = data
            m[i][i] = 1
            m[i + 1][i + 1] = -1
        return Mat.from_core(m, 1)

    def coords_from_matrix(self, m: Mat):
        """Coordinates of a rational trace-zero matrix in the basis; exact
        and closed-form, read through ``element_from_matrix``."""
        return self.element_from_matrix(m).coords

    def coords_from_entries(self, rows):
        """Coordinates of a trace-zero matrix given as rows of entries of any
        exact commutative ring (Laurent polynomials, say), laid out as in
        ``element_from_matrix``: E_ij coordinates in place and H_i
        coordinates the partial diagonal sums."""
        diagonal = list(accumulate(rows[k][k] for k in range(self.n)))
        if diagonal[-1]:
            raise LieAlgebraError("matrix has nonzero trace")
        return tuple(rows[i][j] if i >= 0 else diagonal[j] for i, j in self._sources)

    def matrix_from_core(self, ints, d: int) -> Mat:
        """The trace-zero matrix of the coordinates ints / d, as a matrix
        core over d: E_ij coordinates in place, diagonal entry i equal to
        h_i - h_(i-1) (h_0 first, -h_(n-2) last)."""
        n = self.n
        rows = [[0] * n for _ in range(n)]
        for k, (i, j) in self._roots:
            rows[i][j] = ints[k]
        h = ints[self._cartan_start:self._cartan_start + n - 1]
        rows[0][0] = h[0]
        for i in range(1, n - 1):
            rows[i][i] = h[i] - h[i - 1]
        rows[n - 1][n - 1] = -h[n - 2]
        return Mat.from_core(rows, d)

    def _build_bracket_table(self):
        table = []
        for i in range(self.dim):
            row = []
            bi = self.basis[i]
            for j in range(self.dim):
                bj = self.basis[j]
                ints, d = self.element_from_matrix(bi @ bj - bj @ bi).core()
                if d != 1:
                    raise LieAlgebraError("structure constant is not an integer")
                row.append(ints)
            table.append(tuple(row))
        return tuple(table)

    def bracket_coords(self, x, y):
        """Bracket of two coordinate cores ``(ints, d)`` via the integer
        structure constants, as a core in lowest terms: the sum runs in ints
        over the nonzero entries and is divided once by the two
        denominators."""
        (xs, dx), (ys, dy) = x, y
        return lowest_terms(self._bracket_ints(xs, ys), dx * dy)

    def _bracket_ints(self, xs, ys):
        """The bracket of two integer coordinate lists, in ints."""
        acc = [0] * self.dim
        nonzero_y = [(j, b) for j, b in enumerate(ys) if b]
        for i, a in enumerate(xs):
            if not a:
                continue
            row = self._bracket_table[i]
            for j, b in nonzero_y:
                c = a * b
                for k, s in enumerate(row[j]):
                    if s:
                        acc[k] += c * s
        return acc

    def ad_matrix(self, x: "Element") -> Mat:
        """Matrix of ad_x = [x, .] in basis coordinates (columns are [x, b_j]),
        built as an integer core from the bracket table."""
        xs, d = x.core()
        rows = [[0] * self.dim for _ in range(self.dim)]
        for a, cols in zip(xs, self._bracket_table):
            if a:
                for j, col in enumerate(cols):
                    for k, s in enumerate(col):
                        if s:
                            rows[k][j] += a * s
        return Mat.from_core(rows, d)

    def _build_killing_gram(self):
        # Column l of ad_i is [b_i, b_l], the table entry (i, l).
        # tr(ad_i ad_j) = sum over k, l of ad_i[k][l] * ad_j[l][k]: pair the
        # row-major entries of ad_i with the column-major entries of ad_j.
        by_rows = [[a for r in zip(*cols) for a in r] for cols in self._bracket_table]
        by_cols = [[a for c in cols for a in c] for cols in self._bracket_table]
        g = tuple(
            tuple(sum(a * b for a, b in zip(ri, cj) if a) for cj in by_cols) for ri in by_rows
        )
        if tuple(zip(*g)) != g:
            raise LieAlgebraError("Killing Gram matrix is not symmetric")
        return g

    def element(self, coords) -> "Element":
        coords = tuple(coords)
        if len(coords) != self.dim:
            raise LieAlgebraError(f"expected {self.dim} coordinates, got {len(coords)}")
        return Element(self, coords)

    def zero(self) -> "Element":
        return self._zero

    def basis_element(self, k: int) -> "Element":
        return self._units[k]

    def basis_elements(self):
        return list(self._units)

    def element_from_matrix(self, m: Mat) -> "Element":
        """The element of a rational trace-zero matrix, read from its integer
        core ``ints / d``: E_ij coordinates in place and H_i coordinates
        the partial diagonal sums, over the same d.  The matrix entries are
        these coordinates' differences, so the core stays in lowest terms."""
        core = m.core()
        if core is None:
            raise LieAlgebraError("element_from_matrix needs rational entries")
        ints, d = core
        diagonal = list(accumulate(ints[k][k] for k in range(self.n)))
        if diagonal[-1]:
            raise LieAlgebraError("matrix has nonzero trace")
        return _core_element(
            self, tuple(ints[i][j] if i >= 0 else diagonal[j] for i, j in self._sources), d
        )

    def named(self, name: str) -> "Element":
        aliases = {"e": "E12", "f": "E21", "h": "H1"} if self.n == 2 else {}
        name = aliases.get(name, name)
        if name not in self.basis_names:
            raise LieAlgebraError(f"unknown basis vector {name!r}")
        return self.basis_element(self.basis_names.index(name))

    def rank(self) -> int:
        return self.n - 1

    def __repr__(self):
        return f"LieAlgebra(sl{self.n})"


@lru_cache(maxsize=None)
def lie_algebra(n: int) -> LieAlgebra:
    return LieAlgebra(n)


def algebra_by_tag(tag: str) -> LieAlgebra:
    """CLI selection strings: a1 -> sl2, a2 -> sl3."""
    tags = {"a1": 2, "a2": 3}
    if tag not in tags:
        raise LieAlgebraError(f"unknown algebra tag {tag!r} (expected one of {sorted(tags)})")
    return lie_algebra(tags[tag])


class Element:
    """Lie algebra element, immutable: the coordinates over the basis are
    ``ints / d`` for its integer core ``(ints, d)`` (``core()``), with
    ``d > 0`` and the gcd of ``d`` and ``ints`` equal to 1.

    The core is unique, so ``==`` and ``hash`` read it.  An element made
    from coordinates (``LieAlgebra.element``) keeps them as given and
    builds its core on first use; one made from a core (arithmetic,
    brackets, matrices, kernels) builds ``coords``, a tuple of
    ``Fraction``s, only when it is read.
    """

    __slots__ = ("algebra", "_coords", "_core")

    def __init__(self, algebra: LieAlgebra, coords):
        _set_algebra(self, algebra)
        _set_coords(self, tuple(coords))
        _set_core(self, None)

    @staticmethod
    def from_core(algebra: LieAlgebra, ints, d: int) -> "Element":
        """The element with coordinates ints / d, for integers ``ints`` and
        ``d != 0``."""
        if len(ints) != algebra.dim:
            raise LieAlgebraError(f"expected {algebra.dim} coordinates, got {len(ints)}")
        if not d:
            raise ZeroDivisionError("element core with denominator 0")
        return _core_element(algebra, *lowest_terms(ints, d))

    @property
    def coords(self) -> tuple:
        coords = self._coords
        if coords is None:
            ints, d = self._core
            coords = tuple(Fraction(a, d) if a else _ZERO for a in ints)
            _set_coords(self, coords)
        return coords

    def core(self):
        """The integer core ``(ints, d)``: a tuple of ints and the
        denominator, in lowest terms."""
        core = self._core
        if core is None:
            ints, d = integer_coords(self._coords)
            core = (tuple(ints), d)
            _set_core(self, core)
        return core

    def __setattr__(self, name, value):
        raise AttributeError(f"Element is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Element is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return Element, (self.algebra, self.coords)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign: int) -> "Element":
        """self + sign * other, over the lcm of the two denominators."""
        self._check(other)
        (a, da), (b, db) = self.core(), other.core()
        if da == db:
            fa, fb = 1, sign
        else:
            g = gcd(da, db)
            fa, fb = db // g, sign * (da // g)
        return _core_element(
            self.algebra, *lowest_terms([fa * x + fb * y for x, y in zip(a, b)], da * fa)
        )

    def __neg__(self):
        ints, d = self.core()
        return _core_element(self.algebra, tuple(-a for a in ints), d)

    def __rmul__(self, c):
        """A rational multiple c * x."""
        if not isinstance(c, (int, Fraction)):
            return NotImplemented
        ints, d = self.core()
        num = c.numerator
        return _core_element(
            self.algebra, *lowest_terms([num * a for a in ints], d * c.denominator)
        )

    def _check(self, other):
        if self.algebra is not other.algebra:
            raise LieAlgebraError("elements belong to different algebras")

    def is_zero(self) -> bool:
        core = self._core
        if core is None:
            return all(not a for a in self._coords)
        return not any(core[0])

    def matrix(self) -> Mat:
        return self.algebra.matrix_from_core(*self.core())

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.algebra is other.algebra
            and self.core() == other.core()
        )

    def __hash__(self):
        return hash((id(self.algebra), self.core()))

    def __repr__(self):
        return f"Element({', '.join(map(str, self.coords))})"


_set_algebra = Element.algebra.__set__
_set_coords = Element._coords.__set__
_set_core = Element._core.__set__


def _core_element(algebra: LieAlgebra, ints: tuple, d: int) -> Element:
    """The element of a core already in lowest terms (a tuple of ints, d > 0)."""
    x = object.__new__(Element)
    _set_algebra(x, algebra)
    _set_coords(x, None)
    _set_core(x, (ints, d))
    return x


def bracket(x: Element, y: Element) -> Element:
    x._check(y)
    alg = x.algebra
    return _core_element(alg, *alg.bracket_coords(x.core(), y.core()))


def killing(x: Element, y: Element) -> Fraction:
    """Killing form <x, y> = tr(ad_x ad_y), evaluated through the cached Gram matrix.

    The two cores are paired through the integer Gram copy, with one
    division at the end.
    """
    x._check(y)
    xs, dx = x.core()
    ys, dy = y.core()
    total = 0
    for a, row in zip(xs, x.algebra._gram_ints):
        if a:
            total += a * sum(g * b for g, b in zip(row, ys) if b)
    return Fraction(total, dx * dy)


def killing_covector(x: Element):
    """Coordinates of the functional <x, .> against the basis."""
    return x.algebra.killing_gram.apply(x.coords)


def kappa(algebra: LieAlgebra, covector) -> Element:
    """Inverse of y -> <y, .>: the element pairing like the given covector."""
    covector = tuple(covector)
    if len(covector) != algebra.dim:
        raise LieAlgebraError("covector has wrong length")
    ints, d = algebra.killing_gram_inverse.apply_core(integer_coords(covector))
    return _core_element(algebra, ints, d)


class GroupElement:
    """PGL_n element: an invertible matrix up to scale, stored normalized."""

    __slots__ = ("algebra", "matrix", "_inverse_matrix")

    def __init__(self, algebra: LieAlgebra, matrix: Mat):
        if matrix.nrows != algebra.n or matrix.ncols != algebra.n:
            raise LieAlgebraError("group element has wrong shape")
        if matrix.det() == 0:
            raise LieAlgebraError("singular matrix is not a group element")
        self.algebra = algebra
        self.matrix = _normalize_projective(matrix)
        self._inverse_matrix = None

    def inverse_matrix(self) -> Mat:
        """Exact inverse of the stored representative, computed on first use."""
        if self._inverse_matrix is None:
            self._inverse_matrix = self.matrix.inverse()
        return self._inverse_matrix

    @staticmethod
    def identity(algebra: LieAlgebra) -> "GroupElement":
        return GroupElement(algebra, Mat.identity(algebra.n))

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if self.algebra is not other.algebra:
            raise LieAlgebraError("group elements from different groups")
        return GroupElement(self.algebra, self.matrix @ other.matrix)

    def inverse(self) -> "GroupElement":
        return GroupElement(self.algebra, self.inverse_matrix())

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.algebra is other.algebra
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((id(self.algebra), self.matrix))

    def __repr__(self):
        return f"GroupElement({self.matrix!r})"


def _normalize_projective(m: Mat) -> Mat:
    """The representative whose first nonzero entry (row-major) is 1: the
    integer core over that entry's integer."""
    ints, _ = m.core()
    for r in ints:
        for a in r:
            if a:
                return Mat.from_core(ints, a)
    raise LieAlgebraError("zero matrix cannot be normalized")


def Ad(g: GroupElement, x: Element) -> Element:
    """Adjoint action g x g^-1 in coordinates."""
    conj = g.matrix @ x.matrix() @ g.inverse_matrix()
    return x.algebra.element_from_matrix(conj)


def exp_nilpotent_matrix(x: Element) -> Mat:
    """exp of a nilpotent matrix as the finite sum; rejects non-nilpotent input."""
    m = x.matrix()
    n = x.algebra.n
    power = Mat.identity(n)
    acc = Mat.identity(n)
    for k in range(1, n + 1):
        power = power @ m
        if power.is_zero():
            break
        acc = acc + power.scale(Fraction(1, factorial(k)))
    else:
        raise LieAlgebraError("exp is only provided for nilpotent arguments")
    return acc


def exp_nilpotent(x: Element) -> GroupElement:
    """exp of a nilpotent element, as a group element."""
    return GroupElement(x.algebra, exp_nilpotent_matrix(x))


def exp_ad(z: Element, x: Element) -> Element:
    """Ad(exp z) x = exp(ad z) x as the finite series of brackets
    sum_k ad_z^k x / k!; rejects z whose ad_z is not nilpotent on x.

    The series runs on integer coordinates: with z = zs / dz, the partial
    sum is acc / den and the k-th term is term / den, and the next term
    ad_z(term / den) / (k + 1) is ad_zs(term) over den * dz * (k + 1).
    """
    alg = x.algebra
    x._check(z)
    zs, dz = z.core()
    acc, den = x.core()
    term = acc
    for k in range(1, alg.dim + 2):
        term = alg._bracket_ints(zs, term)
        if not any(term):
            return Element.from_core(alg, acc, den)
        step = dz * k
        den *= step
        acc = [a * step + t for a, t in zip(acc, term)]
    raise LieAlgebraError("exp(ad z) is only provided for ad-nilpotent z")


def log_unipotent(g: GroupElement) -> Element:
    """log of a unipotent group element via the finite series over (g - 1)."""
    n = g.algebra.n
    m = g.matrix
    # The stored representative is projective; a unipotent element has a
    # representative with all eigenvalues 1, and normalization keeps it
    # (its first nonzero entry is a diagonal 1).
    nil = m - Mat.identity(n)
    power = Mat.identity(n)
    acc = Mat.zeros(n, n)
    for k in range(1, n + 1):
        power = power @ nil
        if power.is_zero():
            break
        acc = acc + power.scale(Fraction((-1) ** (k + 1), k))
    else:
        raise LieAlgebraError("group element is not unipotent")
    return g.algebra.element_from_matrix(acc)


def centralizer(x: Element):
    """Basis of the centralizer subalgebra {z : [x, z] = 0}."""
    ad = x.algebra.ad_matrix(x)
    return [_core_element(x.algebra, *v) for v in ad.kernel_cores()]


def is_regular(x: Element) -> bool:
    return len(centralizer(x)) == x.algebra.rank()


@dataclass(frozen=True)
class InvariantVector:
    """Characteristic-polynomial coefficients (c2, ..., cn) of the element's matrix."""

    coeffs: tuple

    def __repr__(self):
        return f"InvariantVector({', '.join(map(str, self.coeffs))})"


def chi(x: Element) -> InvariantVector:
    """Adjoint quotient: coefficients of det(lambda*I - x) past the vanishing trace term."""
    cs = charpoly(x.matrix())
    if cs[0] != 0:
        raise LieAlgebraError("trace-zero matrix expected")
    return InvariantVector(tuple(cs[1:]))


def sample_element(algebra: LieAlgebra, seed: int, index: int) -> Element:
    """Deterministic small-height element; index strides by the algebra dimension."""
    base = index * algebra.dim
    return algebra.element(
        tuple(sample_rational(seed, base + i) for i in range(algebra.dim))
    )


def sample_group_element(algebra: LieAlgebra, seed: int, index: int) -> GroupElement:
    """Deterministic invertible matrix: unit lower * diagonal * unit upper."""
    n = algebra.n
    stream = RationalStream(seed, index * (n * n + n))
    lower = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    upper = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    diag = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            lower[i][j] = stream.take()
            upper[j][i] = stream.take()
        diag[i][i] = stream.take_nonzero()
    return GroupElement(algebra, Mat(lower) @ Mat(diag) @ Mat(upper))
