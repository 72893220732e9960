"""Exact scalar towers and dense linear algebra over them.

The ground field is the rationals, represented by ``fractions.Fraction``
(arbitrary-precision, always reduced, positive denominator).  On top of it
sit Laurent polynomials in one formal parameter (carriers for one-parameter
subspace curves).  No floating point appears anywhere in this package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import gcd, lcm
from operator import mul

Rational = Fraction

_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    # splitmix64 finalizer; fixed constants keep the stream stable forever.
    z &= _MASK64
    z = ((z ^ (z >> 33)) * 0xFF51AFD7ED558CCD) & _MASK64
    z = ((z ^ (z >> 33)) * 0xC4CEB9FE1A85EC53) & _MASK64
    return z ^ (z >> 33)


def sample_rational(seed: int, index: int) -> Fraction:
    """Deterministic small-height rational: numerator in [-9, 9], denominator in {1, 2, 3}."""
    h = _mix64((seed & _MASK64) * 0x9E3779B97F4A7C15 + 2 * index + 1)
    num = h % 19 - 9
    den = (h >> 32) % 3 + 1
    return Fraction(num, den)


class RationalStream:
    """Sequential view of the ``sample_rational`` stream for one seed."""

    def __init__(self, seed: int, start: int = 0):
        self.seed = seed
        self.index = start

    def take(self) -> Fraction:
        value = sample_rational(self.seed, self.index)
        self.index += 1
        return value

    def take_nonzero(self) -> Fraction:
        while True:
            value = self.take()
            if value:
                return value


class LaurentPoly:
    """Laurent polynomial over Q, stored as (lowest exponent, dense coefficients).

    The stored coefficient list never has zero leading or trailing entries;
    the zero polynomial is the empty list with offset 0.
    """

    __slots__ = ("low", "coeffs")

    def __init__(self, low: int, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        start = 0
        while start < len(coeffs) and coeffs[start] == 0:
            start += 1
        end = len(coeffs)
        while end > start and coeffs[end - 1] == 0:
            end -= 1
        if start == end:
            self.low = 0
            self.coeffs = ()
        else:
            self.low = low + start
            self.coeffs = tuple(coeffs[start:end])

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly(0, ())

    @staticmethod
    def const(c) -> "LaurentPoly":
        return LaurentPoly(0, (Fraction(c),))

    @staticmethod
    def t_power(k: int, c=1) -> "LaurentPoly":
        return LaurentPoly(k, (Fraction(c),))

    @staticmethod
    def lift(x) -> "LaurentPoly":
        if isinstance(x, LaurentPoly):
            return x
        return LaurentPoly.const(x)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def valuation(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no valuation")
        return self.low

    def coeff(self, k: int) -> Fraction:
        i = k - self.low
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __add__(self, other):
        o = LaurentPoly.lift(other)
        if not self.coeffs:
            return o
        if not o.coeffs:
            return self
        low = min(self.low, o.low)
        high = max(self.low + len(self.coeffs), o.low + len(o.coeffs))
        out = [Fraction(0)] * (high - low)
        for i, c in enumerate(self.coeffs):
            out[self.low - low + i] += c
        for i, c in enumerate(o.coeffs):
            out[o.low - low + i] += c
        return LaurentPoly(low, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.low, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-LaurentPoly.lift(other))

    def __rsub__(self, other):
        return LaurentPoly.lift(other) + (-self)

    def __mul__(self, other):
        o = LaurentPoly.lift(other)
        if not self.coeffs or not o.coeffs:
            return LaurentPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] += a * b
        return LaurentPoly(self.low + o.low, out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t**k."""
        if not self.coeffs:
            return self
        return LaurentPoly(self.low + k, self.coeffs)

    def scale(self, c) -> "LaurentPoly":
        c = Fraction(c)
        if c == 0:
            return LaurentPoly.zero()
        return LaurentPoly(self.low, [c * a for a in self.coeffs])

    def substitute_power(self, k: int) -> "LaurentPoly":
        """Reparametrize t -> t**k for a positive integer k."""
        if k <= 0:
            raise ValueError("reparametrization exponent must be positive")
        if not self.coeffs:
            return self
        out = [Fraction(0)] * ((len(self.coeffs) - 1) * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return LaurentPoly(self.low * k, out)

    def eval_at_zero(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        if self.low < 0:
            raise ValueError("pole at t = 0")
        return self.coeff(0)

    def __eq__(self, other):
        o = LaurentPoly.lift(other) if not isinstance(other, LaurentPoly) else other
        return self.low == o.low and self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.low, self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            k = self.low + i
            if k == 0:
                parts.append(f"{c}")
            elif k == 1:
                parts.append(f"{c}*t" if c != 1 else "t")
            else:
                parts.append(f"{c}*t^{k}" if c != 1 else f"t^{k}")
        return " + ".join(parts)


class Mat:
    """Immutable dense matrix over any exact commutative scalar type.

    A matrix of rationals (``Fraction`` or ``int`` entries) also has an
    integer core ``(ints, d)``: integer rows with the matrix equal to
    ``ints / d``, where ``d > 0`` and the gcd of ``d`` and every entry of
    ``ints`` is 1, so the core of a matrix is unique.  It is computed at
    most once, on first use by a kernel; products, sums, differences and
    rational multiples of rational matrices are built from it directly, and
    their ``rows`` of ``Fraction``s are built only when a caller reads them.
    Every other entry type (``LaurentPoly``) runs the generic loops on rows.
    """

    __slots__ = ("_rows", "_core", "nrows", "ncols")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        width = len(rows[0]) if rows else 0
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix")
        self._rows = rows
        self._core = None
        self.nrows = len(rows)
        self.ncols = width

    @staticmethod
    def from_core(ints, d: int) -> "Mat":
        """The rational matrix ints / d, for integer rows ``ints`` and an
        integer ``d != 0``."""
        ints = tuple(tuple(r) for r in ints)
        if ints and any(len(r) != len(ints[0]) for r in ints):
            raise ValueError("ragged matrix")
        if not d:
            raise ZeroDivisionError("matrix core with denominator 0")
        return _reduced(ints, d)

    @staticmethod
    def identity(n: int) -> "Mat":
        return _core_mat(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1)

    @staticmethod
    def zeros(r: int, c: int) -> "Mat":
        return _core_mat(((0,) * c,) * r, 1, c)

    @property
    def rows(self) -> tuple:
        rows = self._rows
        if rows is None:
            ints, d = self._core
            rows = self._rows = tuple(tuple(_ratio(a, d) for a in r) for r in ints)
        return rows

    def core(self):
        """The integer core ``(ints, d)``, or None when an entry is not a
        rational (a ``LaurentPoly``, say)."""
        return self._rational() or None

    def _rational(self):
        """The integer core, or False when some entry is not a rational."""
        core = self._core
        if core is None:
            core = self._core = _core_of(self._rows)
        return core

    def _field_core(self):
        core = self._rational()
        if not core:
            raise TypeError("field routines need rational entries")
        return core

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __add__(self, other):
        a, b = self._rational(), other._rational()
        if a and b:
            return _combine(a, b, 1)
        return Mat([[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        a, b = self._rational(), other._rational()
        if a and b:
            return _combine(a, b, -1)
        return Mat([[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self):
        core = self._rational()
        if core:
            ints, d = core
            return _core_mat(tuple(tuple(-a for a in r) for r in ints), d)
        return Mat([[-a for a in r] for r in self.rows])

    def scale(self, c):
        core = self._rational()
        if core and type(c) in (Fraction, int):
            ints, d = core
            num = c.numerator
            return _reduced(tuple(tuple(num * a for a in r) for r in ints), d * c.denominator)
        return Mat([[c * a for a in r] for r in self.rows])

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        a, b = self._rational(), other._rational()
        if a and b:
            (a_ints, da), (b_ints, db) = a, b
            cols = tuple(zip(*b_ints)) if b_ints else ((),) * other.ncols
            return _reduced(
                tuple(tuple(sum(map(mul, r, c)) for c in cols) for r in a_ints),
                da * db,
                other.ncols,
            )
        cols = other.ncols
        out = []
        for r in self.rows:
            new = []
            for j in range(cols):
                acc = None
                for k, a in enumerate(r):
                    term = a * other.rows[k][j]
                    acc = term if acc is None else acc + term
                new.append(acc)
            out.append(new)
        return Mat(out)

    def transpose(self) -> "Mat":
        if self.nrows and self.ncols:
            return Mat(list(zip(*self.rows)))
        return Mat.zeros(self.ncols, self.nrows)

    def trace(self):
        acc = self.rows[0][0]
        for i in range(1, self.nrows):
            acc = acc + self.rows[i][i]
        return acc

    def apply(self, vec):
        """Matrix times column vector."""
        vec = tuple(vec)
        if len(vec) != self.ncols:
            raise ValueError("shape mismatch")
        if not self._rational():
            return tuple(r[0] for r in (self @ Mat([[v] for v in vec])).rows)
        ints, d = self.apply_core(integer_coords(vec))
        return tuple(_ratio(a, d) for a in ints)

    def apply_core(self, vector):
        """Rational matrix times the column ``ints / d`` of a core
        ``(ints, d)``, as a core in lowest terms."""
        ints, d = self._field_core()
        vs, dv = vector
        if len(vs) != self.ncols:
            raise ValueError("shape mismatch")
        return lowest_terms([sum(map(mul, r, vs)) for r in ints], d * dv)

    def map(self, fn) -> "Mat":
        return Mat([[fn(a) for a in r] for r in self.rows])

    def is_zero(self) -> bool:
        core = self._core
        if core:
            return not any(map(any, core[0]))
        return all(not a for r in self.rows for a in r)

    def __eq__(self, other):
        if not isinstance(other, Mat) or (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        a, b = self._rational(), other._rational()
        if a and b:
            return a == b
        return self.rows == other.rows

    def __hash__(self):
        core = self._rational()
        return hash(core) if core else hash(self.rows)

    def __repr__(self):
        return "Mat([" + ", ".join("[" + ", ".join(map(str, r)) + "]" for r in self.rows) + "])"

    # Field-scalar routines (rational entries), run on the integer core.

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot columns, rank).

        Pivot choice is the first nonzero entry in column order, which makes
        the output canonical and the whole pipeline reproducible.
        Gauss-Jordan runs fraction-free on the integer core:
        row_i <- pv*row_i - f*row_r, divided by the gcd of its entries.
        Scaling a row never changes which entries vanish, so the pivots are
        those of the Fraction elimination, and since the reduced form is
        unique, so is the result.  The result is returned as a core, each
        row over its pivot; its ``Fraction``s are built only when read.
        """
        ints, _ = self._field_core()
        m = [list(r) for r in ints]
        nr, nc = len(m), self.ncols
        pivots = []
        r = 0
        for c in range(nc):
            pr = None
            for i in range(r, nr):
                if m[i][c]:
                    pr = i
                    break
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            prow = m[r]
            pv = prow[c]
            for i in range(nr):
                f = m[i][c]
                if i != r and f:
                    new = [pv * a - f * b for a, b in zip(m[i], prow)]
                    g = gcd(*new)
                    if g > 1:
                        new = [a // g for a in new]
                    m[i] = new
            pivots.append(c)
            r += 1
            if r == nr:
                break
        den = lcm(*(m[i][c] for i, c in enumerate(pivots)))
        out = tuple(tuple(a * (den // m[i][c]) for a in m[i]) for i, c in enumerate(pivots))
        out += ((0,) * nc,) * (nr - r)
        return _reduced(out, den, nc), tuple(pivots), r

    def rank(self) -> int:
        return self.rref()[2]

    def kernel(self):
        """Basis of the right null space, as a list of coordinate tuples."""
        return [tuple(_ratio(a, d) for a in v) for v, d in self.kernel_cores()]

    def kernel_cores(self):
        """The basis of ``kernel`` as cores ``(ints, d)`` in lowest terms:
        the vector of free column fc is d at fc and -R[r][fc] at the pivot
        column of row r, over the denominator d of the RREF's core R."""
        R, pivots, rank = self.rref()
        ints, d = R.core()
        nc = self.ncols
        basis = []
        for fc in range(nc):
            if fc in pivots:
                continue
            v = [0] * nc
            v[fc] = d
            for r, pc in enumerate(pivots):
                v[pc] = -ints[r][fc]
            basis.append(lowest_terms(v, d))
        return basis

    def solve(self, rhs):
        """One solution of self @ x = rhs, or None if inconsistent."""
        ints, d = self._field_core()
        bs, db = integer_coords(rhs)
        # (ints / d) x = bs / db  <=>  (db * ints) x = d * bs
        aug = Mat.from_core([[db * a for a in r] + [d * b] for r, b in zip(ints, bs)], 1)
        R, pivots, rank = aug.rref()
        nc = self.ncols
        if nc in pivots:
            return None
        r_ints, den = R.core()
        x = [_ZERO] * nc
        for r, pc in enumerate(pivots):
            x[pc] = _ratio(r_ints[r][nc], den)
        return tuple(x)

    def inverse(self) -> "Mat":
        n = self.nrows
        if n != self.ncols:
            raise ValueError("inverse of non-square matrix")
        ints, d = self._field_core()
        aug = _core_mat(
            tuple(r + tuple(int(i == j) for j in range(n)) for i, r in enumerate(ints)), 1
        )
        R, pivots, rank = aug.rref()
        if rank < n or any(p >= n for p in pivots[:n]):
            raise ValueError("singular matrix")
        # R = [I | ints^-1] and (ints / d)^-1 = d * ints^-1
        r_ints, den = R.core()
        return _reduced(tuple(tuple(d * a for a in r[n:]) for r in r_ints), den)

    def det(self):
        """Determinant by Bareiss fraction-free elimination on the integer core,
        divided by d^n."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("determinant of non-square matrix")
        ints, d = self._field_core()
        m = [list(r) for r in ints]
        sign = 1
        prev = 1
        for c in range(n):
            pr = None
            for i in range(c, n):
                if m[i][c]:
                    pr = i
                    break
            if pr is None:
                return _ZERO
            if pr != c:
                m[c], m[pr] = m[pr], m[c]
                sign = -sign
            prow = m[c]
            pv = prow[c]
            for i in range(c + 1, n):
                row = m[i]
                f = row[c]
                m[i] = [(pv * a - f * b) // prev for a, b in zip(row, prow)]
            prev = pv
        return Fraction(sign * prev, d**n)


_ZERO = Fraction(0)


def _ratio(num: int, den: int) -> Fraction:
    return Fraction(num, den) if num else _ZERO


def _core_mat(ints: tuple, d: int, ncols: int = 0) -> Mat:
    """A matrix from a core already in lowest terms (d > 0): tuple rows of
    ints.  A caller that knows the width passes it, so that a matrix
    without rows keeps it."""
    m = object.__new__(Mat)
    m._rows = None
    m._core = (ints, d)
    m.nrows = len(ints)
    m.ncols = len(ints[0]) if ints else ncols
    return m


def _reduced(ints: tuple, d: int, ncols: int = 0) -> Mat:
    """The matrix ints / d with the core brought to lowest terms."""
    g = gcd(d, *chain.from_iterable(ints))
    if d < 0:
        g = -g
    if g != 1:
        ints = tuple(tuple(a // g for a in r) for r in ints)
        d //= g
    return _core_mat(ints, d, ncols)


def _core_of(rows):
    """The integer core of rows of rationals (lcm of the denominators, which
    is already in lowest terms), or False if an entry is not a rational.
    A matrix whose first entry is not one (a Laurent curve) is told apart
    without raising."""
    if rows and rows[0] and type(rows[0][0]) not in (Fraction, int):
        return False
    try:
        d = lcm(*{a.denominator for r in rows for a in r})
        return tuple(tuple(a.numerator * (d // a.denominator) for a in r) for r in rows), d
    except AttributeError:
        return False


def _combine(a, b, sign: int) -> Mat:
    """a + sign * b for two integer cores, over the lcm of their denominators."""
    (a_ints, da), (b_ints, db) = a, b
    if da == db:
        fa = fb = 1
    else:
        g = gcd(da, db)
        fa, fb = db // g, da // g
    fb *= sign
    return _reduced(
        tuple(tuple(fa * x + fb * y for x, y in zip(r1, r2)) for r1, r2 in zip(a_ints, b_ints)),
        da * fa,
    )


def integer_coords(values):
    """Rationals (Fraction or int) as (ints, d): d is the lcm of their
    denominators and values[k] == ints[k] / d.  This is the vector's core:
    every prime power in d divides some denominator exactly, and that
    value's numerator is prime to it, so the gcd of d and ints is 1."""
    d = lcm(*{a.denominator for a in values})
    return [a.numerator * (d // a.denominator) for a in values], d


def lowest_terms(ints, d: int):
    """The core of the vector ints / d, for integers ``ints`` and ``d != 0``:
    ``(tuple of ints, d)`` divided by the gcd of all of them, with d > 0."""
    g = gcd(d, *ints)
    if d < 0:
        g = -g
    if g != 1:
        return tuple(a // g for a in ints), d // g
    return tuple(ints), d


class RowSpan:
    """Row span of rational vectors, the package's one echelon type: the core
    ``ints / d`` of its reduced echelon basis, each row with ``d`` at its own
    pivot column (in ``pivots``) and 0 at the other pivots."""

    __slots__ = ("pivots", "ints", "d")

    def __init__(self, vectors):
        reduced, self.pivots, rank = Mat(vectors).rref()
        ints, self.d = reduced.core()
        self.ints = ints[:rank]

    def residual(self, vector) -> list:
        """d * vector minus its pivot entries times the basis rows: linear in
        ``vector`` and zero exactly on the span."""
        out = [self.d * a for a in vector]
        for pc, row in zip(self.pivots, self.ints):
            f = vector[pc]
            if f:
                out = [a - f * b for a, b in zip(out, row)]
        return out

    def contains(self, vector) -> bool:
        """Whether ``vector`` lies in the span: its residual vanishes."""
        return not any(self.residual(integer_coords(vector)[0]))


def sylvester_rows(left: Mat, right: Mat) -> Mat:
    """The n^2 x n^2 matrix of X -> left @ X - X @ right on the row-major
    entries of an n x n matrix X: row p*n + q is entry (p, q) of the image,
    sum_r left[p][r] X[r][q] - sum_r X[p][r] right[r][q]."""
    n = left.nrows
    if (left.ncols, right.nrows, right.ncols) != (n, n, n):
        raise ValueError("Sylvester operands must be square matrices of one size")
    (a, da), (b, db) = left._field_core(), right._field_core()
    rows = []
    for p in range(n):
        for q in range(n):
            row = [0] * (n * n)
            for r in range(n):
                row[r * n + q] += db * a[p][r]
                row[p * n + r] -= da * b[r][q]
            rows.append(row)
    return Mat.from_core(rows, da * db)


def sylvester_solutions(pairs) -> list:
    """Basis of the n x n matrices X with left @ X = X @ right for every pair:
    the kernel of the stacked integer cores of ``sylvester_rows`` (scaling a
    row keeps the kernel), each vector read back row-major into X."""
    n = pairs[0][0].nrows
    rows = [r for left, right in pairs for r in sylvester_rows(left, right).core()[0]]
    return [
        Mat.from_core([v[i:i + n] for i in range(0, n * n, n)], d)
        for v, d in Mat.from_core(rows, 1).kernel_cores()
    ]


def span_contains(rows, vector) -> bool:
    """Exact span membership by two ranks, the reference for ``RowSpan``'s tests."""
    if not rows:
        return all(c == 0 for c in vector)
    base = Mat(rows)
    return Mat(list(rows) + [list(vector)]).rank() == base.rank()


def charpoly(m: Mat):
    """Coefficients (c1, ..., cn) of det(lambda*I - M) = lambda^n + c1*lambda^(n-1) + ... + cn.

    Faddeev-LeVerrier recursion on the integer core dM of M: every step
    stays in the integers, the division by k is exact there, and
    c_k(M) = c_k(dM) / d^k.
    """
    n = m.nrows
    if n != m.ncols:
        raise ValueError("characteristic polynomial of non-square matrix")
    ints, d = m._field_core()
    a = [list(r) for r in ints]
    coeffs = []
    mk = a
    for k in range(1, n + 1):
        ck, rem = divmod(-sum(mk[i][i] for i in range(n)), k)
        if rem:
            raise ArithmeticError("inexact Faddeev-LeVerrier step on an integer matrix")
        coeffs.append(Fraction(ck, d**k))
        if k < n:
            # M_(k+1) = A (M_k + c_k I), one entry at a time
            cols = list(zip(*mk))
            mk = [[sum(map(mul, row, col)) + ck * x for col, x in zip(cols, row)] for row in a]
    return tuple(coeffs)


def minor_states(rows, reduce=None):
    """Laplace expansion row by row, keyed by the bitmask of the columns used.

    After all rows, ``states[mask]`` is the maximal minor on the columns set
    in ``mask``; masks whose minor vanishes are absent.  Inserting column
    ``j`` after the columns already in ``mask`` moves it past each used column
    above ``j``, hence the sign is the parity of those set bits.  Zero entries
    are skipped, so sparse curve matrices stay cheap.  ``reduce`` maps each
    accumulated value after every row past the first (truncation, for one).
    """
    states = {1 << j: entry for j, entry in enumerate(rows[0]) if entry}
    for row in rows[1:]:
        steps = [(1 << j, j + 1, entry) for j, entry in enumerate(row) if entry]
        new_states = {}
        for mask, val in states.items():
            for bit, above, entry in steps:
                if mask & bit:
                    continue
                term = val * entry
                if (mask >> above).bit_count() & 1:
                    term = -term
                key = mask | bit
                prev = new_states.get(key)
                new_states[key] = term if prev is None else prev + term
        if reduce is not None:
            new_states = {m: reduce(v) for m, v in new_states.items()}
        states = {m: v for m, v in new_states.items() if v}
    return states


@lru_cache(maxsize=None)
def lex_masks(ncols: int, k: int) -> tuple:
    """Column bitmasks of the k-subsets of range(ncols), in lexicographic order."""
    return tuple(sum(1 << c for c in cols) for cols in combinations(range(ncols), k))


def maximal_minors(rows, ncols: int, zero):
    """All maximal minors of a k x ncols matrix, in lexicographic column order.

    Works over any exact commutative scalar with +, -, * and truthiness;
    ``zero`` stands in for every minor that vanishes.
    """
    if not rows:
        raise ValueError("maximal minors of a matrix without rows")
    states = minor_states(rows)
    return [states.get(mask, zero) for mask in lex_masks(ncols, len(rows))]


def lowest_minor_coefficients(rows):
    """Leading coefficients of the maximal minors of a LaurentPoly matrix.

    Returns ``(mu, coeffs)``: ``mu`` is the lowest valuation among the
    nonzero maximal minors, and ``coeffs`` maps the column bitmask of each
    minor (as in ``minor_states``) to its t^mu coefficient, for the nonzero
    coefficients only.  The coefficients are integers: row r is scaled by
    the lcm D_r of its coefficient denominators, so each is the exact
    coefficient times prod(D_r), one positive factor common to all minors
    that normalization divides out.

    Row r is read from t^(v_r), v_r its valuation, and truncated to p terms,
    so the expansion yields every minor divided by t^(sum v_r) modulo t^p.
    A nonzero coefficient below t^p is exact; p starts at 1 and doubles
    until one appears.  Past the sum of the row degrees (shifted to start at
    0) every minor vanishes identically and ValueError is raised.

    A truncated series is packed into one Python int, ``bits`` per term
    (Kronecker substitution), so a series product is one int product.
    ``bits`` exceeds the bound prod_r (sum of |coefficients| in row r) on
    every coefficient of every partial minor by two bits, so the signed
    terms never spill into each other.
    """
    if not rows:
        raise ValueError("maximal minors of a matrix without rows")
    series = []
    valuation_sum = width = 0
    bound = 1
    for row in rows:
        nonzero = [e for e in row if e]
        if not nonzero:
            raise ValueError("all maximal minors vanish: the matrix has a zero row")
        low = min(e.low for e in nonzero)
        scale = lcm(*(c.denominator for e in nonzero for c in e.coeffs))
        ints = [
            [0] * (e.low - low) + [c.numerator * (scale // c.denominator) for c in e.coeffs]
            if e else []
            for e in row
        ]
        series.append(ints)
        valuation_sum += low
        width += max(len(s) for s in ints) - 1
        bound *= sum(abs(c) for s in ints for c in s)
    bits = bound.bit_length() + 2
    p = 1
    while True:
        packed = [[_pack(s[:p], bits) for s in ints] for ints in series]
        states = minor_states(packed, None if p == 1 else _signed_low(p * bits))
        if states:
            lowest = min((v & -v).bit_length() - 1 for v in states.values()) // bits
            pos = lowest * bits
            term = _signed_low(bits)
            coeffs = {m: c for m, v in states.items() if (c := term(v >> pos))}
            return valuation_sum + lowest, coeffs
        if p > width:
            raise ValueError("all maximal minors vanish")
        p = min(2 * p, width + 1)


def _pack(coeffs, bits: int) -> int:
    return sum(c << (bits * i) for i, c in enumerate(coeffs))


def _signed_low(nbits: int):
    """The map from a packed int to the signed value of its low ``nbits``:
    the series modulo t^p when ``nbits`` spans p terms, one term when it
    spans one.  Exact since the term width leaves every term two spare bits."""
    half = 1 << (nbits - 1)
    mask = (1 << nbits) - 1
    return lambda v: ((v + half) & mask) - half

