"""Seeded workloads of the slicelab benchmark: inputs, the op, and its oracle.

Every workload is a sequence of blocks.  Block ``b`` of seed ``s`` is a
pure function of ``(s, b)`` and always has the same mix of op kinds, so
any whole number of blocks has the same mix and the same share of
malformed input.  An op is the one call a user waits for; its oracle runs
after it, outside the timed region, and is computed apart from the call
under test (plain Fraction matrices), except for the ``pgl2_model``
certification of a fibre.  ``check`` returns None for a correct output or
a message saying what is wrong with it.  An op that raises has a wrong
output, unless ``known_defects`` maps the op's label to the exception's
type, a known defect of the program: such an op still counts as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from typing import NamedTuple

from slicelab import cli, lie_algebra, suites, wonderful
from slicelab.exactnum import LaurentPoly, Mat


class Op(NamedTuple):
    label: str
    data: object


def _rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{block}")


def _small_rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        q = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
        if q or not nonzero:
            return q


def _fmt(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


# --- plain Fraction matrices for the oracles --------------------------------


def _mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def _sub(a, b):
    return [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]


def _trace(a):
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def _power_traces(a):
    """tr(a^k) for k = 2..n; two trace-zero matrices with equal power traces
    have the same characteristic polynomial."""
    out = []
    power = a
    for _ in range(len(a) - 1):
        power = _mul(power, a)
        out.append(_trace(power))
    return out


def _det(a):
    if len(a) == 1:
        return a[0][0]
    return sum(
        ((-1) ** j * a[0][j] * _det([r[:j] + r[j + 1:] for r in a[1:]]) for j in range(len(a))),
        Fraction(0),
    )


def _from_coords(algebra, coords):
    n = algebra.n
    out = [[Fraction(0)] * n for _ in range(n)]
    for c, b in zip(coords, algebra.basis):
        for i in range(n):
            for j in range(n):
                out[i][j] += c * b.rows[i][j]
    return out


def _rref(rows):
    """Reduced row echelon form without zero rows, by plain Gauss-Jordan."""
    m = [list(r) for r in rows]
    pivot_row = 0
    for c in range(len(m[0])):
        pr = next((i for i in range(pivot_row, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[pivot_row], m[pr] = m[pr], m[pivot_row]
        m[pivot_row] = [a / m[pivot_row][c] for a in m[pivot_row]]
        for i in range(len(m)):
            if i != pivot_row and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[pivot_row])]
        pivot_row += 1
    return m[:pivot_row]


def _inverse(a):
    n = len(a)
    aug = _rref([row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)])
    return [row[n:] for row in aug]


def _root(algebra, b):
    """(i, j) of the first nonzero entry of a basis matrix; i == j on the Cartan."""
    n = algebra.n
    return next((i, j) for i in range(n) for j in range(n) if b.rows[i][j])


def _weights(algebra, exps):
    """Weight of each basis vector under diag(t^a): a_i - a_j for E_ij, 0 on the Cartan."""
    return [exps[i] - exps[j] for i, j in (_root(algebra, b) for b in algebra.basis)]


def _coords(algebra, m):
    """Coordinates of a trace-zero matrix: E_ij entries, then H_k = E_kk - E_(k+1)(k+1)."""
    out = []
    for i, j in (_root(algebra, b) for b in algebra.basis):
        out.append(m[i][j] if i != j else sum((m[k][k] for k in range(i + 1)), Fraction(0)))
    return out


def _triangular(rng, n, lower):
    """Unit lower (or upper) triangular matrix whose off-diagonal triangle has
    no zero entry, and neither has that of its inverse.

    A zero in the inverse (l31 = l21 * l32, say) makes the adjugate of the
    curve sparse and its limit up to twice as cheap; excluding it keeps the
    cost of a dense curve the same from seed to seed.
    """
    while True:
        m = [[Fraction(1) if i == j else (_small_rational(rng, True) if (i > j) == lower
                                          else Fraction(0)) for j in range(n)] for i in range(n)]
        inv = _inverse(m)
        if all(inv[i][j] for i in range(n) for j in range(n) if i != j and (i > j) == lower):
            return m


# --- verify-all ---------------------------------------------------------------


class VerifyAll:
    """One op is one check of ``verify all`` at ``Config(seed=s)``."""

    name = "verify-all"
    nominal_block_s = 3.0
    known_defects = {}

    def __init__(self):
        self.algebras = {2: lie_algebra(2), 3: lie_algebra(3)}
        self.check_names = tuple(fn.__name__ for checks in suites.SUITES.values() for fn in checks)

    def block(self, seed, index):
        config = suites.Config(seed=_rng(self.name, seed, index).randrange(1 << 32))
        return [Op(name, config) for name in self.check_names]

    def call(self, op):
        # Looked up by name so that a traced run reaches the patched function.
        return getattr(suites, op.label)(op.data, self.algebras)

    def check(self, op, output):
        if output.status != "pass":
            return f"{output.name} is {output.status!r} at seed {op.data.seed}: {output.witness!r}"
        return None

    def digest(self, output):
        return output.name, output.status, repr(output.witness)


# --- limits -------------------------------------------------------------------


class Limits:
    """One op is one ``wonderful.limit`` of the graph curve of g(t) = L diag(t^a) U.

    The oracle is the closed form of the torus limit, moved by the group
    action: limit(L lam U) = limit(lam).act(L, U^-1), where limit(lam)
    keeps (y, y) on the Cartan part and, for a root vector of weight
    d = a_i - a_j, keeps (y, 0) if d < 0, (0, y) if d > 0 and (y, y) if
    d = 0.  It is computed with plain Fraction matrices and compared with
    the canonical basis of the output.  The curve hits the boundary exactly
    when the exponents differ.
    """

    name = "limits"
    nominal_block_s = 3.5
    known_defects = {}
    # Per block: cheap sl2 curves, sl3 torus curves diag(t^a, t^b, 1), sl3
    # one-sided translates L lam or lam U, and one dense two-sided translate
    # L lam U that takes about 60% of the block's time.  The sl3 exponents
    # are the same in every block and the seed draws L, U and the order, so
    # blocks cost about the same and their latency percentiles are steady.
    SL2 = 5
    TORUS = ((2, 1), (1, -1), (3, -2), (0, 2), (0, 0))
    ONE_SIDED = ((1, -1), (2, 1))  # each once as L lam and once as lam U
    DENSE = (1, 0)

    def __init__(self):
        self.sl2 = lie_algebra(2)
        self.sl3 = lie_algebra(3)

    def block(self, seed, index):
        rng = _rng(self.name, seed, index)
        ops = []
        for _ in range(self.SL2):
            sides = rng.choice(("", "L", "U", "LU"))
            ops.append(self._op(rng, "sl2", self.sl2, (rng.randint(-3, 3), 0), sides))
        for a, b in self.TORUS:
            ops.append(self._op(rng, "sl3-torus", self.sl3, (a, b, 0), ""))
        for a, b in self.ONE_SIDED:
            for side in "LU":
                ops.append(self._op(rng, "sl3-one-sided", self.sl3, (a, b, 0), side))
        ops.append(self._op(rng, "sl3-two-sided", self.sl3, self.DENSE + (0,), "LU"))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _op(rng, kind, algebra, exps, sides):
        n = algebra.n
        ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        lower = _triangular(rng, n, True) if "L" in sides else ident
        upper = _triangular(rng, n, False) if "U" in sides else ident
        torus = Mat([[LaurentPoly.t_power(exps[i]) if i == j else LaurentPoly.zero()
                      for j in range(n)] for i in range(n)])
        curve = Mat(lower).map(LaurentPoly.lift) @ torus @ Mat(upper).map(LaurentPoly.lift)
        return Op(kind, (algebra, curve, exps, lower, upper))

    def call(self, op):
        algebra, curve = op.data[:2]
        return wonderful.limit(wonderful.CurveSubspace.from_group_curve(algebra, curve))

    def check(self, op, output):
        algebra, _, exps, lower, upper = op.data
        lower_inv, upper_inv = _inverse(lower), _inverse(upper)
        zero = [[Fraction(0)] * algebra.n for _ in range(algebra.n)]
        rows = []
        for b, weight in zip(algebra.basis, _weights(algebra, exps)):
            y = [list(r) for r in b.rows]
            y1, y2 = (zero, y) if weight > 0 else (y, zero) if weight < 0 else (y, y)
            rows.append(_coords(algebra, _mul(_mul(lower, y1), lower_inv))
                        + _coords(algebra, _mul(_mul(upper_inv, y2), upper)))
        if [list(r) for r in output.basis.rows] != _rref(rows):
            return f"limit of {op.label} curve with exponents {exps} differs from the closed form"
        boundary = len(set(exps)) > 1
        if output.is_boundary() != boundary:
            return f"boundary flag of {op.label} curve with exponents {exps} is not {boundary}"
        return None

    def digest(self, output):
        return output.basis.rows


# --- cli-queries --------------------------------------------------------------


class _SliceCase:
    """The sl2-triple of one partition, written out by hand for the oracles."""

    def __init__(self, algebra, partition):
        n = algebra.n
        self.algebra = algebra
        self.partition = partition
        self.xi = [[Fraction(0)] * n for _ in range(n)]
        self.eta = [[Fraction(0)] * n for _ in range(n)]
        h = []
        offset = 0
        for p in partition:
            for i in range(p - 1):
                self.xi[offset + i][offset + i + 1] = Fraction(1)
                self.eta[offset + i + 1][offset + i] = Fraction((i + 1) * (p - i - 1))
            h += [p - 1 - 2 * i for i in range(p)]
            offset += p
        self.xi_coords = _coords(algebra, self.xi)
        # Basis indices of p_tau: non-positive ad_h weight.
        self.parabolic = [k for k, w in enumerate(_weights(algebra, h)) if w <= 0]

    def in_slice(self, s):
        """s lies in xi + g_eta."""
        d = _sub(s, self.xi)
        return _mul(self.eta, d) == _mul(d, self.eta)

    def spec(self, rng, coords, names_only=False):
        """An element spec for the coordinates: a tuple or a sum of basis names."""
        if not any(coords) or (not names_only and rng.random() < 0.5):
            return ",".join(_fmt(c) for c in coords)
        names = list(self.algebra.basis_names)
        if self.algebra.n == 2 and rng.random() < 0.5:
            names = ["e", "h", "f"]
        terms = []
        for c, name in zip(coords, names):
            if c:
                sign = "-" if c < 0 else "+"
                mag = "" if abs(c) == 1 else _fmt(abs(c)) + "*"
                terms.append(f"{sign}{mag}{name}")
        return "".join(terms).lstrip("+")


class CliQueries:
    """One op is one in-process ``slicelab.cli.main([..., "--json"])``.

    Each op rebuilds its slice as the CLI does, so this is the cold path.
    A few ops per block are malformed specs, one of each typo class, and
    must end in exit code 1 with a one-line ``error:``.
    """

    name = "cli-queries"
    nominal_block_s = 0.3
    PROJECT_CASES = (("a1", (2,), 7), ("a2", (3,), 7), ("a2", (2, 1), 7), ("a2", (1, 1, 1), 5))
    FIBRES = 20
    MALFORMED = ("wrong-arity", "unknown-name", "outside-parabolic", "zero-denominator")
    # A zero denominator in a spec ends in a traceback today instead of an
    # "error:" line; the op stays in the mix and counts as failed.
    known_defects = {"malformed zero-denominator": ZeroDivisionError}

    def __init__(self):
        sl2, sl3 = lie_algebra(2), lie_algebra(3)
        self.cases = {
            ("a1", (2,)): _SliceCase(sl2, (2,)),
            ("a2", (3,)): _SliceCase(sl3, (3,)),
            ("a2", (2, 1)): _SliceCase(sl3, (2, 1)),
            ("a2", (1, 1, 1)): _SliceCase(sl3, (1, 1, 1)),
        }

    def block(self, seed, index):
        rng = _rng(self.name, seed, index)
        ops = []
        for tag, partition, count in self.PROJECT_CASES:
            for _ in range(count):
                ops.append(self._project(rng, self.cases[tag, partition]))
        for _ in range(self.FIBRES):
            ops.append(self._fibre(rng))
        for kind in self.MALFORMED:
            ops.append(self._malformed(rng, kind))
        rng.shuffle(ops)
        return ops

    def _parabolic_coords(self, rng, case):
        coords = list(case.xi_coords)
        for k in case.parabolic:
            if rng.random() < 0.7:
                coords[k] += _small_rational(rng)
        return coords

    @staticmethod
    def _argv(command, tag, partition, spec):
        flag = "--point" if command == "fibre" else "--element"
        argv = [command, "--algebra", tag]
        if partition:
            argv += ["--partition", ",".join(map(str, partition))]
        # "--flag=spec": a spec may start with "-".
        return argv + [f"{flag}={spec}", "--json"]

    def _project(self, rng, case):
        coords = self._parabolic_coords(rng, case)
        tag = "a1" if case.algebra.n == 2 else "a2"
        argv = self._argv("slice-project", tag, case.partition, case.spec(rng, coords))
        label = f"slice-project {tag} {','.join(map(str, case.partition))}"
        return Op(label, (argv, case, coords))

    def _fibre(self, rng):
        case = self.cases["a1", (2,)]
        if rng.random() < 0.4:
            c = _small_rational(rng)
            return Op("fibre", (self._argv("fibre", "a1", None, f"s({_fmt(c)})"), case, None))
        coords = [_small_rational(rng) for _ in range(3)]
        return Op("fibre", (self._argv("fibre", "a1", None, case.spec(rng, coords)), case, coords))

    def _malformed(self, rng, kind):
        if kind == "outside-parabolic":
            tag, partition = rng.choice((("a1", (2,)), ("a2", (3,)), ("a2", (2, 1))))
            case = self.cases[tag, partition]
            coords = self._parabolic_coords(rng, case)
            outside = [k for k in range(case.algebra.dim) if k not in case.parabolic]
            coords[rng.choice(outside)] += _small_rational(rng, True)
            spec = case.spec(rng, coords)
            return Op(f"malformed {kind}", (self._argv("slice-project", tag, partition, spec), None, None))
        command = rng.choice(("fibre", "slice-project"))
        tag, partition = ("a1", (2,)) if command == "fibre" else rng.choice(tuple(self.cases))
        case = self.cases[tag, partition]
        coords = self._parabolic_coords(rng, case)
        if kind == "wrong-arity":
            arity = len(coords) + rng.choice((-1, 1))
            spec = ",".join(_fmt(_small_rational(rng)) for _ in range(arity))
        elif kind == "unknown-name":
            bogus = rng.choice(("q", "E14", "H3", "E44") if tag == "a2" else ("q", "E13", "H2", "g"))
            spec = f"{case.spec(rng, coords, names_only=True)}+2*{bogus}" if any(coords) else f"2*{bogus}"
        elif command == "fibre" and rng.random() < 0.5:
            spec = f"s({rng.randint(1, 5)}/0)"
        else:
            spec = ",".join(["1/0"] + [_fmt(c) for c in coords[1:]])
        partition = None if command == "fibre" else partition
        return Op(f"malformed {kind}", (self._argv(command, tag, partition, spec), None, None))

    def call(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(op.data[0])
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self, op, output):
        code, out, err = output
        if op.label.startswith("malformed"):
            lines = err.splitlines()
            if code != 1 or out or len(lines) != 1 or not lines[0].startswith("error: "):
                return f"{op.label}: exit {code}, stderr {err!r}; expected exit 1 and one error: line"
            return None
        if code != 0 or err:
            return f"{op.label}: exit {code}, stderr {err!r}"
        payload = json.loads(out)
        if op.label == "fibre":
            return self._check_fibre(op, payload)
        return self._check_project(op, payload)

    @staticmethod
    def _check_project(op, payload):
        _, case, coords = op.data
        alg = case.algebra
        y = _from_coords(alg, coords)
        u = [[Fraction(q) for q in row] for row in payload["u"]]
        s = _from_coords(alg, [Fraction(q) for q in payload["s"]])
        if _det(u) == 0:
            return f"{op.label}: u is singular"
        if _mul(u, s) != _mul(y, u):
            return f"{op.label}: Ad(u, s) != y"
        if not case.in_slice(s):
            return f"{op.label}: s is not in S_tau"
        if _power_traces(s) != _power_traces(y):
            return f"{op.label}: chi(s) != chi(y)"
        return None

    @staticmethod
    def _check_fibre(op, payload):
        _, case, coords = op.data
        alg = case.algebra
        x_coords = [Fraction(q) for q in payload["x"]]
        tau_coords = [Fraction(q) for q in payload["x_tau"]]
        x, x_tau = _from_coords(alg, x_coords), _from_coords(alg, tau_coords)
        if coords is None and not case.in_slice(x):
            return "fibre: the point s(c) is not on the slice"
        if coords is not None and x_coords != coords:
            return f"fibre: x is {payload['x']}, not the requested point"
        if not case.in_slice(x_tau) or _power_traces(x) != _power_traces(x_tau):
            return "fibre: x_tau is not the slice point with the same invariant"
        if payload["projective_dim"] != 1 or len(payload["basis"]) != 2:
            return f"fibre: projective dimension {payload['projective_dim']}, expected 1"
        members = [Mat([[Fraction(q) for q in row] for row in m]) for m in payload["basis"]]
        a, b = (sum(m.rows, ()) for m in members)
        if all(a[i] * b[j] == a[j] * b[i] for i in range(4) for j in range(i + 1, 4)):
            return "fibre: the two basis members are proportional"
        pair = (alg.element(x_coords), alg.element(tau_coords))
        for m in members:
            if not wonderful.pgl2_model(alg, m).contains(pair):
                return "fibre: a basis member fails the pgl2 model certification"
        return None

    def digest(self, output):
        return output


WORKLOADS = {w.name: w for w in (VerifyAll, Limits, CliQueries)}
