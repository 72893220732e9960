"""Named verification suites behind the ``verify`` subcommand.

Every suite is a list of named checks mirroring the structural invariants
of one module.  Checks are deterministic functions of (seed, samples) and
report pass/fail with an input witness on failure, so a failing run pins
down an exact counterexample.  Sample counts written into the underlying
properties are floors: raising ``samples`` raises the effort, lowering it
never goes below the documented count.

A check is a module function ``check_foo_bar(config, algebras)`` that
returns its failure witness, a dict, or ``None`` when it passes.
Decorated with ``@check("suite")``, it joins ``SUITES[suite]`` in
definition order and returns a ``CheckResult`` named ``foo-bar`` after the
function (``check_name``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exactnum import LaurentPoly, Mat, sample_rational
from .liecore import (
    Ad,
    GroupElement,
    bracket,
    chi,
    killing,
    killing_covector,
    lie_algebra,
    sample_element,
    sample_group_element,
)
from .poissongeom import (
    CotangentPoint,
    check_moment_condition,
    cotangent_bivector_identity,
    cotangent_form,
    fundamental_vf,
    lie_poisson_bivector,
    moment_eval,
    product_bivector,
    transversal_check,
)
from .slices import (
    HamiltonianSpacePoint,
    compactified_fibre_pgl2,
    group_stabilizer_pgl2,
    k_tau,
    normalize_class,
    pi_maps_commute,
    psi_tau,
    slice_membership,
    stabilizer_infinitesimal,
    universal_centralizer_contains,
)
from .slodowy import (
    SliceError,
    chi_section,
    conjugate_to_slice,
    principal_slice,
    slodowy_slice,
    standard_triple,
)
from .wonderful import (
    CurveSubspace,
    LogCotangentPoint,
    chi_compatible,
    diagonal_subspace,
    graph_subspace,
    limit,
    pgl2_model,
)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Config:
    algebra: str = "a1"
    partition: tuple = ()
    seed: int = 0
    samples: int = 20

    def __post_init__(self):
        if self.algebra not in ("a1", "a2"):
            raise ConfigError(f"algebra must be a1 or a2, got {self.algebra!r}")
        n = self.n
        partition = tuple(self.partition) or (n,)
        object.__setattr__(self, "partition", partition)
        if sum(partition) != n or any(p < 1 for p in partition):
            raise ConfigError(f"{partition} is not a partition of {n}")
        if not isinstance(self.seed, int):
            raise ConfigError("seed must be an integer")
        if self.samples < 1:
            raise ConfigError("samples must be positive")

    @property
    def n(self) -> int:
        return 2 if self.algebra == "a1" else 3

    def echo(self) -> dict:
        return {
            "algebra": self.algebra,
            "partition": list(self.partition),
            "seed": self.seed,
            "samples": self.samples,
        }


@dataclass
class CheckResult:
    name: str
    status: str
    witness: dict | None = None


@dataclass
class SuiteReport:
    suite: str
    config: Config
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "suite": self.suite,
            "status": "pass" if self.passed else "fail",
            "config": self.config.echo(),
            "checks": [
                {"name": c.name, "status": c.status, "witness": _jsonable(c.witness)}
                for c in sorted(self.checks, key=lambda c: c.name)
            ],
        }


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, Mat):
        return [_jsonable(r) for r in value.rows]
    if hasattr(value, "coords"):
        return [_jsonable(c) for c in value.coords]
    return repr(value)


def _algebras(override):
    if override is None:
        return {2: lie_algebra(2), 3: lie_algebra(3)}
    return override


def check_name(check) -> str:
    """Report name of a check function: check_foo_bar reports as foo-bar."""
    return check.__name__[len("check_"):].replace("_", "-")


SUITES: dict = {}


def check(suite: str):
    """Register a witness function as the next check of ``suite``.

    The registered function is called as ``(config, algebras)`` and returns
    a ``CheckResult``: "pass" when the witness is ``None``, else "fail" with
    the witness.
    """

    def register(fn):
        name = check_name(fn)

        def run(config: Config, algebras) -> CheckResult:
            witness = fn(config, algebras)
            if witness is None:
                return CheckResult(name, "pass")
            return CheckResult(name, "fail", witness)

        # Not functools.wraps: benchmark/tracer.py takes a __wrapped__
        # attribute as the mark of an entry point it patched.
        run.__name__ = run.__qualname__ = fn.__name__
        SUITES.setdefault(suite, []).append(run)
        return run

    return register


def _samples(config: Config, floor: int):
    return range(max(floor, config.samples))


def _elements(alg, seed, i, k):
    """Sample i of a k-strided run: elements k*i, ..., k*i + k - 1."""
    return [sample_element(alg, seed, k * i + j) for j in range(k)]


# --- liecore checks -------------------------------------------------------


@check("liecore")
def check_jacobi_identity(config, algebras):
    for n in (2, 3):
        for i in _samples(config, 50):
            x, y, z = _elements(algebras[n], config.seed + 17, i, 3)
            total = (
                bracket(bracket(x, y), z)
                + bracket(bracket(y, z), x)
                + bracket(bracket(z, x), y)
            )
            if not total.is_zero():
                return {"n": n, "x": x, "y": y, "z": z, "residual": total}


@check("liecore")
def check_killing_invariance(config, algebras):
    for n in (2, 3):
        for i in _samples(config, 50):
            x, y, z = _elements(algebras[n], config.seed + 19, i, 3)
            if killing(bracket(x, y), z) + killing(y, bracket(x, z)) != 0:
                return {"n": n, "x": x, "y": y, "z": z}


@check("liecore")
def check_ad_invariance(config, algebras):
    for n in (2, 3):
        alg = algebras[n]
        for i in _samples(config, 20):
            g = sample_group_element(alg, config.seed + 23, i)
            x, y = _elements(alg, config.seed + 23, i, 2)
            if killing(Ad(g, x), Ad(g, y)) != killing(x, y):
                return {"n": n, "g": g.matrix, "x": x, "y": y}


@check("liecore")
def check_killing_trace_identity(config, algebras):
    for n in (2, 3):
        for i in _samples(config, 20):
            x, y = _elements(algebras[n], config.seed + 29, i, 2)
            if killing(x, y) != 2 * n * (x.matrix() @ y.matrix()).trace():
                return {"n": n, "x": x, "y": y}


@check("liecore")
def check_chi_invariance(config, algebras):
    for n in (2, 3):
        alg = algebras[n]
        for i in _samples(config, 20):
            g = sample_group_element(alg, config.seed + 31, i)
            x = sample_element(alg, config.seed + 31, i)
            if chi(Ad(g, x)) != chi(x):
                return {"n": n, "g": g.matrix, "x": x}


# --- slodowy checks -------------------------------------------------------

_SLICE_CASES = ((2, (2,)), (3, (3,)), (3, (2, 1)))


def _slice_for(algebras, n, partition):
    return slodowy_slice(standard_triple(algebras[n], partition))


@check("slodowy")
def check_slice_structure(config, algebras):
    for n, partition in _SLICE_CASES:
        slc = _slice_for(algebras, n, partition)
        if slc.dim() != len(slc.directions):
            return {"partition": partition}
        for d in slc.directions:
            if not slc.in_xi_plus_parabolic(slc.base + d):
                return {"partition": partition, "direction": d}
        even = 1 not in slc.grading.eigenvalues and -1 not in slc.grading.eigenvalues
        stab_is_nilradical = len(slc.stabilizer_nilradical) == len(slc.nilradical)
        if even != stab_is_nilradical:
            return {"partition": partition, "even": even, "stabilizer=nilradical": stab_is_nilradical}
        if slc.codim() != algebras[n].dim - slc.dim():
            return {"partition": partition}


def _sample_in_parabolic(slc, seed, i):
    y = slc.base
    for k, b in enumerate(slc.parabolic):
        y = y + sample_rational(seed, i * len(slc.parabolic) + k) * b
    return y


@check("slodowy")
def check_conjugation_roundtrip(config, algebras):
    for n in (2, 3):
        slc = _slice_for(algebras, n, (n,))
        for i in _samples(config, 50):
            y = _sample_in_parabolic(slc, config.seed + 37 + n, i)
            res = conjugate_to_slice(slc, y)
            if Ad(res.u, res.s) != y or not slc.contains(res.s):
                return {"n": n, "y": y}


@check("slodowy")
def check_conjugation_chi(config, algebras):
    for n in (2, 3):
        slc = _slice_for(algebras, n, (n,))
        for i in _samples(config, 50):
            y = _sample_in_parabolic(slc, config.seed + 41 + n, i)
            if chi(conjugate_to_slice(slc, y).s) != chi(y):
                return {"n": n, "y": y}


@check("slodowy")
def check_chi_section_idempotent(config, algebras):
    for n in (2, 3):
        slc = _slice_for(algebras, n, (n,))
        for i in _samples(config, 20):
            x = sample_element(algebras[n], config.seed + 43, i)
            s = chi_section(slc, x)
            if chi_section(slc, s) != s:
                return {"n": n, "x": x}


@check("slodowy")
def check_principality_detection(config, algebras):
    slc = _slice_for(algebras, 3, (2, 1))
    try:
        chi_section(slc, algebras[3].basis_element(0))
    except SliceError:
        return None
    return {"reason": "subregular slice accepted"}


# --- poisson checks -------------------------------------------------------


@check("poisson")
def check_lie_poisson_jacobi(config, algebras):
    for n in (2, 3):
        for i in _samples(config, 50):
            y, a, b, c = _elements(algebras[n], config.seed + 47, i, 4)
            total = (
                killing(y, bracket(bracket(a, b), c))
                + killing(y, bracket(bracket(b, c), a))
                + killing(y, bracket(bracket(c, a), b))
            )
            if total != 0:
                return {"n": n, "y": y}


@check("poisson")
def check_product_convention(config, algebras):
    alg = algebras[2]
    p1, p2 = (lie_poisson_bivector(alg, y) for y in _elements(alg, config.seed + 53, 0, 2))
    prod = product_bivector(p1, p2)
    for i in range(3):
        for j in range(3):
            if prod.matrix[i, j] != p1.matrix[i, j]:
                return {"block": "first"}
            if prod.matrix[3 + i, 3 + j] != -p2.matrix[i, j]:
                return {"block": "second"}
            if prod.matrix[i, 3 + j] != 0 or prod.matrix[3 + i, j] != 0:
                return {"block": "off"}


def _slice_case_points(config, algebras, offset):
    """(n, partition, slice tangent, point) over the slice cases, each slice built once."""
    for n, partition in _SLICE_CASES:
        slc = _slice_for(algebras, n, partition)
        tangent = [d.coords for d in slc.directions]
        for i in _samples(config, 20):
            coeffs = [
                sample_rational(config.seed + offset + n, slc.dim() * i + k)
                for k in range(slc.dim())
            ]
            yield n, partition, tangent, slc.point(coeffs)


@check("poisson")
def check_transversal_decomposition(config, algebras):
    expected = {(2, (2,)): 2, (3, (3,)): 6, (3, (2, 1)): 4}
    for n, partition, tangent, y in _slice_case_points(config, algebras, 59):
        result = transversal_check(lie_poisson_bivector(algebras[n], y), tangent)
        if not result.ok or len(result.complement_basis) != expected[(n, partition)]:
            return {"n": n, "partition": partition, "point": y}


@check("poisson")
def check_orbit_transversality(config, algebras):
    for n, partition, tangent, y in _slice_case_points(config, algebras, 61):
        alg = algebras[n]
        orbit = [fundamental_vf("lie-poisson", y, b) for b in alg.basis_elements()]
        if Mat(tangent + orbit).rank() != alg.dim:
            return {"n": n, "partition": partition, "point": y}


@check("poisson")
def check_moment_equivariance(config, algebras):
    alg = algebras[2]
    slc = principal_slice(alg)
    ident = GroupElement.identity(alg)
    for i in _samples(config, 20):
        g = sample_group_element(alg, config.seed + 67, 2 * i)
        g0 = sample_group_element(alg, config.seed + 67, 2 * i + 1)
        y = sample_element(alg, config.seed + 67, i)
        # rho under the pair action
        p = CotangentPoint(g0, y)
        moved = CotangentPoint(g * g0, y)
        if moment_eval("tstarg-left", moved) != Ad(g, moment_eval("tstarg-left", p)):
            return {"map": "rho_L", "i": i}
        # rho_tau on G x S_tau
        s = slc.point([sample_rational(config.seed + 67, i)])
        if moment_eval("g-stau", (g * g0, s), slc) != Ad(
            g, moment_eval("g-stau", (g0, s), slc)
        ):
            return {"map": "rho_tau", "i": i}
        # rho_bar_tau on Gbar x S_tau
        point = LogCotangentPoint(diagonal_subspace(alg), (s, s))
        moved_point = point.act(g, ident)
        if moment_eval("gbar-stau", moved_point, slc) != Ad(
            g, moment_eval("gbar-stau", point, slc)
        ):
            return {"map": "rho_bar_tau", "i": i}


@check("poisson")
def check_omega_bivector_roundtrip(config, algebras):
    for n in (2, 3):
        alg = algebras[n]
        ident = GroupElement.identity(alg)
        for i in _samples(config, 20):
            x, a, b, v, w = _elements(alg, config.seed + 71, i, 5)
            py, pz = cotangent_bivector_identity(
                x, killing_covector(a), killing_covector(b)
            )
            lhs = cotangent_form(CotangentPoint(ident, x), (py, pz), (v, w))
            if lhs != killing(a, v) + killing(b, w):
                return {"n": n, "x": x, "a": a, "b": b}


@check("poisson")
def check_moment_condition_lie_poisson(config, algebras):
    alg = algebras[config.n]
    for i in _samples(config, 20):
        y, b = _elements(alg, config.seed + 73, i, 2)
        ok, witness = check_moment_condition("lie-poisson", y, b)
        if not ok:
            return witness


@check("poisson")
def check_moment_condition_tstarg_right(config, algebras):
    alg = algebras[config.n]
    ident = GroupElement.identity(alg)
    for i in _samples(config, 20):
        x, b = _elements(alg, config.seed + 79, i, 2)
        ok, witness = check_moment_condition("tstarg-right", CotangentPoint(ident, x), b)
        if not ok:
            return witness


# --- wonderful checks -----------------------------------------------------


def _upper_curve(alg, a, c=0):
    """The group curve [[t^a, c], [0, 1]] in PGL_2."""
    rows = [
        [LaurentPoly.t_power(a), LaurentPoly.const(c)],
        [LaurentPoly.zero(), LaurentPoly.const(1)],
    ]
    return CurveSubspace.from_group_curve(alg, Mat(rows))


def _sample_curves(alg, seed, count):
    """Deterministic one-parameter curves in PGL_2: torus curves twisted by
    a constant upper- or lower-triangular factor."""
    curves = []
    for i in range(count):
        a = 1 + i % 3
        c = sample_rational(seed, i)
        if i % 2:
            rows = [
                [LaurentPoly.t_power(a), LaurentPoly.zero()],
                [LaurentPoly.const(c), LaurentPoly.t_power(-(i % 5))],
            ]
            curves.append(CurveSubspace.from_group_curve(alg, Mat(rows)))
        else:
            curves.append(_upper_curve(alg, a, c))
    return curves


@check("wonderful")
def check_graph_injectivity(config, algebras):
    alg = algebras[2]
    seen = {}
    for i in _samples(config, 20):
        g = sample_group_element(alg, config.seed + 83, i)
        gamma = graph_subspace(g)
        if gamma in seen and seen[gamma] != g:
            return {"g": g.matrix}
        seen[gamma] = g


@check("wonderful")
def check_limit_reparametrization(config, algebras):
    for i, curve in enumerate(_sample_curves(algebras[2], config.seed + 89, 10)):
        base = limit(curve)
        if limit(curve.substitute_power(2)) != base:
            return {"curve": i, "power": 2}
        units = [
            LaurentPoly.t_power(1, 2),
            LaurentPoly.const(3),
            LaurentPoly.t_power(-1),
        ]
        if limit(curve.scale_rows(units)) != base:
            return {"curve": i, "units": True}


@check("wonderful")
def check_limit_chi_compatibility(config, algebras):
    count = max(20, config.samples)
    for i, curve in enumerate(_sample_curves(algebras[2], config.seed + 97, 20)):
        ok, witness = chi_compatible(limit(curve), count, config.seed + 97 + i)
        if not ok:
            return {"curve": i, **witness}


@check("wonderful")
def check_pgl2_model_vs_limit(config, algebras):
    alg = algebras[2]
    for i in range(10):
        c = sample_rational(config.seed + 101, i)
        curve = _upper_curve(alg, 1 + i % 3, c)
        # the projective limit matrix of diag-dominant upper-triangular curves
        limit_matrix = Mat([[Fraction(0), c], [Fraction(0), Fraction(1)]])
        if limit(curve) != pgl2_model(alg, limit_matrix):
            return {"curve": i}


@check("wonderful")
def check_limit_methods_agree(config, algebras):
    # both limit algorithms run and are compared inside limit(); reaching
    # the end without an internal error is the assertion
    for curve in _sample_curves(algebras[2], config.seed + 103, 10):
        limit(curve)


@check("wonderful")
def check_boundary_criterion(config, algebras):
    count = max(20, config.samples)
    alg = algebras[2]
    # certified boundary points: chi-matching members but deficient projections
    for i in range(5):
        gamma = limit(_upper_curve(alg, 1 + i % 2))
        if not gamma.is_boundary():
            return {"i": i, "reason": "not boundary"}
        ok, witness = chi_compatible(gamma, count, config.seed + 107 + i)
        if not ok:
            return {"i": i, **witness}
        first, second = gamma.projection_ranks()
        if first == alg.dim and second == alg.dim:
            return {"i": i, "reason": "projections"}
    g = sample_group_element(alg, config.seed + 107, 0)
    if graph_subspace(g).is_boundary():
        return {"reason": "graph flagged"}


# --- slices checks --------------------------------------------------------


def _centralizing_element(slc, s):
    for a, b in ((1, 0), (2, 1), (1, 1), (3, 1), (3, 2)):
        m = Mat.identity(2).scale(Fraction(a)) + s.matrix().scale(Fraction(b))
        if m.det() != 0:
            return GroupElement(slc.algebra, m)
    raise AssertionError("no invertible centralizing element found")


def _tstarg_right_point(slc, seed, i):
    """The T*G point (g_i, s_i): a sampled group element over a sampled slice point."""
    g = sample_group_element(slc.algebra, seed, i)
    s = slc.point([sample_rational(seed, i)])
    return HamiltonianSpacePoint("tstarg-right", CotangentPoint(g, s))


@check("slices")
def check_universal_centralizer_agreement(config, algebras):
    alg = algebras[2]
    slc = principal_slice(alg)
    for i in _samples(config, 50):
        if i % 2 == 0:
            s = slc.point([sample_rational(config.seed + 109, i)])
            g = _centralizing_element(slc, s)
            y = s
        else:
            g = sample_group_element(alg, config.seed + 109, i)
            y = sample_element(alg, config.seed + 109, i)
        p = HamiltonianSpacePoint("tstarg-both", CotangentPoint(g, y))
        if slice_membership(p, slc) != universal_centralizer_contains(g, y, slc):
            return {"g": g.matrix, "y": y}


@check("slices")
def check_fibre_projective_dim(config, algebras):
    slc = principal_slice(algebras[2])
    params = [Fraction(0), Fraction(1), Fraction(4)] + [
        sample_rational(config.seed + 113, i) for i in range(5)
    ]
    for c in params:
        if compactified_fibre_pgl2(slc.point([c]), slc).projective_dim != 1:
            return {"c": c}


@check("slices")
def check_fibre_open_leaf(config, algebras):
    alg = algebras[2]
    slc = principal_slice(alg)
    s1 = slc.point([Fraction(1)])
    fibre = compactified_fibre_pgl2(s1, slc)
    for i in _samples(config, 10):
        a = sample_rational(config.seed + 127, 2 * i)
        b = sample_rational(config.seed + 127, 2 * i + 1)
        member = fibre.member((a, b))
        if member.is_zero():
            continue
        gamma = pgl2_model(alg, member)
        if member.det() != 0:
            g = GroupElement(alg, member)
            if not universal_centralizer_contains(g, s1, slc) or gamma.is_boundary():
                return {"member": member}
        elif not gamma.is_boundary():
            return {"member": member}
    boundary = fibre.boundary_members()
    expected = {
        pgl2_model(alg, Mat.identity(2) + s1.matrix()),
        pgl2_model(alg, Mat.identity(2) - s1.matrix()),
    }
    if {pgl2_model(alg, m) for m in boundary} != expected:
        return {"reason": "boundary classes"}


@check("slices")
def check_ktau_free_locus(config, algebras):
    slc = principal_slice(algebras[2])
    for i in _samples(config, 20):
        cls = k_tau(_tstarg_right_point(slc, config.seed + 131, i), slc)
        if stabilizer_infinitesimal(cls.second, cls.x):
            return {"i": i}


@check("slices")
def check_psi_zero_moment(config, algebras):
    alg = algebras[2]
    slc = principal_slice(alg)
    ident = GroupElement.identity(alg)
    for i in _samples(config, 20):
        x = _tstarg_right_point(slc, config.seed + 137, i)
        cls = psi_tau(x, slc)  # constructor enforces the zero-moment condition
        if cls.second[0] != ident or x.nu() != Ad(cls.second[0], cls.second[1]):
            return {"i": i}


@check("slices")
def check_diagram_commutes(config, algebras):
    alg = algebras[2]
    slc = principal_slice(alg)
    for i in _samples(config, 20):
        probe = sample_group_element(alg, config.seed + 139, 2 * i + 1)
        g = sample_group_element(alg, config.seed + 139, 2 * i)
        s = slc.point([sample_rational(config.seed + 139, i)])
        x = HamiltonianSpacePoint("tstarg-right", CotangentPoint(g, s))
        ok, witness = pi_maps_commute(x, slc, probe)
        if not ok:
            return {"X": "tstarg-right", **witness}
        y = HamiltonianSpacePoint("g-stau", (_centralizing_element(slc, s), s), slc)
        ok, witness = pi_maps_commute(y, slc, probe)
        if not ok:
            return {"X": "g-stau", **witness}


@check("slices")
def check_stabilizer_group_vs_infinitesimal(config, algebras):
    alg = algebras[2]
    slc = principal_slice(alg)
    cases = []
    for i in range(5):
        cls = k_tau(_tstarg_right_point(slc, config.seed + 149, i), slc)
        cases.append((cls.second, cls.x))
    boundary = limit(_upper_curve(alg, 1))
    cases.append((LogCotangentPoint(boundary, (alg.zero(), alg.named("e"))), None))
    h = alg.named("h")
    cases.append((LogCotangentPoint(diagonal_subspace(alg), (h, h)), None))
    for i in range(3):
        g = sample_group_element(alg, config.seed + 151, i)
        y = sample_element(alg, config.seed + 151, i)
        cases.append((LogCotangentPoint(graph_subspace(g), (Ad(g, y), y)), None))
    for idx, (second, x) in enumerate(cases):
        inf = stabilizer_infinitesimal(second, x)
        grp = group_stabilizer_pgl2(second, x)
        if len(inf) != len(grp):
            return {"case": idx, "infinitesimal": len(inf), "group": len(grp)}
        if inf:
            rows = [b.coords for b in inf] + [b.coords for b in grp]
            if Mat(rows).rank() != len(inf):
                return {"case": idx}


@check("slices")
def check_normalize_orbit_invariance(config, algebras):
    alg = algebras[2]
    slc = principal_slice(alg)
    cls = k_tau(_tstarg_right_point(slc, config.seed + 157, 0), slc)
    reference = normalize_class(cls)
    for i in range(10):
        g = sample_group_element(alg, config.seed + 157, i + 1)
        renorm = normalize_class(cls.act(g))
        same = (
            renorm.x == reference.x
            and renorm.second.gamma == reference.second.gamma
            and renorm.second.pair == reference.second.pair
        )
        if not same:
            return {"i": i}


def suite_names():
    return tuple(SUITES) + ("all",)


def run_suite(name: str, config: Config, algebras=None) -> SuiteReport:
    """Execute every check of the named suite; 'all' concatenates them all.

    An exception raised inside a check becomes that check's result, with
    status "error" and the exception as its witness, so the report is
    always complete.  ``algebras`` overrides the cached algebra per rank,
    which the tests use to inject corrupted structure constants.
    """
    if name not in suite_names():
        raise ConfigError(f"unknown suite {name!r} (expected one of {suite_names()})")
    algebras = _algebras(algebras)
    report = SuiteReport(name, config)
    selected = SUITES[name] if name != "all" else [c for s in SUITES.values() for c in s]
    for fn in selected:
        try:
            result = fn(config, algebras)
        except Exception as exc:
            witness = {"type": type(exc).__name__, "message": str(exc)}
            result = CheckResult(check_name(fn), "error", witness)
        report.checks.append(result)
    return report
