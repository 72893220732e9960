"""Named verification suites behind the ``verify`` subcommand.

Every suite is a list of named checks mirroring the structural invariants
of one module.  Checks are deterministic functions of (seed, samples) and
report pass/fail with an input witness on failure, so a failing run pins
down an exact counterexample.  Sample counts written into the underlying
properties are floors: raising ``samples`` raises the effort, lowering it
never goes below the documented count.
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
        n = 2 if self.algebra == "a1" else 3
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


# --- liecore checks -------------------------------------------------------


def check_jacobi_identity(config: Config, algebras) -> CheckResult:
    count = max(50, config.samples)
    for n in (2, 3):
        alg = algebras[n]
        for i in range(count):
            x = sample_element(alg, config.seed + 17, 3 * i)
            y = sample_element(alg, config.seed + 17, 3 * i + 1)
            z = sample_element(alg, config.seed + 17, 3 * i + 2)
            total = (
                bracket(bracket(x, y), z)
                + bracket(bracket(y, z), x)
                + bracket(bracket(z, x), y)
            )
            if not total.is_zero():
                return CheckResult(
                    "jacobi-identity",
                    "fail",
                    {"n": n, "x": x, "y": y, "z": z, "residual": total},
                )
    return CheckResult("jacobi-identity", "pass")


def check_killing_invariance(config: Config, algebras) -> CheckResult:
    count = max(50, config.samples)
    for n in (2, 3):
        alg = algebras[n]
        for i in range(count):
            x = sample_element(alg, config.seed + 19, 3 * i)
            y = sample_element(alg, config.seed + 19, 3 * i + 1)
            z = sample_element(alg, config.seed + 19, 3 * i + 2)
            if killing(bracket(x, y), z) + killing(y, bracket(x, z)) != 0:
                return CheckResult(
                    "killing-invariance", "fail", {"n": n, "x": x, "y": y, "z": z}
                )
    return CheckResult("killing-invariance", "pass")


def check_ad_invariance(config: Config, algebras) -> CheckResult:
    count = max(20, config.samples)
    for n in (2, 3):
        alg = algebras[n]
        for i in range(count):
            g = sample_group_element(alg, config.seed + 23, i)
            x = sample_element(alg, config.seed + 23, 2 * i)
            y = sample_element(alg, config.seed + 23, 2 * i + 1)
            if killing(Ad(g, x), Ad(g, y)) != killing(x, y):
                return CheckResult("ad-invariance", "fail", {"n": n, "g": g.matrix, "x": x, "y": y})
    return CheckResult("ad-invariance", "pass")


def check_killing_trace_identity(config: Config, algebras) -> CheckResult:
    count = max(20, config.samples)
    for n in (2, 3):
        alg = algebras[n]
        for i in range(count):
            x = sample_element(alg, config.seed + 29, 2 * i)
            y = sample_element(alg, config.seed + 29, 2 * i + 1)
            if killing(x, y) != 2 * n * (x.matrix() @ y.matrix()).trace():
                return CheckResult("killing-trace-identity", "fail", {"n": n, "x": x, "y": y})
    return CheckResult("killing-trace-identity", "pass")


def check_chi_invariance(config: Config, algebras) -> CheckResult:
    count = max(20, config.samples)
    for n in (2, 3):
        alg = algebras[n]
        for i in range(count):
            g = sample_group_element(alg, config.seed + 31, i)
            x = sample_element(alg, config.seed + 31, i)
            if chi(Ad(g, x)) != chi(x):
                return CheckResult("chi-invariance", "fail", {"n": n, "g": g.matrix, "x": x})
    return CheckResult("chi-invariance", "pass")


# --- slodowy checks -------------------------------------------------------

_SLICE_CASES = ((2, (2,)), (3, (3,)), (3, (2, 1)))


def _slice_for(algebras, n, partition):
    return slodowy_slice(standard_triple(algebras[n], partition))


def check_slice_structure(config: Config, algebras) -> CheckResult:
    for n, partition in _SLICE_CASES:
        slc = _slice_for(algebras, n, partition)
        alg = algebras[n]
        if slc.dim() != len(slc.directions):
            return CheckResult("slice-structure", "fail", {"partition": partition})
        for d in slc.directions:
            if not slc.in_xi_plus_parabolic(slc.base + d):
                return CheckResult(
                    "slice-structure", "fail", {"partition": partition, "direction": d}
                )
        even = 1 not in slc.grading.eigenvalues and -1 not in slc.grading.eigenvalues
        stab_is_nilradical = len(slc.stabilizer_nilradical) == len(slc.nilradical)
        if even != stab_is_nilradical:
            return CheckResult(
                "slice-structure",
                "fail",
                {"partition": partition, "even": even, "stabilizer=nilradical": stab_is_nilradical},
            )
        if slc.codim() != alg.dim - slc.dim():
            return CheckResult("slice-structure", "fail", {"partition": partition})
    return CheckResult("slice-structure", "pass")


def _sample_in_parabolic(slc, seed, i):
    y = slc.base
    for k, b in enumerate(slc.parabolic):
        y = y + sample_rational(seed, i * len(slc.parabolic) + k) * b
    return y


def check_conjugation_roundtrip(config: Config, algebras) -> CheckResult:
    count = max(50, config.samples)
    for n in (2, 3):
        slc = _slice_for(algebras, n, (n,))
        for i in range(count):
            y = _sample_in_parabolic(slc, config.seed + 37 + n, i)
            res = conjugate_to_slice(slc, y)
            if Ad(res.u, res.s) != y or not slc.contains(res.s):
                return CheckResult("conjugation-roundtrip", "fail", {"n": n, "y": y})
    return CheckResult("conjugation-roundtrip", "pass")


def check_conjugation_chi(config: Config, algebras) -> CheckResult:
    count = max(50, config.samples)
    for n in (2, 3):
        slc = _slice_for(algebras, n, (n,))
        for i in range(count):
            y = _sample_in_parabolic(slc, config.seed + 41 + n, i)
            res = conjugate_to_slice(slc, y)
            if chi(res.s) != chi(y):
                return CheckResult("conjugation-chi", "fail", {"n": n, "y": y})
    return CheckResult("conjugation-chi", "pass")


def check_chi_section_idempotent(config: Config, algebras) -> CheckResult:
    count = max(20, config.samples)
    for n in (2, 3):
        alg = algebras[n]
        slc = _slice_for(algebras, n, (n,))
        for i in range(count):
            x = sample_element(alg, config.seed + 43, i)
            s = chi_section(slc, x)
            if chi_section(slc, s) != s:
                return CheckResult("chi-section-idempotent", "fail", {"n": n, "x": x})
    return CheckResult("chi-section-idempotent", "pass")


def check_principality_detection(config: Config, algebras) -> CheckResult:
    slc = _slice_for(algebras, 3, (2, 1))
    try:
        chi_section(slc, algebras[3].basis_element(0))
    except SliceError:
        return CheckResult("principality-detection", "pass")
    return CheckResult(
        "principality-detection", "fail", {"reason": "subregular slice accepted"}
    )


# --- poisson checks -------------------------------------------------------


def check_lie_poisson_jacobi(config: Config, algebras) -> CheckResult:
    count = max(50, config.samples)
    for n in (2, 3):
        alg = algebras[n]
        for i in range(count):
            y = sample_element(alg, config.seed + 47, 4 * i)
            a = sample_element(alg, config.seed + 47, 4 * i + 1)
            b = sample_element(alg, config.seed + 47, 4 * i + 2)
            c = sample_element(alg, config.seed + 47, 4 * i + 3)
            total = (
                killing(y, bracket(bracket(a, b), c))
                + killing(y, bracket(bracket(b, c), a))
                + killing(y, bracket(bracket(c, a), b))
            )
            if total != 0:
                return CheckResult("lie-poisson-jacobi", "fail", {"n": n, "y": y})
    return CheckResult("lie-poisson-jacobi", "pass")


def check_product_convention(config: Config, algebras) -> CheckResult:
    alg = algebras[2]
    p1 = lie_poisson_bivector(alg, sample_element(alg, config.seed + 53, 0))
    p2 = lie_poisson_bivector(alg, sample_element(alg, config.seed + 53, 1))
    prod = product_bivector(p1, p2)
    for i in range(3):
        for j in range(3):
            if prod.matrix[i, j] != p1.matrix[i, j]:
                return CheckResult("product-convention", "fail", {"block": "first"})
            if prod.matrix[3 + i, 3 + j] != -p2.matrix[i, j]:
                return CheckResult("product-convention", "fail", {"block": "second"})
            if prod.matrix[i, 3 + j] != 0 or prod.matrix[3 + i, j] != 0:
                return CheckResult("product-convention", "fail", {"block": "off"})
    return CheckResult("product-convention", "pass")


def check_transversal_decomposition(config: Config, algebras) -> CheckResult:
    count = max(20, config.samples)
    expected = {(2, (2,)): 2, (3, (3,)): 6, (3, (2, 1)): 4}
    for n, partition in _SLICE_CASES:
        alg = algebras[n]
        slc = _slice_for(algebras, n, partition)
        tangent = [d.coords for d in slc.directions]
        for i in range(count):
            coeffs = [
                sample_rational(config.seed + 59 + n, slc.dim() * i + k)
                for k in range(slc.dim())
            ]
            y = slc.point(coeffs)
            result = transversal_check(lie_poisson_bivector(alg, y), tangent)
            if not result.ok or len(result.complement_basis) != expected[(n, partition)]:
                return CheckResult(
                    "transversal-decomposition",
                    "fail",
                    {"n": n, "partition": partition, "point": y},
                )
    return CheckResult("transversal-decomposition", "pass")


def check_orbit_transversality(config: Config, algebras) -> CheckResult:
    count = max(20, config.samples)
    for n, partition in _SLICE_CASES:
        alg = algebras[n]
        slc = _slice_for(algebras, n, partition)
        tangent = [d.coords for d in slc.directions]
        for i in range(count):
            coeffs = [
                sample_rational(config.seed + 61 + n, slc.dim() * i + k)
                for k in range(slc.dim())
            ]
            y = slc.point(coeffs)
            orbit = [fundamental_vf("lie-poisson", y, b) for b in alg.basis_elements()]
            if Mat(tangent + orbit).rank() != alg.dim:
                return CheckResult(
                    "orbit-transversality",
                    "fail",
                    {"n": n, "partition": partition, "point": y},
                )
    return CheckResult("orbit-transversality", "pass")


def check_moment_equivariance(config: Config, algebras) -> CheckResult:
    count = max(20, config.samples)
    alg = algebras[2]
    slc = principal_slice(alg)
    ident = GroupElement.identity(alg)
    for i in range(count):
        g = sample_group_element(alg, config.seed + 67, 2 * i)
        g0 = sample_group_element(alg, config.seed + 67, 2 * i + 1)
        y = sample_element(alg, config.seed + 67, i)
        # rho under the pair action
        p = CotangentPoint(g0, y)
        moved = CotangentPoint(g * g0, y)
        if moment_eval("tstarg-left", moved) != Ad(g, moment_eval("tstarg-left", p)):
            return CheckResult("moment-equivariance", "fail", {"map": "rho_L", "i": i})
        # rho_tau on G x S_tau
        s = slc.point([sample_rational(config.seed + 67, i)])
        if moment_eval("g-stau", (g * g0, s), slc) != Ad(
            g, moment_eval("g-stau", (g0, s), slc)
        ):
            return CheckResult("moment-equivariance", "fail", {"map": "rho_tau", "i": i})
        # rho_bar_tau on Gbar x S_tau
        point = LogCotangentPoint(diagonal_subspace(alg), (s, s))
        moved_point = point.act(g, ident)
        if moment_eval("gbar-stau", moved_point, slc) != Ad(
            g, moment_eval("gbar-stau", point, slc)
        ):
            return CheckResult("moment-equivariance", "fail", {"map": "rho_bar_tau", "i": i})
    return CheckResult("moment-equivariance", "pass")


def check_omega_bivector_roundtrip(config: Config, algebras) -> CheckResult:
    count = max(20, config.samples)
    for n in (2, 3):
        alg = algebras[n]
        ident = GroupElement.identity(alg)
        for i in range(count):
            x = sample_element(alg, config.seed + 71, 5 * i)
            a = sample_element(alg, config.seed + 71, 5 * i + 1)
            b = sample_element(alg, config.seed + 71, 5 * i + 2)
            v = sample_element(alg, config.seed + 71, 5 * i + 3)
            w = sample_element(alg, config.seed + 71, 5 * i + 4)
            py, pz = cotangent_bivector_identity(
                x, killing_covector(a), killing_covector(b)
            )
            lhs = cotangent_form(CotangentPoint(ident, x), (py, pz), (v, w))
            if lhs != killing(a, v) + killing(b, w):
                return CheckResult(
                    "omega-bivector-roundtrip", "fail", {"n": n, "x": x, "a": a, "b": b}
                )
    return CheckResult("omega-bivector-roundtrip", "pass")


def check_moment_condition_lie_poisson(config: Config, algebras) -> CheckResult:
    count = max(20, config.samples)
    alg = algebras[config.n]
    for i in range(count):
        y = sample_element(alg, config.seed + 73, 2 * i)
        b = sample_element(alg, config.seed + 73, 2 * i + 1)
        ok, witness = check_moment_condition("lie-poisson", y, b)
        if not ok:
            return CheckResult("moment-condition-lie-poisson", "fail", witness)
    return CheckResult("moment-condition-lie-poisson", "pass")


def check_moment_condition_tstarg_right(config: Config, algebras) -> CheckResult:
    count = max(20, config.samples)
    alg = algebras[config.n]
    ident = GroupElement.identity(alg)
    for i in range(count):
        x = sample_element(alg, config.seed + 79, 2 * i)
        b = sample_element(alg, config.seed + 79, 2 * i + 1)
        ok, witness = check_moment_condition("tstarg-right", CotangentPoint(ident, x), b)
        if not ok:
            return CheckResult("moment-condition-tstarg-right", "fail", witness)
    return CheckResult("moment-condition-tstarg-right", "pass")


# --- wonderful checks -----------------------------------------------------


def _sample_curves(alg, seed, count):
    """Deterministic one-parameter curves in PGL_2: torus curves twisted by
    a constant upper-triangular factor."""
    curves = []
    for i in range(count):
        a = 1 + i % 3
        c = sample_rational(seed, i)
        rows = [
            [LaurentPoly.t_power(a), LaurentPoly.const(c)],
            [LaurentPoly.zero(), LaurentPoly.const(1)],
        ]
        if i % 2:
            rows = [
                [LaurentPoly.t_power(a), LaurentPoly.zero()],
                [LaurentPoly.const(c), LaurentPoly.t_power(-(i % 5))],
            ]
        curves.append(CurveSubspace.from_group_curve(alg, Mat(rows)))
    return curves


def check_graph_injectivity(config: Config, algebras) -> CheckResult:
    count = max(20, config.samples)
    alg = algebras[2]
    seen = {}
    for i in range(count):
        g = sample_group_element(alg, config.seed + 83, i)
        gamma = graph_subspace(g)
        if gamma.plucker in seen and seen[gamma.plucker] != g:
            return CheckResult("graph-injectivity", "fail", {"g": g.matrix})
        seen[gamma.plucker] = g
    return CheckResult("graph-injectivity", "pass")


def check_limit_reparametrization(config: Config, algebras) -> CheckResult:
    alg = algebras[2]
    for i, curve in enumerate(_sample_curves(alg, config.seed + 89, 10)):
        base = limit(curve)
        if limit(curve.substitute_power(2)) != base:
            return CheckResult("limit-reparametrization", "fail", {"curve": i, "power": 2})
        units = [
            LaurentPoly.t_power(1, 2),
            LaurentPoly.const(3),
            LaurentPoly.t_power(-1),
        ]
        if limit(curve.scale_rows(units)) != base:
            return CheckResult("limit-reparametrization", "fail", {"curve": i, "units": True})
    return CheckResult("limit-reparametrization", "pass")


def check_limit_chi_compatibility(config: Config, algebras) -> CheckResult:
    count = max(20, config.samples)
    alg = algebras[2]
    for i, curve in enumerate(_sample_curves(alg, config.seed + 97, 20)):
        gamma = limit(curve)
        ok, witness = chi_compatible(gamma, count, config.seed + 97 + i)
        if not ok:
            return CheckResult("limit-chi-compatibility", "fail", {"curve": i, **witness})
    return CheckResult("limit-chi-compatibility", "pass")


def check_pgl2_model_vs_limit(config: Config, algebras) -> CheckResult:
    alg = algebras[2]
    for i in range(10):
        a = 1 + i % 3
        c = sample_rational(config.seed + 101, i)
        rows = [
            [LaurentPoly.t_power(a), LaurentPoly.const(c)],
            [LaurentPoly.zero(), LaurentPoly.const(1)],
        ]
        curve = CurveSubspace.from_group_curve(alg, Mat(rows))
        # the projective limit matrix of diag-dominant upper-triangular curves
        limit_matrix = Mat([[Fraction(0), c], [Fraction(0), Fraction(1)]])
        if c == 0:
            limit_matrix = Mat([[Fraction(0), Fraction(0)], [Fraction(0), Fraction(1)]])
        if limit(curve) != pgl2_model(alg, limit_matrix):
            return CheckResult("pgl2-model-vs-limit", "fail", {"curve": i})
    return CheckResult("pgl2-model-vs-limit", "pass")


def check_limit_methods_agree(config: Config, algebras) -> CheckResult:
    # both limit algorithms run and are compared inside limit(); reaching
    # the end without an internal error is the assertion
    alg = algebras[2]
    for i, curve in enumerate(_sample_curves(alg, config.seed + 103, 10)):
        limit(curve)
    return CheckResult("limit-methods-agree", "pass")


def check_boundary_criterion(config: Config, algebras) -> CheckResult:
    count = max(20, config.samples)
    alg = algebras[2]
    slc = principal_slice(alg)
    # certified boundary points: chi-matching members but deficient projections
    for i in range(5):
        a = 1 + i % 2
        rows = [
            [LaurentPoly.t_power(a), LaurentPoly.zero()],
            [LaurentPoly.zero(), LaurentPoly.const(1)],
        ]
        gamma = limit(CurveSubspace.from_group_curve(alg, Mat(rows)))
        if not gamma.is_boundary():
            return CheckResult("boundary-criterion", "fail", {"i": i, "reason": "not boundary"})
        ok, witness = chi_compatible(gamma, count, config.seed + 107 + i)
        if not ok:
            return CheckResult("boundary-criterion", "fail", {"i": i, **witness})
        first, second = gamma.projection_ranks()
        if first == alg.dim and second == alg.dim:
            return CheckResult("boundary-criterion", "fail", {"i": i, "reason": "projections"})
    g = sample_group_element(alg, config.seed + 107, 0)
    if graph_subspace(g).is_boundary():
        return CheckResult("boundary-criterion", "fail", {"reason": "graph flagged"})
    return CheckResult("boundary-criterion", "pass")


# --- slices checks --------------------------------------------------------


def _centralizing_element(slc, s):
    for a, b in ((1, 0), (2, 1), (1, 1), (3, 1), (3, 2)):
        m = Mat.identity(2).scale(Fraction(a)) + s.matrix().scale(Fraction(b))
        if m.det() != 0:
            return GroupElement(slc.algebra, m)
    raise AssertionError("no invertible centralizing element found")


def check_universal_centralizer_agreement(config: Config, algebras) -> CheckResult:
    count = max(50, config.samples)
    alg = algebras[2]
    slc = principal_slice(alg)
    for i in range(count):
        if i % 2 == 0:
            s = slc.point([sample_rational(config.seed + 109, i)])
            g = _centralizing_element(slc, s)
            y = s
        else:
            g = sample_group_element(alg, config.seed + 109, i)
            y = sample_element(alg, config.seed + 109, i)
        p = HamiltonianSpacePoint("tstarg-both", CotangentPoint(g, y))
        if slice_membership(p, slc) != universal_centralizer_contains(g, y, slc):
            return CheckResult(
                "universal-centralizer-agreement", "fail", {"g": g.matrix, "y": y}
            )
    return CheckResult("universal-centralizer-agreement", "pass")


def check_fibre_projective_dim(config: Config, algebras) -> CheckResult:
    alg = algebras[2]
    slc = principal_slice(alg)
    params = [Fraction(0), Fraction(1), Fraction(4)] + [
        sample_rational(config.seed + 113, i) for i in range(5)
    ]
    for c in params:
        fibre = compactified_fibre_pgl2(slc.point([c]), slc)
        if fibre.projective_dim != 1:
            return CheckResult("fibre-projective-dim", "fail", {"c": c})
    return CheckResult("fibre-projective-dim", "pass")


def check_fibre_open_leaf(config: Config, algebras) -> CheckResult:
    alg = algebras[2]
    slc = principal_slice(alg)
    s1 = slc.point([Fraction(1)])
    fibre = compactified_fibre_pgl2(s1, slc)
    for i in range(max(10, config.samples)):
        a = sample_rational(config.seed + 127, 2 * i)
        b = sample_rational(config.seed + 127, 2 * i + 1)
        member = fibre.member((a, b))
        if member.is_zero():
            continue
        gamma = pgl2_model(alg, member)
        if member.det() != 0:
            g = GroupElement(alg, member)
            if not universal_centralizer_contains(g, s1, slc):
                return CheckResult("fibre-open-leaf", "fail", {"member": member})
            if gamma.is_boundary():
                return CheckResult("fibre-open-leaf", "fail", {"member": member})
        else:
            if not gamma.is_boundary():
                return CheckResult("fibre-open-leaf", "fail", {"member": member})
    boundary = fibre.boundary_members()
    expected = {
        pgl2_model(alg, Mat.identity(2) + s1.matrix()),
        pgl2_model(alg, Mat.identity(2) - s1.matrix()),
    }
    if {pgl2_model(alg, m) for m in boundary} != expected:
        return CheckResult("fibre-open-leaf", "fail", {"reason": "boundary classes"})
    return CheckResult("fibre-open-leaf", "pass")


def check_ktau_free_locus(config: Config, algebras) -> CheckResult:
    count = max(20, config.samples)
    alg = algebras[2]
    slc = principal_slice(alg)
    for i in range(count):
        g = sample_group_element(alg, config.seed + 131, i)
        s = slc.point([sample_rational(config.seed + 131, i)])
        x = HamiltonianSpacePoint("tstarg-right", CotangentPoint(g, s))
        cls = k_tau(x, slc)
        if stabilizer_infinitesimal(cls.second, cls.x):
            return CheckResult("ktau-free-locus", "fail", {"i": i})
    return CheckResult("ktau-free-locus", "pass")


def check_psi_zero_moment(config: Config, algebras) -> CheckResult:
    count = max(20, config.samples)
    alg = algebras[2]
    slc = principal_slice(alg)
    for i in range(count):
        g = sample_group_element(alg, config.seed + 137, i)
        s = slc.point([sample_rational(config.seed + 137, i)])
        x = HamiltonianSpacePoint("tstarg-right", CotangentPoint(g, s))
        cls = psi_tau(x, slc)  # constructor enforces the zero-moment condition
        ident = GroupElement.identity(alg)
        if cls.second[0] != ident or x.nu() != Ad(cls.second[0], cls.second[1]):
            return CheckResult("psi-zero-moment", "fail", {"i": i})
    return CheckResult("psi-zero-moment", "pass")


def check_diagram_commutes(config: Config, algebras) -> CheckResult:
    count = max(20, config.samples)
    alg = algebras[2]
    slc = principal_slice(alg)
    for i in range(count):
        probe = sample_group_element(alg, config.seed + 139, 2 * i + 1)
        g = sample_group_element(alg, config.seed + 139, 2 * i)
        s = slc.point([sample_rational(config.seed + 139, i)])
        x = HamiltonianSpacePoint("tstarg-right", CotangentPoint(g, s))
        ok, witness = pi_maps_commute(x, slc, probe)
        if not ok:
            return CheckResult("diagram-commutes", "fail", {"X": "tstarg-right", **witness})
        gc = _centralizing_element(slc, s)
        y = HamiltonianSpacePoint("g-stau", (gc, s), slc)
        ok, witness = pi_maps_commute(y, slc, probe)
        if not ok:
            return CheckResult("diagram-commutes", "fail", {"X": "g-stau", **witness})
    return CheckResult("diagram-commutes", "pass")


def check_stabilizer_group_vs_infinitesimal(config: Config, algebras) -> CheckResult:
    alg = algebras[2]
    slc = principal_slice(alg)
    cases = []
    for i in range(5):
        g = sample_group_element(alg, config.seed + 149, i)
        s = slc.point([sample_rational(config.seed + 149, i)])
        x = HamiltonianSpacePoint("tstarg-right", CotangentPoint(g, s))
        cls = k_tau(x, slc)
        cases.append((cls.second, cls.x))
    boundary = limit(
        CurveSubspace.from_group_curve(
            alg,
            Mat(
                [
                    [LaurentPoly.t_power(1), LaurentPoly.zero()],
                    [LaurentPoly.zero(), LaurentPoly.const(1)],
                ]
            ),
        )
    )
    cases.append((LogCotangentPoint(boundary, (alg.zero(), alg.named("e"))), None))
    diag = diagonal_subspace(alg)
    h = alg.named("h")
    cases.append((LogCotangentPoint(diag, (h, h)), None))
    for i in range(3):
        g = sample_group_element(alg, config.seed + 151, i)
        y = sample_element(alg, config.seed + 151, i)
        cases.append((LogCotangentPoint(graph_subspace(g), (Ad(g, y), y)), None))
    for idx, (second, x) in enumerate(cases):
        inf = stabilizer_infinitesimal(second, x)
        grp = group_stabilizer_pgl2(second, x)
        if len(inf) != len(grp):
            return CheckResult(
                "stabilizer-group-vs-infinitesimal",
                "fail",
                {"case": idx, "infinitesimal": len(inf), "group": len(grp)},
            )
        if inf:
            rows = [b.coords for b in inf] + [b.coords for b in grp]
            if Mat(rows).rank() != len(inf):
                return CheckResult(
                    "stabilizer-group-vs-infinitesimal", "fail", {"case": idx}
                )
    return CheckResult("stabilizer-group-vs-infinitesimal", "pass")


def check_normalize_orbit_invariance(config: Config, algebras) -> CheckResult:
    alg = algebras[2]
    slc = principal_slice(alg)
    g0 = sample_group_element(alg, config.seed + 157, 0)
    s = slc.point([sample_rational(config.seed + 157, 0)])
    x = HamiltonianSpacePoint("tstarg-right", CotangentPoint(g0, s))
    cls = k_tau(x, slc)
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
            return CheckResult("normalize-orbit-invariance", "fail", {"i": i})
    return CheckResult("normalize-orbit-invariance", "pass")


SUITES = {
    "liecore": (
        check_jacobi_identity,
        check_killing_invariance,
        check_ad_invariance,
        check_killing_trace_identity,
        check_chi_invariance,
    ),
    "slodowy": (
        check_slice_structure,
        check_conjugation_roundtrip,
        check_conjugation_chi,
        check_chi_section_idempotent,
        check_principality_detection,
    ),
    "poisson": (
        check_lie_poisson_jacobi,
        check_product_convention,
        check_transversal_decomposition,
        check_orbit_transversality,
        check_moment_equivariance,
        check_omega_bivector_roundtrip,
        check_moment_condition_lie_poisson,
        check_moment_condition_tstarg_right,
    ),
    "wonderful": (
        check_graph_injectivity,
        check_limit_reparametrization,
        check_limit_chi_compatibility,
        check_pgl2_model_vs_limit,
        check_limit_methods_agree,
        check_boundary_criterion,
    ),
    "slices": (
        check_universal_centralizer_agreement,
        check_fibre_projective_dim,
        check_fibre_open_leaf,
        check_ktau_free_locus,
        check_psi_zero_moment,
        check_diagram_commutes,
        check_stabilizer_group_vs_infinitesimal,
        check_normalize_orbit_invariance,
    ),
}


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
    for check in selected:
        try:
            result = check(config, algebras)
        except Exception as exc:
            witness = {"type": type(exc).__name__, "message": str(exc)}
            result = CheckResult(check_name(check), "error", witness)
        report.checks.append(result)
    return report


def check_name(check) -> str:
    """Report name of a check function: check_foo_bar reports as foo-bar."""
    return check.__name__[len("check_"):].replace("_", "-")
