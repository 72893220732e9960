import dataclasses
import json

import pytest

from slicelab import cli, exactnum, poissongeom, suites
from slicelab.exactnum import Mat
from slicelab.liecore import LieAlgebra, lie_algebra
from slicelab.suites import SUITES, Config, ConfigError, check_name, run_suite, suite_names


def corrupted_sl2():
    """Fresh sl2 with one structure constant broken; Jacobi must catch it."""
    alg = LieAlgebra(2)
    table = [list(row) for row in alg._bracket_table]
    # [e, f] reads h; tamper it into h + e
    e_idx, f_idx = 0, 2
    wrong = list(table[e_idx][f_idx])
    wrong[0] = wrong[0] + 1
    table[e_idx][f_idx] = tuple(wrong)
    alg._bracket_table = tuple(tuple(row) for row in table)
    return alg


class TestConfig:
    def test_defaults(self):
        c = Config()
        assert c.algebra == "a1"
        assert c.partition == (2,)
        assert c.samples == 20

    def test_partition_defaults_to_principal(self):
        c = Config(algebra="a2")
        assert c.partition == (3,)

    def test_validation(self):
        with pytest.raises(ConfigError):
            Config(algebra="b2")
        with pytest.raises(ConfigError):
            Config(algebra="a1", partition=(3,))
        with pytest.raises(ConfigError):
            Config(samples=0)


@pytest.fixture(scope="module")
def all_report():
    """One run of every check at samples=2, shared by the pass, count and naming tests."""
    return run_suite("all", Config(samples=2))


def suite_slices(report):
    """The report's checks cut into per-suite runs, in SUITES order."""
    start = 0
    for name, checks in SUITES.items():
        yield name, report.checks[start:start + len(checks)]
        start += len(checks)


class TestRunSuite:
    def test_every_suite_passes_with_low_samples(self, all_report):
        for name, checks in suite_slices(all_report):
            assert [c.name for c in checks] == [check_name(fn) for fn in SUITES[name]]
            assert all(c.status == "pass" for c in checks), [
                c for c in checks if c.status != "pass"
            ]

    def test_all_concatenates(self, all_report):
        total = sum(len(SUITES[name]) for name in suite_names() if name != "all")
        assert len(all_report.checks) == total

    def test_unknown_suite(self):
        with pytest.raises(ConfigError):
            run_suite("nope", Config())

    def test_report_shape(self):
        report = run_suite("liecore", Config(samples=2))
        data = report.to_dict()
        assert data["schema"] == 1
        assert data["status"] == "pass"
        names = [c["name"] for c in data["checks"]]
        assert names == sorted(names)
        json.dumps(data)  # serializable

    def test_deterministic_at_api_level(self):
        a = run_suite("slices", Config(seed=7, samples=3)).to_dict()
        b = run_suite("slices", Config(seed=7, samples=3)).to_dict()
        assert a == b

    def test_corrupted_bracket_table_fails_jacobi_with_witness(self):
        algebras = {2: corrupted_sl2(), 3: lie_algebra(3)}
        report = run_suite("liecore", Config(samples=2), algebras=algebras)
        assert not report.passed
        jacobi = next(c for c in report.checks if c.name == "jacobi-identity")
        assert jacobi.status == "fail"
        assert jacobi.witness is not None
        assert "x" in jacobi.witness and "residual" in jacobi.witness

    def test_witness_serializes(self):
        algebras = {2: corrupted_sl2(), 3: lie_algebra(3)}
        report = run_suite("liecore", Config(samples=2), algebras=algebras)
        json.dumps(report.to_dict())


def plant(monkeypatch, tag, **changes):
    """Swap one entry of the space table for a copy with the given fields."""
    model = dataclasses.replace(poissongeom.SPACES[tag], **changes)
    monkeypatch.setitem(poissongeom.SPACES, tag, model)


def check_named(report, name):
    return next(c for c in report.checks if c.name == name)


class TestPlantedSpaceFaults:
    def test_moment_condition_sign_flip(self, monkeypatch):
        condition = poissongeom.SPACES["tstarg-right"].moment_condition
        plant(monkeypatch, "tstarg-right", moment_condition=dataclasses.replace(condition, sign=1))
        report = run_suite("poisson", Config(samples=2))
        check = check_named(report, "moment-condition-tstarg-right")
        assert check.status == "fail"
        assert "hamiltonian_field" in check.witness

    def test_left_moment_without_ad(self, monkeypatch):
        plant(monkeypatch, "tstarg-left", moment=lambda p: p.x)
        check = check_named(run_suite("poisson", Config(samples=2)), "moment-equivariance")
        assert check.status == "fail"
        assert check.witness["map"] == "rho_L"

    def test_g_stau_moment_without_ad_is_an_error_check(self, monkeypatch, capsys):
        plant(monkeypatch, "g-stau", moment=lambda p: p[1])
        assert cli.main(["verify", "all"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "fail"
        checks = {c["name"]: c for c in data["checks"]}
        assert checks["moment-equivariance"]["status"] == "fail"
        errors = [c for c in data["checks"] if c["status"] == "error"]
        assert errors and all(c["witness"]["type"] == "MembershipError" for c in errors)


def test_report_names_follow_check_function_names(all_report):
    expected = [check_name(fn) for checks in SUITES.values() for fn in checks]
    assert [c.name for c in all_report.checks] == expected


class TestPlantedSuiteFaults:
    """One planted fault per suite that had none: each turns a check red with its witness."""

    def failing(self, suite, name):
        check = check_named(run_suite(suite, Config(samples=2)), name)
        assert check.status == "fail"
        return suites._jsonable(check.witness)

    def test_perturbed_chi_section(self, monkeypatch):
        real = suites.chi_section
        monkeypatch.setattr(suites, "chi_section", lambda slc, x: real(slc, x) + slc.directions[0])
        witness = self.failing("slodowy", "chi-section-idempotent")
        assert witness == {"n": 2, "x": ["2", "1/2", "-7/3"]}

    def test_wrong_pgl2_model_row(self, monkeypatch):
        real = suites.pgl2_model

        def wrong(alg, a):
            (p, q), (r, s) = a.rows
            return real(alg, Mat([[p, q], [r + 1, s]]))

        monkeypatch.setattr(suites, "pgl2_model", wrong)
        assert self.failing("wonderful", "pgl2-model-vs-limit") == {"curve": 0}

    def test_sylvester_system_negated_on_its_right_operand(self, monkeypatch):
        # every pgl2-model solver of slices builds its system from sylvester_rows
        real = exactnum.sylvester_rows
        monkeypatch.setattr(exactnum, "sylvester_rows", lambda left, right: real(left, -right))
        report = run_suite("slices", Config(samples=2))
        for name in (
            "fibre-projective-dim",
            "fibre-open-leaf",
            "ktau-free-locus",
            "stabilizer-group-vs-infinitesimal",
        ):
            assert check_named(report, name).status != "pass"

    def test_negated_universal_centralizer(self, monkeypatch):
        real = suites.universal_centralizer_contains
        monkeypatch.setattr(
            suites, "universal_centralizer_contains", lambda g, y, slc: not real(g, y, slc)
        )
        witness = self.failing("slices", "universal-centralizer-agreement")
        assert witness == {"g": [["1", "0"], ["0", "1"]], "y": ["1", "0", "-7/3"]}


ALGEBRAS = {2: lie_algebra(2), 3: lie_algebra(3)}


@pytest.mark.parametrize(
    "fn", [fn for checks in SUITES.values() for fn in checks], ids=check_name
)
def test_checks_are_module_attributes_called_directly(fn):
    """The benchmark reaches each check as ``suites.check_*`` and calls it alone."""
    assert fn.__name__.startswith("check_")
    assert getattr(suites, fn.__name__) is fn
    result = fn(Config(samples=2), ALGEBRAS)
    assert isinstance(result, suites.CheckResult)
    assert (result.name, result.status) == (check_name(fn), "pass")
