import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import slicelab.wonderful as wonderful
from slicelab.cli import (
    CliError,
    main,
    parse_curve,
    parse_element,
    parse_monomial,
)
from slicelab.exactnum import LaurentPoly
from slicelab.liecore import lie_algebra


def run_cli(args, env=None):
    cmd = [sys.executable, "-m", "slicelab.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


class TestParsers:
    def test_monomials(self):
        assert parse_monomial("t") == LaurentPoly.t_power(1)
        assert parse_monomial("1") == LaurentPoly.const(1)
        assert parse_monomial("-3/2") == LaurentPoly.const(Fraction(-3, 2))
        assert parse_monomial("t^-1") == LaurentPoly.t_power(-1)
        assert parse_monomial("2t^3") == LaurentPoly.t_power(3, 2)
        assert parse_monomial("5*t^2") == LaurentPoly.t_power(2, 5)
        assert parse_monomial("0") == LaurentPoly.zero()
        with pytest.raises(CliError):
            parse_monomial("t^t")

    def test_curves(self):
        m = parse_curve("diag(t,1)", 2)
        assert m.rows[0][0] == LaurentPoly.t_power(1)
        assert m.rows[1][1] == LaurentPoly.const(1)
        assert m.rows[0][1].is_zero()
        m = parse_curve("[[t,1],[0,t^-1]]", 2)
        assert m.rows[0][1] == LaurentPoly.const(1)
        assert m.rows[1][1] == LaurentPoly.t_power(-1)
        with pytest.raises(CliError):
            parse_curve("diag(t,1,1)", 2)
        with pytest.raises(CliError):
            parse_curve("spiral(t)", 2)

    def test_elements(self):
        sl2 = lie_algebra(2)
        e, h, f = sl2.named("e"), sl2.named("h"), sl2.named("f")
        assert parse_element("e+h", sl2) == e + h
        assert parse_element("2e-3/2*f", sl2) == 2 * e - Fraction(3, 2) * f
        assert parse_element("1,0,2", sl2) == e + 2 * f
        assert parse_element("(0,1,0)", sl2) == h
        sl3 = lie_algebra(3)
        assert parse_element("E12+2*H1", sl3) == sl3.named("E12") + 2 * sl3.named("H1")
        with pytest.raises(CliError):
            parse_element("q+e", sl2)
        with pytest.raises(CliError):
            parse_element("1,2", sl2)


class TestVerifyCommand:
    def test_verify_liecore_passes(self):
        res = run_cli(["verify", "liecore", "--samples", "5"])
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["schema"] == 1
        assert report["status"] == "pass"
        assert all(c["status"] == "pass" for c in report["checks"])

    def test_reports_are_byte_identical(self):
        a = run_cli(["verify", "slodowy", "--seed", "7", "--samples", "5"])
        b = run_cli(["verify", "slodowy", "--seed", "7", "--samples", "5"])
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_checks_sorted_by_name(self):
        res = run_cli(["verify", "poisson", "--samples", "3"])
        report = json.loads(res.stdout)
        names = [c["name"] for c in report["checks"]]
        assert names == sorted(names)

    def test_unknown_suite_is_usage_error(self):
        res = run_cli(["verify", "nonsense"])
        assert res.returncode == 2


class TestConfigPrecedence:
    def test_env_seed(self):
        import os

        env = dict(os.environ)
        env["SLICELAB_SEED"] = "99"
        res = run_cli(["verify", "liecore", "--samples", "3"], env=env)
        report = json.loads(res.stdout)
        assert report["config"]["seed"] == 99

    def test_flag_beats_env(self):
        import os

        env = dict(os.environ)
        env["SLICELAB_SEED"] = "99"
        res = run_cli(["verify", "liecore", "--samples", "3", "--seed", "5"], env=env)
        report = json.loads(res.stdout)
        assert report["config"]["seed"] == 5

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "slicelab.cfg"
        cfg.write_text("seed = 11\nsamples = 4  # low effort\nalgebra = a1\n")
        res = run_cli(["verify", "liecore", "--config", str(cfg)])
        report = json.loads(res.stdout)
        assert report["config"]["seed"] == 11
        assert report["config"]["samples"] == 4

    def test_env_beats_file(self, tmp_path):
        import os

        cfg = tmp_path / "slicelab.cfg"
        cfg.write_text("seed = 11\n")
        env = dict(os.environ)
        env["SLICELAB_SEED"] = "42"
        res = run_cli(["verify", "liecore", "--samples", "3", "--config", str(cfg)], env=env)
        report = json.loads(res.stdout)
        assert report["config"]["seed"] == 42

    def test_bad_partition_rejected(self):
        res = run_cli(["verify", "liecore", "--partition", "5"])
        assert res.returncode == 1
        assert "partition" in res.stderr


class TestLimitCommand:
    def test_diag_t_1(self):
        res = run_cli(["limit", "--curve", "diag(t,1)", "--json"])
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert payload["boundary"] is True
        assert payload["basis"] == [
            ["0", "1", "0", "0", "1", "0"],
            ["0", "0", "1", "0", "0", "0"],
            ["0", "0", "0", "1", "0", "0"],
        ]

    def test_identity_curve(self):
        res = run_cli(["limit", "--curve", "diag(1,1)", "--json"])
        payload = json.loads(res.stdout)
        assert payload["boundary"] is False

    def test_projective_equivalence(self):
        a = run_cli(["limit", "--curve", "diag(t,t^-1)", "--json"])
        b = run_cli(["limit", "--curve", "diag(t^2,1)", "--json"])
        assert json.loads(a.stdout) == json.loads(b.stdout)

    def test_degenerate_curve(self):
        res = run_cli(["limit", "--curve", "[[t,0],[t,0]]"])
        assert res.returncode == 1
        assert "singular" in res.stderr or "rank" in res.stderr

    def test_sl3_curve(self):
        res = run_cli(["limit", "--curve", "diag(t,1,1)", "--algebra", "a2", "--json"])
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["boundary"] is True

    def test_text_output_lists_nonzero_plucker_coordinates(self):
        args = ["limit", "--algebra", "a2", "--curve", "diag(t,1,1)"]
        full = json.loads(run_cli(args + ["--json"]).stdout)["plucker"]
        assert len(full) == 12870
        nonzero = [f"{i}:{q}" for i, q in enumerate(full) if q != "0"]
        res = run_cli(args)
        assert res.returncode == 0, res.stderr
        lines = [ln for ln in res.stdout.splitlines() if "plucker" in ln]
        assert lines == [f"  plucker ({len(nonzero)} nonzero of 12870): " + " ".join(nonzero)]

    def test_internal_check_failure_is_one_line_with_status_3(self, monkeypatch, capsys):
        real = wonderful.lowest_minor_coefficients

        def planted(rows):
            mu, coeffs = real(rows)
            coeffs[max(coeffs)] += 1
            return mu, coeffs

        monkeypatch.setattr(wonderful, "lowest_minor_coefficients", planted)
        code = main(["limit", "--algebra", "a2", "--curve", "[[t,1,2],[0,t^2,t^-1],[1,0,1]]"])
        out, err = capsys.readouterr()
        assert code == 3
        assert not out
        assert err.splitlines() == ["error: internal check failed: limit algorithms disagree"]


class TestClosedPipe:
    """A reader that closes the pipe early (``slicelab ... | head``) is not a user error."""

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "args",
        [
            # the sl3 Pluecker vector outgrows the stdout buffer: print raises
            ["limit", "--algebra", "a2", "--curve", "diag(t,1,1)", "--json"],
            # buffered, the sl2 output is written only when stdout is flushed
            ["limit", "--curve", "diag(t,1)", "--json"],
        ],
        ids=["large", "small"],
    )
    def test_exit_1_with_empty_stderr(self, args, unbuffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        cmd = [sys.executable, "-m", "slicelab.cli", *args]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert stderr == b""


class TestMalformedRationals:
    @pytest.mark.parametrize(
        "args",
        [
            ["slice-project", "--element=1/0,0,0"],
            ["slice-project", "--element=e+1/0*h"],
            ["fibre", "--point", "s(1/0)"],
            ["limit", "--curve", "diag(1/0*t,1)"],
        ],
    )
    def test_one_error_line(self, args):
        res = run_cli(args)
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.splitlines() == ["error: zero denominator in '1/0'"]

    def test_parsers_raise_cli_error(self):
        sl2 = lie_algebra(2)
        with pytest.raises(CliError):
            parse_monomial("1/0*t")
        with pytest.raises(CliError):
            parse_element("1/0,0,0", sl2)
        with pytest.raises(CliError):
            parse_element("e+1/0*h", sl2)
        with pytest.raises(CliError):
            parse_element("1,,0", sl2)
        with pytest.raises(CliError):
            parse_element("1//2,0,1", sl2)


class TestExponentBound:
    def test_parser_bound(self):
        assert parse_monomial("t^1000") == LaurentPoly.t_power(1000)
        assert parse_monomial("2t^-1000") == LaurentPoly.t_power(-1000, 2)
        for text in ("t^1001", "t^-99999999999", "t^" + "9" * 5000):
            with pytest.raises(CliError):
                parse_monomial(text)

    def test_huge_exponent_is_one_error_line(self):
        res = run_cli(["limit", "--curve", "diag(t^99999999999,1)"])
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.splitlines() == [
            "error: exponent 99999999999 in 't^99999999999' exceeds 1000 in absolute value"
        ]


class TestFibreCommand:
    def test_fibre_at_s1(self):
        res = run_cli(["fibre", "--point", "s(1)", "--json"])
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert payload["projective_dim"] == 1
        assert payload["x"] == ["1", "0", "1"]
        assert payload["x_tau"] == ["1", "0", "1"]

    def test_fibre_at_e(self):
        res = run_cli(["fibre", "--point", "e", "--json"])
        payload = json.loads(res.stdout)
        assert payload["projective_dim"] == 1

    def test_fibre_rejects_sl3(self):
        res = run_cli(["fibre", "--point", "E12", "--algebra", "a2"])
        assert res.returncode == 1


class TestSliceProjectCommand:
    def test_worked_example(self):
        res = run_cli(
            ["slice-project", "--element", "e+h", "--partition", "2", "--json"]
        )
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert payload["u"] == [["1", "0"], ["-1", "1"]]
        assert payload["s"] == ["1", "0", "1"]

    def test_precondition_error(self):
        res = run_cli(["slice-project", "--element", "h"])
        assert res.returncode == 1
        assert "xi + p_tau" in res.stderr

    def test_subregular_projection(self):
        res = run_cli(
            [
                "slice-project",
                "--element",
                "E12+H1+2*E21",
                "--algebra",
                "a2",
                "--partition",
                "2,1",
                "--json",
            ]
        )
        assert res.returncode == 0, res.stderr

    def test_main_entrypoint_inprocess(self, capsys):
        code = main(["slice-project", "--element", "e+2h+3f", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["s"] == ["1", "0", "7"]
        assert payload["u"] == [["1", "0"], ["-2", "1"]]

