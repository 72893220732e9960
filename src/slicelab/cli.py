"""Command-line front end.

Subcommands:
  verify <suite>            run a named verification suite, JSON report on stdout
  limit --curve SPEC        exact limit of a one-parameter subspace curve
  fibre --point SPEC        compactified-centralizer fibre over a point (pgl2)
  slice-project --element SPEC   conjugate an element of xi + p_tau onto the slice

Config precedence per key: command-line flags, then the SLICELAB_SEED
environment variable (seed only), then a line-based key=value config file,
then defaults.  All numeric output is exact; nothing is ever rounded.

Bad input ends in one ``error:`` line and exit status 1; a failed internal
cross-check (a fault of the program, not of the input) ends in one
``error: internal check failed:`` line and exit status 3.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .exactnum import LaurentPoly, Mat
from .liecore import LieAlgebraError, algebra_by_tag
from .slices import compactified_fibre_pgl2
from .slodowy import (
    InternalCheckError,
    SliceError,
    conjugate_to_slice,
    parse_partition,
    slodowy_slice,
    standard_triple,
)
from .suites import Config, ConfigError, run_suite, suite_names
from .wonderful import CurveSubspace, DegenerateCurveError, MembershipError, limit

SEED_ENV_VAR = "SLICELAB_SEED"

_MONOMIAL_RE = re.compile(
    r"^\s*(?P<coeff>[+-]?\d+(?:/\d+)?)?\s*\*?\s*(?P<t>t(?:\^(?P<exp>[+-]?\d+))?)?\s*$"
)


# The limit kernel pads each curve row densely over its exponent spread, so
# an unbounded exponent can exhaust memory; desk-scale curves stay far below.
MAX_EXPONENT = 1000


class CliError(ValueError):
    pass


def parse_rational(text: str) -> Fraction:
    """A rational literal such as '3', '-3/2'; a zero denominator is a CliError."""
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise CliError(f"zero denominator in {text!r}") from exc
    except ValueError as exc:
        raise CliError(f"cannot parse rational {text!r}") from exc


def parse_monomial(text: str) -> LaurentPoly:
    """Laurent monomial: '0', '1', '-3/2', 't', '2t', 't^-1', '5*t^2', ..."""
    m = _MONOMIAL_RE.match(text)
    if not m or (m.group("coeff") is None and m.group("t") is None):
        raise CliError(f"cannot parse monomial {text!r}")
    coeff = parse_rational(m.group("coeff")) if m.group("coeff") else Fraction(1)
    if not m.group("t"):
        return LaurentPoly.const(coeff)
    exp = _to_int(m.group("exp"), "exponent") if m.group("exp") else 1
    if abs(exp) > MAX_EXPONENT:
        raise CliError(f"exponent {exp} in {text!r} exceeds {MAX_EXPONENT} in absolute value")
    return LaurentPoly.t_power(exp, coeff)


def parse_curve(text: str, n: int) -> Mat:
    """Curve mini-language: 'diag(t,1)' or a bracketed matrix of monomials."""
    text = text.strip()
    if text.startswith("diag(") and text.endswith(")"):
        entries = _split_top_level(text[5:-1])
        if len(entries) != n:
            raise CliError(f"diag(...) needs {n} entries for this algebra")
        rows = [
            [parse_monomial(entries[i]) if i == j else LaurentPoly.zero() for j in range(n)]
            for i in range(n)
        ]
        return Mat(rows)
    if text.startswith("[[") and text.endswith("]]"):
        body = text[1:-1]
        row_texts = re.findall(r"\[([^\[\]]*)\]", body)
        if len(row_texts) != n:
            raise CliError(f"matrix literal needs {n} rows for this algebra")
        rows = []
        for rt in row_texts:
            entries = _split_top_level(rt)
            if len(entries) != n:
                raise CliError(f"matrix rows need {n} entries")
            rows.append([parse_monomial(e) for e in entries])
        return Mat(rows)
    raise CliError(f"cannot parse curve {text!r} (expected diag(...) or [[...],[...]])")


def _split_top_level(text: str):
    return [p for p in (piece.strip() for piece in text.split(",")) if p != ""]


_TERM_RE = re.compile(r"^(?P<coeff>[+-]?\d+(?:/\d+)?)?\s*\*?\s*(?P<name>[A-Za-z]\w*)?$")


def parse_element(text: str, algebra):
    """Element spec: a coordinate tuple '1,0,2' or a symbolic sum 'e+2h-3/2*f'."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    if re.fullmatch(r"[\s,+-]*[\d/,\s+-]+", text) and "," in text:
        coords = [parse_rational(p.strip()) for p in text.split(",")]
        if len(coords) != algebra.dim:
            raise CliError(f"expected {algebra.dim} coordinates, got {len(coords)}")
        return algebra.element(coords)
    out = algebra.zero()
    for sign, term in _split_terms(text):
        m = _TERM_RE.match(term)
        if not m or (m.group("coeff") is None and m.group("name") is None):
            raise CliError(f"cannot parse element term {term!r}")
        coeff = parse_rational(m.group("coeff")) if m.group("coeff") else Fraction(1)
        coeff = -coeff if sign == "-" else coeff
        name = m.group("name")
        if name is None:
            raise CliError(f"constant term {term!r} is not an algebra element")
        try:
            base = algebra.named(name)
        except LieAlgebraError as exc:
            raise CliError(str(exc)) from exc
        out = out + coeff * base
    return out


def _split_terms(text: str):
    terms = []
    sign = "+"
    current = ""
    for ch in text:
        if ch in "+-" and current.strip():
            terms.append((sign, current.strip()))
            sign = ch
            current = ""
        elif ch in "+-" and not current.strip():
            sign = "-" if (sign == "-") != (ch == "-") else "+"
        else:
            current += ch
    if current.strip():
        terms.append((sign, current.strip()))
    if not terms:
        raise CliError("empty element spec")
    return terms


def fmt_q(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def _coords_out(coords):
    return [fmt_q(c) for c in coords]


def _matrix_out(m: Mat):
    return [[fmt_q(c) for c in row] for row in m.rows]


def load_config_file(path: str) -> dict:
    """Line-based key=value file; '#' starts a comment."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def resolve_config(args) -> Config:
    file_values = load_config_file(args.config) if args.config else {}
    algebra = args.algebra or file_values.get("algebra") or "a1"
    if args.partition is not None:
        partition = parse_partition(args.partition)
    elif "partition" in file_values:
        partition = parse_partition(file_values["partition"])
    else:
        partition = ()
    if args.seed is not None:
        seed = args.seed
    elif os.environ.get(SEED_ENV_VAR):
        seed = _to_int(os.environ[SEED_ENV_VAR], SEED_ENV_VAR)
    elif "seed" in file_values:
        seed = _to_int(file_values["seed"], "config key 'seed'")
    else:
        seed = 0
    if args.samples is not None:
        samples = args.samples
    elif "samples" in file_values:
        samples = _to_int(file_values["samples"], "config key 'samples'")
    else:
        samples = 20
    return Config(algebra=algebra, partition=partition, seed=seed, samples=samples)


def _to_int(value: str, what: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise CliError(f"{what} must be an integer, got {value!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicelab",
        description="exact verification of slice geometry at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--algebra", choices=("a1", "a2"), default=None)
        p.add_argument("--partition", default=None, help="e.g. 2,1")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=suite_names())
    common(p_verify)

    p_limit = sub.add_parser("limit", help="limit of a one-parameter curve at t=0")
    p_limit.add_argument("--curve", required=True)
    common(p_limit)

    p_fibre = sub.add_parser("fibre", help="compactified-centralizer fibre (pgl2)")
    p_fibre.add_argument("--point", required=True, help="element spec or s(c)")
    common(p_fibre)

    p_proj = sub.add_parser("slice-project", help="conjugate onto the Slodowy slice")
    p_proj.add_argument("--element", required=True)
    common(p_proj)

    return parser


def cmd_verify(args) -> int:
    config = resolve_config(args)
    report = run_suite(args.suite, config)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0 if report.passed else 1


def cmd_limit(args) -> int:
    config = resolve_config(args)
    algebra = algebra_by_tag(config.algebra)
    gmat = parse_curve(args.curve, algebra.n)
    gamma = limit(CurveSubspace.from_group_curve(algebra, gmat))
    payload = {
        "basis": _matrix_out(gamma.basis),
        "plucker": _coords_out(gamma.plucker),
        "boundary": gamma.is_boundary(),
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"limit of {args.curve} in {config.algebra}:")
        for row in payload["basis"]:
            print("  basis row:", " ".join(row))
        nonzero = [f"{i}:{q}" for i, q in enumerate(payload["plucker"]) if q != "0"]
        print(f"  plucker ({len(nonzero)} nonzero of {len(payload['plucker'])}):", " ".join(nonzero))
        print("  boundary:", "yes" if payload["boundary"] else "no")
    return 0


def cmd_fibre(args) -> int:
    config = resolve_config(args)
    algebra = algebra_by_tag(config.algebra)
    slc = slodowy_slice(standard_triple(algebra, config.partition))
    spec = args.point.strip()
    m = re.fullmatch(r"s\(\s*([+-]?\d+(?:/\d+)?)\s*\)", spec)
    if m:
        x = slc.point([parse_rational(m.group(1))] + [Fraction(0)] * (slc.dim() - 1))
    else:
        x = parse_element(spec, algebra)
    fibre = compactified_fibre_pgl2(x, slc)
    payload = {
        "x": _coords_out(x.coords),
        "x_tau": _coords_out(fibre.x_tau.coords),
        "basis": [_matrix_out(b) for b in fibre.basis],
        "projective_dim": fibre.projective_dim,
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"fibre over {args.point} (projective dimension {fibre.projective_dim}):")
        for b in payload["basis"]:
            print("  span matrix:", b)
    return 0


def cmd_slice_project(args) -> int:
    config = resolve_config(args)
    algebra = algebra_by_tag(config.algebra)
    slc = slodowy_slice(standard_triple(algebra, config.partition))
    y = parse_element(args.element, algebra)
    result = conjugate_to_slice(slc, y)
    payload = {
        "u": _matrix_out(result.u.matrix),
        "s": _coords_out(result.s.coords),
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"slice projection of {args.element} (partition {','.join(map(str, config.partition))}):")
        print("  u =", payload["u"])
        print("  s =", " ".join(payload["s"]))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify": cmd_verify,
        "limit": cmd_limit,
        "fibre": cmd_fibre,
        "slice-project": cmd_slice_project,
    }
    try:
        status = handlers[args.command](args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed the pipe (``slicelab ... | head``): not a user
        # error.  Point stdout at devnull so the flush at exit cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (
        CliError,
        ConfigError,
        SliceError,
        MembershipError,
        DegenerateCurveError,
        LieAlgebraError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalCheckError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
