"""Property-based fuzzing of the CLI spec parsers.

Every input either parses or raises ``CliError``; through ``main`` a spec
ends in exit 0, or in exit 1 with exactly one ``error:`` line on stderr.
Examples are derandomized and counted, so the run is the same every time.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from slicelab.cli import (
    CliError,
    load_config_file,
    main,
    parse_curve,
    parse_element,
    parse_monomial,
)
from slicelab.liecore import lie_algebra

FUZZ = settings(derandomize=True, deadline=None, max_examples=150, database=None)
FUZZ_CLI = settings(FUZZ, max_examples=60)

# Characters of the spec grammars, so that most examples get past the first
# token; free text covers everything else.
SPEC_CHARS = "0123456789+-*/^,()[] tdiagsefhEH"
free_text = st.text(max_size=16)
spec_text = st.one_of(st.text(alphabet=SPEC_CHARS, max_size=24), free_text)
# Near-valid monomials, with exponents on both sides of the bound.
monomials = st.one_of(
    st.from_regex(r"[+-]?\d{0,3}(/\d{1,2})?\*?(t(\^[+-]?\d{1,5})?)?", fullmatch=True),
    spec_text,
)
curves = st.one_of(
    st.lists(monomials, min_size=1, max_size=4).map(lambda es: f"diag({','.join(es)})"),
    st.lists(st.lists(monomials, min_size=1, max_size=3), min_size=1, max_size=3).map(
        lambda rows: "[" + ",".join(f"[{','.join(r)}]" for r in rows) + "]"
    ),
    spec_text,
)
terms = st.one_of(
    st.from_regex(r"[+-]?(\d{1,3}(/\d{1,2})?\*?)?(e|f|h|E12|E21|H1|H2|E13|x)", fullmatch=True),
    spec_text,
)
rationals = st.from_regex(r"[+-]?\d{1,3}(/\d{0,2})?", fullmatch=True)
elements = st.one_of(
    st.lists(terms, min_size=1, max_size=4).map("".join),
    st.lists(rationals, max_size=9).map(",".join),
    # e + p_tau in sl2, where the principal slice projection succeeds
    st.lists(rationals, min_size=2, max_size=2).map(lambda cs: ",".join(["1", *cs])),
    spec_text,
)
points = st.one_of(elements, st.from_regex(r"s\([+-]?\d{1,3}(/\d{0,2})?\)", fullmatch=True))
algebras = st.sampled_from(["a1", "a2"])


def parses_or_rejects(parse, *args):
    try:
        parse(*args)
    except CliError:
        pass


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(argv):
    code, out, err = run_main(argv)
    if code == 0:
        assert out and not err, (argv, err)
    else:
        assert code == 1, (argv, code)
        assert not out, (argv, out)
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)


@FUZZ
@given(text=monomials)
def test_parse_monomial(text):
    parses_or_rejects(parse_monomial, text)


@FUZZ
@given(text=curves, n=st.sampled_from([2, 3]))
def test_parse_curve(text, n):
    parses_or_rejects(parse_curve, text, n)


@FUZZ
@given(text=elements, n=st.sampled_from([2, 3]))
def test_parse_element(text, n):
    parses_or_rejects(parse_element, text, lie_algebra(n))


@FUZZ
@given(
    lines=st.lists(
        st.one_of(
            st.from_regex(r"[ a-z]{0,8}=[ -~]{0,8}(#.*)?", fullmatch=True),
            st.text(st.characters(blacklist_categories=("Cs",)), max_size=16),
        ),
        max_size=5,
    )
)
def test_load_config_file(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "slicelab.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
        parses_or_rejects(load_config_file, path)


@FUZZ_CLI
@given(element=elements, algebra=algebras)
def test_slice_project_exits_cleanly(element, algebra):
    assert_clean_exit(["slice-project", f"--element={element}", "--algebra", algebra])


@FUZZ_CLI
@given(point=points, algebra=algebras)
def test_fibre_exits_cleanly(point, algebra):
    assert_clean_exit(["fibre", f"--point={point}", "--algebra", algebra])
