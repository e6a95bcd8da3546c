"""Hypothesis fuzz over ``cli.main``: the exit-code contract for any input.

Every argv below is either well-formed or not; whatever it is, ``main``
returns 0 (success), 2 (domain error) or 3 (parse error), never raises, and
a refusal prints nothing on stdout.  ``verify`` is left out: it takes no
request fields and replays the whole golden table.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from llvlat.cli import main

# number texts: ordinary, fractional, decimal, huge, past the digit limit,
# malformed
_NUMBER_TEXT = st.one_of(
    st.integers(-3, 12).map(str),
    st.fractions(min_value=-20, max_value=20, max_denominator=9).map(str),
    st.sampled_from([
        "1.5", "2.0", "1e3", "6e0", "1e4000", "9" * 60, "-0", "1e3000000",
        "1" * 5000, "1/0", "", "x", "1_0", "inf", "nan", " 7 ", "0x10",
    ]),
)

_LABEL_EXPR = st.one_of(
    st.sampled_from([
        "", "e1", "-d", "0*e1", "3*e1+3*f1", "2*e1+2*f1+d", "e1+f1-2*d",
        "2*e1+4*f1", "1/2*e1+4*f1", ",".join(["1", "3"] + ["0"] * 21),
        ",".join(["1"] * 22), "*e1", "e1+*f1", "1_0*e1", "e1f1", "5*zz",
        "1,2,3", f"{'1' * 5000}*e1",
    ]),
    st.text(alphabet="+-*/0123456789 ,edfa_.", max_size=14),
)

# raw JSON snippets for one field value: any type, nulls, huge literals
_JSON_VALUE = st.one_of(
    st.sampled_from([
        "null", "true", "false", "[]", '["K3"]', "[1, 2]", '{"a": 1}',
        "1" * 5000, "1e3000000", "-0", "0.5", '"HilbK3"', '"Kum"', '"K3"',
    ]),
    _NUMBER_TEXT.map(json.dumps),
    _LABEL_EXPR.map(json.dumps),
    st.integers(-3, 8).map(str),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(json.dumps),
)

# a well-formed request per family, which the fuzz then perturbs
_VALID = {
    "StructureSheaf": {}, "Skyscraper": {}, "Bogus": {},
    "Lagrangian": {"lambda": '"2*e1+3*f1-d"', "t": '"1/2"'},
    "PhiO": {"r0": "3", "h": '"3*e1+3*f1"'},
    "Isotropic": {"r0": "1", "h": '"2*e1+2*f1+d"'},
    "KappaTriple": {"x": "4", "y": '"-1/8"', "z": '"177/128"',
                    "c1": '"e1+2*f1"'},
}
_FIELDS = ["family", "type", "n", "r0", "h", "lambda", "t", "x", "y", "z",
           "c1"]


@st.composite
def _ell_argv(draw):
    family = draw(st.sampled_from(sorted(_VALID)))
    fields = {"family": json.dumps(family)} | _VALID[family]
    for key, values in (("type", ['"HilbK3"', '"Kum"', '"K3"', '"U"',
                                  '["K3"]', "5", "null"]),
                        ("n", ["1", "2", "3", "5", "2000", "1000000",
                               '"1e3000000"', "1" * 5000])):
        if draw(st.booleans()):
            fields[key] = draw(st.sampled_from(values))
    for key in draw(st.lists(st.sampled_from(_FIELDS), max_size=2)):
        fields[key] = draw(_JSON_VALUE)
    doc = "{" + ",".join(f'"{k}": {v}' for k, v in fields.items()) + "}"
    return ["ell", "--json", draw(st.sampled_from([doc, doc, doc, doc[:-1]]))]


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


@st.composite
def _chern_argv(draw):
    argv = ["chern", "--family",
            draw(st.sampled_from(["phiO", "isotropic", "lagrangian"]))]
    for name, values in (("--r0", _NUMBER_TEXT), ("--h", _LABEL_EXPR),
                         ("--h-sq", _NUMBER_TEXT), ("--lambda-sq", _NUMBER_TEXT),
                         ("--chi-z", _NUMBER_TEXT)):
        argv += draw(_flag(name, values))
    return argv


@st.composite
def _monodromy_argv(draw):
    argv = ["monodromy"]
    for name, values in (("--ek", _NUMBER_TEXT),
                         ("--chi-involution", _NUMBER_TEXT),
                         ("--bkr-r0", _NUMBER_TEXT), ("--n", _NUMBER_TEXT),
                         ("--c1g", _LABEL_EXPR),
                         ("--sign", st.sampled_from(["+", "-", "*"]))):
        argv += draw(_flag(name, values))
    return argv


@st.composite
def _other_argv(draw):
    kind = draw(st.sampled_from(["search", "lattice", "junk"]))
    if kind == "search":
        return (["search"] + draw(_flag("--max-lambda-sq", _NUMBER_TEXT))
                + draw(_flag("--max-c", _NUMBER_TEXT))
                + draw(_flag("--div", st.sampled_from(["1", "2", "3"]))))
    if kind == "lattice":
        preset = st.sampled_from(["U", "E8neg", "K3", "HilbK3", "Kum", "x"])
        return (["lattice"] + draw(_flag("--preset", preset))
                + draw(_flag("--n", _NUMBER_TEXT)))
    return draw(st.lists(st.sampled_from(
        ["ell", "chern", "--json", "--family", "phiO", "--n", "2", "{}",
         "-h", "--r0", "frobnicate"]), max_size=4))


# the digit-limit-sized inputs make a few examples slow to generate
@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(st.one_of(_ell_argv(), _chern_argv(), _monodromy_argv(),
                 _other_argv()))
def test_cli_exit_codes_for_any_input(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code:
        assert out.getvalue() == "", argv
    elif "-h" not in argv:  # help is the one plain-text success
        json.loads(out.getvalue())
