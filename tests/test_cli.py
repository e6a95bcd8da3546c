import hashlib
import json
import subprocess
import sys

import pytest

from llvlat.cli import main


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_ell_structure_sheaf(capsys):
    code, out, _ = run_cli(
        ["ell", "--json", '{"family":"StructureSheaf","type":"HilbK3","n":2}'],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["generator"]["r"] == "4"
    assert doc["generator"]["s"] == "5"
    assert doc["t"] == "5/4"


def test_ell_skyscraper(capsys):
    code, out, _ = run_cli(["ell", "--json", '{"family":"Skyscraper"}'], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["generator"]["r"] == "0" and doc["generator"]["s"] == "1"


def test_ell_phiO_label_syntax(capsys):
    spec = '{"family":"PhiO","n":2,"r0":1,"h":"0*e1"}'
    code, out, _ = run_cli(["ell", "--json", spec], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["generator"]["r"] == "2"
    assert doc["generator"]["s"] == "5/2"
    assert doc["lambda_divisibility"] == 2


def test_ell_congruence_failure_exit2(capsys):
    spec = '{"family":"PhiO","n":2,"r0":2,"h":"2*e1+4*f1"}'
    code, out, err = run_cli(["ell", "--json", spec], capsys)
    assert code == 2
    assert "5 + (eta, eta)/2" in err


def test_ell_lambda_gate_refusal_exit2(capsys):
    # the congruence holds, and the integral LLV lattice gate refuses
    spec = '{"family":"PhiO","r0":2,"h":"-4*e1-4*f1+d"}'
    code, out, err = run_cli(["ell", "--json", spec], capsys)
    assert code == 2
    assert out == ""
    assert err == ("domain error: gamma must have divisibility 2 in the "
                   "integral LLV lattice (got 1)\n")


def test_h2_parser_variants(capsys):
    # label expressions with and without stars, fractions, negatives
    for expr, r_expect in [
        ("2*e1+3*f1-1*d", "2"),
        ("2e1+3f1-d", "2"),
        ("1/2*e1+4*f1", "2"),  # square 2 * (1/2) * 4 = 4
    ]:
        spec = ('{"family":"Lagrangian","lambda":"%s","t":"0"}' % expr)
        code, out, _ = run_cli(["ell", "--json", spec], capsys)
        assert code == 0
    # full coordinate list
    coords = ",".join(["1", "3"] + ["0"] * 21)
    spec = '{"family":"Lagrangian","lambda":"%s","t":"1"}' % coords
    code, out, _ = run_cli(["ell", "--json", spec], capsys)
    assert code == 0
    assert json.loads(out)["generator"]["s"] == "-3"
    # wrong arity and unknown label are parse errors
    spec = '{"family":"Lagrangian","lambda":"1,2,3","t":"1"}'
    assert run_cli(["ell", "--json", spec], capsys)[0] == 3
    spec = '{"family":"Lagrangian","lambda":"5*zz","t":"1"}'
    assert run_cli(["ell", "--json", spec], capsys)[0] == 3


def test_ell_parse_error_exit3(capsys):
    code, _, err = run_cli(["ell", "--json", '{"r0":1}'], capsys)
    assert code == 3
    assert "family" in err
    code, _, err = run_cli(["ell", "--json", "not json"], capsys)
    assert code == 3
    # well-formed JSON of the wrong shape or with malformed fields
    for spec in ('[]',
                 '{"family":"StructureSheaf","n":"x"}',
                 '{"family":"PhiO","r0":"1.5","h":"e1"}'):
        code, _, err = run_cli(["ell", "--json", spec], capsys)
        assert code == 3, spec
        assert err.startswith("parse error:"), spec


def test_chern_phiO(capsys):
    code, out, _ = run_cli(
        ["chern", "--family", "phiO", "--r0", "2", "--h-sq", "6"], capsys
    )
    assert code == 0
    assert json.loads(out)["chi"] == "6"


def test_chern_lagrangian(capsys):
    code, out, _ = run_cli(
        ["chern", "--family", "lagrangian", "--lambda-sq", "6",
         "--chi-z", "27"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["c"] == "5/8" and doc["t"] == "1"


def test_chern_inadmissible_exit2(capsys):
    code, _, err = run_cli(
        ["chern", "--family", "lagrangian", "--lambda-sq", "6",
         "--chi-z", "28"], capsys
    )
    assert code == 2


def test_search(capsys):
    code, out, _ = run_cli(
        ["search", "--max-lambda-sq", "60", "--max-c", "700"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    rows = {(r["lambda_sq"], r["c"], r["t"]) for r in doc["hits"]}
    assert (8, "620", "69/2") in rows
    assert (54, "245/8", "23/3") in rows
    assert all(r["lambda_sq"] % 5 != 0 for r in doc["hits"])


def test_search_huge_box_exit2(capsys):
    # refused from the step count alone, before any search runs
    code, out, err = run_cli(
        ["search", "--max-lambda-sq", "60", "--max-c", "1e30"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("domain error: search box too large")


def test_ell_huge_result_exit2():
    # (n+3)^n / (4^n n!) at n = 5000 has more digits than Python renders
    proc = subprocess.run(
        [sys.executable, "-m", "llvlat.cli", "ell", "--json",
         '{"family":"StructureSheaf","type":"HilbK3","n":5000}'],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("domain error: result has more than")
    assert "digits" in proc.stderr


def test_monodromy_ek(capsys):
    code, out, _ = run_cli(["monodromy", "--ek", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 180
    assert doc["s"] == "0"


def test_lattice(capsys):
    code, out, _ = run_cli(["lattice", "--preset", "HilbK3", "--n", "2"],
                           capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 23
    assert doc["signature"] == [3, 20]
    assert doc["labels"][-1] == "d"
    assert len(doc["gram"]) == 23 * 23


def test_lattice_unknown_exit2(capsys):
    code, _, err = run_cli(["lattice", "--preset", "nope"], capsys)
    assert code == 2


def test_verify_json(capsys):
    code, out, _ = run_cli(["verify", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["count"] >= 40
    assert all(c["ok"] for c in doc["checks"])


def test_determinism_byte_identical(capsys):
    args = ["search", "--max-lambda-sq", "20", "--max-c", "100"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2
    args = ["ell", "--json", '{"family":"StructureSheaf","n":3}']
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


# stdout digests and exit codes frozen from a known-good build; any change
# to the exact output of these commands fails here
FROZEN_CLI = [
    (["verify", "--json"], 0,
     "034892ec6af80e39e09e6743b1be1a4edcc29aa40b370caff3402e3b41185cd4"),
    (["monodromy", "--ek", "1"], 0,
     "fed13a73d3aef7b0703572a552b28c10cb54623cbb704c39cbb0cc189368a042"),
    (["monodromy", "--ek", "2"], 0,
     "713df98f727a7f466d5e82899e446696b36f8f98236fbd438428fd2f34696a2f"),
    (["monodromy", "--ek", "3"], 0,
     "fb4e299cb26ff5bf2e802b92f832015949b93460ad7d2e8d290abdf8d9a1d14f"),
    # eta_sq = 30/9 is not an even integer: exit 2 and empty stdout
    (["chern", "--family", "phiO", "--r0", "3", "--h-sq", "30"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["chern", "--family", "phiO", "--r0", "3", "--h-sq", "18"], 0,
     "ed47b68b0ff578b4da5cdb82b9d9b1c0b2592e57eb7f977b5a2da0e13fe4c745"),
    (["chern", "--family", "lagrangian", "--lambda-sq", "6",
      "--chi-z", "27"], 0,
     "e7f1332dd62a6950be8a71a4037efb5faa809d595e289a69989e5af667a24733"),
    (["search", "--max-lambda-sq", "800", "--max-c", "5000"], 0,
     "9df022a96e855fe335a192229b935fa5c92a4405e84664940ffad44d65b91fe5"),
    (["search", "--max-lambda-sq", "2000", "--max-c", "100000",
      "--div", "2"], 0,
     "30ac1b92dc41f41f829912730fee718eb56ef9d683b40129cac0e5e52502c072"),
    # the matrix rows print through Isometry.to_rows
    (["monodromy", "--chi-involution", "2"], 0,
     "51e5e206b07a74251162a87d422eb2c982c6f7a9249b10d89ecdf3533d0e704f"),
    (["monodromy", "--chi-involution", "5"], 0,
     "0484397761993aa682f4a010c064774dacd7f81e8f3aee8e6e49fa88f9ff0d56"),
    # the signature is computed on the integer Gram
    (["lattice", "--preset", "HilbK3", "--n", "2"], 0,
     "a1cf4667e1f31d84bdd7349eaa9c13b176877dfa88879b95f86dfcd199c57d9c"),
    # one ell request per family, each field read through the typed readers
    (["ell", "--json", '{"family":"StructureSheaf","type":"Kum","n":3}'], 0,
     "3b4bb6e5fe7ee36e23885f5ca85332ee1cc57e95e09ce8d719408dc7fbc516ee"),
    (["ell", "--json", '{"family":"Skyscraper","type":"Kum","n":2}'], 0,
     "ed56a0979fc647c44a6363a4bbe642c4d7f52e9cda5a08d3c9fd64fe943a9f45"),
    (["ell", "--json",
      '{"family":"Lagrangian","lambda":"2*e1+3*f1-d","t":"1/2"}'], 0,
     "0e3e99a7f42362af369164d810a88e9c21a7bf343b2c23e220907c06963231a4"),
    (["ell", "--json", '{"family":"PhiO","r0":3,"h":"3*e1+3*f1"}'], 0,
     "0095aed7828d137de98e60bfc048e8aa10f1991fadb6593236e8a69fbdd81192"),
    (["ell", "--json", '{"family":"Isotropic","r0":1,"h":"2*e1+2*f1+d"}'], 0,
     "7c96e3f4383f1189dbc6395f102c2f135c06780e2f3f71a389c9061096bc595d"),
    (["ell", "--json",
      '{"family":"Isotropic","n":3,"r0":2,"h":"e1+f1-2*d"}'], 0,
     "873ff0e62c8163acf4f201dda0f6ea4d975ad758f0b16986768a7f805b34ded5"),
    (["ell", "--json", '{"family":"KappaTriple","x":1,"y":1,"z":1}'], 0,
     "f4b384e72c79115dfbd71e92065cc94b71bceed0cc021b55cf68aa72850bb4c9"),
    (["ell", "--json", '{"family":"KappaTriple","x":4,"y":"-1/8",'
      '"z":"177/128","c1":"e1+2*f1"}'], 0,
     "a676c72e86d8cbdf37f06787caf802114f0de8b6355f150cfeff5536afa6aa8e"),
    (["chern", "--family", "isotropic", "--r0", "1", "--h", "2*e1+2*f1+d"], 0,
     "d18776f642283466666eb6233fa3af291ca670d9b45d10430a31d922b42d7db2"),
    # the same eta as --h-sq 18 above, given as a vector: the same bytes
    (["chern", "--family", "phiO", "--r0", "3", "--h", "3*e1+3*f1"], 0,
     "ed47b68b0ff578b4da5cdb82b9d9b1c0b2592e57eb7f977b5a2da0e13fe4c745"),
    (["monodromy", "--bkr-r0", "2", "--n", "3"], 0,
     "c09bdd3413c978c7505807ae2e4310f1097479ad50292451584c4a721599d147"),
    (["monodromy", "--bkr-r0", "3", "--n", "2", "--c1g", "e1+f1",
      "--sign", "-"], 0,
     "e1709b71759bdea0b539d0297977b4803558f999763c3127a197ac6dbbf55056"),
]


@pytest.mark.parametrize("args, code, digest", FROZEN_CLI,
                         ids=[" ".join(a) for a, _, _ in FROZEN_CLI])
def test_frozen_cli_output(args, code, digest, capsys):
    got_code, out, _ = run_cli(args, capsys)
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_bad_usage_exit3(capsys):
    code, _, _ = run_cli(["frobnicate"], capsys)
    assert code == 3


def test_verify_detects_corrupted_e8(monkeypatch, capsys):
    # mutation test: a corrupted E8 Gram constant must surface as a named
    # verify failure and a nonzero exit.  The invariant intersection
    # numbers (like int c2^2 = 828) are trace identities holding for any
    # nondegenerate Gram, so the detector is the bit-exactness check.
    import llvlat.lattice as lat

    # the presets are memoized: clear them so verify builds its lattices
    # from the corrupted constant, and again so no later test sees them
    bad = [list(row) for row in lat.E8_NEG_GRAM]
    bad[0][0] = -4
    lat.make_lattice.cache_clear()
    lat._space.cache_clear()
    monkeypatch.setattr(lat, "E8_NEG_GRAM", tuple(tuple(r) for r in bad))
    try:
        code, out, _ = run_cli(["verify", "--json"], capsys)
    finally:
        lat.make_lattice.cache_clear()
        lat._space.cache_clear()
    assert code == 1
    doc = json.loads(out)
    failed = {c["name"] for c in doc["checks"] if not c["ok"]}
    assert "e8_gram_bit_exact" in failed
    assert "e8_unimodular_even" in failed


def test_entry_point_subprocess():
    # the installed console script and -m module entry agree
    proc = subprocess.run(
        [sys.executable, "-m", "llvlat.cli", "ell", "--json",
         '{"family":"Skyscraper"}'],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["generator"]["s"] == "1"


def test_chern_phiO_r0_below_one_exit2(capsys):
    code, out, err = run_cli(
        ["chern", "--family", "phiO", "--r0", "0", "--h-sq", "6"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("domain error: r0 must be a positive integer")


def test_chern_lagrangian_missing_flag_exit3(capsys):
    code, out, err = run_cli(
        ["chern", "--family", "lagrangian", "--lambda-sq", "6"], capsys)
    assert (code, out) == (3, "")
    assert "--chi-z" in err and "Traceback" not in err


# a failed exact check inside the library must still fire under python -O,
# and the CLI reports it as a verification failure (exit 1) in one line
_CERTIFY_UNDER_O = """
import sys
from fractions import Fraction
from llvlat import CertificateError, certify
from llvlat import monodromy
from llvlat.cli import main

if not sys.flags.optimize:
    sys.exit("not running under -O")
try:
    certify(False, "a false certificate")
except CertificateError:
    pass
else:
    sys.exit("certify(False, ...) did not raise")
monodromy._EK_QUOTIENT_RANK = Fraction(23, 2)  # makes the E_k rank fractional
sys.exit(main(["monodromy", "--ek", "1"]))
"""


def test_certify_survives_python_O():
    proc = subprocess.run([sys.executable, "-O", "-c", _CERTIFY_UNDER_O],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == ("verification error: certificate failed: "
                           "the E_k rank is an integer\n")


def _ell(doc: str, capsys):
    return run_cli(["ell", "--json", doc], capsys)


def test_non_string_type_exit3(capsys):
    # a list used to reach make_space's cache and fail with a TypeError
    for value in ('["K3"]', '5', 'null', '{"a":1}'):
        code, out, err = _ell('{"family":"StructureSheaf","type":%s}' % value,
                              capsys)
        assert (code, out) == (3, ""), value
        assert err.startswith("parse error: field 'type' must be a string")


@pytest.mark.parametrize("expr", ["*e1", "e1+*f1", "1_0*e1", "2.5*e1",
                                  "1e3*e1", "e1f1", "e1+", "2*", "+", "2/*e1"])
def test_h2_expression_refusals_exit3(expr, capsys):
    code, out, err = _ell('{"family":"Lagrangian","lambda":"%s","t":0}' % expr,
                          capsys)
    assert (code, out) == (3, "")
    assert err.startswith("parse error:")


@pytest.mark.parametrize("expr, coords", [
    ("2*e1+3*f1-1/2*d", ("2", "3", "-1/2")),
    ("2e1 + 3f1 - d", ("2", "3", "-1")),
    ("-e1+e1+f1+1/3d", ("0", "1", "1/3")),
    ("+e1-0*f1", ("1", "0", "0")),
])
def test_h2_expression_terms(expr, coords, capsys):
    code, out, _ = _ell('{"family":"Lagrangian","lambda":"%s","t":0}' % expr,
                        capsys)
    assert code == 0
    h2 = json.loads(out)["generator"]["h2"]
    assert (h2[0], h2[1], h2[-1]) == coords
    assert set(h2[2:-1]) == {"0"}


def test_numbers_past_the_digit_limit_exit2(capsys):
    # both used to end in a ValueError traceback and exit 1
    for args in (["ell", "--json",
                  '{"family":"PhiO","r0":"1e3000000","h":"e1"}'],
                 ["chern", "--family", "lagrangian", "--lambda-sq", "1e2000000",
                  "--chi-z", "27"],
                 ["ell", "--json", '{"family":"PhiO","r0":%s,"h":"e1"}'
                  % ("1" * (sys.get_int_max_str_digits() + 1))],
                 ["chern", "--family", "phiO", "--r0", "7" * 5000,
                  "--h-sq", "6"]):
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (2, ""), args
        assert err.startswith("domain error: number has more than"), args


def test_structure_sheaf_huge_n_exit2_at_once():
    proc = subprocess.run(
        [sys.executable, "-m", "llvlat.cli", "ell", "--json",
         '{"family":"StructureSheaf","type":"HilbK3","n":1000000}'],
        capture_output=True, text=True, timeout=5,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("domain error: result has more than")


@pytest.mark.parametrize("args", [
    ["ell", "--json", '{"family":"StructureSheaf","n":200000}'],
    ["ell", "--json", '{"family":"StructureSheaf","type":"Kum","n":300000}'],
    ["ell", "--json", '{"family":"Isotropic","n":1000000,"r0":1,"h":"e1"}'],
    ["ell", "--json", '{"family":"Isotropic","n":3,"r0":"1e4000","h":"e1"}'],
    ["monodromy", "--bkr-r0", "3", "--n", "3000000"],
    # a printable generator with an unprintable integer rank
    ["ell", "--json", '{"family":"Isotropic","n":2000,"r0":1,"h":""}'],
])
def test_unprintable_n_power_results_exit2(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("domain error: result has more than")


@pytest.mark.parametrize("args, code", [
    (["ell", "--json", '{"family":"StructureSheaf","n":2037}'], 0),
    (["ell", "--json", '{"family":"StructureSheaf","n":2038}'], 2),
    (["ell", "--json", '{"family":"StructureSheaf","type":"Kum","n":2039}'], 0),
    (["ell", "--json", '{"family":"StructureSheaf","type":"Kum","n":2040}'], 2),
    (["monodromy", "--bkr-r0", "2", "--n", "14284"], 0),  # 2^14284: 4300 digits
    (["monodromy", "--bkr-r0", "2", "--n", "14285"], 2),
])
def test_largest_printable_n(args, code, capsys):
    assert run_cli(args, capsys)[0] == code


def test_malformed_json_exit3(capsys):
    for doc in ("[" * 100000, '{"family":', "1", '"x"'):
        code, out, err = _ell(doc, capsys)
        assert (code, out) == (3, "")
        assert err.startswith("parse error:")


def test_wrong_field_types_exit3(capsys):
    for doc in ('{"family":"PhiO","r0":true,"h":"e1"}',
                '{"family":"PhiO","r0":[1],"h":"e1"}',
                '{"family":"PhiO","r0":1,"h":["e1"]}',
                '{"family":"PhiO","r0":1,"h":null}',
                '{"family":"Lagrangian","lambda":"e1","t":{"p":1}}',
                '{"family":"KappaTriple","x":1,"y":1}',
                '{"family":["PhiO"]}'):
        code, out, err = _ell(doc, capsys)
        assert (code, out) == (3, ""), doc
        assert err.startswith("parse error:"), doc
    for args in (["chern", "--family", "phiO", "--r0", "x", "--h-sq", "6"],
                 ["search", "--max-lambda-sq", "6.5", "--max-c", "10"],
                 ["monodromy", "--ek", "1/2"],
                 ["lattice", "--preset", "HilbK3", "--n", "two"]):
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (3, ""), args
        assert err.startswith("parse error:"), args


def test_malformed_rational_names_field(capsys):
    # the refusal says which field held the text parse_q could not read
    comma_h = ",".join(["1"] * 22 + ["x"])
    for args, key, text in (
            (["chern", "--family", "phiO", "--r0", "x", "--h-sq", "6"], "--r0", "x"),
            (["chern", "--family", "lagrangian", "--lambda-sq", "6", "--chi-z", "1/0"],
             "--chi-z", "1/0"),
            (["chern", "--family", "phiO", "--r0", "1", "--h", comma_h], "--h", "x"),
            (["ell", "--json", '{"family":"PhiO","r0":1,"h":"1/0*e1"}'], "h", "1/0"),
            (["ell", "--json", '{"family":"PhiO","r0":"2/3/4","h":"e1"}'], "r0", "2/3/4")):
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (3, ""), args
        assert err == f"parse error: field {key!r} is not a rational: {text!r}\n", args
