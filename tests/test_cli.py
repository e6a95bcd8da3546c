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
