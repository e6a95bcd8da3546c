"""Deterministic command-line front end.

Subcommands mirror the library one-to-one; this module only parses,
dispatches and prints.  Output is byte-stable: JSON with sorted keys,
rationals rendered "p/q".  Exit codes: 0 success, 1 verification failure,
2 domain error (congruence or admissibility, or a number with more digits
than Python prints), 3 parse error.

Every subcommand gets one request dict: the ``ell --json`` document, or the
flags given, keyed as spelled ("--chi-z").  Its fields are read only through
four typed readers, ``_int``, ``_q``, ``_h2`` and ``_name``; each raises
ParseError on a missing field or a value of another type.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import arith, golden, lines, monodromy as mono
from .errors import CertificateError, DomainError, ParseError
from .lattice import LLVVector, make_lattice, make_space
from .rational import fmt_q, parse_q, too_many_digits

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_DOMAIN = 2
EXIT_PARSE = 3

# one term of an H^2 label expression: [sign][p[/q][*]]label
_TERM = r"([+-]?)(?:(\d+(?:/\d+)?)\*?)?([A-Za-z]\w*)"
_REQUIRED = object()


def _emit(obj) -> None:
    try:
        text = json.dumps(obj, sort_keys=True, indent=2)
    except ValueError as exc:  # an int past the int-to-text digit limit
        raise too_many_digits() from exc
    print(text)


def _vec_out(v) -> list[str]:
    return [fmt_q(c) for c in v]


def _llv_out(x: LLVVector) -> dict:
    return {"r": fmt_q(x.r), "h2": _vec_out(x.v), "s": fmt_q(x.s)}


def _line_out(space, line) -> dict:
    return {"generator": _llv_out(line.generator),
            "square": fmt_q(line.square(space))}


def _field(req: dict, key: str, default):
    value = req.get(key, default)
    if value is _REQUIRED:
        raise ParseError(f"missing field: {key}")
    return value


def _name(req: dict, key: str, default=_REQUIRED) -> str:
    """A string field: a family, a preset, a sign or an H^2 expression."""
    value = _field(req, key, default)
    if not isinstance(value, str):
        raise ParseError(f"field {key!r} must be a string, "
                         f"got {type(value).__name__}")
    return value


def _parse_q(key: str, text: str) -> Fraction:
    """parse_q on the text of a field, naming the field in a refusal."""
    try:
        return parse_q(text)
    except ParseError as exc:
        raise ParseError(f"field {key!r} is not a rational: {text!r}") from exc


def _q(req: dict, key: str, default=_REQUIRED) -> Fraction:
    """A rational field: a number, or a string that parse_q reads."""
    value = _field(req, key, default)
    if isinstance(value, float):
        value = repr(value)
    if isinstance(value, str):
        return _parse_q(key, value)
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Fraction(value)
    raise ParseError(f"field {key!r} must be a rational, "
                     f"got {type(value).__name__}")


def _int(req: dict, key: str, default=_REQUIRED) -> int:
    q = _q(req, key, default)
    if q.denominator != 1:
        raise ParseError(f"field {key!r} must be an integer, got {fmt_q(q)}")
    return int(q)


def _h2(space, req: dict, key: str, default=_REQUIRED) -> tuple:
    """An H^2 field: all coordinates, comma-separated, or a sum of terms.

    A term is [sign][p[/q][*]]label, e.g. "2*e1+3f1-1/2*d"; a "*" needs a
    coefficient before it, and the empty expression is the zero vector.
    """
    text = _name(req, key, default).strip()
    if "," in text:
        parts = [p for p in text.split(",") if p.strip()]
        if len(parts) != space.h2.rank:
            raise ParseError(f"h2 vector needs {space.h2.rank} coordinates, "
                             f"got {len(parts)}")
        return tuple(_parse_q(key, p) for p in parts)
    text = text.replace(" ", "")
    # each term ends where the next sign starts, so findall splits as matched
    if not re.fullmatch(rf"(?:{_TERM}(?=[+-]|\Z))*", text):
        raise ParseError(f"field {key!r} is not an H^2 expression: {text!r}")
    coords = dict.fromkeys(space.h2.labels, Fraction(0))
    for sign, coeff, label in re.findall(_TERM, text):
        if label not in coords:
            raise ParseError(f"unknown basis label: {label!r}")
        coords[label] += _parse_q(key, sign + (coeff or "1"))
    return tuple(coords.values())


def _refuse_unprintable(n: int, r0: int, n_factorial: bool) -> None:
    """Refuse at once the rank or integral of an n-th power that cannot print.

    n! has more digits than the limit once n passes it, and so has the
    reduced denominator of the structure-sheaf integral; r0^n has once
    n (bits(r0) - 1) passes 4 limit, as 2^(4 limit) > 10^limit.  Anything
    let through here is still refused by fmt_q when it is printed.
    """
    limit = sys.get_int_max_str_digits()
    if limit and (n_factorial and n > limit
                  or n * (r0.bit_length() - 1) > 4 * limit):
        raise too_many_digits()


def _synth_eta(space, r0: int, eta_sq: Fraction):
    """A vector eta of the requested square passing the even/odd gates."""
    if eta_sq.denominator != 1 or eta_sq % 2 != 0:
        raise DomainError("eta_sq must be an even integer")
    k = space.h2.rank
    if r0 % 2 == 1:
        # e1 + (q/2) f1 has square q
        return (Fraction(1), eta_sq / 2) + (Fraction(0),) * (k - 2)
    # even rank: needs all pairings even, so 2 v + odd * delta
    if (eta_sq + 2) % 8 != 0:
        raise DomainError("even r0 needs eta_sq = 6 (mod 8)")
    m = (eta_sq + 2) / 8
    return (Fraction(2), 2 * m) + (Fraction(0),) * (k - 3) + (Fraction(1),)


def cmd_ell(req: dict) -> int:
    try:
        doc = json.loads(_name(req, "--json"), parse_int=parse_q)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"not a JSON document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("the object spec must be a JSON object")
    family = _name(doc, "family")
    space = make_space(_name(doc, "type", "HilbK3"), _int(doc, "n", 2))
    out = {"family": family}
    if family == "StructureSheaf":
        _refuse_unprintable(space.n, 1, True)
        line, t, s_int = lines.ell_structure_sheaf(space)
        out |= {"t": fmt_q(t), "sqrt_td_integral": fmt_q(s_int)}
    elif family == "Skyscraper":
        line = lines.ell_skyscraper(space)
    elif family == "Lagrangian":
        line, intro = lines.ell_lagrangian(space, _h2(space, doc, "lambda"),
                                           _q(doc, "t"))
        out["sign_variant"] = _llv_out(intro.generator)
    elif family == "PhiO":
        line, _, report = lines.ell_phiO(space, _int(doc, "r0"),
                                         _h2(space, doc, "h"))
        out |= {key: report[key] for key in ("lambda_member", "congruence",
                                             "lambda_divisibility", "rank")}
    elif family == "Isotropic":
        r0 = _int(doc, "r0")
        _refuse_unprintable(space.n, r0, True)
        line, _, report = lines.ell_isotropic(space, r0, _h2(space, doc, "h"))
        out |= {key: report[key] for key in ("rank", "lambda_divisibility")
                if key in report}
    elif family == "KappaTriple":
        x, y, z = (_q(doc, key) for key in ("x", "y", "z"))
        line = lines.ell_from_kappa(space, x, y, z, _h2(space, doc, "c1", ""))
        if line == "codim>1":
            _emit(out | {"outcome": line})
            return EXIT_OK
    else:
        raise ParseError(f"unknown family: {family!r}")
    _emit(out | _line_out(space, line))
    return EXIT_OK


def cmd_chern(req: dict) -> int:
    space = make_space("HilbK3", 2)
    family = _name(req, "--family")
    if family == "lagrangian":
        data, _ = arith.lagrangian_data(space, _q(req, "--lambda-sq"),
                                        _int(req, "--chi-z"))
        _emit({"family": family, "chiZ": data.chiZ} | {
            key: fmt_q(getattr(data, key))
            for key in ("lambda_sq", "c", "t", "chiOZ")})
        return EXIT_OK
    r0 = _int(req, "--r0", 1)
    if family == "isotropic":
        h = _h2(space, req, "--h")
        _, _, ch4, chi_val = lines.chern_isotropic_k32(space, r0, h)
    else:  # phiO, the only other choice
        if r0 < 1:
            raise DomainError("r0 must be a positive integer")
        if "--h" in req:
            h = _h2(space, req, "--h")
        elif "--h-sq" in req:
            g = 2 if r0 % 2 == 0 else 1
            eta = _synth_eta(space, r0, _q(req, "--h-sq") * g * g / r0**2)
            h = tuple(Fraction(r0, g) * c for c in eta)
        else:
            raise ParseError("need --h or --h-sq")
        _, _, ch4, _, chi_val = lines.chern_phiO(space, r0, h)
    _emit({"family": family, "r0": r0, "h_sq": fmt_q(space.h2.pair(h, h)),
           "ch4": fmt_q(ch4), "chi": fmt_q(chi_val)})
    return EXIT_OK


def cmd_search(req: dict) -> int:
    lambda_sq_max = _int(req, "--max-lambda-sq")
    c_bound = _q(req, "--max-c")
    divs = [_int(req, "--div")] if "--div" in req else [1, 2]
    hits = [h for d in divs
            for h in arith.arithmetic_search(lambda_sq_max, c_bound, d)]
    hits.sort(key=lambda h: (h.lambda_sq, h.div, h.c))
    rows = [{
        "lambda_sq": h.lambda_sq,
        "div": h.div,
        "c": fmt_q(h.c),
        "t": fmt_q(h.t),
        "chiZ": h.chiZ,
        "chiOZ": fmt_q(h.chiOZ),
    } for h in hits]
    _emit({"hits": rows, "count": len(rows)})
    return EXIT_OK


def cmd_monodromy(req: dict) -> int:
    if "--ek" in req:
        k = _int(req, "--ek")
        res = mono.ek_pipeline(k)
        _emit({
            "k": k,
            "rank": res["rank"],
            "c1": _vec_out(res["c1"]),
            "s": fmt_q(res["s"]),
            "line": _llv_out(res["line"].generator),
            "twist_line": _llv_out(res["twist_line"].generator),
        })
    elif "--chi-involution" in req:
        n = _int(req, "--chi-involution")
        iso = mono.chi_involution(make_space("HilbK3", n))
        _emit({"n": n, "det": iso.det(), "matrix": iso.to_rows()})
    elif "--bkr-r0" in req:
        r0, n = _int(req, "--bkr-r0"), _int(req, "--n", 2)
        _refuse_unprintable(n, r0, False)
        c1g = _h2(make_space("K3"), req, "--c1g", "")
        rank, c1, s, line = mono.bkr_bundle_c1(r0, c1g, n,
                                               _name(req, "--sign", "+"))
        _emit({"rank": rank, "c1": _vec_out(c1), "s": fmt_q(s),
               "line": _llv_out(line.generator)})
    else:
        raise ParseError("monodromy needs --ek, --chi-involution or --bkr-r0")
    return EXIT_OK


def cmd_lattice(req: dict) -> int:
    lat = make_lattice(_name(req, "--preset"),
                       _int(req, "--n") if "--n" in req else None)
    out = lat.to_dict()
    out["signature"] = list(lat.signature())
    _emit(out)
    return EXIT_OK


def cmd_verify(req: dict) -> int:
    results, ok = golden.run_golden()
    if "--json" in req:
        _emit({"checks": results, "passed": ok, "count": len(results)})
    else:
        for r in results:
            mark = "ok" if r["ok"] else "FAIL"
            line = f"[{mark}] {r['name']}"
            if not r["ok"]:
                line += f": expected {r['expected']}, got {r['actual']}"
            print(line)
        if ok:
            print(f"all {len(results)} checks passed")
        else:
            failed = sum(1 for r in results if not r["ok"])
            print(f"{failed} of {len(results)} checks FAILED")
    return EXIT_OK if ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="llvlat",
        description="Exact LLV lattice toolkit for hyper-Kahler manifolds "
                    "of K3[n] and generalized Kummer type.",
        epilog="Lattice presets: U, E8neg, K3, HilbK3 (with --n), Kum "
               "(with --n).  Object families for ell: StructureSheaf, "
               "Skyscraper, Lagrangian {lambda, t}, PhiO {r0, h}, "
               "Isotropic {r0, h}, KappaTriple {x, y, z, c1}.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("ell", help="LLV line of an object family")
    pe.add_argument("--json", required=True,
                    help='object spec, e.g. {"family":"StructureSheaf",'
                         '"type":"HilbK3","n":2}')
    pe.set_defaults(func=cmd_ell)

    pc = sub.add_parser("chern", help="Chern data and Euler characteristics")
    pc.add_argument("--family", required=True,
                    choices=["phiO", "isotropic", "lagrangian"])
    pc.add_argument("--r0", help="rank parameter (default 1)")
    pc.add_argument("--h", help="H^2 vector (coords or label expression)")
    pc.add_argument("--h-sq",
                    help="square of eta; a realizing vector is synthesized")
    pc.add_argument("--lambda-sq", help="lagrangian square")
    pc.add_argument("--chi-z", help="topological Euler characteristic")
    pc.set_defaults(func=cmd_chern)

    ps = sub.add_parser("search", help="lagrangian admissibility search")
    ps.add_argument("--max-lambda-sq", required=True)
    ps.add_argument("--max-c", required=True)
    ps.add_argument("--div", help="1 or 2 (default: both)")
    ps.set_defaults(func=cmd_search)

    pm = sub.add_parser("monodromy", help="derived-monodromy computations")
    pm.add_argument("--ek", help="pipeline for the k-th twist")
    pm.add_argument("--chi-involution")
    pm.add_argument("--bkr-r0")
    pm.add_argument("--c1g", help="K3 H^2 vector for bkr")
    pm.add_argument("--n", help="for bkr (default 2)")
    pm.add_argument("--sign", choices=["+", "-"], help="default +")
    pm.set_defaults(func=cmd_monodromy)

    pl = sub.add_parser("lattice", help="preset lattice data")
    pl.add_argument("--preset", required=True)
    pl.add_argument("--n")
    pl.set_defaults(func=cmd_lattice)

    pv = sub.add_parser("verify", help="replay the golden value table")
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; normalize to the parse-error code
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    # the request: each flag given, keyed as spelled ("--chi-z")
    req = {"--" + key.replace("_", "-"): value
           for key, value in vars(args).items() if value not in (None, False)}
    try:
        return args.func(req)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except CertificateError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
