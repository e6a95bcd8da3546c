"""Deterministic command-line front end.

Subcommands mirror the library one-to-one; this module only parses,
dispatches and prints.  Output is byte-stable: JSON with sorted keys,
rationals rendered "p/q".  Exit codes: 0 success, 1 verification failure,
2 domain error (congruence or admissibility), 3 parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import arith, golden, lines, monodromy as mono
from .errors import CertificateError, DomainError, ParseError
from .lattice import (
    LLVVector,
    make_lattice,
    make_space,
)
from .rational import fmt_q, parse_q

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_DOMAIN = 2
EXIT_PARSE = 3


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _vec_out(v) -> list[str]:
    return [fmt_q(Fraction(c)) for c in v]


def _llv_out(x: LLVVector) -> dict:
    return {"r": fmt_q(x.r), "h2": _vec_out(x.v), "s": fmt_q(x.s)}


def _parse_h2(space, text: str):
    """Parse an H^2 vector: comma-separated rationals or label expressions.

    Accepts "1,3,0,..." (full coordinate list) or "2*e1+3*f1-1*d" style
    label combinations.
    """
    if not isinstance(text, str):
        raise ParseError(f"h2 vector must be a string, got {text!r}")
    text = text.strip()
    labels = space.h2.labels
    if "," in text or text.lstrip("+-").replace("/", "").isdigit():
        parts = [p for p in text.split(",") if p.strip()]
        if len(parts) == space.h2.rank:
            return tuple(parse_q(p) for p in parts)
        raise ParseError(
            f"h2 vector needs {space.h2.rank} coordinates, got {len(parts)}"
        )
    coords = {lab: Fraction(0) for lab in labels}
    token = ""
    terms = []
    for ch in text.replace(" ", ""):
        if ch in "+-" and token:
            terms.append(token)
            token = ch
        else:
            token += ch
    if token:
        terms.append(token)
    for term in terms:
        if "*" in term:
            coeff, lab = term.split("*", 1)
            coeff = coeff or "1"
            if coeff in ("+", "-"):
                coeff += "1"
        else:
            stripped = term.lstrip("+-")
            lab = stripped.lstrip("0123456789/")
            coeff = term[: len(term) - len(lab)] or "1"
            if coeff in ("+", "-"):
                coeff += "1"
        if lab not in coords:
            raise ParseError(f"unknown basis label: {lab!r}")
        coords[lab] += parse_q(coeff)
    return tuple(coords[lab] for lab in labels)


def _int_field(doc, key: str, default=None) -> int:
    """An integer field of a request document; anything else is a parse error."""
    value = doc[key] if default is None else doc.get(key, default)
    q = parse_q(str(value))
    if q.denominator != 1:
        raise ParseError(f"field {key!r} must be an integer, got {value!r}")
    return int(q)


def _space_from(doc) -> "make_space":
    kind = doc.get("type", "HilbK3")
    return make_space(kind, _int_field(doc, "n", 2))


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


def cmd_ell(args) -> int:
    doc = json.loads(args.json)
    if not isinstance(doc, dict):
        raise ParseError("the object spec must be a JSON object")
    family = doc.get("family")
    if family is None:
        raise ParseError("missing field: family")
    space = _space_from(doc)
    out = {"family": family}
    if family == "StructureSheaf":
        line, t, s_int = lines.ell_structure_sheaf(space)
        out |= {
            "generator": _llv_out(line.generator),
            "square": fmt_q(line.square(space)),
            "t": fmt_q(t),
            "sqrt_td_integral": fmt_q(s_int),
        }
    elif family == "Skyscraper":
        line = lines.ell_skyscraper(space)
        out |= {
            "generator": _llv_out(line.generator),
            "square": fmt_q(line.square(space)),
        }
    elif family == "Lagrangian":
        lam = _parse_h2(space, doc["lambda"])
        t = parse_q(str(doc["t"]))
        main, intro = lines.ell_lagrangian(space, lam, t)
        out |= {
            "generator": _llv_out(main.generator),
            "square": fmt_q(main.square(space)),
            "sign_variant": _llv_out(intro.generator),
        }
    elif family == "PhiO":
        r0 = _int_field(doc, "r0")
        h = _parse_h2(space, doc["h"])
        line, _, report = lines.ell_phiO(space, r0, h)
        out |= {
            "generator": _llv_out(line.generator),
            "square": fmt_q(line.square(space)),
            "lambda_member": report["lambda_member"],
            "lambda_divisibility": report["lambda_divisibility"],
            "congruence": report["congruence"],
            "rank": report["rank"],
        }
    elif family == "Isotropic":
        r0 = _int_field(doc, "r0")
        h = _parse_h2(space, doc["h"])
        line, _, report = lines.ell_isotropic(space, r0, h)
        out |= {
            "generator": _llv_out(line.generator),
            "square": fmt_q(line.square(space)),
            "rank": report["rank"],
        }
        if "lambda_divisibility" in report:
            out["lambda_divisibility"] = report["lambda_divisibility"]
    elif family == "KappaTriple":
        x, y, z = (parse_q(str(doc[key])) for key in ("x", "y", "z"))
        c1 = _parse_h2(space, doc.get("c1", ",".join(["0"] * space.h2.rank)))
        res = lines.ell_from_kappa(space, x, y, z, c1)
        if res == "codim>1":
            out |= {"outcome": "codim>1"}
        else:
            out |= {
                "generator": _llv_out(res.generator),
                "square": fmt_q(res.square(space)),
            }
    else:
        raise ParseError(f"unknown family: {family!r}")
    _emit(out)
    return EXIT_OK


def cmd_chern(args) -> int:
    space = make_space("HilbK3", 2)
    if args.family == "phiO":
        r0 = args.r0
        if r0 < 1:
            raise DomainError("r0 must be a positive integer")
        if args.h is not None:
            h = _parse_h2(space, args.h)
        elif args.h_sq is not None:
            eta_sq = parse_q(args.h_sq)
            g = 2 if r0 % 2 == 0 else 1
            eta = _synth_eta(space, r0, eta_sq * g * g / r0**2)
            h = tuple(Fraction(r0, g) * c for c in eta)
        else:
            raise ParseError("need --h or --h-sq")
        ch2, ch3, ch4, kappa, chi_val = lines.chern_phiO(space, r0, h)
        _emit({
            "family": "phiO",
            "r0": r0,
            "h_sq": fmt_q(space.h2.pair(h, h)),
            "ch4": fmt_q(ch4),
            "chi": fmt_q(chi_val),
        })
        return EXIT_OK
    if args.family == "isotropic":
        r0 = args.r0
        if args.h is None:
            raise ParseError("isotropic needs --h")
        h = _parse_h2(space, args.h)
        ch2, ch3, ch4, chi_val = lines.chern_isotropic_k32(space, r0, h)
        _emit({
            "family": "isotropic",
            "r0": r0,
            "h_sq": fmt_q(space.h2.pair(h, h)),
            "ch4": fmt_q(ch4),
            "chi": fmt_q(chi_val),
        })
        return EXIT_OK
    if args.family == "lagrangian":
        missing = [flag for flag, value in (("--lambda-sq", args.lambda_sq),
                                            ("--chi-z", args.chi_z))
                   if value is None]
        if missing:
            raise ParseError(f"lagrangian needs {' and '.join(missing)}")
        data, _ = arith.lagrangian_data(space, parse_q(args.lambda_sq),
                                        args.chi_z)
        _emit({
            "family": "lagrangian",
            "lambda_sq": fmt_q(data.lambda_sq),
            "chiZ": data.chiZ,
            "c": fmt_q(data.c),
            "t": fmt_q(data.t),
            "chiOZ": fmt_q(data.chiOZ),
        })
        return EXIT_OK
    raise ParseError(f"unknown chern family: {args.family!r}")


def cmd_search(args) -> int:
    divs = [args.div] if args.div else [1, 2]
    c_bound = parse_q(args.max_c)
    hits = [h for d in divs
            for h in arith.arithmetic_search(args.max_lambda_sq, c_bound, d)]
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


def cmd_monodromy(args) -> int:
    if args.ek is not None:
        res = mono.ek_pipeline(args.ek)
        _emit({
            "k": args.ek,
            "rank": res["rank"],
            "c1": _vec_out(res["c1"]),
            "s": fmt_q(res["s"]),
            "line": _llv_out(res["line"].generator),
            "twist_line": _llv_out(res["twist_line"].generator),
        })
        return EXIT_OK
    if args.chi_involution is not None:
        space = make_space("HilbK3", args.chi_involution)
        iso = mono.chi_involution(space)
        _emit({
            "n": args.chi_involution,
            "det": iso.det(),
            "matrix": iso.to_rows(),
        })
        return EXIT_OK
    if args.bkr_r0 is not None:
        k3 = make_space("K3")
        c1g = _parse_h2(k3, args.c1g) if args.c1g else (0,) * 22
        rank, c1, s, line = mono.bkr_bundle_c1(args.bkr_r0, c1g, args.n,
                                               args.sign)
        _emit({
            "rank": rank,
            "c1": _vec_out(c1),
            "s": fmt_q(s),
            "line": _llv_out(line.generator),
        })
        return EXIT_OK
    raise ParseError("monodromy needs --ek, --chi-involution or --bkr-r0")


def cmd_lattice(args) -> int:
    lat = make_lattice(args.preset, args.n)
    out = lat.to_dict()
    out["signature"] = list(lat.signature())
    _emit(out)
    return EXIT_OK


def cmd_verify(args) -> int:
    results, ok = golden.run_golden()
    if args.json:
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
    pc.add_argument("--r0", type=int, default=1)
    pc.add_argument("--h", help="H^2 vector (coords or label expression)")
    pc.add_argument("--h-sq", dest="h_sq",
                    help="square of eta; a realizing vector is synthesized")
    pc.add_argument("--lambda-sq", dest="lambda_sq", help="lagrangian square")
    pc.add_argument("--chi-z", dest="chi_z", type=int,
                    help="topological Euler characteristic")
    pc.set_defaults(func=cmd_chern)

    ps = sub.add_parser("search", help="lagrangian admissibility search")
    ps.add_argument("--max-lambda-sq", dest="max_lambda_sq", type=int,
                    required=True)
    ps.add_argument("--max-c", dest="max_c", required=True)
    ps.add_argument("--div", type=int, choices=[1, 2])
    ps.set_defaults(func=cmd_search)

    pm = sub.add_parser("monodromy", help="derived-monodromy computations")
    pm.add_argument("--ek", type=int, help="pipeline for the k-th twist")
    pm.add_argument("--chi-involution", dest="chi_involution", type=int)
    pm.add_argument("--bkr-r0", dest="bkr_r0", type=int)
    pm.add_argument("--c1g", help="K3 H^2 vector for bkr")
    pm.add_argument("--n", type=int, default=2)
    pm.add_argument("--sign", choices=["+", "-"], default="+")
    pm.set_defaults(func=cmd_monodromy)

    pl = sub.add_parser("lattice", help="preset lattice data")
    pl.add_argument("--preset", required=True)
    pl.add_argument("--n", type=int)
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
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (json.JSONDecodeError, KeyError) as exc:
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
