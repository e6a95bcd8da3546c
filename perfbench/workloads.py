"""Seeded request generators, one per workload.

A workload is an endless sequence of blocks.  Every block holds the same
multiset of request kinds and cost levels in a seeded order, with seeded
inputs, so any whole number of blocks has the same mix whatever the seed.
Each request is a plain dict: its kind, its inputs (ints, Fractions and
tuples only; llvlat never sees anything else) and the reference answer
from ``ref``, which never imports llvlat.

Why each workload exists, and the layer it isolates:

families   the K3[2] ring and the family gates: chern_phiO (+ chi and the
           Mukai vector), chern_isotropic_k32, lagrangian_data, ek_pipeline
           and the in-process CLI; 3 of every 12 requests violate a gate
           and must be refused.
monodromy  dense isometry construction and composition, lattice pairings
           and Lambda tests; no ring, harmonic or search work.
harmonic   projected-power round trips, 3 classes per request, over 10
           spaces (more than the size-8 caches hold); 2 of every 22
           requests are given in expanded qt form.
search     arithmetic_search boxes spanning two orders of magnitude of
           cost; only the arith layer runs.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import cache

import ref

Q = Fraction
WORKLOADS = ("families", "monodromy", "harmonic", "search")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"llvlat-bench:{workload}:{seed}")


def _sparse(rng, rank, nnz=(1, 4), span=3):
    v = [0] * rank
    for _ in range(rng.randint(*nnz)):
        v[rng.randrange(rank)] = rng.randint(-span, span)
    return v


class GeneratorError(Exception):
    """A generator found no input with the requested gate verdict."""


def _until(make, accept, what):
    """Rejection-sample make() until accept(candidate) returns a value."""
    for _ in range(20000):
        out = accept(make())
        if out is not None:
            return out
    raise GeneratorError(f"generator could not produce {what}")


# ---------------------------------------------------------------------------
# families


def _phio_h(rng, r0, refuse):
    d = Q(r0, math.gcd(r0, 2))

    def make():
        eta = _sparse(rng, 22) + [rng.randint(-3, 3)]
        scale = 1 if refuse and rng.random() < 0.25 else d
        return tuple(scale * Q(c) for c in eta)

    def accept(h):
        r = ref.phio(r0, h)
        if refuse:
            return (h, None) if r is None else None
        return (h, r) if r is not None else None

    return _until(make, accept, f"phiO r0={r0} refuse={refuse}")


def _isotropic_h(rng, r0, refuse):
    g = math.gcd(2, r0)

    def make():
        u = _sparse(rng, 22)
        psi = [2 * c for c in u] if r0 % 2 else u
        return tuple(Q(r0 * g * c) for c in psi + [rng.randint(-3, 3)])

    def accept(h):
        r = ref.isotropic(r0, h)
        if refuse:
            return (h, None) if r is None else None
        return (h, r) if r is not None else None

    return _until(make, accept, f"isotropic r0={r0} refuse={refuse}")


@cache
def _admissible_pairs():
    """Admissible ((lam,lam), chi(Z)) with |q| <= 120 and chi(Z) = 3 m^2, m <= 60."""
    return tuple((q, 3 * m * m) for q in range(-120, 121, 2) for m in range(1, 61)
                 if q and ref.lagrangian(q, 3 * m * m) is not None)


def _coords_arg(h) -> str:
    return ",".join(ref.fmt_q(c) for c in h)


def _llv_json(x) -> dict:
    return {"r": ref.fmt_q(x[0]), "h2": [ref.fmt_q(c) for c in x[1]], "s": ref.fmt_q(x[2])}


def _ek_json(k):
    e = ref.ek(k)
    return {"k": k, "rank": e["rank"], "c1": [ref.fmt_q(c) for c in e["c1"]],
            "s": ref.fmt_q(e["s"]), "line": _llv_json(e["line"]),
            "twist_line": _llv_json(e["twist"])}


def phio_request(r0, h, expect):
    return {"kind": "chern_phiO", "r0": r0, "h": h, "expect": expect}


def _families_block(rng, index):
    out = []
    for r0 in (1, 2, 3):
        h, r = _phio_h(rng, r0, False)
        out.append(phio_request(r0, h, r))
    r0 = rng.choice((2, 3))  # r0 = 1 passes every gate
    h, _ = _phio_h(rng, r0, True)
    out.append(phio_request(r0, h, None))
    for refuse in (False, True):
        r0 = rng.choice((1, 2, 3))
        h, r = _isotropic_h(rng, r0, refuse)
        out.append({"kind": "chern_isotropic", "r0": r0, "h": h, "expect": r})
    # three lagrangian requests make 13 per block, so the median request
    # lies inside the lagrangian/isotropic cost class, not at its edge
    for _ in range(3):
        q, chi_z = rng.choice(_admissible_pairs())
        out.append({"kind": "lagrangian_data", "q": q, "chiZ": chi_z,
                    "expect": ref.lagrangian(q, chi_z)})
    k = rng.randint(1, 4)
    out.append({"kind": "ek_pipeline", "k": k, "expect": ref.ek(k)})
    # the in-process CLI: one success, one refusal (exit 2), one pipeline
    r0 = rng.choice((1, 2, 3))
    h, r = _phio_h(rng, r0, False)
    out.append({"kind": "cli", "argv": ["chern", "--family", "phiO", "--r0", str(r0),
                                        "--h=" + _coords_arg(h)],
                "expect": (0, {"family": "phiO", "r0": r0, "h_sq": ref.fmt_q(r["h_sq"]),
                               "ch4": ref.fmt_q(r["ch4"]), "chi": ref.fmt_q(r["chi"])})})
    r0 = rng.choice((2, 3))
    if rng.random() < 0.5:
        h, _ = _phio_h(rng, r0, True)
        doc = ('{"family": "PhiO", "type": "HilbK3", "n": 2, "r0": %d, "h": "%s"}'
               % (r0, _coords_arg(h)))
        argv = ["ell", "--json", doc]
    else:
        h, _ = _isotropic_h(rng, r0, True)
        argv = ["chern", "--family", "isotropic", "--r0", str(r0), "--h=" + _coords_arg(h)]
    out.append({"kind": "cli", "argv": argv, "expect": (2, None)})
    k = rng.randint(1, 4)
    out.append({"kind": "cli", "argv": ["monodromy", "--ek", str(k)], "expect": (0, _ek_json(k))})
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# monodromy

_GENERATORS = ("b_lambda", "reflection", "phi_p", "duality_D")
_K3 = ref.Lattice("K3")


def _root(rng):
    """A (-2)-root of the K3 Mukai lattice."""
    if rng.random() < 0.5:
        v = [Q(c) for c in _sparse(rng, 22, span=2)]
        return ref.vec(1, v, (_K3.h2(v, v) + 2) / 2)
    v = [0] * 22
    i = rng.randrange(11)
    if i < 3:  # e_b - f_b
        v[2 * i], v[2 * i + 1] = 1, -1
    else:  # a simple root of one E8(-1) block
        v[6 + rng.randrange(16)] = 1
    sign = rng.choice((1, -1))
    return ref.vec(0, [sign * c for c in v], 0)


def _letter(rng, kind):
    if kind == "b_lambda":
        return (kind, tuple(Q(c) for c in _sparse(rng, 22, span=2)))
    if kind == "reflection":
        return (kind, _root(rng))
    return (kind, None)


def _lambda_vectors(rng, lat, count=2):
    out = []
    for _ in range(count):
        z = ref.vec(rng.randint(-3, 3), _sparse(rng, lat.rank), rng.randint(1, 3))
        x = lat.from_standard(z)  # any integral z gives a member of Lambda
        out.append((x, lat.lambda_div(x), lat.pair(x, x)))
    return out


_HILB = {n: ref.Lattice("HilbK3", n) for n in range(2, 6)}


def _monodromy_block(rng, index):
    lengths = [1, 2, 3] * 4
    ns = [2, 3, 4, 5] * 3
    kinds = list(_GENERATORS) * 6  # the 24 letters of a block
    for items in (lengths, ns, kinds):
        rng.shuffle(items)
    out = []
    for length, n in zip(lengths, ns):
        word = tuple(_letter(rng, kinds.pop()) for _ in range(length))
        out.append({"kind": "word", "word": word, "n": n,
                    "vectors": _lambda_vectors(rng, _HILB[n]),
                    "expect": ref.lifted_chi_det_orient([w[0] for w in word], n)})
    return out


# ---------------------------------------------------------------------------
# harmonic

SPACES = tuple(("HilbK3", n) for n in range(2, 7)) + tuple(("Kum", n) for n in range(2, 7))
_LATTICES = {s: ref.Lattice(*s) for s in SPACES}


# a harmonic request recovers the lines of this many classes over one
# generator context; one class a request gives the most requests a run,
# and the median latency of a run moves least from seed to seed
_GAMMAS_PER_REQUEST = 1


def _harmonic_main(rng, space, n_gens):
    lat = _LATTICES[space]
    extra = []
    while len(extra) < n_gens - 2:
        # nonzero e1 and f1 parts make the generators pair with each other,
        # so the cost of a (space, generator count) pair varies little
        v = [rng.choice((-2, -1, 1, 2)) for _ in range(2)] + _sparse(rng, lat.rank - 2, span=2)
        v = tuple(Q(c) for c in v)
        if v not in extra:
            extra.append(v)
    gammas, expect = [], []
    for _ in range(_GAMMAS_PER_REQUEST):
        r = Q(rng.randint(1, 3))
        s = Q(rng.randint(-6, 6), rng.randint(1, 3))
        coeffs = tuple(Q(rng.choice((-2, -1, 1, 2, 3))) for _ in extra)
        lam = [Q(0)] * lat.rank
        for c, v in zip(coeffs, extra):
            lam = [a + c * b for a, b in zip(lam, v)]
        gammas.append((r, s) + coeffs)  # coefficients of alpha, beta, extra
        expect.append((r, tuple(lam), s))
    return {"kind": "roundtrip", "space": space, "p": space[1], "extra": tuple(extra),
            "gammas": tuple(gammas), "expect": tuple(expect)}


def _harmonic_expanded(rng, space, p):
    lat = _LATTICES[space]
    gammas = []
    for _ in range(_GAMMAS_PER_REQUEST):
        v = [Q(0)] * lat.rank
        for i in rng.sample(range(lat.rank), rng.randint(1, 3)):
            v[i] = Q(rng.choice((-2, -1, 1, 2)))
        gammas.append((Q(rng.randint(1, 3)), tuple(v), Q(rng.randint(-6, 6), rng.randint(1, 3))))
    return {"kind": "expanded", "space": space, "p": p, "gammas": tuple(gammas),
            "expect": tuple(gammas)}


# every block runs each space twice in the main share, with 3 and 5
# generators for even n and 4 and 6 for odd n: 3-6 generators on both
# deformation types, with no 6-generator run at n = 6, whose cost would
# stand alone above the rest of the block
# the expanded share walks the 10 spaces in this fixed cycle, one
# HilbK3 and one Kum space per block, so the size-8 caches keyed on the
# space never hit and every block does the same amount of miss work
_EXPANDED_CYCLE = tuple(s for pair in zip(SPACES[:5], SPACES[5:]) for s in pair)


def _harmonic_block(rng, index):
    out = [_harmonic_main(rng, sp, g) for sp in SPACES for g in ((3, 5), (4, 6))[sp[1] % 2]]
    for j in range(2):
        p = 2 + (index + j) % 2
        out.append(_harmonic_expanded(rng, _EXPANDED_CYCLE[(2 * index + j) % 10], p))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# search

_LAMBDA_RANGE = (60, 800)
_C_RANGE = (1000, 5000)


def _log_strata(rng, lo, hi, count):
    """One log-uniform draw from each of count equal strata of [lo, hi]."""
    return [round(math.exp(math.log(lo) + (i + rng.random()) / count * math.log(hi / lo)))
            for i in range(count)]


# an odd number of boxes per block puts the median request inside one
# cost class rather than between two, where it would hang on the extreme
# draws of both
_SEARCH_STRATA = 7


def _search_block(rng, index):
    # stratum i pairs lambda^2 stratum i with c stratum (3 i + 1) mod 7, a
    # fixed pairing, so every block has the same spread of box costs
    k = _SEARCH_STRATA
    lams = _log_strata(rng, *_LAMBDA_RANGE, k)
    cs = _log_strata(rng, *_C_RANGE, k)
    out = [{"kind": "search", "lambda_sq_max": lams[i], "c_max": cs[(3 * i + 1) % k],
            "div": 1 + i % 2} for i in range(k)]
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------


_BLOCKS = {"families": _families_block, "monodromy": _monodromy_block,
           "harmonic": _harmonic_block, "search": _search_block}


def blocks(workload: str, seed: int):
    """Endless seeded sequence of request blocks; request ids are global."""
    make = _BLOCKS[workload]
    rng = _rng(workload, seed)
    rid = 0
    for index in itertools.count():
        block = make(rng, index)
        for req in block:
            req["id"] = rid
            rid += 1
        yield block


def cold_request(workload: str) -> dict:
    """The fixed first request of a fresh interpreter: it fills lazy caches."""
    if workload == "families":
        h = (Q(0),) * 23
        return phio_request(1, h, ref.phio(1, h)) | {"id": -1}
    if workload == "monodromy":
        x = ref.vec(0, (0,) * 22 + (1,), 0)
        return {"id": -1, "kind": "word", "word": (("phi_p", None),), "n": 2,
                "vectors": [(x, ref.K32.lambda_div(x), ref.K32.pair(x, x))],
                "expect": ref.lifted_chi_det_orient(["phi_p"], 2)}
    if workload == "harmonic":
        gamma = (Q(1), (Q(0),) * 23, Q(5, 4))
        return {"id": -1, "kind": "expanded", "space": ("HilbK3", 2), "p": 2,
                "gammas": (gamma,), "expect": (gamma,)}
    if workload == "search":
        return {"id": -1, "kind": "search", "lambda_sq_max": 60, "c_max": 1000, "div": 2}
    raise ValueError(f"unknown workload: {workload!r}")
