"""Plain-Python reference values the benchmark checks llvlat against.

Nothing here imports llvlat.  Everything is rebuilt from the definitions
stated in PAPER.md: the BBF forms of the K3, K3[n] and Kummer lattices in
llvlat's basis order, the extended space with (alpha, beta) = -1, the
unipotent maps B_lam, the integral LLV lattice
Lambda = B_{-delta/2}(Z alpha + H^2(Z) + Z beta), the gates of the rank r0^2
and isotropic families, the closed-form Chern data and Euler
characteristics, the lagrangian invariants, and the derived-monodromy lift.

Vectors of the extended space are tuples (r, v, s) with v a tuple of
Fractions; all arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

Q = Fraction

# E8 Cartan matrix, negated; the standard labelling used by llvlat
_E8 = (
    (2, 0, -1, 0, 0, 0, 0, 0),
    (0, 2, 0, -1, 0, 0, 0, 0),
    (-1, 0, 2, -1, 0, 0, 0, 0),
    (0, -1, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, 0, 0, -1, 2),
)


def _gram_rows(kind: str, n: int):
    """Sparse BBF Gram rows: list of ((j, value), ...) per basis index."""
    rows: dict[int, dict[int, int]] = {}

    def put(i, j, val):
        rows.setdefault(i, {})[j] = val

    for b in range(3):  # three hyperbolic planes e_b, f_b
        put(2 * b, 2 * b + 1, 1)
        put(2 * b + 1, 2 * b, 1)
    if kind == "Kum":
        put(6, 6, -2 * n - 2)
        rank = 7
    else:
        for blk in range(2):  # two E8(-1) blocks
            off = 6 + 8 * blk
            for i in range(8):
                for j in range(8):
                    if _E8[i][j]:
                        put(off + i, off + j, -_E8[i][j])
        rank = 22
        if kind == "HilbK3" and n >= 2:
            put(22, 22, 2 - 2 * n)
            rank = 23
    return tuple(tuple(sorted(rows.get(i, {}).items())) for i in range(rank))


class Lattice:
    """H^2 with its BBF form, extended by alpha and beta (plain Python)."""

    def __init__(self, kind: str, n: int = 1):
        self.rows = _gram_rows(kind, n)
        self.rank = len(self.rows)

    def h2(self, x, y) -> Fraction:
        total = Q(0)
        for i, xi in enumerate(x):
            if xi:
                for j, g in self.rows[i]:
                    if y[j]:
                        total += xi * g * y[j]
        return total

    def pair(self, x, y) -> Fraction:
        return self.h2(x[1], y[1]) - x[0] * y[2] - y[0] * x[2]

    def h2_div(self, v) -> int:
        """gcd of the pairings of an integral H^2 vector with the basis."""
        d = 0
        for i in range(self.rank):
            d = gcd(d, int(sum(g * v[j] for j, g in self.rows[i])))
        return d

    def delta(self) -> tuple:
        return tuple(Q(1 if i == self.rank - 1 else 0) for i in range(self.rank))

    def b_apply(self, lam, x):
        """B_lam = exp(e_lam): (r, v, s) -> (r, v + r lam, s + (lam, v) + r (lam,lam)/2)."""
        r, v, s = x
        return (r, tuple(a + r * b for a, b in zip(v, lam)),
                s + self.h2(lam, v) + r * self.h2(lam, lam) / 2)

    def to_standard(self, x):
        """B_{delta/2}(x): Lambda-coordinates are the standard ones of this."""
        return self.b_apply(tuple(c / 2 for c in self.delta()), x)

    def from_standard(self, z):
        return self.b_apply(tuple(-c / 2 for c in self.delta()), z)

    def in_lambda(self, x) -> bool:
        return all(c.denominator == 1 for c in coords(self.to_standard(x)))

    def lambda_primitive(self, x) -> bool:
        d = 0
        for c in coords(self.to_standard(x)):
            d = gcd(d, int(c))
        return d == 1

    def lambda_div(self, x) -> int:
        """Divisibility in Lambda: gcd of (B_{delta/2} x, standard basis)."""
        r, v, s = self.to_standard(x)
        return gcd(gcd(int(s), int(r)), self.h2_div(v))


def vec(r, v, s):
    return (Q(r), tuple(Q(c) for c in v), Q(s))


def coords(x) -> tuple:
    return (x[0],) + x[1] + (x[2],)


def scale(c, x):
    return (c * x[0], tuple(c * a for a in x[1]), c * x[2])


def add(x, y):
    return (x[0] + y[0], tuple(a + b for a, b in zip(x[1], y[1])), x[2] + y[2])


def fmt_q(x) -> str:
    x = Q(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


K32 = Lattice("HilbK3", 2)

# ---------------------------------------------------------------------------
# sheaf families on K3[2]


def phio(r0: int, h):
    """Gates and closed forms of the rank r0^2 transforms of O.

    Returns None when a gate refuses the input, otherwise a dict with the
    line generator gamma (square -10), (h, h), chi, ch4 and the top degree
    of the Mukai vector.
    """
    lat = K32
    d = Q(r0, gcd(r0, 2))
    eta = tuple(c / d for c in h)
    if any(c.denominator != 1 for c in eta):
        return None
    eta_sq = lat.h2(eta, eta)
    if r0 % 2:
        if (5 + 2 * eta_sq) % r0:
            return None
    elif (5 + eta_sq / 2) % (2 * r0):
        return None
    hh = lat.h2(h, h)
    gamma = (Q(2 * r0), tuple(2 * c / r0 for c in h), Q(5 * r0**2 + 2 * hh, 2 * r0**3))
    if not (lat.in_lambda(gamma) and lat.lambda_primitive(gamma)
            and lat.lambda_div(gamma) == 2):
        return None
    ch4 = Q(4 * hh**2 + 20 * r0**2 * (1 - r0**2) * hh
            + 25 * r0**4 - 46 * r0**6 + 21 * r0**8, 32 * r0**6)
    chi = Q(4 * hh**2 + 20 * hh * r0**2 * (r0**2 + 1)
            + 25 * r0**4 * (r0**4 + 1) + 46 * r0**6, 32 * r0**6)
    # ch2 = hh/(2 r0^2) + (1 - r0^2)/24 c2 with int c2 l^2 = 30 (l,l), int c2^2 = 828
    ch2_c2 = 15 * hh / r0**2 + Q(828 * (1 - r0**2), 24)
    # v = ch sqrt(td), sqrt(td) = 1 + c2/24 + 25/32 [pt]
    mukai_top = ch4 + ch2_c2 / 24 + Q(25 * r0**2, 32)
    return {"gamma": gamma, "h_sq": hh, "chi": chi, "ch4": ch4,
            "mukai_top": mukai_top, "rank": r0**2}


def isotropic(r0: int, h):
    """Gates and closed forms of the isotropic transforms of sky-scrapers (n = 2)."""
    lat = K32
    g = gcd(2, r0)
    psi = tuple(c / (r0 * g) for c in h)
    if any(c.denominator != 1 for c in psi):
        return None
    psi_sq = lat.h2(psi, psi)
    if r0 % 2 and any(psi) and lat.h2_div(psi) % 2:
        return None
    if psi_sq % Q(2 * r0, g * g):
        return None
    if (Q(psi_sq * g * g, 2 * r0) + r0) % 4:
        return None
    hh = lat.h2(h, h)
    gamma = (Q(r0), tuple(c / (2 * r0) for c in h), Q(hh, 8 * r0**3))
    if not (lat.in_lambda(gamma) and lat.lambda_primitive(gamma)
            and lat.lambda_div(gamma) == 1):
        return None
    chi = Q(hh + 10 * r0**4, 8 * r0**3) ** 2
    ch4 = Q(hh**2, 64 * r0**6) - Q(5 * hh, 16 * r0**2) + Q(21 * r0**2, 16)
    return {"gamma": gamma, "h_sq": hh, "chi": chi, "ch4": ch4, "rank": 2 * r0**2}


def rational_sqrt(x) -> Fraction | None:
    x = Q(x)
    if x < 0:
        return None
    a, b = isqrt(x.numerator), isqrt(x.denominator)
    return Q(a, b) if a * a == x.numerator and b * b == x.denominator else None


def lagrangian(q, chi_z: int):
    """(c, t, chi(O_Z)) from ((lam,lam), chi(Z)), or None if inadmissible."""
    q = Q(q)
    m = rational_sqrt(Q(chi_z, 3)) if chi_z > 0 else None
    if m is None:
        return None
    c = Q(5, 4 * abs(q)) * m
    t = rational_sqrt(Q(48, 25) * c - Q(6, 5 * q))
    if t is None:
        return None
    return {"c": c, "t": t, "chiOZ": Q(chi_z - (1 if q > 0 else -1) * m, 4)}


# ---------------------------------------------------------------------------
# derived monodromy


def lift_phi_p_chi(x, n: int = 2):
    """chi o lift(phi_P) on HilbK3(n), built from the formulas in PAPER.md.

    phi_P: (r, a, s) -> (s, -a, r) has det -1, so the lift is
    (-1)^(n+1) B_{-delta/2} eta B_{delta/2}; chi is (-1)^(n+1) times the
    reflection orthogonal to u0 = (0, delta, n - 1).
    """
    lat = K32 if n == 2 else Lattice("HilbK3", n)
    sign = (-1) ** (n + 1)
    r, v, s = lat.to_standard(x)
    y = lat.from_standard((s, tuple(-c for c in v[:-1]) + (v[-1],), r))
    y = scale(sign, y)  # det(phi_P)^(n+1)
    u0 = vec(0, lat.delta(), n - 1)
    y = add(y, scale(lat.pair(y, u0) / (n - 1), u0))
    return scale(sign, y)


def ek(k: int):
    """Rank, c1, s and twist line of E_k on the degree-six example."""
    lam = (Q(2), Q(6)) + (Q(0),) * 20 + (Q(-3),)
    twist = vec(0, lam, 6 * k - 3)
    img = lift_phi_p_chi(twist)
    rank = 45 * k * k
    gen = scale(Q(rank) / img[0], img)
    return {"rank": rank, "c1": gen[1], "s": gen[2], "line": gen, "twist": twist}


def generator_det_orient(kind: str) -> tuple[int, int]:
    """(det, orientation sign) of a K3 Mukai-lattice generator.

    B_lam is unipotent; a reflection in a (-2)-root fixes the positive
    4-frame's orientation and has det -1; phi_P swaps alpha and beta and
    negates H^2; D negates the three positive directions of H^2.
    """
    return {"b_lambda": (1, 1), "reflection": (-1, 1),
            "phi_p": (-1, 1), "duality_D": (1, -1)}[kind]


def lifted_chi_det_orient(word_kinds, n: int) -> tuple[int, int]:
    """(det, orientation) of chi o lift(g_1 ... g_k) on HilbK3(n).

    det(lift g) = det(g)^(n+2) on the 25-dimensional space, det(chi) =
    (-1)^n; orientation is multiplicative, and both the lift's sign and chi
    preserve it.
    """
    det, orient = 1, 1
    for kind in word_kinds:
        d, o = generator_det_orient(kind)
        det, orient = det * d, orient * o
    return det ** (n + 2) * (-1) ** n, orient


# ---------------------------------------------------------------------------
# lagrangian admissibility search


def search_hit_ok(hit_q: int, c, t, chi_z: int, chi_oz, div: int,
                  lambda_sq_max: int, c_max, want_div: int) -> str | None:
    """Re-derive one search hit; returns None if it holds, else the reason."""
    if div != want_div or not (2 <= hit_q <= lambda_sq_max) or hit_q % 2:
        return "hit outside the box"
    if not (0 < c <= c_max):
        return "c outside the box"
    m = 4 * hit_q * Q(c) / 5
    if m.denominator != 1 or chi_z != 3 * m * m:
        return "chi(Z) != 3 m^2 with c = 5 m / (4 q)"
    t_sq = Q(48, 25) * c - Q(6, 5 * hit_q)
    if t < 0 or t * t != t_sq:
        return "t^2 != 48 c / 25 - 6 / (5 q)"
    if chi_oz != Q(chi_z - m, 4):
        return "chi(O_Z) != (chi(Z) - m) / 4"
    return None


def _is_sq(v: int) -> bool:
    return v >= 0 and isqrt(v) ** 2 == v


def search_plain(lambda_sq_max: int, c_max, div: int):
    """Every admissible (q, c, t) of the box, stepping every m.

    Uses the case analysis as stated for lagrangian surfaces on K3[2]:
    q = 2x never divisible by 5; if 3 | x then div = 2, x = 3 (mod 8),
    8c/5 integral and 3x, 16cx - 5 squares; otherwise x and 3(16cx - 5)
    squares with c/5 integral (div 1) or gcd(8, 5 + x) c / 5 integral
    (div 2); t from t^2 = 48c/25 - 6/(5q).
    """
    c_max = Q(c_max)
    out = []
    for q in range(2, lambda_sq_max + 1, 2):
        x = q // 2
        if q % 5 == 0:
            continue
        if x % 3 == 0:
            if div != 2 or x % 8 != 3 or not _is_sq(3 * x):
                continue
        elif not _is_sq(x):
            continue
        m = 0
        while True:
            m += 1
            c = Q(5 * m, 4 * q)
            if c > c_max:
                break
            if x % 3 == 0:
                if (Q(8, 5) * c).denominator != 1:
                    continue
                val = 16 * c * x - 5
            else:
                scale_ = 1 if div == 1 else gcd(8, 5 + x)
                if (scale_ * c / 5).denominator != 1:
                    continue
                val = 3 * (16 * c * x - 5)
            if val.denominator != 1 or not _is_sq(int(val)):
                continue
            t = rational_sqrt(Q(48, 25) * c - Q(6, 5 * q))
            if t is not None:
                out.append((q, c, t, 3 * m * m))
    return sorted(out)
