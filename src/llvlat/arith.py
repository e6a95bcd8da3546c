"""Congruence and admissibility arithmetic for lagrangian surfaces.

A smooth lagrangian surface Z in a K3[2]-type fourfold whose structure
sheaf deforms in codimension one has all of its Chern data pinned down by
the square q = (lam, lam) of the line-bundle class cutting out the rank-one
restriction and by the topological Euler characteristic chi(Z):

  c = 5 / (4 |q|) * sqrt(chi(Z) / 3)         scale of [Z]
  t^2 = (48/25) c - 6 / (5 q)                canonical slope squared
  chi(O_Z) = (chi(Z) - sign(q) sqrt(chi(Z)/3)) / 4

chi(Z)/3 must be a perfect rational square and t must be rational; those
are the admissibility gates.  All square tests are exact integer root
extractions.

The constraint search enumerates chi(Z) = 3 m^2 (the primary gate) per
positive even square q, applying the classical case analysis: q never
divisible by 5; for 3 | q/2 divisibility 2 is forced along with
q/2 = 3 (mod 8), 8c/5 integral, and 3 q/2, 16 c q/2 - 5 perfect squares;
otherwise q/2 and 3 (16 c q/2 - 5) are perfect squares with c/5 integral
(divisibility 1) or gcd(8, 5 + q/2) c / 5 integral (divisibility 2).

The search never tests a square.  With x = q/2 and c = 5 m / (8 x),
16 c x - 5 = 5 (2m - 1), so the square gate holds exactly when
2m - 1 = f k^2 with k odd, f = 5 if 3 | x and f = 15 otherwise.  The
admissible x are then x = s^2 (3, 5 not dividing s) and, for divisibility
2, x = 3 r^2 (r odd, 5 not dividing r), and t^2 = 3 f k^2 / (5 x) is forced
to be a rational square: t = 3k/s or k/r.  So the search runs over odd k,
sets m = (f k^2 + 1)/2 and keeps the m on the integrality stride.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, isqrt

from . import cohomology as coh
from .errors import DomainError, InadmissibleError, certify
from .lattice import LLVSpace
from .rational import fmt_q, sqrt_rational


@dataclass(frozen=True)
class LagrangianData:
    lambda_sq: Fraction
    chiZ: int
    c: Fraction
    t: Fraction  # the non-negative representative; -t is equally valid
    chiOZ: Fraction
    div: int | None = None  # divisibility of the cutting class, when known


def lagrangian_data(space: LLVSpace, lambda_sq, chiZ: int, lam=None,
                    div: int | None = None):
    """Admissible invariants and Chern data from ((lam,lam), chi(Z)).

    Returns (data, (ch2, ch3, ch4)) where the Chern pieces are computed for
    a concrete representative vector lam of the requested square (supplied
    or synthesized inside the first hyperbolic block); the identity
    integral of ch2^2 = chi(Z) is verified in the ring.  The divisibility
    is recorded when supplied (or when a concrete lam pins it down); it
    does not enter these invariants.
    """
    coh._require_k32(space)
    q = Fraction(lambda_sq)
    if q == 0:
        raise DomainError("(lam, lam) must be nonzero")
    if chiZ <= 0:
        raise InadmissibleError("chi(Z) must be positive")
    m = sqrt_rational(Fraction(chiZ, 3))
    if m is None:
        raise InadmissibleError(f"chi(Z)/3 = {fmt_q(Fraction(chiZ, 3))} is "
                                "not a rational square")
    c = Fraction(5, 4 * abs(q)) * m
    t_sq = Fraction(48, 25) * c - Fraction(6, 5 * q)
    if t_sq < 0:
        raise InadmissibleError(f"t^2 = {fmt_q(t_sq)} < 0")
    t = sqrt_rational(t_sq)
    if t is None:
        raise InadmissibleError(f"t^2 = {fmt_q(t_sq)} is not a rational square")
    sign = 1 if q > 0 else -1
    chi_oz = Fraction(chiZ - sign * m, 4)

    synthesized = lam is None
    if synthesized:
        lam = (1, q / 2) + (0,) * (space.h2.rank - 2)
    lamv = space.h2.vector(lam)
    if div is None and not synthesized and space.h2.is_integral(lamv) \
            and space.h2.is_primitive(lamv):
        div = space.h2.divisibility(lamv)
    data = LagrangianData(q, chiZ, c, t, chi_oz, div)
    if space.h2.pair(lamv, lamv) != q:
        raise DomainError("representative vector has the wrong square")
    c2 = coh.c2_class(space)
    lam_cls = coh.h2_class(space, lamv)
    lam2 = coh.cup(lam_cls, lam_cls)
    ch2 = c * (lam2 - (q / 30) * c2)
    ch3 = (-c * t / 3) * coh.deg6_from_triple(space, lamv, lamv, lamv)
    ch4 = c * (t**2 * q**2 / 4 - q / 10)
    if coh.integrate(coh.cup(ch2, ch2)) != chiZ:
        raise DomainError("ch2 self-intersection failed to reproduce chi(Z)")
    # chi(O_Z) through the ring must match the closed form
    ch = ch2 + ch3 + coh.point_class(space, ch4)
    certify(coh.chi(space, ch) == chi_oz, "chi(O_Z) through the ring")
    return data, (ch2, ch3, ch4)


def hodge_relations(chiZ: int, h10: int, lambda_sq_positive: bool = True):
    """Hodge numbers (h20, h11) forced by chi(Z) and h10 when (lam,lam) > 0.

    Negative outputs are returned flagged rather than raised: the caller
    learns the formula is inapplicable (as for the lagrangian plane, where
    the square is negative).
    """
    if chiZ <= 0:
        raise InadmissibleError("chi(Z) must be positive")
    m = sqrt_rational(Fraction(chiZ, 3))
    if m is None:
        raise InadmissibleError("chi(Z)/3 is not a rational square")
    if not lambda_sq_positive:
        m = -m
    h20 = Fraction(chiZ - m + 4 * h10 - 4, 4)
    h11 = Fraction(chiZ + m + 4 * h10, 2)
    flagged = h20 < 0 or h11 < 0 or h20.denominator != 1 or h11.denominator != 1
    # Euler characteristic readback
    certify(2 - 4 * h10 + 2 * h20 + h11 == chiZ,
            "the Hodge numbers read back chi(Z)")
    return h20, h11, flagged


@dataclass(frozen=True)
class SearchHit:
    lambda_sq: int
    div: int
    c: Fraction
    t: Fraction
    chiZ: int
    chiOZ: Fraction


# a search box may take at most this many steps: one per candidate odd k,
# plus one per candidate root s or r of x = q/2 (see arithmetic_search)
SEARCH_STEP_LIMIT = 10**6


def _square_classes(x_max: int, div: int, c_bound: Fraction):
    """(q, f, stride, root, k_top) for every x = q/2 <= x_max the cases admit.

    x = s^2 with 3 and 5 not dividing s (f = 15; stride 8x for divisibility
    1, 8x / gcd(8, 5 + x) for divisibility 2), and, for divisibility 2 only,
    x = 3 r^2 with r odd and 5 not dividing r (then x = 3 (mod 8), 3x is a
    square and the stride of m is x; f = 5).  k_top is the largest k with
    m = (f k^2 + 1)/2 <= m_max = 4 q c_bound / 5.
    """
    roots = ((s, s * s, 15) for s in range(1, isqrt(x_max) + 1)
             if s % 3 and s % 5)
    if div == 2:
        roots = chain(roots, ((r, 3 * r * r, 5)
                              for r in range(1, isqrt(x_max // 3) + 1, 2)
                              if r % 5))
    for root, x, f in roots:
        if f == 5:
            stride = x
        elif div == 1:
            stride = 8 * x
        else:
            stride = 8 * x // gcd(8, 5 + x)
        q = 2 * x
        m_top = 4 * q * c_bound.numerator // (5 * c_bound.denominator)
        k_top = isqrt(max(2 * m_top - 1, 0) // f)
        yield q, f, stride, root, k_top


def arithmetic_search(lambda_sq_max: int, c_bound, div: int) -> list[SearchHit]:
    """All admissible (lambda_sq, c, t) in the box, for one divisibility.

    chi(Z) = 3 m^2 with c = 5 m / (4 lambda_sq) = 5 m / (8 x), so the
    square gate reads 2 m - 1 = f k^2 with k odd (see the module docstring)
    and the search runs over odd k up to m <= 4 lambda_sq c_bound / 5,
    keeping the m on the integrality stride; t = (f/5) k / root is then
    certified against t^2 = (48/25) c - 6/(5 q).  A box that would take
    more than SEARCH_STEP_LIMIT = 10^6 steps (candidate roots s, r of x
    plus candidate k) is refused with DomainError before any search.
    """
    if div not in (1, 2):
        raise DomainError("div must be 1 or 2")
    c_bound = Fraction(c_bound)
    if lambda_sq_max < 2 or c_bound <= 0:
        raise DomainError("bounds must be positive")
    x_max = lambda_sq_max // 2
    steps = isqrt(x_max) + isqrt(x_max // 3)
    if steps <= SEARCH_STEP_LIMIT:
        steps += sum((k_top + 1) // 2 for *_, k_top
                     in _square_classes(x_max, div, c_bound))
    if steps > SEARCH_STEP_LIMIT:
        raise DomainError("search box too large: more than "
                          f"{SEARCH_STEP_LIMIT} candidate steps")
    hits = []
    for q, f, stride, root, k_top in _square_classes(x_max, div, c_bound):
        for k in range(1, k_top + 1, 2):
            m = (f * k * k + 1) // 2
            if m % stride:
                continue
            # t = (f/5) k / root; with c = 5 m / (4 q) the closed form
            # t^2 = (48/25) c - 6/(5 q) is (12 m - 6)/(5 q), cross-multiplied
            t_num = f // 5 * k
            certify(5 * q * t_num * t_num == (12 * m - 6) * root * root,
                    "t^2 = (48/25) c - 6/(5 q) on a search hit")
            chi_z = 3 * m * m
            hits.append(SearchHit(q, div, Fraction(5 * m, 4 * q),
                                  Fraction(t_num, root), chi_z,
                                  Fraction(chi_z - m, 4)))
    hits.sort(key=lambda h: (h.lambda_sq, h.c))
    return hits


def integral_lagrangian_class(space: LLVSpace, lam) -> tuple[coh.CohClass, Fraction]:
    """The primitive integral class proportional to a lagrangian class.

    For primitive lam of divisibility 1 the class is
    (5 lam^2 - (lam,lam)/6 c2) / gcd(5, (lam,lam)); for divisibility 2 the
    denominator is gcd(40, 5 + (lam,lam)/2).  Returns (class, scale
    denominator).
    """
    coh._require_k32(space)
    lamv = space.h2.vector(lam)
    if not space.h2.is_integral(lamv):
        raise DomainError("lam must be integral")
    if not space.h2.is_primitive(lamv):
        raise DomainError("lam must be primitive")
    d = space.h2.divisibility(lamv)
    if d not in (1, 2):
        raise DomainError("divisibility must be 1 or 2")
    q = space.h2.pair(lamv, lamv)
    lam_cls = coh.h2_class(space, lamv)
    raw = 5 * coh.cup(lam_cls, lam_cls) - (q / 6) * coh.c2_class(space)
    if d == 1:
        denom = Fraction(gcd(5, int(q)))
    else:
        denom = Fraction(gcd(40, int(5 + q / 2)))
    return (1 / denom) * raw, denom


def untwisted_lift_check(r: int, a: int, div_alpha: int, alpha_sq: int,
                         candidates) -> list[bool]:
    """Untwisted-deformability verdicts for candidate (div_beta, beta_sq, k).

    With rho = r / gcd(a, r) and gcd(rho, div_alpha) in {1, 2}, a candidate
    passes when gcd(k, rho) = 1, gcd(rho, div_beta) = gcd(rho, div_alpha),
    and k^2 beta_sq / 2 = alpha_sq / 2 modulo rho (gcd 1) or 2 rho (gcd 2).
    """
    if r <= 0:
        raise DomainError("rank must be positive")
    rho = r // gcd(a, r)
    g = gcd(rho, div_alpha)
    if g not in (1, 2):
        raise DomainError("hypothesis gcd(rho, div(alpha)) in {1, 2} fails")
    if alpha_sq % 2 != 0:
        raise DomainError("alpha_sq must be even")
    out = []
    for (div_beta, beta_sq, k) in candidates:
        if beta_sq % 2 != 0:
            raise DomainError("beta_sq must be even")
        if gcd(k, rho) != 1:
            out.append(False)
            continue
        if gcd(rho, div_beta) != g:
            out.append(False)
            continue
        modulus = rho if g == 1 else 2 * rho
        out.append((k * k * (beta_sq // 2) - alpha_sq // 2) % modulus == 0)
    return out


def segre_enumerate(space: LLVSpace, r0_max: int):
    """Ranks whose second Segre class is proportional to a lagrangian class.

    Scans r0 = 1..r0_max for integral solutions of
    (h, h) = 5 r0^2 (r0^2 - 1) / (2 (r0^2 + 1)), reporting
    (r0, (eta, eta), chi) with eta the primitive scaling of c1 and chi from
    the rank r0^2 Euler characteristic formula.  The scan is monotone in r0
    and deterministic.
    """
    coh._require_k32(space)
    if r0_max < 1:
        raise DomainError("r0_max must be >= 1")
    out = []
    for r0 in range(1, r0_max + 1):
        h_sq = Fraction(5 * r0**2 * (r0**2 - 1), 2 * (r0**2 + 1))
        g = gcd(2, r0)
        eta_sq = h_sq * g * g / r0**2
        if eta_sq.denominator != 1 or eta_sq % 2 != 0:
            continue
        chi = Fraction(
            4 * h_sq**2 + 20 * h_sq * r0**2 * (r0**2 + 1)
            + 25 * r0**4 * (r0**4 + 1) + 46 * r0**6,
            32 * r0**6,
        )
        certify(chi.denominator == 1,
                "chi of the rank r0^2 family is an integer")
        out.append((r0, int(eta_sq), int(chi)))
    return out
