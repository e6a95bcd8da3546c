"""Linear reference for the lagrangian admissibility search.

This is the path the library replaced with the root enumeration of
``llvlat.arith.arithmetic_search``: for every even square q = 2x it steps
m = sqrt(chi(Z)/3) along the integrality stride, builds c = 5m/(4q), tests
the perfect-square gate on 16cx - 5 (or 3(16cx - 5)) by integer root
extraction and keeps the hits whose t^2 is a rational square.  The stride
and the gate are kept here as well, so a fault in the library's case
analysis cannot cancel out.  Tests compare full SearchHit lists.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from llvlat.arith import SearchHit
from llvlat.errors import DomainError
from llvlat.rational import is_square_int, sqrt_rational


def _square_gate(x: int, c: Fraction, div: int) -> bool:
    """Per-candidate perfect-square conditions of the case analysis."""
    if x % 3 == 0:
        val = 16 * c * x - 5
    else:
        val = 3 * (16 * c * x - 5)
    return val.denominator == 1 and is_square_int(int(val))


def _m_stride(x: int, div: int) -> int | None:
    """Stride of m = sqrt(chi(Z)/3) forced by the integrality conditions.

    c = 5 m / (8 x), so the per-case integrality of (a multiple of) c / 5
    pins m to multiples of a fixed stride; None means the whole square
    (lam, lam) = 2x is excluded for this divisibility.
    """
    if x % 3 == 0:
        # forced: div = 2, x = 3 (mod 8), 3x a perfect square, 8c/5 integral
        if div != 2 or x % 8 != 3 or not is_square_int(3 * x):
            return None
        return x  # 8c/5 = m/x
    if not is_square_int(x):
        return None
    if div == 1:
        return 8 * x  # c/5 = m/(8x)
    scale = gcd(8, 5 + x)
    return 8 * x // gcd(scale, 8 * x)


def linear_search(lambda_sq_max: int, c_bound, div: int) -> list[SearchHit]:
    """All admissible (lambda_sq, c, t) in the box, for one divisibility.

    chi(Z) = 3 m^2 is the enumeration variable: c = 5 m / (4 lambda_sq), so
    m runs to 4 lambda_sq c_bound / 5 along the integrality stride.
    Squares divisible by 5 are skipped outright.  Every hit re-derives t
    from t^2 = (48/25) c - 6/(5 q) and keeps only rational-square outcomes.
    """
    if div not in (1, 2):
        raise DomainError("div must be 1 or 2")
    c_bound = Fraction(c_bound)
    if lambda_sq_max < 2 or c_bound <= 0:
        raise DomainError("bounds must be positive")
    hits = []
    for q in range(2, lambda_sq_max + 1, 2):
        if q % 5 == 0:
            continue
        x = q // 2
        stride = _m_stride(x, div)
        if stride is None:
            continue
        m_max = 4 * q * c_bound / 5
        m = stride
        while m <= m_max:
            c = Fraction(5 * m, 4 * q)
            if _square_gate(x, c, div):
                t_sq = Fraction(48, 25) * c - Fraction(6, 5 * q)
                t = sqrt_rational(t_sq) if t_sq >= 0 else None
                if t is not None:
                    chi_z = 3 * m * m
                    chi_oz = Fraction(chi_z - m, 4)
                    hits.append(SearchHit(q, div, c, t, chi_z, chi_oz))
            m += stride
    hits.sort(key=lambda h: (h.lambda_sq, h.c))
    return hits
