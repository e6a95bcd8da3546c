"""Exact rational helpers: canonical "p/q" rendering, square and n-th root tests.

Everything in the toolkit is a ``fractions.Fraction``; no floating point is
used anywhere.  Perfect-power tests go through ``math.isqrt`` style integer
root extraction so they are exact for arbitrary magnitudes.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import isqrt

from .errors import DomainError, ParseError


def too_many_digits(what: str = "result") -> DomainError:
    """The refusal of a number past Python's int-to-text digit limit."""
    return DomainError(
        f"{what} has more than {sys.get_int_max_str_digits()} digits, "
        "Python's limit for integer-to-text conversion"
    )


def fmt_q(x: Fraction) -> str:
    """Render a rational canonically: "p/q", or "p" when the denominator is 1.

    Raises DomainError when the numerator or denominator has more digits
    than Python converts to text (``sys.get_int_max_str_digits()``, 4300 by
    default).
    """
    x = Fraction(x)
    try:
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    except ValueError as exc:
        raise too_many_digits() from exc


_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def parse_q(text: str) -> Fraction:
    """Parse a rational as ``Fraction`` reads text: "p/q", "p", "1.5e3".

    A run of more digits than Python converts to text, an exponent past
    that limit, or a value whose numerator or denominator would not print
    is refused with DomainError, before any large power is built.
    """
    limit = sys.get_int_max_str_digits()
    exp = _EXPONENT.search(text)
    if limit and (len(text) > limit
                  and any(len(run.replace("_", "")) > limit
                          for run in re.findall(r"[\d_]+", text))
                  or exp and abs(int(exp[1])) > limit):
        raise too_many_digits("number")
    try:
        x = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational: {text!r}") from exc
    # 10^limit > 2^(3 limit): only a longer value needs the exact test
    big = max(abs(x.numerator), x.denominator)
    if limit and big.bit_length() > 3 * limit and big >= 10**limit:
        raise too_many_digits("number")
    return x


def is_square_int(n: int) -> bool:
    if n < 0:
        return False
    return isqrt(n) ** 2 == n


def sqrt_rational(x) -> Fraction | None:
    """Exact square root of a rational, or None if x is not a rational square."""
    x = Fraction(x)
    if x < 0:
        return None
    p, q = x.numerator, x.denominator
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Fraction(rp, rq)
    return None


def _iroot(n: int, k: int) -> int | None:
    """Exact integer k-th root of n >= 0, or None."""
    if n < 0:
        raise ValueError("negative radicand")
    if n in (0, 1):
        return n
    lo, hi = 1, 1 << ((n.bit_length() + k - 1) // k + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**k == n else None


def nth_root_rational(x, k: int) -> Fraction | None:
    """Exact rational k-th root of x, or None.

    For even k the non-negative root is returned; negative x has no root.
    For odd k the sign is carried through.
    """
    x = Fraction(x)
    if k <= 0:
        raise ValueError("k must be positive")
    sign = 1
    if x < 0:
        if k % 2 == 0:
            return None
        sign, x = -1, -x
    rp = _iroot(x.numerator, k)
    rq = _iroot(x.denominator, k)
    if rp is None or rq is None:
        return None
    return sign * Fraction(rp, rq)
