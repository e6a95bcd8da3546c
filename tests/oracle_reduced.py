"""Fraction reference for the integer kernels of the reduced harmonic calculus.

The straightforward forms of the reduced operations, over Fraction
coefficients: Delta visits every pair of slots of a monomial and crosses
qt^i by the summed rule, powers are repeated products, products multiply
Fractions term by term, and the projection runs the triangular recurrence
in Fractions.  The library computes the same things over integer
numerators, by runs of equal generators and by the multinomial theorem;
the tests compare the two exactly.  Every function returns a terms dict.
"""

from __future__ import annotations

from fractions import Fraction


def _add(out, key, c):
    c += out.get(key, 0)
    if c:
        out[key] = c
    else:
        out.pop(key, None)


def qt_crossing(i, d, n_amb):
    """Coefficient a with Delta(qt^i y) = a qt^(i-1) y + qt^i Delta(y), deg y = d."""
    a = Fraction(0)
    for m in range(1, i + 1):
        a += 1 + Fraction(2 * (2 * (m - 1) + d), n_amb)
    return a


def delta(ctx, terms):
    """Delta by pairs of slots: (x_a, x_b) times the monomial without a, b."""
    g = ctx.gram_g
    out = {}
    for (j, mono), coeff in terms.items():
        k = len(mono)
        if j:
            _add(out, (j - 1, mono), coeff * qt_crossing(j, k, ctx.ambient_dim))
        for a in range(k):
            for b in range(a + 1, k):
                p = g[mono[a]][mono[b]]
                if p:
                    rest = mono[:a] + mono[a + 1 : b] + mono[b + 1 :]
                    _add(out, (j, rest), coeff * p)
    return out


def mul(a, b):
    """Product of two terms dicts, Fraction by Fraction."""
    out = {}
    for (j1, m1), c1 in a.items():
        for (j2, m2), c2 in b.items():
            _add(out, (j1 + j2, tuple(sorted(m1 + m2))), c1 * c2)
    return out


def power(terms, k):
    """terms^k as k repeated products, starting from 1."""
    out = {(0, ()): Fraction(1)}
    for _ in range(k):
        out = mul(out, terms)
    return out


def project_harmonic(ctx, terms):
    """Pi(x) = sum_i c_i qt^i Delta^i(x) with the c_i of the recurrence."""
    if not terms:
        return {}
    j0, m0 = next(iter(terms))
    n = 2 * j0 + len(m0)
    result = dict(terms)
    c = Fraction(1)
    y = terms
    i = 0
    while True:
        y = delta(ctx, y)
        i += 1
        if not y or 2 * i > n:
            break
        c = -c / qt_crossing(i, n - 2 * i, ctx.ambient_dim)
        for (j, m), v in y.items():
            _add(result, (j + i, m), c * v)
    return result
