"""Dense tuple-of-tuples Fraction matrices, for the oracles and tests.

The library multiplies only integer matrices over one denominator; these
are the plain rational routines the dense references are written in.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]


def mat(rows) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    # row-major accumulation skipping zero entries; the Gram and unipotent
    # matrices here are sparse, so this saves most of the Fraction work
    m = len(b[0])
    out = []
    for row in a:
        acc = [Fraction(0)] * m
        for k, x in enumerate(row):
            if x:
                bk = b[k]
                for j, y in enumerate(bk):
                    if y:
                        acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return tuple(
        sum((x * y for x, y in zip(row, v) if x and y), Fraction(0))
        for row in a
    )


def mat_scale(c, a: Matrix) -> Matrix:
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


def det(a: Matrix) -> Fraction:
    """Determinant by exact Gaussian elimination with partial pivoting."""
    n = len(a)
    rows = [list(r) for r in a]
    d = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            d = -d
        d *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col] == 0:
                continue
            f = rows[r][col] * inv
            for c in range(col, n):
                rows[r][c] -= f * rows[col][c]
    return d
