"""Small exact linear algebra over Fraction and over the integers.

Every matrix the library multiplies is an integer matrix over one common
denominator (``IntMatrix``, built by ``to_int_matrix``), and ``int_det`` is
its one determinant.  ``inverse`` and ``signature`` take rows of ints or
Fractions and eliminate over Fraction.  Every space in the toolkit has
dimension at most 25, so nothing clever is needed.  All routines are pure.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

Matrix = tuple[tuple[Fraction, ...], ...]
IntMatrix = tuple[tuple[int, ...], ...]


def inverse(a: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination on [a | I].

    Raises ValueError if a is singular.  Only the nonzero entries of the
    pivot row are eliminated with, so sparse inputs stay cheap.
    """
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        pivot = [(c, x) for c, x in enumerate(aug[col]) if x]
        for r, row in enumerate(aug):
            f = row[col]
            if f and r != col:
                for c, x in pivot:
                    row[c] -= f * x
    return tuple(tuple(row[n:]) for row in aug)


def signature(gram: Matrix) -> tuple[int, int, int]:
    """Signature (n_plus, n_minus, n_zero) of a symmetric matrix.

    Exact symmetric congruence diagonalization (simultaneous row and column
    operations), so no eigenvalue computation is involved.
    """
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    pos = neg = zero = 0
    todo = list(range(n))
    while todo:
        # pick a pivot position with nonzero diagonal, manufacturing one
        # from an off-diagonal entry if necessary
        k = next((i for i in todo if a[i][i] != 0), None)
        if k is None:
            pair = None
            for i in todo:
                for j in todo:
                    if j > i and a[i][j] != 0:
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair is None:
                zero += len(todo)
                break
            i, j = pair
            # basis change e_i <- e_i + e_j makes the (i,i) entry 2 a_ij
            for c in range(n):
                a[i][c] += a[j][c]
            for r in range(n):
                a[r][i] += a[r][j]
            k = i
        piv = a[k][k]
        if piv > 0:
            pos += 1
        else:
            neg += 1
        todo.remove(k)
        for r in todo:
            if a[r][k] != 0:
                f = a[r][k] / piv
                for c in range(n):
                    a[r][c] -= f * a[k][c]
                for c in range(n):
                    a[c][r] -= f * a[c][k]
    return pos, neg, zero


def to_int(values) -> tuple[list[int], int]:
    """Numerators over the least common denominator: values = ints / den."""
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def to_int_matrix(a) -> tuple[IntMatrix, int]:
    """A rational matrix as (integer matrix, least common denominator)."""
    flat, den = to_int([x for row in a for x in row])
    n = len(a[0])
    return tuple(tuple(flat[i:i + n]) for i in range(0, len(flat), n)), den


def int_mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def int_det(a: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination.

    Each step replaces the trailing block by (p x - r0 y) / prev, which
    is exact: every entry is a minor of the input.
    """
    rows = [list(r) for r in a]
    sign, prev = 1, 1
    while len(rows) > 1:
        piv = next((i for i, r in enumerate(rows) if r[0]), None)
        if piv is None:
            return 0
        if piv:
            rows[0], rows[piv] = rows[piv], rows[0]
            sign = -sign
        head = rows[0]
        p, rest = head[0], head[1:]
        rows = [[(p * x - r[0] * y) // prev for x, y in zip(r[1:], rest)]
                for r in rows[1:]]
        prev = p
    return sign * rows[0][0]
