"""Small exact linear algebra over Fraction and over the integers.

Every matrix the library multiplies is an integer matrix over one common
denominator, stored as sparse rows (``SparseRows``): row i lists the pairs
(j, x) with x != 0, in increasing j, the format of ``QuadLattice.rows``.
``sparse_mul`` is the one matrix product and ``int_det`` the one
determinant, and both walk only the nonzero entries: the Gram matrices and
the isometries built from the closed-form generators are mostly zeros.
``to_int_matrix`` and ``sparse`` bring a dense rational matrix to that
form.  ``inverse`` and ``signature`` take dense rows of ints or Fractions
and eliminate over Fraction.  All routines are pure.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Matrix = tuple[tuple[Fraction, ...], ...]
IntMatrix = tuple[tuple[int, ...], ...]
SparseRows = tuple[tuple[tuple[int, int], ...], ...]


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


def sparse(a) -> SparseRows:
    """The sparse rows of a dense matrix."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in a)


def transpose(a: SparseRows, ncols: int) -> SparseRows:
    cols = [[] for _ in range(ncols)]
    for i, row in enumerate(a):
        for j, x in row:
            cols[j].append((i, x))
    return tuple(map(tuple, cols))


def sparse_mul(a: SparseRows, b: SparseRows) -> SparseRows:
    """The product a b, accumulated over the nonzero entries of both."""
    out = []
    for row in a:
        if len(row) == 1:  # a scaled row of b, already in order
            (k, x), = row
            out.append(tuple((j, x * y) for j, y in b[k]))
            continue
        acc = {}
        for k, x in row:
            for j, y in b[k]:
                acc[j] = acc.get(j, 0) + x * y
        out.append(tuple(sorted((j, x) for j, x in acc.items() if x)))
    return tuple(out)


def int_det(a: SparseRows) -> int:
    """Determinant of a square matrix of sparse rows, by Bareiss elimination.

    Column by column, the pivot is the row with the fewest nonzeros among
    the remaining rows with an entry in that column; moving it to the front
    is a row swap and flips the sign.  A step with pivot p after pivot prev
    replaces each other row r by (p r - r_col head) / prev, exact because
    every entry is a minor of the input.  A row without an entry in the
    column is only scaled by p / prev, so each row is kept at the pivot
    ``level`` it was last updated after and scaled when next read: the
    step on r is then (p r - r_col head) / level.  The last pivot is the
    determinant.
    """
    rows = [(dict(r), 1) for r in a]
    sign, prev = 1, 1
    for col in range(len(rows)):
        piv = min((i for i, (r, _) in enumerate(rows) if col in r),
                  key=lambda i: len(rows[i][0]), default=None)
        if piv is None:
            return 0
        if piv:
            rows[0], rows[piv] = rows[piv], rows[0]
            sign = -sign
        head, level = rows[0]
        if level != prev:
            head = {j: x * prev // level for j, x in head.items()}
        p = head.pop(col)
        rest = []
        for r, level in rows[1:]:
            c = r.get(col)
            if c:
                new = {j: p * x for j, x in r.items() if j != col}
                for j, y in head.items():
                    new[j] = new.get(j, 0) - c * y
                r, level = {j: x // level for j, x in new.items() if x}, p
            rest.append((r, level))
        rows, prev = rest, p
    return sign * prev
