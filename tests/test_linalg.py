"""The sparse integer kernel against the dense Fraction routines.

``int_det`` and ``sparse_mul`` walk only the nonzero entries of sparse
rows; ``tests/dense.py`` computes the same determinant by Gaussian
elimination with partial pivoting and the same product entry by entry.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

import dense
from llvlat._linalg import int_det, sparse, sparse_mul, transpose

_SETTINGS = settings(derandomize=True, deadline=None, database=None,
                     max_examples=300, suppress_health_check=[HealthCheck.too_slow])
_entry = st.integers(-5, 5)


def _scatter(draw, m, n, max_size):
    """An m x n integer matrix with a few entries placed at random."""
    a = [[0] * n for _ in range(m)]
    for i, j, x in draw(st.lists(st.tuples(st.integers(0, m - 1),
                                           st.integers(0, n - 1), _entry),
                                 max_size=max_size)):
        a[i][j] = x
    return a


@st.composite
def square(draw):
    """A square matrix of size 1-10, of one of four kinds.

    sparse: a signed permutation plus a few entries, so the diagonal is
    mostly zero and the elimination must swap rows; dense: no zero entry;
    singular: one row a combination of two others (or a zero row when
    n = 1); zero_lead: the leading column vanishes except in one row below
    the first, so the first step is a swap.
    """
    n = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["sparse", "dense", "singular", "zero_lead"]))
    if kind == "dense":
        return kind, [[draw(_entry.filter(bool)) for _ in range(n)] for _ in range(n)]
    a = _scatter(draw, n, n, 2 * n)
    if kind == "sparse":
        perm = draw(st.permutations(range(n)))
        for i, j in enumerate(perm):
            a[i][j] = a[i][j] or draw(st.sampled_from([-2, -1, 1, 3]))
    elif kind == "singular":
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        s, t = draw(_entry), draw(_entry)
        a[i] = [s * x + t * y for x, y in zip(a[j], a[k])] if i not in (j, k) \
            else [0] * n
    elif n > 1:
        for row in a:
            row[0] = 0
        a[draw(st.integers(1, n - 1))][0] = draw(_entry.filter(bool))
    return kind, a


@_SETTINGS
@given(square())
def test_int_det_matches_dense(case):
    kind, a = case
    d = dense.det(dense.mat(a))
    assert int_det(sparse(a)) == d
    if kind == "singular":
        assert d == 0


def test_int_det_sign_of_swaps():
    # a single transposition and a 3-cycle, as sparse rows
    assert int_det((((1, 1),), ((0, 1),))) == -1
    assert int_det((((1, 1),), ((2, 1),), ((0, 1),))) == 1
    assert int_det((((2, 5),), ((0, 1), (1, 2)), ((1, 3),))) == 15
    assert int_det(()) == 1


@st.composite
def product(draw):
    m, k, n = (draw(st.integers(1, 10)) for _ in range(3))
    return _scatter(draw, m, k, 3 * k), _scatter(draw, k, n, 3 * n)


def _dense_of(rows, ncols):
    out = [[0] * ncols for _ in rows]
    for i, row in enumerate(rows):
        for j, x in row:
            out[i][j] = x
    return out


@_SETTINGS
@given(product())
def test_sparse_mul_matches_dense(case):
    a, b = case
    ab = sparse_mul(sparse(a), sparse(b))
    # canonical: nonzero entries only, in increasing column order
    assert ab == sparse(dense.mat_mul(dense.mat(a), dense.mat(b)))
    assert all(x for row in ab for _, x in row)
    assert _dense_of(transpose(sparse(a), len(a[0])), len(a)) \
        == [list(col) for col in dense.transpose(a)]
