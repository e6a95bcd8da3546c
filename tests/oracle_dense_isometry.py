"""Dense Fraction reference for the isometry constructors.

This is the straightforward path the library replaced with closed-form
integer matrices: every matrix is found by applying the defining action to
the basis vectors (``_matrix_from_action``), products are dense Fraction
products, and Gram compatibility is the dense check M^T G M == G.  Tests
compare the library's Isometry objects against these matrices.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

import dense
from llvlat import _linalg
from llvlat.lattice import LLVSpace, LLVVector, make_space


def _columns_to_matrix(cols) -> dense.Matrix:
    return dense.transpose(dense.mat(cols))


def _matrix_from_action(space: LLVSpace, act) -> dense.Matrix:
    cols = []
    for i in range(space.dim):
        basis = LLVVector.from_coords(
            tuple(Fraction(1 if j == i else 0) for j in range(space.dim))
        )
        cols.append(act(basis).coords())
    return _columns_to_matrix(cols)


def _gram(space: LLVSpace) -> dense.Matrix:
    return dense.mat(space.full.gram)


def preserves_gram(space: LLVSpace, m: dense.Matrix) -> bool:
    g = _gram(space)
    return dense.mat_mul(dense.transpose(m), dense.mat_mul(g, m)) == g


def b_lambda(space: LLVSpace, lam) -> dense.Matrix:
    lam = space.h2.vector(lam)
    return _matrix_from_action(space, lambda x: space.b_lambda_apply(lam, x))


def reflection(space: LLVSpace, u: LLVVector) -> dense.Matrix:
    uu = space.pair(u, u)
    return _matrix_from_action(
        space, lambda x: x - (2 * space.pair(x, u) / uu) * u)


def duality_D(space: LLVSpace) -> dense.Matrix:
    return _matrix_from_action(
        space, lambda x: LLVVector(x.r, tuple(-c for c in x.v), x.s))


def phi_p(k3: LLVSpace) -> dense.Matrix:
    return _matrix_from_action(
        k3, lambda x: LLVVector(x.s, tuple(-c for c in x.v), x.r))


def eta_extend(m: dense.Matrix, n: int) -> dense.Matrix:
    """Extension of a K3 matrix fixing delta, column by column."""
    k3 = make_space("K3")
    target = make_space("HilbK3", n)
    k = k3.h2.rank
    pad = (0,) * (target.h2.rank - k)

    def image(src: LLVVector):
        y = LLVVector.from_coords(dense.mat_vec(m, src.coords()))
        return LLVVector.make(y.r, y.v + pad, y.s).coords()

    cols = []
    for i in range(target.dim):
        if i == 0:
            cols.append(image(LLVVector.make(1, (0,) * k, 0)))
        elif 1 <= i <= k:
            cols.append(image(LLVVector.make(
                0, tuple(1 if j == i - 1 else 0 for j in range(k)), 0)))
        elif i == k + 1:
            cols.append(tuple(Fraction(1 if j == i else 0)
                              for j in range(target.dim)))
        else:
            cols.append(image(LLVVector.make(0, (0,) * k, 1)))
    return _columns_to_matrix(cols)


def dmon_lift(m: dense.Matrix, n: int) -> dense.Matrix:
    """det(g)^(n+1) B_{-delta/2} eta_g B_{delta/2}, by dense products."""
    target = make_space("HilbK3", n)
    half = tuple(Fraction(1, 2) * c for c in target.delta())
    core = dense.mat_mul(
        b_lambda(target, tuple(-c for c in half)),
        dense.mat_mul(eta_extend(m, n), b_lambda(target, half)))
    if dense.det(m) ** (n + 1) == -1:
        core = dense.mat_scale(-1, core)
    return core


def chi_involution(space: LLVSpace) -> dense.Matrix:
    n = space.n
    u0 = LLVVector.make(0, space.delta(), n - 1)
    sign = (-1) ** (n + 1)
    return _matrix_from_action(
        space,
        lambda x: sign * (x + (space.pair(x, u0) / Fraction(n - 1)) * u0))


def inverse(space: LLVSpace, m: dense.Matrix) -> dense.Matrix:
    g = _gram(space)
    return dense.mat_mul(_linalg.inverse(g),
                         dense.mat_mul(dense.transpose(m), g))


def apply(m: dense.Matrix, x: LLVVector) -> LLVVector:
    return LLVVector.from_coords(dense.mat_vec(m, x.coords()))


def det_and_orientation(space: LLVSpace, m: dense.Matrix) -> tuple[int, int]:
    """Signs of det m and of det[(m w_i, w_j)], by dense Fraction products.

    The frame w is (alpha - beta, e1 + f1, e2 + f2, e3 + f3).
    """
    g = _gram(space)
    frame = [[Fraction(0)] * space.dim for _ in range(4)]
    frame[0][0], frame[0][-1] = Fraction(1), Fraction(-1)
    for i in (1, 2, 3):
        frame[i][2 * i - 1] = frame[i][2 * i] = Fraction(1)
    pairings = [[sum(map(mul, dense.mat_vec(m, w), dense.mat_vec(g, w2)))
                 for w2 in frame] for w in frame]
    return tuple(1 if d > 0 else -1 for d in (dense.det(m), dense.det(dense.mat(pairings))))
