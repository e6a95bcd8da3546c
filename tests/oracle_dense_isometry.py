"""Dense Fraction reference for the isometry constructors.

This is the straightforward path the library replaced with closed-form
integer matrices: every matrix is found by applying the defining action to
the basis vectors (``_matrix_from_action``), products are dense Fraction
products, and Gram compatibility is the dense check M^T G M == G.  Tests
compare the library's Isometry objects against these matrices.
"""

from __future__ import annotations

from fractions import Fraction

from llvlat import _linalg
from llvlat.lattice import LLVSpace, LLVVector, make_space


def _columns_to_matrix(cols) -> _linalg.Matrix:
    return _linalg.transpose(_linalg.mat(cols))


def _matrix_from_action(space: LLVSpace, act) -> _linalg.Matrix:
    cols = []
    for i in range(space.dim):
        basis = LLVVector.from_coords(
            tuple(Fraction(1 if j == i else 0) for j in range(space.dim))
        )
        cols.append(act(basis).coords())
    return _columns_to_matrix(cols)


def _gram(space: LLVSpace) -> _linalg.Matrix:
    return _linalg.mat(space.full.gram)


def preserves_gram(space: LLVSpace, m: _linalg.Matrix) -> bool:
    g = _gram(space)
    return _linalg.mat_mul(_linalg.transpose(m), _linalg.mat_mul(g, m)) == g


def e_lambda(space: LLVSpace, lam) -> _linalg.Matrix:
    lam = space.h2.vector(lam)
    return _matrix_from_action(space, lambda x: space.e_lambda_apply(lam, x))


def b_lambda(space: LLVSpace, lam) -> _linalg.Matrix:
    lam = space.h2.vector(lam)
    return _matrix_from_action(space, lambda x: space.b_lambda_apply(lam, x))


def reflection(space: LLVSpace, u: LLVVector) -> _linalg.Matrix:
    uu = space.pair(u, u)
    return _matrix_from_action(
        space, lambda x: x - (2 * space.pair(x, u) / uu) * u)


def duality_D(space: LLVSpace) -> _linalg.Matrix:
    return _matrix_from_action(
        space, lambda x: LLVVector(x.r, tuple(-c for c in x.v), x.s))


def phi_p(k3: LLVSpace) -> _linalg.Matrix:
    return _matrix_from_action(
        k3, lambda x: LLVVector(x.s, tuple(-c for c in x.v), x.r))


def eta_extend(m: _linalg.Matrix, n: int) -> _linalg.Matrix:
    """Extension of a K3 matrix fixing delta, column by column."""
    k3 = make_space("K3")
    target = make_space("HilbK3", n)
    k = k3.h2.rank
    pad = (0,) * (target.h2.rank - k)

    def image(src: LLVVector):
        y = LLVVector.from_coords(_linalg.mat_vec(m, src.coords()))
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


def dmon_lift(m: _linalg.Matrix, n: int) -> _linalg.Matrix:
    """det(g)^(n+1) B_{-delta/2} eta_g B_{delta/2}, by dense products."""
    target = make_space("HilbK3", n)
    half = tuple(Fraction(1, 2) * c for c in target.delta())
    core = _linalg.mat_mul(
        b_lambda(target, tuple(-c for c in half)),
        _linalg.mat_mul(eta_extend(m, n), b_lambda(target, half)))
    if _linalg.det(m) ** (n + 1) == -1:
        core = _linalg.mat_scale(-1, core)
    return core


def chi_involution(space: LLVSpace) -> _linalg.Matrix:
    n = space.n
    u0 = LLVVector.make(0, space.delta(), n - 1)
    sign = (-1) ** (n + 1)
    return _matrix_from_action(
        space,
        lambda x: sign * (x + (space.pair(x, u0) / Fraction(n - 1)) * u0))


def inverse(space: LLVSpace, m: _linalg.Matrix) -> _linalg.Matrix:
    g = _gram(space)
    return _linalg.mat_mul(_linalg.inverse(g),
                           _linalg.mat_mul(_linalg.transpose(m), g))


def apply(m: _linalg.Matrix, x: LLVVector) -> LLVVector:
    return LLVVector.from_coords(_linalg.mat_vec(m, x.coords()))
