"""Isometries of the extended LLV space.

Isometries are stored as dense rational matrices in the basis order
(alpha, h2 basis..., beta); construction checks Gram compatibility
M^T G M = G exactly, so an Isometry is correct by construction.

Provided generators: unipotent B_lambda = exp(e_lambda), hyperplane
reflections, the duality involution D (negation of the H^2 part), and the
extension of a K3 Mukai-lattice isometry to the Hilbert-scheme space fixing
the exceptional class delta.  An exact orientation sign with respect to a
fixed positive 4-frame is exposed alongside the determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import _linalg
from .errors import DomainError
from .lattice import LLVSpace, LLVVector, _gram_full_inverse, make_space


@dataclass(frozen=True)
class Endo:
    """Plain linear endomorphism (no Gram condition), e.g. e_lambda."""

    space: LLVSpace
    m: _linalg.Matrix

    def apply(self, x: LLVVector) -> LLVVector:
        return LLVVector.from_coords(_linalg.mat_vec(self.m, x.coords()))

    def compose(self, other: "Endo") -> "Endo":
        return Endo(self.space, _linalg.mat_mul(self.m, other.m))


@dataclass(frozen=True)
class Isometry:
    space: LLVSpace
    m: _linalg.Matrix

    def __post_init__(self):
        g = self.space.gram_full()
        mt = _linalg.transpose(self.m)
        if _linalg.mat_mul(mt, _linalg.mat_mul(g, self.m)) != g:
            raise DomainError("matrix does not preserve the pairing")

    def apply(self, x: LLVVector) -> LLVVector:
        return LLVVector.from_coords(_linalg.mat_vec(self.m, x.coords()))

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other."""
        return Isometry(self.space, _linalg.mat_mul(self.m, other.m))

    def inverse(self) -> "Isometry":
        g = self.space.gram_full()
        mt = _linalg.transpose(self.m)
        return Isometry(self.space, _linalg.mat_mul(_gram_full_inverse(self.space),
                                                    _linalg.mat_mul(mt, g)))

    def det(self) -> int:
        d = _linalg.det(self.m)
        assert d in (1, -1)
        return int(d)

    def __neg__(self) -> "Isometry":
        return Isometry(self.space, _linalg.mat_scale(-1, self.m))

    def to_rows(self) -> list[list[str]]:
        from .rational import fmt_q

        return [[fmt_q(x) for x in row] for row in self.m]

    def to_dict(self) -> dict:
        # construction already validated Gram compatibility, so the flag
        # is a recorded certificate, not a promise
        return {"matrix": self.to_rows(), "gram_compatible": True}


def isometry_from_rows(space: LLVSpace, rows) -> Isometry:
    """Parse a row-major matrix of "p/q" strings; validates on construction."""
    from .rational import parse_q

    m = tuple(tuple(parse_q(str(x)) for x in row) for row in rows)
    if len(m) != space.dim or any(len(r) != space.dim for r in m):
        raise DomainError(f"matrix must be {space.dim} x {space.dim}")
    return Isometry(space, m)


def identity_isometry(space: LLVSpace) -> Isometry:
    return Isometry(space, _linalg.identity(space.dim))


def _columns_to_matrix(cols):
    return _linalg.transpose(_linalg.mat(cols))


def _matrix_from_action(space: LLVSpace, act) -> _linalg.Matrix:
    cols = []
    for i in range(space.dim):
        basis = LLVVector.from_coords(
            tuple(Fraction(1 if j == i else 0) for j in range(space.dim))
        )
        cols.append(act(basis).coords())
    return _columns_to_matrix(cols)


def e_lambda(space: LLVSpace, lam) -> Endo:
    """The nilpotent operator with alpha -> lam, mu -> (lam, mu) beta, beta -> 0."""
    lam = space.h2.vector(lam)
    return Endo(space, _matrix_from_action(space, lambda x: space.e_lambda_apply(lam, x)))


def b_lambda(space: LLVSpace, lam) -> Isometry:
    """exp(e_lambda) = 1 + e + e^2/2, a determinant-one isometry."""
    lam = space.h2.vector(lam)
    return Isometry(space, _matrix_from_action(space, lambda x: space.b_lambda_apply(lam, x)))


def reflection(space: LLVSpace, u: LLVVector) -> Isometry:
    """Reflection in the hyperplane orthogonal to a non-isotropic u."""
    uu = space.pair(u, u)
    if uu == 0:
        raise DomainError("cannot reflect in an isotropic vector")

    def act(x):
        return x - (2 * space.pair(x, u) / uu) * u

    return Isometry(space, _matrix_from_action(space, act))


def duality_D(space: LLVSpace) -> Isometry:
    """The involution r alpha + v + s beta -> r alpha - v + s beta."""

    def act(x):
        return LLVVector(x.r, tuple(-c for c in x.v), x.s)

    return Isometry(space, _matrix_from_action(space, act))


def eta_extend(g: Isometry, n: int) -> Isometry:
    """Extend a K3 Mukai-lattice isometry to the Hilbert-scheme space.

    The K3 cohomology lattice sits inside the Hilbert-scheme H^2 as the
    orthogonal complement of delta (the first 22 coordinates, since the
    basis order makes that embedding the coordinate inclusion).  The
    extension acts through g there, fixes alpha and beta accordingly, and
    fixes delta.
    """
    if g.space.dtype != "K3":
        raise DomainError("eta_extend expects an isometry of the K3 space")
    target = make_space("HilbK3", n)
    k = g.space.h2.rank  # 22
    dim_t = target.dim  # 25

    def embed(x: LLVVector) -> LLVVector:
        return LLVVector.make(x.r, x.v + (0,) * (target.h2.rank - k), x.s)

    cols = []
    for i in range(dim_t):
        if i == 0:
            src = LLVVector.make(1, (0,) * k, 0)
            cols.append(embed(g.apply(src)).coords())
        elif 1 <= i <= k:
            src = LLVVector.make(0, tuple(1 if j == i - 1 else 0 for j in range(k)), 0)
            cols.append(embed(g.apply(src)).coords())
        elif i == k + 1:  # delta stays put
            cols.append(tuple(Fraction(1 if j == i else 0) for j in range(dim_t)))
        else:  # beta
            src = LLVVector.make(0, (0,) * k, 1)
            cols.append(embed(g.apply(src)).coords())
    return Isometry(target, _columns_to_matrix(cols))


def det_and_orientation(g: Isometry) -> tuple[int, int]:
    """Exact determinant and orientation sign of an isometry.

    The orientation sign is the sign of det[(g(w_i), w_j)] for the fixed
    positive 4-frame w = (alpha - beta, e1 + f1, e2 + f2, e3 + f3).  The
    frame spans a maximal positive subspace, so the sign records whether g
    preserves its orientation; it is multiplicative under composition.
    """
    space = g.space
    if space.h2.labels[:6] != ("e1", "f1", "e2", "f2", "e3", "f3"):
        raise DomainError("orientation frame needs three leading U blocks")
    k = space.h2.rank

    def h2v(i):
        return tuple(1 if j == i else 0 for j in range(k))

    frame = [
        LLVVector.make(1, (0,) * k, -1),
        LLVVector.make(0, tuple(a + b for a, b in zip(h2v(0), h2v(1))), 0),
        LLVVector.make(0, tuple(a + b for a, b in zip(h2v(2), h2v(3))), 0),
        LLVVector.make(0, tuple(a + b for a, b in zip(h2v(4), h2v(5))), 0),
    ]
    gram = _linalg.mat(
        [[space.pair(g.apply(w), w2) for w2 in frame] for w in frame]
    )
    d = _linalg.det(gram)
    assert d != 0
    return g.det(), (1 if d > 0 else -1)
