"""Isometries of the extended LLV space.

An isometry M is stored as an integer matrix N over a positive integer
denominator d, M = N / d, in the basis order (alpha, h2 basis..., beta),
normalised so that gcd(N, d) = 1.  N is kept as sparse rows, the format of
``QuadLattice.rows``: row i lists the pairs (j, N_ij) with N_ij != 0, in
increasing j.  That form is canonical, so equal isometries have equal
(N, d).  The library reads only N and d; the rational matrix ``m`` is
built from them on first use, for callers.

Every product is ``_linalg.sparse_mul`` over the nonzero entries.
Construction checks Gram compatibility exactly, as N^T (G N) = d^2 G over
the integers, G being the sparse Gram rows of ``space.full``; the product
is symmetric, so only its upper triangle is compared.  So an Isometry is
correct by construction.  Composition multiplies numerators and
denominators, the inverse is G^-1 (G N)^T, and the determinant is a sparse
fraction-free elimination on N.

Provided generators, each written down in closed form: unipotent B_lambda
= exp(e_lambda) (identity plus one column and one row), hyperplane
reflections (a rank-one update), the duality involution D (negation of the
H^2 part), and the extension of a K3 Mukai-lattice isometry to the
Hilbert-scheme space fixing the exceptional class delta.  An exact
orientation sign with respect to a fixed positive 4-frame is exposed
alongside the determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul

from . import _linalg
from .errors import DomainError, certify
from .lattice import LLVSpace, LLVVector, make_space


def _preserves_gram(space: LLVSpace, num: _linalg.SparseRows, den: int) -> bool:
    """N^T (G N) == d^2 G, comparing the upper triangle of the symmetric product."""
    full = space.full
    ntgn = _linalg.sparse_mul(_linalg.transpose(num, space.dim),
                              _linalg.sparse_mul(full.rows, num))
    d2 = den * den
    return all([e for e in row if e[0] >= a] == [(b, d2 * g) for b, g in grow if b >= a]
               for a, (row, grow) in enumerate(zip(ntgn, full.rows)))


@dataclass(frozen=True, init=False)
class Isometry:
    """The isometry num/den; ``Isometry(space, m)`` takes a rational matrix."""

    space: LLVSpace
    num: _linalg.SparseRows
    den: int

    def __init__(self, space: LLVSpace, m):
        if len(m) != space.dim or any(len(row) != space.dim for row in m):
            raise DomainError(f"matrix must be {space.dim} x {space.dim}")
        num, den = _linalg.to_int_matrix(m)
        self._build(space, _linalg.sparse(num), den)

    def _build(self, space: LLVSpace, num, den: int) -> None:
        g = gcd(den, *(x for row in num for _, x in row))
        if den < 0:
            g = -g
        if g == 1:
            num = tuple(map(tuple, num))
        else:
            num = tuple(tuple((j, x // g) for j, x in row) for row in num)
            den //= g
        if not _preserves_gram(space, num, den):
            raise DomainError("matrix does not preserve the pairing")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def _dense(self, fmt) -> list[list]:
        """The rows of fmt(M_ij), fmt called once per distinct entry.

        Most entries repeat (0, +-d, ...), so this builds few Fractions.
        """
        q = {x: fmt(Fraction(x, self.den))
             for x in {0}.union(*({x for _, x in row} for row in self.num))}
        out = []
        for row in self.num:
            dense = [q[0]] * self.space.dim
            for j, x in row:
                dense[j] = q[x]
            out.append(dense)
        return out

    @cached_property
    def m(self) -> _linalg.Matrix:
        return tuple(map(tuple, self._dense(Fraction)))

    def apply(self, x: LLVVector) -> LLVVector:
        c, a = _linalg.to_int(x.coords())
        den = self.den * a
        out = [Fraction(sum(v * c[j] for j, v in row), den) for row in self.num]
        return LLVVector(out[0], tuple(out[1:-1]), out[-1])

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other."""
        return _isometry(self.space, _linalg.sparse_mul(self.num, other.num),
                         self.den * other.den)

    def inverse(self) -> "Isometry":
        """G^-1 M^T G = G^-1 (G M)^T, G being symmetric."""
        full = self.space.full
        ginv, e = _linalg.to_int_matrix(full.inverse)
        gn_t = _linalg.transpose(_linalg.sparse_mul(full.rows, self.num), self.space.dim)
        return _isometry(self.space, _linalg.sparse_mul(_linalg.sparse(ginv), gn_t),
                         e * self.den)

    def det(self) -> int:
        d = _linalg.int_det(self.num)
        unit = self.den ** self.space.dim
        certify(d in (unit, -unit), "an isometry has determinant +-1")
        return 1 if d > 0 else -1

    def __neg__(self) -> "Isometry":
        return _isometry(self.space,
                         [tuple((j, -x) for j, x in row) for row in self.num], self.den)

    def to_rows(self) -> list[list[str]]:
        from .rational import fmt_q

        return self._dense(fmt_q)

    def to_dict(self) -> dict:
        # construction already validated Gram compatibility, so the flag
        # is a recorded certificate, not a promise
        return {"matrix": self.to_rows(), "gram_compatible": True}


def _isometry(space: LLVSpace, num, den: int) -> Isometry:
    """The isometry num/den (any nonzero den), normalised and Gram-checked."""
    g = Isometry.__new__(Isometry)
    g._build(space, num, den)
    return g


def _scaled_identity(dim: int, d: int) -> list[tuple]:
    """The sparse rows of d times the identity."""
    return [((i, d),) for i in range(dim)]


def isometry_from_rows(space: LLVSpace, rows) -> Isometry:
    """Parse a row-major matrix of "p/q" strings; validates on construction."""
    from .rational import parse_q

    return Isometry(space, tuple(tuple(parse_q(str(x)) for x in row) for row in rows))


def identity_isometry(space: LLVSpace) -> Isometry:
    return _isometry(space, _scaled_identity(space.dim, 1), 1)


def b_lambda(space: LLVSpace, lam) -> Isometry:
    """exp(e_lambda) = 1 + e + e^2/2, a determinant-one isometry.

    alpha -> alpha + lam + (lam, lam)/2 beta and mu -> mu + (lam, mu) beta:
    the identity plus the lam column under alpha and the row of pairings
    (lam, -) next to beta.
    """
    # with lam = c / a the matrix is N / (2 a^2)
    c, a = _linalg.to_int(space.h2.vector(lam))
    gc = space.h2.gram_vec(c)
    k = space.h2.rank
    d = 2 * a * a
    rows = _scaled_identity(space.dim, d)
    for i, ci in enumerate(c, 1):
        if ci:
            rows[i] = ((0, 2 * a * ci), (i, d))
    beta = [(0, sum(map(mul, c, gc)))] + [(i, 2 * a * g) for i, g in enumerate(gc, 1)]
    rows[k + 1] = tuple(e for e in beta if e[1]) + ((k + 1, d),)
    return _isometry(space, rows, d)


def reflection(space: LLVSpace, u: LLVVector) -> Isometry:
    """Reflection in the hyperplane orthogonal to a non-isotropic u.

    With u scaled to an integer vector c, the matrix is the rank-one update
    ((c, c) I - 2 c (G c)^T) / (c, c).
    """
    c, _ = _linalg.to_int(u.coords())
    gc = space.full.gram_vec(c)
    cc = sum(map(mul, c, gc))
    if cc == 0:
        raise DomainError("cannot reflect in an isotropic vector")
    rows = _scaled_identity(space.dim, cc)
    for i, ci in enumerate(c):
        if ci:
            row = [-2 * ci * g for g in gc]
            row[i] += cc
            rows[i] = tuple((j, x) for j, x in enumerate(row) if x)
    return _isometry(space, rows, cc)


def duality_D(space: LLVSpace) -> Isometry:
    """The involution r alpha + v + s beta -> r alpha - v + s beta."""
    rows = _scaled_identity(space.dim, -1)
    rows[0], rows[-1] = ((0, 1),), ((space.dim - 1, 1),)
    return _isometry(space, rows, 1)


def eta_extend(g: Isometry, n: int) -> Isometry:
    """Extend a K3 Mukai-lattice isometry to the Hilbert-scheme space.

    The K3 cohomology lattice sits inside the Hilbert-scheme H^2 as the
    orthogonal complement of delta (the first 22 coordinates, since the
    basis order makes that embedding the coordinate inclusion).  The
    extension acts through g there, fixes alpha and beta accordingly, and
    fixes delta: the matrix of g with a delta row and column inserted
    before beta.
    """
    if g.space.dtype != "K3":
        raise DomainError("eta_extend expects an isometry of the K3 space")
    target = make_space("HilbK3", n)
    k = g.space.h2.rank + 1  # index of delta in the target
    rows = [tuple((j + (j >= k), x) for j, x in row) for row in g.num]
    rows.insert(k, ((k, g.den),))
    return _isometry(target, rows, g.den)


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
    dim = space.dim
    frame = (((0, 1), (dim - 1, -1)), ((1, 1), (2, 1)), ((3, 1), (4, 1)), ((5, 1), (6, 1)))
    # the pairings times d > 0, transposed: F (G N) F^T, of the same sign
    gn = _linalg.sparse_mul(space.full.rows, g.num)
    pairings = _linalg.sparse_mul(_linalg.sparse_mul(frame, gn),
                                  _linalg.transpose(frame, dim))
    d = _linalg.int_det(pairings)
    certify(d != 0, "an isometry keeps the positive frame nondegenerate")
    return g.det(), (1 if d > 0 else -1)
