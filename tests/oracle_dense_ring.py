"""Dense reference for the even cohomology ring of K3[2] type.

A dense class is a tuple (a0, a2, A, a6, a8) whose H^4 piece A is the full
symmetric rank x rank matrix.  Products go piece by piece: every pair of
nonzero graded pieces is multiplied by its own rule (contraction, sharp,
Sym^2 pairing as explicit matrix products) and the results are summed.
Nothing here uses the sparse H^4 storage or the degree-by-degree product of
``llvlat.cohomology``; only the Gram matrix, its exact inverse and
the harmonic element type are shared.
"""

from __future__ import annotations

from fractions import Fraction

import dense
from llvlat import _linalg
from llvlat.errors import DomainError
from llvlat.harmonic import ReducedSymElement
from llvlat.rational import fmt_q


class DenseRing:
    def __init__(self, space):
        self.space = space
        self.k = space.h2.rank
        self.g = dense.mat(space.h2.gram)
        ginv = _linalg.inverse(self.g)
        self.c2 = self.sym2(dense.mat_scale(Fraction(6, 5), ginv))
        self.b = self.sym2(dense.mat_scale(Fraction(1, 23), ginv))
        one, pt = self.scalar(1), self.point(1)
        self.sqrt_td = self.add(self.add(one, self.scale(Fraction(1, 24), self.c2)),
                                self.scale(Fraction(25, 32), pt))
        self.inv_sqrt_td = self.add(
            self.add(one, self.scale(Fraction(-1, 24), self.c2)),
            self.scale(Fraction(21, 32), pt))
        self.td = self.cup(self.sqrt_td, self.sqrt_td, strict=False)

    # -- construction and linear structure

    def zero(self):
        z = Fraction(0)
        k = self.k
        return (z, (z,) * k, tuple((z,) * k for _ in range(k)), (z,) * k, z)

    def scalar(self, c):
        _, a2, a4, a6, a8 = self.zero()
        return (Fraction(c), a2, a4, a6, a8)

    def h2(self, v):
        a0, _, a4, a6, a8 = self.zero()
        return (a0, tuple(Fraction(c) for c in v), a4, a6, a8)

    def sym2(self, m):
        a0, a2, _, a6, a8 = self.zero()
        return (a0, a2, dense.mat(m), a6, a8)

    def deg6(self, w):
        a0, a2, a4, _, a8 = self.zero()
        return (a0, a2, a4, tuple(Fraction(c) for c in w), a8)

    def point(self, c):
        a0, a2, a4, a6, _ = self.zero()
        return (a0, a2, a4, a6, Fraction(c))

    @staticmethod
    def add(x, y):
        def vec(u, v):
            return tuple(a + b if b else a for a, b in zip(u, v))

        return (x[0] + y[0], vec(x[1], y[1]),
                tuple(vec(ra, rb) for ra, rb in zip(x[2], y[2])),
                vec(x[3], y[3]), x[4] + y[4])

    @staticmethod
    def scale(c, x):
        c = Fraction(c)

        def vec(u):
            return tuple(c * a if a else a for a in u)

        return (c * x[0], vec(x[1]), tuple(vec(row) for row in x[2]),
                vec(x[3]), c * x[4])

    @staticmethod
    def is_zero_piece(x, d):
        p = x[d // 2]
        if d in (0, 8):
            return p == 0
        if d in (2, 6):
            return all(c == 0 for c in p)
        return all(c == 0 for row in p for c in row)

    # -- the piece-by-piece product

    def pair(self, x, y):
        return sum(a * b for a, b in zip(x, dense.mat_vec(self.g, y)))

    def contract_full(self, a4):
        """c(A) = trace(A G)."""
        k = self.k
        return sum(a4[i][j] * self.g[j][i] for i in range(k) for j in range(k))

    def sharp(self, a4, x):
        """A G x."""
        return dense.mat_vec(a4, dense.mat_vec(self.g, x))

    def sym2_inner(self, a4, b4):
        """trace(A G B G)."""
        ag = dense.mat_mul(a4, self.g)
        bg = dense.mat_mul(b4, self.g)
        return sum(ag[i][j] * bg[j][i] for i in range(self.k) for j in range(self.k))

    def piece(self, x, d):
        out = list(self.zero())
        out[d // 2] = x[d // 2]
        return tuple(out)

    def cup_pieces(self, x, dx, y, dy):
        if dx > dy:
            return self.cup_pieces(y, dy, x, dx)
        if dx == 0:
            return self.scale(x[0], self.piece(y, dy))
        if dx == 2 and dy == 2:
            u, v = x[1], y[1]
            k = self.k
            return self.sym2([[(u[i] * v[j] + v[i] * u[j]) / 2 for j in range(k)]
                              for i in range(k)])
        if dx == 2 and dy == 4:
            c = self.contract_full(y[2])
            s = self.sharp(y[2], x[1])
            return self.deg6([c * a + 2 * b for a, b in zip(x[1], s)])
        if dx == 2 and dy == 6:
            return self.point(self.pair(x[1], y[3]))
        if dx == 4 and dy == 4:
            return self.point(self.contract_full(x[2]) * self.contract_full(y[2])
                              + 2 * self.sym2_inner(x[2], y[2]))
        raise DomainError(f"product of degrees {dx} and {dy} overflows degree 8")

    def cup(self, x, y, strict=True):
        """Strict products raise on pieces above degree 8; otherwise they
        are dropped, as in the cohomology of the manifold."""
        out = self.zero()
        for dx in (0, 2, 4, 6, 8):
            if self.is_zero_piece(x, dx):
                continue
            for dy in (0, 2, 4, 6, 8):
                if self.is_zero_piece(y, dy):
                    continue
                if dx + dy > 8:
                    if strict:
                        raise DomainError(
                            f"product of degrees {dx} and {dy} overflows degree 8")
                    continue
                out = self.add(out, self.cup_pieces(x, dx, y, dy))
        return out

    # -- derived quantities

    def chi(self, ch):
        return self.cup(ch, self.td, strict=False)[4]

    def mukai_vector(self, rank, c1, ch2, ch3, ch4):
        ch = self.add(self.add(self.add(self.scalar(rank), self.h2(c1)), ch2),
                      self.add(ch3, self.point(ch4)))
        return self.cup(ch, self.sqrt_td, strict=False)

    def psi(self, x, ctx):
        k = self.k
        ia, ib = 0, k + 1
        out = ReducedSymElement.zero(ctx)
        if x[0]:
            out = out + ReducedSymElement.monomial(ctx, (ia, ia), x[0] / 2)
        for i, c in enumerate(x[1]):
            if c:
                out = out + ReducedSymElement.monomial(ctx, (ia, 1 + i), c)
        if not self.is_zero_piece(x, 4):
            for i in range(k):
                for j in range(i, k):
                    c = x[2][i][j] * (1 if i == j else 2)
                    if c:
                        out = out + ReducedSymElement.monomial(ctx, (1 + i, 1 + j), c)
            out = out + ReducedSymElement.monomial(
                ctx, (ia, ib), self.contract_full(x[2]))
        for i, c in enumerate(x[3]):
            if c:
                out = out + ReducedSymElement.monomial(ctx, (1 + i, ib), c)
        if x[4]:
            out = out + ReducedSymElement.monomial(ctx, (ib, ib), x[4])
        return out

    def to_dict(self, x):
        k = self.k
        return {
            "a0": fmt_q(x[0]),
            "a2": [fmt_q(c) for c in x[1]],
            "a4_upper": [fmt_q(x[2][i][j]) for i in range(k) for j in range(i, k)],
            "a6": [fmt_q(c) for c in x[3]],
            "a8": fmt_q(x[4]),
        }


def densify(x):
    """The dense tuple of a ``CohClass`` with sparse H^4."""
    k = len(x.a2)
    z = Fraction(0)
    a4 = tuple(tuple(x.a4.get((min(i, j), max(i, j)), z) for j in range(k))
               for i in range(k))
    return (x.a0, x.a2, a4, x.a6, x.a8)
