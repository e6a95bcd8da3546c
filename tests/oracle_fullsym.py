"""Brute-force symmetric algebra over an explicit orthogonal basis.

Independent oracle for the reduced harmonic calculus: elements are dicts
over full monomials (sorted index tuples with repetition), the contraction
uses only the two-factor pairing rule, and the harmonic projection solves a
dense linear system.  Nothing here imports the reduced implementation's
qt-crossing rule or projection recurrence.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement


class FullSym:
    """Symmetric algebra of a space with orthogonal basis of given squares."""

    def __init__(self, squares):
        self.d = [Fraction(x) for x in squares]
        if any(x == 0 for x in self.d):
            raise ValueError("orthogonal basis vectors must be non-isotropic")
        self.n = len(self.d)

    # -- elements are dict[tuple[int,...], Fraction] with sorted keys

    def add(self, a, b, sign=1):
        out = dict(a)
        for k, c in b.items():
            nc = out.get(k, Fraction(0)) + sign * c
            if nc:
                out[k] = nc
            else:
                out.pop(k, None)
        return out

    def scale(self, c, a):
        c = Fraction(c)
        return {k: c * v for k, v in a.items()} if c else {}

    def mul(self, a, b):
        out = {}
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = tuple(sorted(ka + kb))
                nc = out.get(k, Fraction(0)) + ca * cb
                if nc:
                    out[k] = nc
                else:
                    out.pop(k, None)
        return out

    def linear(self, coords):
        return {(i,): Fraction(c) for i, c in enumerate(coords) if c}

    def delta(self, a):
        """Pairwise contraction; orthogonality kills mixed pairs."""
        out = {}
        for k, c in a.items():
            for i in range(len(k)):
                for j in range(i + 1, len(k)):
                    if k[i] != k[j]:
                        continue
                    rest = k[:i] + k[i + 1 : j] + k[j + 1 :]
                    nc = out.get(rest, Fraction(0)) + c * self.d[k[i]]
                    if nc:
                        out[rest] = nc
                    else:
                        out.pop(rest, None)
        return out

    def qtilde(self):
        return {(i, i): Fraction(1, self.n) / self.d[i] for i in range(self.n)}

    def basis_monomials(self, deg):
        return list(combinations_with_replacement(range(self.n), deg))

    def project_harmonic(self, a, deg):
        """Projection to ker(delta) along qt Sym^(deg-2), by linear solve."""
        if deg < 2 or not a:
            return dict(a)
        qt = self.qtilde()
        basis = self.basis_monomials(deg - 2)
        index = {m: i for i, m in enumerate(basis)}
        cols = []
        for m in basis:
            img = self.delta(self.mul(qt, {m: Fraction(1)}))
            cols.append(img)
        rows = self.basis_monomials(deg - 2)
        mat = [[cols[j].get(r, Fraction(0)) for j in range(len(basis))]
               for r in rows]
        target = self.delta(a)
        rhs = [target.get(r, Fraction(0)) for r in rows]
        y = _solve(mat, rhs)
        correction = {}
        for m, c in zip(basis, y):
            if c:
                correction = self.add(correction, self.mul(qt, {m: c}))
        out = self.add(a, correction, sign=-1)
        assert not self.delta(out), "projection left a nonzero contraction"
        return out

    def expand_reduced(self, elem, gen_coords):
        """Expansion of a reduced element; generators given by coordinates."""
        gens = [self.linear(c) for c in gen_coords]
        qt = self.qtilde()
        out = {}
        for (j, mono), c in elem.terms.items():
            term = {(): Fraction(1)}
            for _ in range(j):
                term = self.mul(term, qt)
            for i in mono:
                term = self.mul(term, gens[i])
            out = self.add(out, self.scale(c, term))
        return out


def _solve(mat, rhs):
    """Exact Gaussian elimination; least-norm not needed, system is square."""
    n = len(mat)
    aug = [list(row) + [val] for row, val in zip(mat, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            # singular direction: consistent only if rhs already reduced
            continue
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        # the system is sparse: eliminate with the pivot row's nonzeros only
        pivot = [(c, y) for c, y in enumerate(aug[col]) if y]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                row = aug[r]
                for c, y in pivot:
                    row[c] -= f * y
    return [aug[i][n] for i in range(n)]


def orthogonal_coords(space, x):
    """Coordinates of an LLV vector in the orthogonal basis of the space.

    Requires the space's H^2 Gram to be diagonal; the hyperbolic plane is
    replaced by alpha - beta (square 2) and alpha + beta (square -2), in
    that order, preceding the H^2 basis.
    """
    g = space.h2.gram
    for i in range(space.h2.rank):
        for j in range(space.h2.rank):
            if i != j and g[i][j] != 0:
                raise ValueError("space H^2 Gram must be diagonal")
    wa = (x.r - x.s) / 2
    wb = (x.r + x.s) / 2
    return (wa, wb) + tuple(x.v)


def orthogonal_squares(space):
    g = space.h2.gram
    return [Fraction(2), Fraction(-2)] + [Fraction(g[i][i])
                                          for i in range(space.h2.rank)]
