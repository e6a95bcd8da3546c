"""Even cohomology ring of a hyper-Kahler fourfold of K3[2] type.

The monodromy-invariant presentation keeps five graded pieces:

  a0          H^0, a scalar
  a2          H^2, a vector over the 23-dimensional BBF lattice
  a4          H^4 = Sym^2 H^2 (both have dimension 276), a symmetric matrix
              stored sparsely as a dict {(i, j): entry} of its nonzero
              upper-triangle entries (i <= j), so equality stays canonical
  a6          H^6 = H^2 by duality, stored as the BBF-dual functional: the
              class with integral against y equal to (w, y)
  a8          a multiple of the point class

The second Chern class of the tangent bundle is not a formal symbol: it is
the explicit invariant tensor (6/5) times the inverse Gram matrix, which
makes every entry of the standard multiplication table a theorem of the
representation.  Degree-6 products reduce through
x1 x2 x3 = (x1,x2) x3 + (x1,x3) x2 + (x2,x3) x1 (as dual functionals), and
top products integrate through the quadruple formula.  Products that would
land above degree 8 raise in ``cup`` instead of truncating silently.

No code mutates a ``CohClass`` (or its ``a4`` dict) in place: ``c2_class``
and ``todd_data`` are cached and hand the same classes to every caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .harmonic import (
    GeneratorContext,
    ReducedSymElement,
    full_context,
)
from .lattice import LLVSpace, LLVVector, make_space

Q = Fraction


def k32_space() -> LLVSpace:
    return make_space("HilbK3", 2)


def _require_k32(space: LLVSpace):
    if space.dtype != "Hilb" or space.n != 2:
        raise DomainError("the cohomology ring is implemented for K3[2] type "
                          "(higher n routes through the symmetric calculus)")


def _lin4(*terms) -> dict:
    """Sparse H^4 combination sum(c * a4) over (c, a4) pairs, zeros dropped."""
    out: dict = {}
    for c, a4 in terms:
        if c:
            for key, v in a4.items():
                out[key] = out.get(key, 0) + c * v
    return {key: v for key, v in out.items() if v}


@dataclass(frozen=True)
class CohClass:
    space: LLVSpace
    a0: Fraction
    a2: tuple[Fraction, ...]
    a4: dict[tuple[int, int], Fraction]
    a6: tuple[Fraction, ...]
    a8: Fraction

    def __add__(self, other: "CohClass") -> "CohClass":
        _same(self, other)
        return CohClass(
            self.space,
            self.a0 + other.a0,
            tuple(a + b for a, b in zip(self.a2, other.a2)),
            _lin4((1, self.a4), (1, other.a4)),
            tuple(a + b for a, b in zip(self.a6, other.a6)),
            self.a8 + other.a8,
        )

    def __sub__(self, other: "CohClass") -> "CohClass":
        return self + (-1) * other

    def __rmul__(self, c) -> "CohClass":
        c = Fraction(c)
        return CohClass(
            self.space,
            c * self.a0,
            tuple(c * x for x in self.a2),
            _lin4((c, self.a4)),
            tuple(c * x for x in self.a6),
            c * self.a8,
        )

    def __mul__(self, other):
        if isinstance(other, CohClass):
            return cup(self, other)
        return NotImplemented

    def to_dict(self) -> dict:
        from .rational import fmt_q

        k = len(self.a2)
        zero = Fraction(0)
        upper = [fmt_q(self.a4.get((i, j), zero))
                 for i in range(k) for j in range(i, k)]
        return {
            "a0": fmt_q(self.a0),
            "a2": [fmt_q(x) for x in self.a2],
            "a4_upper": upper,
            "a6": [fmt_q(x) for x in self.a6],
            "a8": fmt_q(self.a8),
        }


def _same(x: CohClass, y: CohClass):
    if x.space != y.space:
        raise DomainError("classes on different spaces")


def _class(space: LLVSpace, a0=0, a2=None, a4=None, a6=None, a8=0) -> CohClass:
    """A class from the given pieces; omitted pieces are zero."""
    _require_k32(space)
    zero = (Fraction(0),) * space.h2.rank
    return CohClass(space, Fraction(a0), zero if a2 is None else space.h2.vector(a2),
                    a4 or {}, zero if a6 is None else space.h2.vector(a6),
                    Fraction(a8))


def zero_class(space: LLVSpace) -> CohClass:
    return _class(space)


def scalar_class(space: LLVSpace, c) -> CohClass:
    return _class(space, a0=c)


def point_class(space: LLVSpace, c=1) -> CohClass:
    return _class(space, a8=c)


def h2_class(space: LLVSpace, v) -> CohClass:
    return _class(space, a2=v)


def sym2_class(space: LLVSpace, m) -> CohClass:
    """The H^4 class of a dense symmetric rank x rank matrix."""
    a4 = tuple(tuple(Fraction(x) for x in row) for row in m)
    k = space.h2.rank
    if len(a4) != k or any(len(r) != k for r in a4):
        raise DomainError("Sym^2 matrix has wrong shape")
    for i in range(k):
        for j in range(i):
            if a4[i][j] != a4[j][i]:
                raise DomainError("Sym^2 matrix must be symmetric")
    return _class(space, a4={(i, j): a4[i][j] for i in range(k)
                             for j in range(i, k) if a4[i][j]})


def deg6_class(space: LLVSpace, w) -> CohClass:
    return _class(space, a6=w)


def deg6_from_triple(space: LLVSpace, x1, x2, x3) -> CohClass:
    """The product x1 x2 x3 in its dual-functional representation."""
    p = space.h2.pair
    x1, x2, x3 = (space.h2.vector(v) for v in (x1, x2, x3))
    w = tuple(
        p(x1, x2) * c3 + p(x1, x3) * c2 + p(x2, x3) * c1
        for c1, c2, c3 in zip(x1, x2, x3)
    )
    return deg6_class(space, w)


@lru_cache(maxsize=8)
def c2_class(space: LLVSpace) -> CohClass:
    """c2 of the tangent bundle as an explicit invariant Sym^2 tensor."""
    _require_k32(space)
    return Fraction(6, 5) * sym2_class(space, space.h2.inverse)


def b_invariant_class(space: LLVSpace) -> CohClass:
    """The normalized invariant b with integral of b^2 equal to 25/23."""
    _require_k32(space)
    return Fraction(1, 23) * sym2_class(space, space.h2.inverse)


def _times_gram(space: LLVSpace, a4: dict) -> dict:
    """The matrix A G of a sparse symmetric A, as {(i, m): entry}.

    Its trace is the full contraction c(A), it maps x to the sharp A G x,
    and trace(A G B G) is the induced pairing of A and B on Sym^2.
    """
    rows = space.h2.rows
    out: dict = {}
    for (i, j), a in a4.items():
        for r, c in ((i, j), (j, i)) if i != j else ((i, j),):
            for m, gcm in rows[c]:
                out[(r, m)] = out.get((r, m), 0) + a * gcm
    return out


def _top_degree(x: CohClass) -> int:
    """Highest degree of a nonzero piece, or -1 for the zero class."""
    for d, piece in ((8, x.a8), (6, any(x.a6)), (4, x.a4), (2, any(x.a2)),
                     (0, x.a0)):
        if piece:
            return d
    return -1


def cup(x: CohClass, y: CohClass) -> CohClass:
    """Strict product: raises on pieces above degree 8 (formula misuse)."""
    _same(x, y)
    dx, dy = _top_degree(x), _top_degree(y)
    if dx + dy > 8:
        raise DomainError(f"product of degrees {dx} and {dy} overflows degree 8")
    return cup_manifold(x, y)


def cup_manifold(x: CohClass, y: CohClass) -> CohClass:
    """Product in the cohomology of the manifold itself.

    Pieces whose total degree exceeds the real dimension 8 are genuinely
    zero there, so they are dropped; use this for Chern-character algebra
    (Mukai vectors, Euler characteristics).  The strict ``cup`` treats such
    pieces as misuse instead.
    """
    _same(x, y)
    space = x.space
    pair = space.h2.pair
    x0, x2, x4, x6, x8 = x.a0, x.a2, x.a4, x.a6, x.a8
    y0, y2, y4, y6, y8 = y.a0, y.a2, y.a4, y.a6, y.a8
    xg, yg = _times_gram(space, x4), _times_gram(space, y4)
    cx = sum(v for (i, m), v in xg.items() if i == m)
    cy = sum(v for (i, m), v in yg.items() if i == m)
    # x2 y4 is the dual functional c(B) x + 2 B G x
    a6 = [x0 * b + y0 * a + cy * u + cx * v
          for a, b, u, v in zip(x6, y6, x2, y2)]
    for (i, m), v in yg.items():
        a6[i] += 2 * v * x2[m]
    for (i, m), v in xg.items():
        a6[i] += 2 * v * y2[m]
    nz = [i for i, (u, v) in enumerate(zip(x2, y2)) if u or v]
    sym = {(i, j): (x2[i] * y2[j] + y2[i] * x2[j]) / 2
           for n, i in enumerate(nz) for j in nz[n:]}
    a8 = x0 * y8 + y0 * x8 + pair(x2, y6) + pair(y2, x6) + cx * cy \
        + 2 * sum(v * yg.get((m, i), 0) for (i, m), v in xg.items())
    return CohClass(
        space,
        x0 * y0,
        tuple(x0 * b + y0 * a for a, b in zip(x2, y2)),
        _lin4((x0, y4), (y0, x4), (1, sym)),
        tuple(a6),
        a8,
    )


def integrate(x: CohClass) -> Fraction:
    return x.a8


@lru_cache(maxsize=8)
def todd_data(space: LLVSpace) -> tuple[CohClass, CohClass, CohClass]:
    """(td, sqrt(td), 1/sqrt(td)) of the tangent bundle."""
    _require_k32(space)
    c2 = c2_class(space)
    sqrt_td = scalar_class(space, 1) + Fraction(1, 24) * c2 \
        + point_class(space, Fraction(25, 32))
    inv_sqrt = scalar_class(space, 1) - Fraction(1, 24) * c2 \
        + point_class(space, Fraction(21, 32))
    td = cup_manifold(sqrt_td, sqrt_td)
    if cup_manifold(sqrt_td, inv_sqrt) != scalar_class(space, 1):
        raise DomainError("square root of Todd class failed its self check")
    return td, sqrt_td, inv_sqrt


def mukai_vector(space: LLVSpace, rank, c1, ch2, ch3, ch4) -> CohClass:
    """ch * sqrt(td) for a class given by its Chern character pieces."""
    ch = scalar_class(space, rank) + h2_class(space, c1) + ch2 + ch3 \
        + point_class(space, ch4)
    _, sqrt_td, _ = todd_data(space)
    return cup_manifold(ch, sqrt_td)


def chi(space: LLVSpace, ch: CohClass) -> Fraction:
    """Euler characteristic: integral of ch * td."""
    td, _, _ = todd_data(space)
    return integrate(cup_manifold(ch, td))


def psi(x: CohClass, ctx: GeneratorContext | None = None) -> ReducedSymElement:
    """Embedding of the ring into Sym^2 of the extended space.

    1 -> alpha^2/2, H^2 classes -> x alpha, Sym^2 tensors -> themselves plus
    (full contraction) alpha beta, degree-6 duals -> w beta, points -> beta^2.
    Output is expressed over the standard full-basis generator context
    (alpha = index 0, h2 basis = 1..rank, beta = rank + 1), with no formal
    qt component.
    """
    space = x.space
    if ctx is None:
        ctx = full_context(space)
    k = space.h2.rank
    ia, ib = 0, k + 1
    out = ReducedSymElement.zero(ctx)
    if x.a0:
        out = out + ReducedSymElement.monomial(ctx, (ia, ia), x.a0 / 2)
    for i, c in enumerate(x.a2):
        if c:
            out = out + ReducedSymElement.monomial(ctx, (ia, 1 + i), c)
    if x.a4:
        for (i, j), c in sorted(x.a4.items()):
            out = out + ReducedSymElement.monomial(
                ctx, (1 + i, 1 + j), c * (1 if i == j else 2))
        contraction = sum(v for (i, m), v in _times_gram(space, x.a4).items()
                          if i == m)
        out = out + ReducedSymElement.monomial(ctx, (ia, ib), contraction)
    for i, c in enumerate(x.a6):
        if c:
            out = out + ReducedSymElement.monomial(ctx, (1 + i, ib), c)
    if x.a8:
        out = out + ReducedSymElement.monomial(ctx, (ib, ib), x.a8)
    return out


def llv_vector_to_reduced(ctx: GeneratorContext, x: LLVVector) -> ReducedSymElement:
    """Degree-1 element of the full-basis context with the given coordinates."""
    out = ReducedSymElement.zero(ctx)
    for i, c in enumerate(x.coords()):
        if c:
            out = out + ReducedSymElement.monomial(ctx, (i,), c)
    return out
