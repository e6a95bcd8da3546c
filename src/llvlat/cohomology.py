"""Even cohomology ring of a hyper-Kahler fourfold of K3[2] type.

The monodromy-invariant presentation keeps five graded pieces:

  a0          H^0, a scalar
  a2          H^2, a vector over the 23-dimensional BBF lattice
  s4, c4      H^4 = Sym^2 H^2 (both have dimension 276), the symmetric
              matrix S + c4 G^-1: S is stored sparsely as a dict
              {(i, j): entry} of its nonzero upper-triangle entries
              (i <= j), and G^-1, the inverse Gram matrix, is carried as
              the symbol c4
  a6          H^6 = H^2 by duality, stored as the BBF-dual functional: the
              class with integral against y equal to (w, y)
  a8          a multiple of the point class

The second Chern class of the tangent bundle is the invariant tensor
(6/5) G^-1, so c2, the invariant b and the Todd classes have S = 0, and
no product expands G^-1: with A = S + c G^-1 one has A G = S G + c I, so
the contraction is c(S) + 23 c, the sharp is S G x + c x, and
tr(A G B G) = tr(S G T G) + d tr(S G) + c tr(T G) + 23 c d for
B = T + d G^-1.  The pair (S, c) is not unique, so equality compares a
normal form: (S, c) equals (T, d) when S = T and c = d, or when
S - T = (d - c) G^-1 for c != d.  ``CohClass.a4`` is the full matrix S + c4 G^-1
in the sparse upper-triangle format, built on demand (``to_dict`` and
``psi`` print it).  Degree-6 products reduce through
x1 x2 x3 = (x1,x2) x3 + (x1,x3) x2 + (x2,x3) x1 (as dual functionals), and
top products integrate through the quadruple formula.  Products that would
land above degree 8 raise in ``cup`` instead of truncating silently.

No code mutates a ``CohClass`` (or its ``s4`` dict) in place: ``c2_class``
and ``todd_data`` are cached and hand the same classes to every caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import DomainError
from .harmonic import (
    GeneratorContext,
    ReducedSymElement,
    full_context,
)
from .lattice import LLVSpace, LLVVector


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


def _lin2(*terms) -> list:
    """The H^2 or H^6 vector sum(c * v) over (c, v) pairs, as a list."""
    out = [Fraction(0)] * len(terms[0][1])
    for c, v in terms:
        if c:
            for i, a in enumerate(v):
                if a:
                    out[i] += a if c == 1 else c * a
    return out


@lru_cache(maxsize=8)
def _ginv4(space: LLVSpace) -> dict:
    """The inverse Gram matrix G^-1 in the sparse upper-triangle format."""
    inv = space.h2.inverse
    k = space.h2.rank
    return {(i, j): inv[i][j] for i in range(k) for j in range(i, k)
            if inv[i][j]}


def _h4_equal(space: LLVSpace, s, c, t, d) -> bool:
    """Whether S + c G^-1 = T + d G^-1."""
    if c == d:
        return s == t
    ginv = _ginv4(space)
    diff = _lin4((1, s), (-1, t))
    return diff.keys() == ginv.keys() and all(
        v == (d - c) * ginv[key] for key, v in diff.items())


@dataclass(frozen=True, eq=False)
class CohClass:
    space: LLVSpace
    a0: Fraction
    a2: tuple[Fraction, ...]
    s4: dict[tuple[int, int], Fraction]
    c4: Fraction
    a6: tuple[Fraction, ...]
    a8: Fraction

    @cached_property
    def a4(self) -> dict[tuple[int, int], Fraction]:
        """H^4 as the nonzero upper-triangle entries of S + c4 G^-1."""
        return _lin4((1, self.s4), (self.c4, _ginv4(self.space)))

    def __eq__(self, other):
        if not isinstance(other, CohClass):
            return NotImplemented
        return (self.space == other.space and self.a0 == other.a0
                and self.a2 == other.a2 and self.a6 == other.a6
                and self.a8 == other.a8
                and _h4_equal(self.space, self.s4, self.c4,
                              other.s4, other.c4))

    def __add__(self, other: "CohClass") -> "CohClass":
        _same(self, other)
        return CohClass(
            self.space,
            self.a0 + other.a0,
            tuple(_lin2((1, self.a2), (1, other.a2))),
            _lin4((1, self.s4), (1, other.s4)),
            self.c4 + other.c4,
            tuple(_lin2((1, self.a6), (1, other.a6))),
            self.a8 + other.a8,
        )

    def __sub__(self, other: "CohClass") -> "CohClass":
        return self + (-1) * other

    def __rmul__(self, c) -> "CohClass":
        c = Fraction(c)
        return CohClass(
            self.space,
            c * self.a0,
            tuple(_lin2((c, self.a2))),
            _lin4((c, self.s4)),
            c * self.c4,
            tuple(_lin2((c, self.a6))),
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
        a4 = self.a4
        upper = [fmt_q(a4.get((i, j), zero))
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


def _class(space: LLVSpace, a0=0, a2=None, s4=None, c4=0, a6=None,
           a8=0) -> CohClass:
    """A class from the given pieces; omitted pieces are zero."""
    _require_k32(space)
    zero = (Fraction(0),) * space.h2.rank
    return CohClass(space, Fraction(a0), zero if a2 is None else space.h2.vector(a2),
                    s4 or {}, Fraction(c4),
                    zero if a6 is None else space.h2.vector(a6), Fraction(a8))


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
    return _class(space, s4={(i, j): a4[i][j] for i in range(k)
                             for j in range(i, k) if a4[i][j]})


def deg6_class(space: LLVSpace, w) -> CohClass:
    return _class(space, a6=w)


def deg6_from_triple(space: LLVSpace, x1, x2, x3) -> CohClass:
    """The product x1 x2 x3 in its dual-functional representation."""
    p = space.h2.pair
    x1, x2, x3 = (space.h2.vector(v) for v in (x1, x2, x3))
    p12, p13, p23 = p(x1, x2), p(x1, x3), p(x2, x3)
    return deg6_class(space, tuple(p12 * c3 + p13 * c2 + p23 * c1
                                   for c1, c2, c3 in zip(x1, x2, x3)))


@lru_cache(maxsize=8)
def c2_class(space: LLVSpace) -> CohClass:
    """c2 of the tangent bundle, the invariant Sym^2 tensor (6/5) G^-1."""
    return _class(space, c4=Fraction(6, 5))


def b_invariant_class(space: LLVSpace) -> CohClass:
    """The normalized invariant b with integral of b^2 equal to 25/23."""
    return _class(space, c4=Fraction(1, 23))


def _times_gram(space: LLVSpace, s4: dict) -> dict:
    """The matrix S G of a sparse symmetric S, as {(i, m): entry}.

    Its trace is the full contraction c(S), it maps x to the sharp S G x,
    and trace(S G T G) is the induced pairing of S and T on Sym^2.
    """
    rows = space.h2.rows
    out: dict = {}
    for (i, j), a in s4.items():
        for r, c in ((i, j), (j, i)) if i != j else ((i, j),):
            for m, gcm in rows[c]:
                out[(r, m)] = out.get((r, m), 0) + a * gcm
    return out


def _trace(sg: dict):
    return sum(v for (i, m), v in sg.items() if i == m)


def _top_degree(x: CohClass) -> int:
    """Highest degree of a nonzero piece, or -1 for the zero class."""
    for d, piece in ((8, x.a8), (6, any(x.a6)),
                     (4, not _h4_equal(x.space, x.s4, x.c4, {}, 0)),
                     (2, any(x.a2)), (0, x.a0)):
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
    k = space.h2.rank
    x0, x2, x6, x8, c = x.a0, x.a2, x.a6, x.a8, x.c4
    y0, y2, y6, y8, d = y.a0, y.a2, y.a6, y.a8, y.c4
    # x4 = S + c G^-1 and y4 = T + d G^-1, with S G and T G sparse
    sg, tg = _times_gram(space, x.s4), _times_gram(space, y.s4)
    ts, tt = _trace(sg), _trace(tg)
    cx, cy = ts + k * c, tt + k * d
    a2 = _lin2((x0, y2), (y0, x2))
    # x2 y4 is the dual functional c(B) x + 2 B G x, where B G x = T G x + d x
    a6 = _lin2((x0, y6), (y0, x6), (cy + 2 * d, x2), (cx + 2 * c, y2))
    for bg, u in ((tg, x2), (sg, y2)):
        for (i, m), v in bg.items():
            if u[m]:
                a6[i] += 2 * v * u[m]
    # sym(x2, y2): the symmetrized outer product, upper triangle
    sym: dict = {}
    ys = [(j, v) for j, v in enumerate(y2) if v]
    for i, u in enumerate(x2):
        if u:
            for j, v in ys:
                key = (i, j) if i <= j else (j, i)
                sym[key] = sym.get(key, 0) + (u * v if i == j else u * v / 2)
    # tr(A G B G) = tr(S G T G) + d tr(S G) + c tr(T G) + k c d
    trace_agbg = d * ts + c * tt + k * c * d
    if sg and tg:
        trace_agbg += sum(v * tg.get((m, i), 0) for (i, m), v in sg.items())
    a8 = x0 * y8 + y0 * x8 + cx * cy + 2 * trace_agbg
    if any(y6):
        a8 += space.h2.pair(x2, y6)
    if any(x6):
        a8 += space.h2.pair(y2, x6)
    return CohClass(
        space,
        x0 * y0,
        tuple(a2),
        _lin4((x0, y.s4), (y0, x.s4), (1, sym)),
        x0 * d + y0 * c,
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
    terms = {}
    if x.a0:
        terms[(0, (ia, ia))] = x.a0 / 2
    for i, c in enumerate(x.a2):
        if c:
            terms[(0, (ia, 1 + i))] = c
    a4 = x.a4
    if a4:
        for (i, j), c in sorted(a4.items()):
            terms[(0, (1 + i, 1 + j))] = c * (1 if i == j else 2)
        contraction = _trace(_times_gram(space, x.s4)) + k * x.c4
        if contraction:
            terms[(0, (ia, ib))] = contraction
    for i, c in enumerate(x.a6):
        if c:
            terms[(0, (1 + i, ib))] = c
    if x.a8:
        terms[(0, (ib, ib))] = x.a8
    return ReducedSymElement(ctx, terms)


def llv_vector_to_reduced(ctx: GeneratorContext, x: LLVVector) -> ReducedSymElement:
    """Degree-1 element of the full-basis context with the given coordinates."""
    return ReducedSymElement(
        ctx, {(0, (i,)): Fraction(c) for i, c in enumerate(x.coords()) if c})
