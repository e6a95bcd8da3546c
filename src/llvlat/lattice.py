"""BBF lattices and the extended LLV space.

A ``QuadLattice`` is a free abelian group with a fixed labelled basis and an
integral symmetric Gram matrix.  Presets cover the hyperbolic plane U, the
negative definite E8(-1), the K3 lattice U^3 + E8(-1)^2, the second
cohomology of Hilbert schemes of points on a K3 (K3 + <2-2n>, with the
exceptional half-diagonal class delta last), and of generalized Kummer
varieties (U^3 + <-2n-2>).

The Gram matrix is stored once, as ``gram``, and read in one sparse format,
``rows``: row i lists the pairs (j, g_ij) with g_ij != 0 (the K3[2] Gram has
51 nonzero entries out of 529).  ``pair`` and ``gram_vec`` walk ``rows``
over integer numerators, and ``inverse`` is the exact inverse Gram, computed
on first use and cached on the lattice.

An ``LLVSpace`` adjoins a hyperbolic plane spanned by two isotropic classes
alpha, beta with (alpha, beta) = -1, orthogonal to H^2.  Elements are
``LLVVector`` triples (r, v, s) = r*alpha + v + s*beta.  The extended space
is itself a ``QuadLattice``, ``space.full``, with basis (alpha, h2 basis...,
beta) and the alpha/beta corner in its Gram; every other module reads
``rows``, ``gram`` and ``inverse`` from ``space.h2`` or ``space.full``.  The
integral LLV lattice of a Hilbert scheme is the image of the standard
integral lattice Z*alpha + H^2(Z) + Z*beta under the unipotent isometry
B_{-delta/2}; it is the lattice preserved by the derived monodromy group,
and membership and divisibility in it gate most constructions downstream.
Read in the basis B_{-delta/2}(alpha, H^2 basis..., beta), Lambda is
``space.full`` itself: ``lambda_coords`` gives the integer coordinates of
a member (None outside Lambda), and primitivity and divisibility in Lambda
are ``space.full.is_primitive`` and ``space.full.divisibility`` of them.

``make_lattice`` and ``make_space`` are memoized on (preset, n), with the
three spellings of the K3 space ("K3", "K3" with n = 1, "HilbK3" with
n = 1) normalized first, so each preset is one canonical object per
process and its cached ``rows``, ``inverse`` and ``full`` are computed
once.  All values are immutable and
all operations pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd

from . import _linalg
from .errors import DomainError, InconclusiveError, certify

# Gram matrix of E8 in the standard Cartan ordering, negated to the
# negative definite form used on K3 cohomology.  Stored as an explicit
# constant so the external interface is bit-exact.
_E8_CARTAN = (
    (2, 0, -1, 0, 0, 0, 0, 0),
    (0, 2, 0, -1, 0, 0, 0, 0),
    (-1, 0, 2, -1, 0, 0, 0, 0),
    (0, -1, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, 0, 0, -1, 2),
)
E8_NEG_GRAM = tuple(tuple(-x for x in row) for row in _E8_CARTAN)
U_GRAM = ((0, 1), (1, 0))


@dataclass(frozen=True)
class QuadLattice:
    """Free abelian group with labelled basis and integral symmetric Gram."""

    name: str
    gram: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        n = len(self.gram)
        if any(len(row) != n for row in self.gram):
            raise ValueError("gram must be square")
        if len(self.labels) != n:
            raise ValueError("labels must match rank")
        for i in range(n):
            for j in range(n):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("gram must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.gram)

    @cached_property
    def rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Row i of the Gram as the pairs (j, g_ij) with g_ij != 0."""
        return _linalg.sparse(self.gram)

    @cached_property
    def inverse(self) -> _linalg.Matrix:
        """Exact inverse of the Gram matrix."""
        return _linalg.inverse(self.gram)

    def pair(self, x, y) -> Fraction:
        # over the integers: x = xs / a and y = ys / b
        xs, a = _linalg.to_int(self.vector(x))
        ys, b = _linalg.to_int(self.vector(y))
        return Fraction(sum(xi * g * ys[j] for xi, row in zip(xs, self.rows)
                            if xi for j, g in row), a * b)

    def gram_vec(self, x) -> tuple:
        """G x, the pairings of x with the basis: ints when x is integral."""
        xs, a = _linalg.to_int(x)
        out = [sum(g * xs[j] for j, g in row) for row in self.rows]
        return tuple(out) if a == 1 else tuple(Fraction(c, a) for c in out)

    def vector(self, x) -> tuple[Fraction, ...]:
        v = tuple(c if type(c) is Fraction else Fraction(c) for c in x)
        if len(v) != self.rank:
            raise DomainError(
                f"vector of length {len(v)} in rank {self.rank} lattice"
            )
        return v

    def basis_vector(self, i: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(1 if j == i else 0) for j in range(self.rank))

    def is_integral(self, x) -> bool:
        return all(Fraction(c).denominator == 1 for c in x)

    def _int_vector(self, x, what: str) -> list[int]:
        """The entries of x as ints, refusing non-integral and zero vectors."""
        xs = list(x)
        if len(xs) != self.rank:
            raise DomainError(
                f"vector of length {len(xs)} in rank {self.rank} lattice"
            )
        for i, c in enumerate(xs):
            if type(c) is not int:
                c = Fraction(c)
                if c.denominator != 1:
                    raise DomainError(f"{what} is defined for integral vectors only")
                xs[i] = c.numerator
        if not any(xs):
            raise DomainError(f"{what} of the zero vector")
        return xs

    def divisibility(self, x) -> int:
        """gcd of the pairings of an integral vector against the lattice."""
        pairings = self.gram_vec(self._int_vector(x, "divisibility"))
        certify(all(type(p) is int for p in pairings),
                "pairings of an integral vector are integers")
        return gcd(*pairings)

    def is_primitive(self, x) -> bool:
        return gcd(*self._int_vector(x, "primitivity")) == 1

    def signature(self) -> tuple[int, int]:
        pos, neg, zero = _linalg.signature(self.gram)
        if zero:
            raise DomainError(f"lattice {self.name} is degenerate")
        return pos, neg

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "rank": self.rank,
            "gram": [int(x) for row in self.gram for x in row],
            "labels": list(self.labels),
        }


def _direct_sum(name, *blocks):
    grams, labels = [], []
    for gram, labs in blocks:
        grams.append(gram)
        labels.extend(labs)
    n = sum(len(g) for g in grams)
    full = [[0] * n for _ in range(n)]
    off = 0
    for g in grams:
        k = len(g)
        for i in range(k):
            for j in range(k):
                full[off + i][off + j] = g[i][j]
        off += k
    return QuadLattice(name, tuple(tuple(row) for row in full), tuple(labels))


def _u_block(i):
    return (U_GRAM, (f"e{i}", f"f{i}"))


def _e8_block(i):
    return (E8_NEG_GRAM, tuple(f"a{i}{j}" for j in range(1, 9)))


@lru_cache(maxsize=32)
def make_lattice(preset: str, n: int | None = None) -> QuadLattice:
    """Build a preset lattice.

    Presets: "U", "E8neg", "K3", "HilbK3" (needs n >= 1; n = 1 gives the K3
    lattice itself), "Kum" (needs n >= 2).  Basis order is fixed: U blocks,
    then E8(-1) blocks, then the rank-one block, whose generator is the
    class delta (labelled "d") on Hilbert schemes.
    """
    if preset == "U":
        return _direct_sum("U", _u_block(1))
    if preset == "E8neg":
        return _direct_sum("E8(-1)", _e8_block(1))
    if preset == "K3":
        return _direct_sum(
            "K3", _u_block(1), _u_block(2), _u_block(3), _e8_block(1), _e8_block(2)
        )
    if preset == "HilbK3":
        if n is None or n < 1:
            raise DomainError("HilbK3 preset needs n >= 1")
        if n == 1:
            return make_lattice("K3")
        return _direct_sum(
            f"HilbK3({n})",
            _u_block(1), _u_block(2), _u_block(3),
            _e8_block(1), _e8_block(2),
            (((2 - 2 * n,),), ("d",)),
        )
    if preset == "Kum":
        # the square -2n-2 of the last generator makes its divisibility
        # 2n+2, matching the divisor-divisibility bound for this type
        if n is None or n < 2:
            raise DomainError("Kum preset needs n >= 2")
        return _direct_sum(
            f"Kum({n})",
            _u_block(1), _u_block(2), _u_block(3),
            (((-2 * n - 2,),), ("d",)),
        )
    raise DomainError(f"unknown preset: {preset!r}")


@dataclass(frozen=True)
class LLVVector:
    """Element r*alpha + v + s*beta of the extended space."""

    r: Fraction
    v: tuple[Fraction, ...]
    s: Fraction

    @staticmethod
    def make(r, v, s) -> "LLVVector":
        return LLVVector(Fraction(r), tuple(Fraction(c) for c in v), Fraction(s))

    def __add__(self, other: "LLVVector") -> "LLVVector":
        return LLVVector(
            self.r + other.r,
            tuple(a + b for a, b in zip(self.v, other.v)),
            self.s + other.s,
        )

    def __sub__(self, other: "LLVVector") -> "LLVVector":
        return self + (-1) * other

    def __rmul__(self, c) -> "LLVVector":
        c = Fraction(c)
        return LLVVector(c * self.r, tuple(c * x for x in self.v), c * self.s)

    def __neg__(self) -> "LLVVector":
        return (-1) * self

    def is_zero(self) -> bool:
        return self.r == 0 and self.s == 0 and all(c == 0 for c in self.v)

    def coords(self) -> tuple[Fraction, ...]:
        """Coordinates in the full basis order (alpha, h2 basis..., beta)."""
        return (self.r,) + self.v + (self.s,)

    @staticmethod
    def from_coords(c) -> "LLVVector":
        c = tuple(Fraction(x) for x in c)
        return LLVVector(c[0], c[1:-1], c[-1])


@dataclass(frozen=True)
class LLVSpace:
    """H^2 with its BBF form, extended by the hyperbolic alpha, beta plane."""

    h2: QuadLattice
    n: int
    fujiki: Fraction
    dtype: str  # "K3", "Hilb", or "Kummer"

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # hashing the 23x23 Gram costs microseconds, so do it once per space
        return hash((self.n, self.fujiki, self.h2.gram))

    @property
    def dim(self) -> int:
        return self.h2.rank + 2

    @cached_property
    def full(self) -> QuadLattice:
        """The extended space as a lattice: basis (alpha, h2 basis..., beta)."""
        edge = (0,) * self.h2.rank
        gram = ((0,) + edge + (-1,),) \
            + tuple((0,) + row + (0,) for row in self.h2.gram) \
            + ((-1,) + edge + (0,),)
        return QuadLattice(f"LLV({self.h2.name})", gram,
                           ("alpha",) + self.h2.labels + ("beta",))

    def alpha(self) -> LLVVector:
        return LLVVector.make(1, (0,) * self.h2.rank, 0)

    def beta(self) -> LLVVector:
        return LLVVector.make(0, (0,) * self.h2.rank, 1)

    def from_h2(self, v) -> LLVVector:
        return LLVVector.make(0, self.h2.vector(v), 0)

    def h2_basis_vector(self, i: int) -> LLVVector:
        return self.from_h2(self.h2.basis_vector(i))

    def delta(self) -> tuple[Fraction, ...]:
        """The h2 vector of the exceptional class (last basis vector)."""
        if self.dtype not in ("Hilb", "Kummer"):
            raise DomainError(f"{self.dtype} space has no delta class")
        return self.h2.basis_vector(self.h2.rank - 1)

    def pair(self, x: LLVVector, y: LLVVector) -> Fraction:
        return self.full.pair(x.coords(), y.coords())

    def signature(self) -> tuple[int, int]:
        p, m = self.h2.signature()
        return p + 1, m + 1

    def fujiki_integral(self, lam) -> Fraction:
        """Integral of lambda^(2n) over the manifold: c_X (2n)!/(2^n n!) q^n."""
        q = self.h2.pair(lam, lam)
        n = self.n
        fact = Fraction(1)
        for i in range(n + 1, 2 * n + 1):
            fact *= i
        return self.fujiki * fact / 2**n * q**n

    def e_lambda_apply(self, lam, x: LLVVector) -> LLVVector:
        """Nilpotent action: alpha -> lam, mu -> (lam, mu) beta, beta -> 0."""
        lam = self.h2.vector(lam)
        return LLVVector.make(
            0,
            tuple(x.r * c for c in lam),
            self.h2.pair(lam, x.v),
        )

    def b_lambda_apply(self, lam, x: LLVVector) -> LLVVector:
        """Unipotent exp of e_lambda: x + e(x) + e(e(x))/2."""
        lam = self.h2.vector(lam)
        q = self.h2.pair(lam, lam)
        return LLVVector.make(
            x.r,
            tuple(a + x.r * b for a, b in zip(x.v, lam)),
            x.s + self.h2.pair(lam, x.v) + x.r * q / 2,
        )


def make_space(preset: str, n: int = 1) -> LLVSpace:
    """LLV space of a preset deformation type.

    "K3" (or "HilbK3" with n = 1) is the K3 surface itself with its Mukai
    lattice of rank 24; "HilbK3" with n >= 2 and "Kum" with n >= 2 give the
    rank b2 + 2 spaces of the two standard deformation types.  Every
    spelling of a space returns the same object.
    """
    if preset == "K3" or (preset == "HilbK3" and n == 1):
        return _space("K3", 1)
    return _space(preset, n)


@lru_cache(maxsize=32)
def _space(preset: str, n: int) -> LLVSpace:
    if preset == "K3":
        return LLVSpace(make_lattice("K3"), 1, Fraction(1), "K3")
    if preset == "HilbK3":
        return LLVSpace(make_lattice("HilbK3", n), n, Fraction(1), "Hilb")
    if preset == "Kum":
        return LLVSpace(make_lattice("Kum", n), n, Fraction(n + 1), "Kummer")
    raise DomainError(f"unknown space preset: {preset!r}")


# ---------------------------------------------------------------------------
# integral LLV lattice of Hilbert schemes

def lambda_coords(space: LLVSpace, x: LLVVector) -> tuple[int, ...] | None:
    """Coordinates of x in the integral LLV lattice, or None outside it.

    B_{delta/2} is an isometry, so in the basis B_{-delta/2}(alpha, H^2
    basis..., beta) Lambda is ``space.full``, and the coordinates of x are
    the standard ones of B_{delta/2}(x) = (r, v + (r/2) delta,
    s + (1 - n)(v_delta + r/4)), computed here over one denominator.
    """
    if space.dtype != "Hilb":
        raise DomainError("integral LLV lattice implemented for HilbK3 spaces")
    c, a = _linalg.to_int((x.r,) + space.h2.vector(x.v) + (x.s,))
    r, v_delta = c[0], c[-2]
    c = [4 * e for e in c]  # 4a B_{delta/2}(x)
    c[-2] += 2 * r
    c[-1] += (1 - space.n) * (4 * v_delta + r)
    a *= 4
    if any(e % a for e in c):
        return None
    return tuple(e // a for e in c)


def _member_coords(space: LLVSpace, x: LLVVector) -> tuple[int, ...]:
    w = lambda_coords(space, x)
    if w is None:
        raise DomainError("vector is not in the integral LLV lattice")
    return w


def in_integral_llv(space: LLVSpace, x: LLVVector) -> bool:
    """Membership in B_{-delta/2}(Z alpha + H^2(Z) + Z beta)."""
    return lambda_coords(space, x) is not None


def div_in_lambda(space: LLVSpace, x: LLVVector) -> int:
    """Divisibility of a member of the integral LLV lattice."""
    return space.full.divisibility(_member_coords(space, x))


def is_primitive_in_lambda(space: LLVSpace, x: LLVVector) -> bool:
    """Primitivity in the integral LLV lattice; zero is not primitive."""
    w = _member_coords(space, x)
    return any(w) and space.full.is_primitive(w)


def orbit_invariants_equal(lattice: QuadLattice, x, y) -> bool:
    """Equality of monodromy-orbit invariants for primitive classes.

    For primitive classes of divisibility 1 or 2 on either standard
    deformation type, the square and the divisibility together are a
    complete orbit invariant, so equality of both certifies a common orbit.
    Divisibility outside {1, 2} is rejected as inconclusive.
    """
    for v in (x, y):
        if not lattice.is_primitive(v):
            raise DomainError("orbit invariants require primitive classes")
    dx, dy = lattice.divisibility(x), lattice.divisibility(y)
    if dx not in (1, 2) or dy not in (1, 2):
        raise InconclusiveError(
            "orbit test requires divisibility 1 or 2; invariants are not "
            "faithful otherwise"
        )
    return lattice.pair(x, x) == lattice.pair(y, y) and dx == dy
