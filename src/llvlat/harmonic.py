"""Harmonic calculus on symmetric powers of the extended LLV space.

The contraction operator Delta sends a decomposable symmetric tensor
x_1 ... x_m to the sum over pairs of (x_i, x_j) x_1 ... (omit i, j) ... x_m.
Its kernel in degree m is spanned by m-th powers of isotropic vectors, and
Sym^m splits as ker(Delta) + qt * Sym^(m-2), where qt is the unique
invariant degree-2 tensor with Delta(qt) = 1 (one over the ambient
dimension times the dual metric tensor).

Working in the full symmetric algebra of a 25-dimensional space is
hopeless, so elements are carried in a reduced form: formal polynomials in
a finite list of generator vectors and a formal symbol for qt.  The only
extra rule needed is how Delta crosses a factor of qt,

    Delta(qt * f) = (1 + 2 deg(f) / N) * f + qt * Delta(f),

where N is the ambient dimension.  The rule follows by splitting the
contraction pairs into pairs inside qt (contributing f), mixed pairs
(contributing (2 deg f / N) f, using that contracting the dual metric
against a vector returns that vector), and pairs inside f.  It is validated
against a brute-force full-basis implementation in the test suite before
anything relies on it.

The projection onto ker(Delta) is computed as Pi(x) = sum_i c_i qt^i
Delta^i(x) with rational coefficients c_i determined by a triangular
recurrence; the result is verified to satisfy Delta(Pi(x)) = 0 after the
fact, and Pi is exactly the projection along qt * Sym^(deg-2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import DomainError
from .lattice import LLVSpace, LLVVector
from .rational import nth_root_rational

Key = tuple[int, tuple[int, ...]]  # (qt exponent, sorted generator indices)


def _add(out: dict, key: Key, c: Fraction) -> None:
    """out[key] += c, dropping the key when the sum is zero."""
    c += out.get(key, 0)
    if c:
        out[key] = c
    else:
        out.pop(key, None)


@dataclass(frozen=True)
class GeneratorContext:
    """Finite generator list with its exact pairing matrix."""

    space: LLVSpace
    gens: tuple[LLVVector, ...]
    gram_g: tuple[tuple[Fraction, ...], ...] = field(init=False)

    def __post_init__(self):
        g = tuple(
            tuple(self.space.pair(a, b) for b in self.gens) for a in self.gens
        )
        object.__setattr__(self, "gram_g", g)

    @property
    def ambient_dim(self) -> int:
        return self.space.dim

    def find(self, v: LLVVector) -> int | None:
        for i, g in enumerate(self.gens):
            if g == v:
                return i
        return None


@dataclass(frozen=True)
class ReducedSymElement:
    """Homogeneous element of the reduced symmetric algebra.

    terms maps (j, monomial) to a coefficient, where j is the qt exponent
    and monomial is a sorted tuple of generator indices; the degree
    2 j + len(monomial) is constant across terms.
    """

    ctx: GeneratorContext
    terms: dict[Key, Fraction]

    def __post_init__(self):
        degs = {2 * j + len(m) for j, m in self.terms}
        if len(degs) > 1:
            raise DomainError(f"inhomogeneous element: degrees {sorted(degs)}")

    @property
    def degree(self) -> int | None:
        for j, m in self.terms:
            return 2 * j + len(m)
        return None

    def is_zero(self) -> bool:
        return not self.terms

    @staticmethod
    def zero(ctx) -> "ReducedSymElement":
        return ReducedSymElement(ctx, {})

    @staticmethod
    def monomial(ctx, indices, coeff=1, qt_power: int = 0) -> "ReducedSymElement":
        key = (qt_power, tuple(sorted(indices)))
        c = Fraction(coeff)
        return ReducedSymElement(ctx, {key: c} if c else {})

    @staticmethod
    def qtilde(ctx, power: int = 1, coeff=1) -> "ReducedSymElement":
        return ReducedSymElement.monomial(ctx, (), coeff, qt_power=power)

    def _combine(self, other, sign):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise DomainError("elements over different generator contexts")
        out = dict(self.terms)
        for k, c in other.terms.items():
            _add(out, k, sign * c)
        return ReducedSymElement(self.ctx, out)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rmul__(self, c):
        c = Fraction(c)
        if c == 0:
            return ReducedSymElement.zero(self.ctx)
        return ReducedSymElement(self.ctx, {k: c * v for k, v in self.terms.items()})

    def __neg__(self):
        return (-1) * self

    def __mul__(self, other):
        """Product in the free commutative algebra on generators and qt."""
        if not isinstance(other, ReducedSymElement):
            return NotImplemented
        out: dict[Key, Fraction] = {}
        for (j1, m1), c1 in self.terms.items():
            for (j2, m2), c2 in other.terms.items():
                _add(out, (j1 + j2, tuple(sorted(m1 + m2))), c1 * c2)
        return ReducedSymElement(self.ctx, out)

    def power(self, k: int) -> "ReducedSymElement":
        out = ReducedSymElement.monomial(self.ctx, ())
        for _ in range(k):
            out = out * self
        return out

    def coeff(self, indices, qt_power: int = 0) -> Fraction:
        return self.terms.get((qt_power, tuple(sorted(indices))), Fraction(0))

    def map_generators(self, f) -> "ReducedSymElement":
        """Apply a linear map to every tensor slot (qt is invariant).

        f takes a generator vector to an LLVVector; the image context uses
        the mapped generator list, preserving indices.
        """
        new_ctx = GeneratorContext(self.ctx.space, tuple(f(g) for g in self.ctx.gens))
        return ReducedSymElement(new_ctx, dict(self.terms))

    def to_dict(self) -> list[dict]:
        from .rational import fmt_q

        items = sorted(self.terms.items())
        return [
            {"j": j, "mono": list(m), "coeff": fmt_q(c)} for (j, m), c in items
        ]


def _delta_term(ctx, j, mono, coeff, out):
    """Accumulate Delta(coeff * qt^j * mono) into out.

    Delta(qt^j m) = _qt_crossing(j, deg m, N) qt^(j-1) m + qt^j Delta(m),
    and Delta(m) sums the pairings of the generator pairs in m.
    """
    k = len(mono)
    if j:
        _add(out, (j - 1, mono), coeff * _qt_crossing(j, k, ctx.ambient_dim))
    g = ctx.gram_g
    for a in range(k):
        for b in range(a + 1, k):
            p = g[mono[a]][mono[b]]
            if p:
                rest = mono[:a] + mono[a + 1 : b] + mono[b + 1 :]
                _add(out, (j, rest), coeff * p)


def delta_apply(x: ReducedSymElement) -> ReducedSymElement:
    """The degree -2 contraction operator."""
    out: dict[Key, Fraction] = {}
    for (j, m), c in x.terms.items():
        _delta_term(x.ctx, j, m, c, out)
    return ReducedSymElement(x.ctx, out)


def _qt_crossing(i: int, d: int, n_amb: int) -> Fraction:
    """Coefficient a with Delta(qt^i y) = a qt^(i-1) y + qt^i Delta(y), deg y = d."""
    a = Fraction(0)
    for m in range(1, i + 1):
        a += 1 + Fraction(2 * (2 * (m - 1) + d), n_amb)
    return a


def project_harmonic(x: ReducedSymElement) -> ReducedSymElement:
    """Projection onto ker(Delta) along qt * Sym^(deg-2).

    Pi(x) = sum_i c_i qt^i Delta^i(x), where the c_i solve the triangular
    system that makes every contraction term cancel; idempotent and linear.
    """
    n = x.degree
    if n is None:
        return x
    n_amb = x.ctx.ambient_dim
    result = dict(x.terms)
    c = Fraction(1)
    y = x
    i = 0
    while True:
        y = delta_apply(y)
        i += 1
        if y.is_zero() or 2 * i > n:
            break
        a = _qt_crossing(i, n - 2 * i, n_amb)
        if a == 0:
            raise DomainError("projection system is singular")
        c = -c / a
        for (j, m), v in y.terms.items():
            _add(result, (j + i, m), c * v)
    out = ReducedSymElement(x.ctx, result)
    if not delta_apply(out).is_zero():
        raise DomainError("projection failed to land in ker(Delta)")
    return out


def psi_power_line(space: LLVSpace, gamma: LLVVector, n: int,
                   extra_gens: tuple[LLVVector, ...] = ()) -> ReducedSymElement:
    """Projection of gamma^n to ker(Delta), over gens = (gamma,) + extras."""
    if gamma.is_zero():
        raise DomainError("gamma must be nonzero")
    ctx = GeneratorContext(space, (gamma,) + tuple(extra_gens))
    return project_harmonic(ReducedSymElement.monomial(ctx, (0,) * n))


def recover_line(h: ReducedSymElement) -> LLVVector:
    """Invert the projected-power map on elements with r != 0.

    Expects h = Pi(gamma^n) / n! for some gamma = r alpha + lam + s beta
    with r != 0, expressed over a generator list containing alpha and beta
    with all remaining generators pure H^2 vectors.  Returns gamma with the
    normalization r^n = n! * (coefficient of alpha^n in h); verifies the
    claim by recomputing Pi(gamma^n) exactly.
    """
    ctx = h.ctx
    space = ctx.space
    n = h.degree
    if n is None or n < 1:
        raise DomainError("cannot recover a line from a constant")
    ia = ctx.find(space.alpha())
    ib = ctx.find(space.beta())
    if ia is None or ib is None:
        raise DomainError("generator list must contain alpha and beta")
    for i, g in enumerate(ctx.gens):
        if i not in (ia, ib) and (g.r != 0 or g.s != 0):
            raise DomainError("non alpha/beta generators must be pure H^2")

    a_top = h.coeff((ia,) * n)
    if a_top == 0:
        raise DomainError("no pure alpha^n term; the r = 0 families need "
                          "their dedicated constructors")
    r = nth_root_rational(factorial(n) * a_top, n)
    if r is None:
        raise DomainError("alpha^n coefficient is not an exact n-th power")
    rn1 = r ** (n - 1)

    # alpha^n and alpha^(n-1) g coefficients receive no qt contribution in
    # either representation (the dual metric has no alpha^2 component), so
    # r and the H^2 part read off directly
    slopes: dict[int, Fraction] = {}
    lam = [Fraction(0)] * space.h2.rank
    for i, g in enumerate(ctx.gens):
        if i in (ia, ib):
            continue
        ci = h.coeff((ia,) * (n - 1) + (i,)) * factorial(n - 1) / rn1
        if ci:
            slopes[i] = ci
            lam = [a + ci * b for a, b in zip(lam, g.v)]

    def candidate(s):
        lin = ReducedSymElement.monomial(ctx, (ia,), r)
        lin = lin + ReducedSymElement.monomial(ctx, (ib,), s)
        for i, ci in slopes.items():
            lin = lin + ReducedSymElement.monomial(ctx, (i,), ci)
        return lin

    def matches(s):
        check = project_harmonic(candidate(s).power(n))
        target = Fraction(factorial(n)) * h
        if check.terms == target.terms:
            return True
        # formal qt content may differ between equal tensors; compare the
        # expanded forms when the context is the standard full basis
        try:
            return expand_qtilde(check).terms == expand_qtilde(target).terms
        except DomainError:
            return False

    # fast path: projected powers carry their qt corrections formally, so
    # the (0, alpha^(n-1) beta) key is exactly n r^(n-1) s / n!
    s = h.coeff((ia,) * (n - 1) + (ib,)) * factorial(n - 1) / rn1
    if not matches(s):
        # expanded inputs (psi images) mix the j = 1 qt correction into the
        # alpha^(n-1) beta coordinate; that correction is linear in s:
        #   C = n r^(n-1) s - C(n,2) ((lam,lam) - 2 r s) r^(n-2) (2/N) c1
        # with c1 = -1 / (1 + 2(n-2)/N)
        try:
            expanded = expand_qtilde(Fraction(factorial(n)) * h)
        except DomainError as exc:
            raise DomainError("input is not the projection of an n-th "
                              "power") from exc
        big_c = expanded.coeff((ia,) * (n - 1) + (ib,))
        n_amb = ctx.ambient_dim
        c1 = -1 / (1 + Fraction(2 * (n - 2), n_amb))
        lam_sq = space.h2.pair(lam, lam)
        binom = Fraction(n * (n - 1), 2)
        # big_c = n r^(n-1) s + c1 binom ((lam,lam) - 2 r s) r^(n-2) (-2/N)
        k0 = c1 * binom * Fraction(-2, n_amb) * r ** (n - 2)
        denom = n * rn1 - 2 * r * k0
        s = (big_c - k0 * lam_sq) / denom
        if not matches(s):
            raise DomainError("input is not the projection of an n-th power")
    return LLVVector.make(r, lam, s)


def qtilde_full_expansion(ctx: GeneratorContext) -> ReducedSymElement:
    """qt written out over a generator list that is the full standard basis.

    Valid when ctx.gens is exactly (alpha, h2 basis vectors..., beta); qt is
    then (1/N) times the dual metric tensor of the full space.
    """
    if ctx.gens != full_context(ctx.space).gens:
        raise DomainError("qtilde expansion needs the standard full basis context")
    return ReducedSymElement(ctx, dict(_qtilde_terms(ctx.space)))


@lru_cache(maxsize=8)
def _qtilde_terms(space: LLVSpace) -> dict[Key, Fraction]:
    ginv = space.full.inverse
    n_amb = space.dim
    terms: dict[Key, Fraction] = {}
    for i in range(n_amb):
        for j in range(i, n_amb):
            c = ginv[i][j] * (1 if i == j else 2)
            if c:
                terms[(0, (i, j))] = Fraction(c, n_amb)
    return terms


def expand_qtilde(x: ReducedSymElement) -> ReducedSymElement:
    """Replace formal qt powers by the explicit dual-metric tensor."""
    qt = qtilde_full_expansion(x.ctx)
    out: dict[Key, Fraction] = {}
    for (j, m), c in x.terms.items():
        term = ReducedSymElement.monomial(x.ctx, m, c)
        for _ in range(j):
            term = term * qt
        for k, v in term.terms.items():
            _add(out, k, v)
    return ReducedSymElement(x.ctx, out)


@lru_cache(maxsize=8)
def full_context(space: LLVSpace) -> GeneratorContext:
    """Standard context over the full basis (alpha, h2 basis, beta)."""
    gens = (space.alpha(),) + tuple(
        space.h2_basis_vector(i) for i in range(space.h2.rank)
    ) + (space.beta(),)
    return GeneratorContext(space, gens)
