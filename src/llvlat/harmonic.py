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

The kernels compute over the integers.  An element's coefficients are
read once as integer numerators over their least common denominator
(``_ints``), Delta, the projection, products and powers run on those
numerators, and Fractions are built once for the result (``_fractions``).
A context keeps its Gram as integer numerators over one denominator.  Delta
of a monomial walks its runs of equal generators rather than its pairs of
slots: a run of e copies of g contributes C(e, 2) (g, g), and two runs of
e_a copies of a and e_b copies of b contribute e_a e_b (a, b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations_with_replacement
from math import factorial, gcd, lcm

from . import _linalg
from .errors import DomainError, certify
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


def _ints(terms: dict[Key, Fraction]) -> tuple[dict[Key, int], int]:
    """Coefficients as integer numerators over their least common denominator."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den


def _fractions(nums: dict[Key, int], den: int) -> dict[Key, Fraction]:
    """The coefficients nums / den, dropping the zeros."""
    return {k: Fraction(c, den) for k, c in nums.items() if c}


def _mul_ints(a: dict[Key, int], b: dict[Key, int]) -> dict[Key, int]:
    """Product of two elements given by integer numerators."""
    out: dict[Key, int] = {}
    for (j1, m1), c1 in a.items():
        for (j2, m2), c2 in b.items():
            key = (j1 + j2, tuple(sorted(m1 + m2)))
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _runs(mono: tuple[int, ...]) -> list[list[int]]:
    """Runs of equal generators in a sorted monomial: [generator, start, length]."""
    runs = []
    for pos, g in enumerate(mono):
        if runs and runs[-1][0] == g:
            runs[-1][2] += 1
        else:
            runs.append([g, pos, 1])
    return runs


@dataclass(frozen=True)
class GeneratorContext:
    """Finite generator list with its exact pairing matrix.

    ``gram_g`` holds the pairings as Fractions; the kernels read them as
    the integer numerators ``_gram_num`` over one denominator ``_gram_den``.
    """

    space: LLVSpace
    gens: tuple[LLVVector, ...]
    gram_g: tuple[tuple[Fraction, ...], ...] = field(init=False)
    _gram_num: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _gram_den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # one integer pass: generator i is ys[i] / den, so its pairing with
        # generator j is ys[j] . (G ys[i]) / den^2
        full = self.space.full
        flat, den = _linalg.to_int([c for g in self.gens for c in full.vector(g.coords())])
        ys = [flat[i:i + full.rank] for i in range(0, len(flat), full.rank)]
        nonzero = [[(k, c) for k, c in enumerate(y) if c] for y in ys]
        num = [[0] * len(ys) for _ in ys]
        for i, y in enumerate(ys):
            gy = full.gram_vec(y)
            for j in range(i, len(ys)):
                num[i][j] = num[j][i] = sum(c * gy[k] for k, c in nonzero[j])
        sq = den * den
        common = gcd(sq, *(p for row in num for p in row))
        frac = {p: Fraction(p, sq) for row in num for p in row}
        object.__setattr__(self, "gram_g", tuple(tuple(frac[p] for p in row) for row in num))
        object.__setattr__(self, "_gram_num",
                           tuple(tuple(p // common for p in row) for row in num))
        object.__setattr__(self, "_gram_den", sq // common)

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
        a, da = _ints(self.terms)
        b, db = _ints(other.terms)
        return ReducedSymElement(self.ctx, _fractions(_mul_ints(a, b), da * db))

    def power(self, k: int) -> "ReducedSymElement":
        if self.degree == 1 and k > 0:
            return self._linear_power(k)
        out = ReducedSymElement.monomial(self.ctx, ())
        for _ in range(k):
            out = out * self
        return out

    def _linear_power(self, k: int) -> "ReducedSymElement":
        """(sum_g c_g g)^k by the multinomial theorem.

        The monomial with e_g copies of each g has coefficient
        k! / prod(e_g!) * prod(c_g^e_g); the c_g are integers over den, so
        every coefficient is an integer over den^k.
        """
        nums, den = _ints(self.terms)
        coeff = {m[0]: c for (_, m), c in nums.items()}
        fk = factorial(k)
        out: dict[Key, int] = {}
        for mono in combinations_with_replacement(sorted(coeff), k):
            c, split = 1, 1
            for g, _, e in _runs(mono):
                c *= coeff[g] ** e
                split *= factorial(e)
            out[(0, mono)] = fk // split * c
        return ReducedSymElement(self.ctx, _fractions(out, den ** k))

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


def _delta_ints(ctx: GeneratorContext, nums: dict[Key, int],
                den: int) -> tuple[dict[Key, int], int]:
    """Delta of sum nums[key] qt^j m / den, as (numerators, denominator).

    Delta(qt^j m) = _qt_crossing(j, deg m, N) qt^(j-1) m + qt^j Delta(m),
    and Delta(m) sums the pairings over the runs of m.  The crossing
    coefficients are integers over N and the pairings integers over the
    context's Gram denominator, so the result is over den * lcm of both.
    """
    n_amb = ctx.ambient_dim
    gram, gram_den = ctx._gram_num, ctx._gram_den
    scale = lcm(n_amb, gram_den)
    cross, pairing = scale // n_amb, scale // gram_den
    out: dict[Key, int] = {}
    for (j, m), c in nums.items():
        if j:
            # N * _qt_crossing(j, len(m), N)
            key = (j - 1, m)
            out[key] = out.get(key, 0) + c * cross * j * (n_amb + 2 * len(m) + 2 * (j - 1))
        c *= pairing
        runs = _runs(m)
        for ia, (a, pa, ea) in enumerate(runs):
            row = gram[a]
            if ea > 1 and row[a]:
                key = (j, m[:pa] + m[pa + 2:])
                out[key] = out.get(key, 0) + c * (ea * (ea - 1) // 2) * row[a]
            for b, pb, eb in runs[ia + 1:]:
                if row[b]:
                    key = (j, m[:pa] + m[pa + 1:pb] + m[pb + 1:])
                    out[key] = out.get(key, 0) + c * ea * eb * row[b]
    return {k: c for k, c in out.items() if c}, den * scale


def delta_apply(x: ReducedSymElement) -> ReducedSymElement:
    """The degree -2 contraction operator."""
    nums, den = _delta_ints(x.ctx, *_ints(x.terms))
    return ReducedSymElement(x.ctx, _fractions(nums, den))


def _qt_crossing(i: int, d: int, n_amb: int) -> Fraction:
    """Coefficient a with Delta(qt^i y) = a qt^(i-1) y + qt^i Delta(y), deg y = d.

    Crossing the m-th factor of qt adds 1 + 2 (2 (m - 1) + d) / N; summed
    over m = 1..i that is i (N + 2 d + 2 (i - 1)) / N.
    """
    return Fraction(i * (n_amb + 2 * d + 2 * (i - 1)), n_amb)


def project_harmonic(x: ReducedSymElement) -> ReducedSymElement:
    """Projection onto ker(Delta) along qt * Sym^(deg-2).

    Pi(x) = sum_i c_i qt^i Delta^i(x), where the c_i solve the triangular
    system that makes every contraction term cancel; idempotent and linear.
    Each Delta^i(x) is kept as integer numerators over a denominator, and
    the sum is taken once, over the least common denominator of the
    c_i / den_i.
    """
    n = x.degree
    if n is None:
        return x
    ctx = x.ctx
    y, den = _ints(x.terms)
    parts = [(0, Fraction(1, den), y)]  # (i, c_i / den_i, numerators of Delta^i(x))
    c = Fraction(1)
    i = 0
    while True:
        y, den = _delta_ints(ctx, y, den)
        i += 1
        if not y or 2 * i > n:
            break
        a = _qt_crossing(i, n - 2 * i, ctx.ambient_dim)
        certify(a != 0, "the projection system is nonsingular")
        c = -c / a
        parts.append((i, c / den, y))
    common = lcm(*(f.denominator for _, f, _ in parts))
    result: dict[Key, int] = {}
    for i, f, y in parts:
        f = f.numerator * (common // f.denominator)
        for (j, m), v in y.items():
            key = (j + i, m)
            result[key] = result.get(key, 0) + f * v
    result = {k: v for k, v in result.items() if v}
    certify(not _delta_ints(ctx, result, common)[0], "Delta(Pi(x)) = 0")
    return ReducedSymElement(ctx, _fractions(result, common))


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

    target = Fraction(factorial(n)) * h
    expanded_target = cache(lambda: expand_qtilde(target))

    def matches(s):
        coeffs = ((ia, r), (ib, s), *slopes.items())
        lin = ReducedSymElement(ctx, {(0, (i,)): c for i, c in coeffs if c})
        check = project_harmonic(lin.power(n))
        if check.terms == target.terms:
            return True
        # formal qt content may differ between equal tensors; compare the
        # expanded forms when the context is the standard full basis
        try:
            return expand_qtilde(check).terms == expanded_target().terms
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
            expanded = expanded_target()
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
    qt, qt_den = _ints(qtilde_full_expansion(x.ctx).terms)
    nums, den = _ints(x.terms)
    top = max((j for j, _ in nums), default=0)
    powers = [{(0, ()): 1}]  # numerators of qt^j over qt_den^j
    for _ in range(top):
        powers.append(_mul_ints(powers[-1], qt))
    out: dict[Key, int] = {}
    for (j, m), c in nums.items():
        c *= qt_den ** (top - j)
        for (_, mq), v in powers[j].items():
            key = (0, tuple(sorted(m + mq)))
            out[key] = out.get(key, 0) + c * v
    return ReducedSymElement(x.ctx, _fractions(out, den * qt_den ** top))


@lru_cache(maxsize=8)
def full_context(space: LLVSpace) -> GeneratorContext:
    """Standard context over the full basis (alpha, h2 basis, beta)."""
    gens = (space.alpha(),) + tuple(
        space.h2_basis_vector(i) for i in range(space.h2.rank)
    ) + (space.beta(),)
    return GeneratorContext(space, gens)
