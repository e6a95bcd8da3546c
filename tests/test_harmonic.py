import random
from fractions import Fraction as Q
from math import factorial

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracle_reduced
from llvlat import CertificateError, DomainError, LLVVector, make_space
from llvlat import harmonic
from llvlat.harmonic import (
    GeneratorContext,
    ReducedSymElement,
    _qt_crossing,
    delta_apply,
    expand_qtilde,
    full_context,
    project_harmonic,
    psi_power_line,
    qtilde_full_expansion,
    recover_line,
)
from llvlat.lattice import LLVSpace, QuadLattice

from oracle_fullsym import FullSym, orthogonal_coords, orthogonal_squares


def diag_space(squares, n=2):
    """Test space with diagonal H^2 Gram (oracle-friendly)."""
    k = len(squares)
    gram = tuple(
        tuple(squares[i] if i == j else 0 for j in range(k)) for i in range(k)
    )
    lat = QuadLattice("diag", gram, tuple(f"g{i}" for i in range(k)))
    return LLVSpace(lat, n, Q(1), "test")


def rand_reduced(rng, ctx, degree, max_qt=None):
    """Random homogeneous element of the reduced algebra."""
    max_qt = degree // 2 if max_qt is None else max_qt
    terms = {}
    n_gens = len(ctx.gens)
    for _ in range(rng.randint(1, 5)):
        j = rng.randint(0, max_qt)
        mono = tuple(sorted(rng.randrange(n_gens)
                            for _ in range(degree - 2 * j)))
        c = Q(rng.randint(-5, 5), rng.choice([1, 1, 2, 3]))
        if c:
            terms[(j, mono)] = terms.get((j, mono), Q(0)) + c
    terms = {k: v for k, v in terms.items() if v}
    return ReducedSymElement(ctx, terms)


def rand_gens(rng, space, count):
    out = []
    for _ in range(count):
        out.append(LLVVector.make(
            rng.randint(-2, 2),
            tuple(rng.randint(-2, 2) for _ in range(space.h2.rank)),
            rng.randint(-2, 2),
        ))
    return tuple(out)


# ---------------------------------------------------------------------------
# oracle agreement: the qt crossing rule and the projection, against the
# full-basis brute force

@pytest.mark.parametrize("squares", [(2, -2), (2, -4, 6, -2), (4, -2, 2, -6, 8, -2)])
@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
def test_delta_matches_oracle(squares, degree):
    rng = random.Random(hash((squares, degree)) & 0xFFFF)
    space = diag_space(squares)
    full = FullSym(orthogonal_squares(space))
    gens = rand_gens(rng, space, 3)
    ctx = GeneratorContext(space, gens)
    coords = [orthogonal_coords(space, g) for g in gens]
    for _ in range(30):
        x = rand_reduced(rng, ctx, degree)
        lhs = full.expand_reduced(delta_apply(x), coords)
        rhs = full.delta(full.expand_reduced(x, coords))
        assert lhs == rhs


@pytest.mark.parametrize("squares", [(2, -2), (2, -4, 6, -2)])
@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
def test_projection_matches_oracle(squares, degree):
    rng = random.Random(hash((squares, degree, "pi")) & 0xFFFF)
    space = diag_space(squares)
    full = FullSym(orthogonal_squares(space))
    gens = rand_gens(rng, space, 2)
    ctx = GeneratorContext(space, gens)
    coords = [orthogonal_coords(space, g) for g in gens]
    for _ in range(15):
        x = rand_reduced(rng, ctx, degree)
        lhs = full.expand_reduced(project_harmonic(x), coords)
        rhs = full.project_harmonic(full.expand_reduced(x, coords), degree)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# algebraic properties

def test_delta_qtilde_is_one():
    sp = make_space("HilbK3", 2)
    ctx = GeneratorContext(sp, (sp.alpha(), sp.beta()))
    assert delta_apply(ReducedSymElement.qtilde(ctx)).terms == {(0, ()): Q(1)}


def test_delta_qt_gamma_dimension_factor():
    # one qt crossing a degree-1 factor picks up (1 + 2/N)
    sp = make_space("HilbK3", 2)  # N = 25
    ctx = GeneratorContext(sp, (sp.alpha(),))
    x = ReducedSymElement.monomial(ctx, (0,), 1, qt_power=1)
    out = delta_apply(x)
    assert out.terms == {(0, (0,)): Q(27, 25)}


def test_projection_properties_randomized():
    rng = random.Random(31)
    sp = make_space("Kum", 2)
    gens = rand_gens(rng, sp, 3)
    ctx = GeneratorContext(sp, gens)
    for degree in (2, 3, 4, 5):
        for _ in range(10):
            x = rand_reduced(rng, ctx, degree)
            p = project_harmonic(x)
            assert delta_apply(p).is_zero()
            assert project_harmonic(p).terms == p.terms  # idempotent
            y = rand_reduced(rng, ctx, degree)
            c = Q(rng.randint(-3, 3))
            lhs = project_harmonic(x + c * y)
            rhs = project_harmonic(x) + c * project_harmonic(y)
            assert lhs.terms == rhs.terms  # linear
            # x - Pi(x) is divisible by qt (every term has j >= 1)
            diff = x - p
            assert all(j >= 1 for (j, m) in diff.terms)


def test_projection_n2_formula():
    sp = make_space("HilbK3", 2)
    rng = random.Random(8)
    for _ in range(10):
        g = LLVVector.make(rng.randint(-3, 3),
                           tuple(rng.randint(-2, 2) for _ in range(23)),
                           rng.randint(-3, 3))
        if g.is_zero():
            continue
        ctx = GeneratorContext(sp, (g,))
        sq = ReducedSymElement.monomial(ctx, (0, 0))
        p = project_harmonic(sq)
        expected = sq + ReducedSymElement.qtilde(ctx, 1, -sp.pair(g, g))
        assert p.terms == expected.terms


def test_projection_of_qtilde_is_zero():
    sp = make_space("HilbK3", 2)
    ctx = GeneratorContext(sp, (sp.alpha(),))
    assert project_harmonic(ReducedSymElement.qtilde(ctx)).is_zero()


def test_isotropic_powers_are_harmonic():
    sp = make_space("HilbK3", 3)
    h = psi_power_line(sp, sp.beta(), 3)
    assert h.terms == ReducedSymElement.monomial(
        GeneratorContext(sp, (sp.beta(),)), (0, 0, 0)
    ).terms


def test_btilde_identity():
    # btilde = ((b2+2)/b2) qt + (2/b2) alpha beta, checked expanded
    sp = make_space("HilbK3", 2)
    fc = full_context(sp)
    from llvlat import cohomology as coh
    b_img = coh.psi(coh.b_invariant_class(sp), fc)
    ab = ReducedSymElement.monomial(fc, (0, 24))
    btilde = b_img - ab
    qt = expand_qtilde(ReducedSymElement.qtilde(fc))
    lhs = btilde
    rhs = Q(25, 23) * qt + Q(2, 23) * ab
    assert lhs.terms == rhs.terms


def test_equivariance_smoke():
    # Pi(g(gamma)^n) equals the slotwise action of g on Pi(gamma^n)
    sp = make_space("Kum", 2)
    from llvlat.isometry import b_lambda
    rng = random.Random(17)
    lam = tuple(rng.randint(-2, 2) for _ in range(7))
    g = b_lambda(sp, lam)
    gamma = LLVVector.make(2, (1, 0, 1, 0, 0, 0, 0), 3)
    h = psi_power_line(sp, gamma, 2)
    mapped = h.map_generators(lambda v: g.apply(v))
    direct = psi_power_line(sp, g.apply(gamma), 2)
    # compare via pairing data: same formal coefficients over the mapped
    # generator, which is exactly the direct context's generator
    assert mapped.ctx.gens == direct.ctx.gens
    assert mapped.terms == direct.terms


def test_recover_line_structure_sheaf():
    sp = make_space("HilbK3", 2)
    ctx = GeneratorContext(sp, (sp.alpha(), sp.beta()))
    lin = ReducedSymElement.monomial(ctx, (0,)) + \
        ReducedSymElement.monomial(ctx, (1,), Q(5, 4))
    h = Q(1, 2) * project_harmonic(lin * lin)
    gamma = recover_line(h)
    assert gamma == LLVVector.make(1, (0,) * 23, Q(5, 4))


def test_recover_line_k33():
    sp = make_space("HilbK3", 3)
    ctx = GeneratorContext(sp, (sp.alpha(), sp.beta()))
    lin = ReducedSymElement.monomial(ctx, (0,)) + \
        ReducedSymElement.monomial(ctx, (1,), Q(3, 2))
    h = Q(1, factorial(3)) * project_harmonic(lin.power(3))
    gamma = recover_line(h)
    assert gamma == LLVVector.make(1, (0,) * 23, Q(3, 2))
    # proportional to (4, 0, 6) = 4 alpha + (n + 3) beta
    assert 4 * gamma == LLVVector.make(4, (0,) * 23, 6)


def test_recover_line_with_h2_part():
    sp = make_space("HilbK3", 2)
    rng = random.Random(23)
    lamv = tuple(rng.randint(-2, 2) for _ in range(23))
    gens = (sp.alpha(), sp.beta(), LLVVector.make(0, lamv, 0))
    ctx = GeneratorContext(sp, gens)
    lin = ReducedSymElement.monomial(ctx, (0,), 3) \
        + ReducedSymElement.monomial(ctx, (1,), Q(-7, 2)) \
        + ReducedSymElement.monomial(ctx, (2,), 2)
    h = Q(1, 2) * project_harmonic(lin * lin)
    gamma = recover_line(h)
    assert gamma == LLVVector.make(3, tuple(2 * Q(c) for c in lamv), Q(-7, 2))


def test_recover_line_rejects_skyscraper():
    sp = make_space("HilbK3", 2)
    ctx = GeneratorContext(sp, (sp.alpha(), sp.beta()))
    h = ReducedSymElement.monomial(ctx, (1, 1))  # beta^2
    with pytest.raises(DomainError):
        recover_line(h)


def test_recover_line_rejects_non_powers():
    sp = make_space("HilbK3", 2)
    ctx = GeneratorContext(sp, (sp.alpha(), sp.beta()))
    bogus = ReducedSymElement.monomial(ctx, (0, 0)) + \
        ReducedSymElement.qtilde(ctx, 1, Q(99))
    with pytest.raises(DomainError):
        recover_line(bogus)


def test_qtilde_expansion_requires_full_context():
    sp = make_space("HilbK3", 2)
    ctx = GeneratorContext(sp, (sp.alpha(), sp.beta()))
    with pytest.raises(DomainError):
        qtilde_full_expansion(ctx)
    # a context equal to the standard one, built apart from it, expands
    # over itself to the same tensor; the cached tensor is not shared
    fc = full_context(sp)
    twin = GeneratorContext(sp, tuple(fc.gens))
    qt, qt_twin = qtilde_full_expansion(fc), qtilde_full_expansion(twin)
    assert qt_twin.ctx is twin and qt_twin == qt
    assert qt_twin.terms is not qt.terms
    # (1/N) G^-1 over the full basis: alpha beta pairs to -1 in G^-1
    assert qt.coeff((0, sp.dim - 1)) == Q(-2, sp.dim)


def test_inhomogeneous_rejected():
    sp = make_space("HilbK3", 2)
    ctx = GeneratorContext(sp, (sp.alpha(), sp.beta()))
    with pytest.raises(DomainError):
        ReducedSymElement(ctx, {(0, (0,)): Q(1), (0, (0, 1)): Q(1)})


# ---------------------------------------------------------------------------
# the integer kernels against their Fraction forms (tests/oracle_reduced.py):
# Delta by pairs of slots, powers by repeated products, products of
# Fractions, the projection recurrence in Fractions

_REAL_SPACES = (("HilbK3", 2), ("Kum", 2), ("HilbK3", 3))
_small_q = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _spaces(draw):
    if draw(st.booleans()):
        return make_space(*draw(st.sampled_from(_REAL_SPACES)))
    squares = draw(st.lists(st.sampled_from((-6, -4, -2, 2, 4)), min_size=1, max_size=4))
    return diag_space(tuple(squares))


@st.composite
def _generator(draw, space, previous):
    """A rational, an isotropic or a repeated generator."""
    kind = draw(st.sampled_from(("rational", "isotropic", "repeated")))
    rank = space.h2.rank
    if kind == "repeated" and previous:
        return draw(st.sampled_from(previous))
    v = [draw(_small_q) if i < 4 else Q(0) for i in range(rank)]
    if kind == "isotropic":
        # (r alpha + v + s beta)^2 = (v, v) - 2 r s
        r = draw(st.sampled_from((Q(1), Q(2), Q(-1, 2))))
        g = LLVVector.make(r, v, space.h2.pair(v, v) / (2 * r))
        assert space.pair(g, g) == 0
        return g
    return LLVVector.make(draw(_small_q), v, draw(_small_q))


@st.composite
def _contexts(draw, max_gens=4):
    space = draw(_spaces())
    gens = []
    for _ in range(draw(st.integers(1, max_gens))):
        gens.append(draw(_generator(space, gens)))
    return GeneratorContext(space, tuple(gens))


@st.composite
def _elements(draw, ctx, degree):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        j = draw(st.integers(0, degree // 2))
        mono = tuple(sorted(draw(st.lists(st.integers(0, len(ctx.gens) - 1),
                                          min_size=degree - 2 * j,
                                          max_size=degree - 2 * j))))
        c = draw(st.fractions(min_value=-5, max_value=5, max_denominator=6))
        if c:
            terms[(j, mono)] = c
    return ReducedSymElement(ctx, terms)


@st.composite
def _context_and_element(draw, max_degree=7):
    ctx = draw(_contexts())
    return ctx, draw(_elements(ctx, draw(st.integers(0, max_degree))))


_KERNEL_SETTINGS = settings(max_examples=60, derandomize=True, deadline=None,
                            database=None,
                            suppress_health_check=[HealthCheck.too_slow])


@_KERNEL_SETTINGS
@given(_context_and_element())
def test_delta_kernel_matches_pairwise(case):
    ctx, x = case
    assert delta_apply(x).terms == oracle_reduced.delta(ctx, x.terms)


@_KERNEL_SETTINGS
@given(_context_and_element())
def test_projection_kernel_matches_fraction_recurrence(case):
    ctx, x = case
    assert project_harmonic(x).terms == oracle_reduced.project_harmonic(ctx, x.terms)


@_KERNEL_SETTINGS
@given(st.data())
def test_product_kernel_matches_fractions(data):
    ctx = data.draw(_contexts())
    x = data.draw(_elements(ctx, data.draw(st.integers(0, 4))))
    y = data.draw(_elements(ctx, data.draw(st.integers(0, 3))))
    assert (x * y).terms == oracle_reduced.mul(x.terms, y.terms)


@_KERNEL_SETTINGS
@given(st.data())
def test_power_kernel_matches_repeated_products(data):
    ctx = data.draw(_contexts())
    k = data.draw(st.integers(0, 7))
    lin = data.draw(_elements(ctx, 1))  # the multinomial path (or zero)
    assert lin.power(k).terms == oracle_reduced.power(lin.terms, k)
    x = data.draw(_elements(ctx, 2))  # repeated products
    k = data.draw(st.integers(0, 3))
    assert x.power(k).terms == oracle_reduced.power(x.terms, k)


@_KERNEL_SETTINGS
@given(_contexts(max_gens=5))
def test_integer_gram_is_the_pairing(ctx):
    sp, gens = ctx.space, ctx.gens
    assert ctx.gram_g == tuple(tuple(sp.pair(a, b) for b in gens) for a in gens)
    assert all(type(p) is Q for row in ctx.gram_g for p in row)
    assert ctx == GeneratorContext(sp, gens)


def test_qt_crossing_closed_form_is_the_sum():
    for n_amb in (1, 2, 5, 7, 24, 25, 26):
        for i in range(0, 9):
            for d in range(0, 11):
                assert _qt_crossing(i, d, n_amb) == oracle_reduced.qt_crossing(i, d, n_amb)


def test_projection_certificates_raise_certificate_error(monkeypatch):
    # the recurrence's coefficients and Delta cross qt by the same rule; a
    # wrong crossing coefficient leaves Delta(Pi(x)) != 0, and a zero one
    # makes the system singular, and both are internal faults
    sp = make_space("HilbK3", 2)
    ctx = GeneratorContext(sp, (sp.alpha() + sp.beta(), sp.beta()))
    x = ReducedSymElement.monomial(ctx, (0, 0, 1))
    real = harmonic._qt_crossing
    monkeypatch.setattr(harmonic, "_qt_crossing", lambda i, d, n: real(i, d, n) + 1)
    with pytest.raises(CertificateError, match="Delta"):
        project_harmonic(x)
    monkeypatch.setattr(harmonic, "_qt_crossing", lambda i, d, n: Q(0))
    with pytest.raises(CertificateError, match="nonsingular"):
        project_harmonic(x)


def test_context_refuses_generators_of_another_space():
    sp, kum = make_space("HilbK3", 2), make_space("Kum", 2)
    with pytest.raises(DomainError, match="vector of length 9 in rank 25 lattice"):
        GeneratorContext(sp, (sp.alpha(), kum.alpha()))
