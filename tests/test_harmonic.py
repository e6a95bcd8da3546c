import random
from fractions import Fraction as Q
from math import factorial

import pytest

from llvlat import DomainError, LLVVector, make_space
from llvlat.harmonic import (
    GeneratorContext,
    ReducedSymElement,
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
@pytest.mark.parametrize("degree", [2, 3, 4])
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
@pytest.mark.parametrize("degree", [2, 3, 4])
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
