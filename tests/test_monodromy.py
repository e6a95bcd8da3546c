import random
from fractions import Fraction as Q

import pytest

from dense import identity
from llvlat import (
    DomainError,
    LLVLine,
    LLVVector,
    b_lambda,
    bkr_bundle_c1,
    chi_involution,
    dmon_lift,
    duality_D,
    ek_pipeline,
    ell_structure_sheaf,
    fz_bundle_c1,
    identity_isometry,
    in_integral_llv,
    make_space,
    phi_p,
    reflection,
)


@pytest.fixture(scope="module")
def k3():
    return make_space("K3")


def rand_h2(rng, space, lo=-2, hi=2):
    return tuple(Q(rng.randint(lo, hi)) for _ in range(space.h2.rank))


def word_pool(k3, rng, count=8):
    pool = [phi_p(k3), duality_D(k3)]
    for _ in range(count):
        pool.append(b_lambda(k3, rand_h2(rng, k3)))
    pool.append(reflection(k3, k3.alpha() - k3.beta()))
    pool.append(reflection(k3, LLVVector.make(0, (1, -1) + (0,) * 20, 0)))
    return pool


def test_phi_p(k3):
    pp = phi_p(k3)
    assert pp.det() == -1
    assert pp.apply(k3.alpha()) == k3.beta()
    assert pp.apply(k3.beta()) == k3.alpha()
    v = LLVVector.make(0, (1, 2) + (0,) * 20, 0)
    assert pp.apply(v) == -v
    assert pp.compose(pp).m == identity(24)


def test_dmon_lift_identity(k3):
    lift = dmon_lift(identity_isometry(k3), 2).lifted
    assert lift.m == identity(25)


def test_dmon_lift_of_b_mu(k3):
    rng = random.Random(2)
    for n in (2, 3):
        sp = make_space("HilbK3", n)
        mu = rand_h2(rng, k3)
        lifted = dmon_lift(b_lambda(k3, mu), n).lifted
        assert lifted.m == b_lambda(sp, mu + (Q(0),)).m


def test_dmon_lift_homomorphism_random_words(k3):
    rng = random.Random(31)
    pool = word_pool(k3, rng)
    for _ in range(50):
        g, h = rng.choice(pool), rng.choice(pool)
        lhs = dmon_lift(g.compose(h), 2).lifted
        rhs = dmon_lift(g, 2).lifted.compose(dmon_lift(h, 2).lifted)
        assert lhs.m == rhs.m


def test_dmon_lift_preserves_lambda(k3):
    rng = random.Random(7)
    sp = make_space("HilbK3", 2)
    pool = word_pool(k3, rng)
    half = tuple(-Q(1, 2) * c for c in sp.delta())
    members = [sp.b_lambda_apply(half, LLVVector.make(
        rng.randint(-2, 2),
        tuple(rng.randint(-2, 2) for _ in range(23)),
        rng.randint(-2, 2),
    )) for _ in range(8)]
    for _ in range(12):
        g = rng.choice(pool).compose(rng.choice(pool))
        # integral on the K3 Mukai lattice: all pool members are
        lift = dmon_lift(g, 2).lifted
        for x in members:
            assert in_integral_llv(sp, lift.apply(x))


def test_chi_involution_properties():
    for n in (2, 3, 4, 5):
        sp = make_space("HilbK3", n)
        chi = chi_involution(sp)
        assert chi.compose(chi).m == identity(sp.dim)
        # integral involution: preserves the integral LLV lattice
        half = tuple(-Q(1, 2) * c for c in sp.delta())
        rng = random.Random(n)
        for _ in range(6):
            w = LLVVector.make(rng.randint(-2, 2),
                               tuple(rng.randint(-2, 2) for _ in range(23)),
                               rng.randint(-2, 2))
            x = sp.b_lambda_apply(half, w)
            assert in_integral_llv(sp, chi.apply(x))
        # swaps the structure sheaf line with its -delta twist
        o_line, _, _ = ell_structure_sheaf(sp)
        img = chi.apply(o_line.generator)
        twist = LLVVector.make(4, tuple(-4 * c for c in sp.delta()), 7 - 3 * n)
        assert LLVLine(img).same_line(LLVLine(twist))
        assert LLVLine(chi.apply(twist)).same_line(o_line)
        # fixes the skyscraper line projectively
        assert LLVLine(chi.apply(sp.beta())).same_line(LLVLine(sp.beta()))


def test_chi_involution_commutes_with_lifts(k3):
    rng = random.Random(17)
    sp = make_space("HilbK3", 2)
    chi = chi_involution(sp)
    for g in word_pool(k3, rng, count=4):
        lift = dmon_lift(g, 2).lifted
        assert chi.compose(lift).m == lift.compose(chi).m


def test_phi_p_action_on_twisted_lagrangian(k3):
    # lifted phi_p sends (0, lam, 6k-3) to -(6k, -2h - (3+3k) delta, -3-3k/2)
    sp = make_space("HilbK3", 2)
    h = (1, 3) + (0,) * 20
    lam = tuple(2 * Q(c) for c in h) + (Q(0),) * 0
    lam = lam + (Q(-3),)
    lift = dmon_lift(phi_p(k3), 2).lifted
    for k in (1, 2, 3):
        src = LLVVector.make(0, lam, 6 * k - 3)
        img = lift.apply(src)
        expected_h2 = tuple(-2 * Q(c) for c in h) + (Q(-3 - 3 * k),)
        expected = -LLVVector.make(6 * k, expected_h2, -3 - Q(3, 2) * k)
        assert img == expected


def test_bkr_bundle(k3):
    c1g = (1, 1) + (0,) * 20
    rank, c1, s, line = bkr_bundle_c1(2, c1g, 2, "+")
    assert rank == 4
    assert c1 == tuple(2 * Q(c) for c in c1g) + (Q(-1),)
    # (c1G, c1G) = 2: s = (2+2)/2 + 4/4 + (-1) = 2
    assert s == 2
    rank, c1, s, line = bkr_bundle_c1(3, c1g, 2, "+")
    assert c1 == tuple(3 * Q(c) for c in c1g) + (Q(-3),)
    rank, c1, s, line = bkr_bundle_c1(2, c1g, 2, "-")
    assert c1 == tuple(2 * Q(c) for c in c1g) + (Q(-3),)
    rank, c1, s, line = bkr_bundle_c1(2, c1g, 3, "+")
    assert rank == 8 and c1[-1] == -2
    with pytest.raises(DomainError):
        bkr_bundle_c1(2, c1g, 2, "x")


def test_bkr_line_consistent_with_phiO(k3):
    # for n = 2 and spherical G the line must satisfy the square -10 rule
    # after the rank normalization gamma = 2 r0 alpha + ...
    sp = make_space("HilbK3", 2)
    # rigid G: (c1G, c1G) = 2 s0 r0 - 2; take r0 = 2, s0 = 1: square 2
    c1g = (1, 1) + (0,) * 20
    rank, c1, s, line = bkr_bundle_c1(2, c1g, 2, "+")
    gen = line.generator
    gamma = (Q(2 * 2) / gen.r) * gen  # alpha coefficient 2 r0
    assert sp.pair(gamma, gamma) == -10


def test_fz_bundle(k3):
    lam = (1, 1) + (0,) * 20
    rank, c1, line = fz_bundle_c1(1, lam, 2)
    assert rank == 2
    assert c1 == tuple(2 * Q(c) for c in lam) + (Q(-1),)
    # delta coefficient is always -n! r0^n / 2
    for (r0, n) in ((2, 2), (1, 3), (2, 3)):
        from math import factorial
        rank, c1, line = fz_bundle_c1(r0, lam, n)
        assert c1[-1] == -Q(factorial(n) * r0**n, 2)
        assert rank == factorial(n) * r0**n


def test_ek_pipeline():
    sp = make_space("HilbK3", 2)
    for k in range(1, 6):
        res = ek_pipeline(k)
        assert res["rank"] == 45 * k * k
        h_tilde = res["h_tilde"]
        expected_c1 = tuple(
            -15 * k * Q(c) for c in h_tilde[:-1]
        ) + (-Q(45 * k * (k - 1), 2),)
        assert res["c1"] == expected_c1
        assert res["s"] == -Q(45 * k * (k - 2), 4)
        lam = tuple(2 * Q(c) for c in h_tilde[:-1]) + (Q(-3),)
        assert res["twist_line"].generator == LLVVector.make(0, lam, 6 * k - 3)
    with pytest.raises(DomainError):
        ek_pipeline(0)


def test_ek_line_square_bookkeeping():
    # the line generator is rank alpha + c1 + s beta, rank = 45 k^2
    sp = make_space("HilbK3", 2)
    for k in (1, 2, 3):
        res = ek_pipeline(k)
        gen = res["line"].generator
        assert gen.r == res["rank"]
        assert gen.v == res["c1"]
        assert gen.s == res["s"]
