import random
from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from llvlat import (
    DomainError,
    InadmissibleError,
    arithmetic_search,
    hodge_relations,
    integral_lagrangian_class,
    lagrangian_data,
    make_space,
    segre_enumerate,
    untwisted_lift_check,
)
from llvlat import cohomology as coh
from oracle_linear_search import linear_search


@pytest.fixture(scope="module")
def sp():
    return make_space("HilbK3", 2)


def test_lagrangian_worked_examples(sp):
    d, _ = lagrangian_data(sp, 6, 27)
    assert (d.c, d.t, d.chiOZ) == (Q(5, 8), 1, 6)
    d, _ = lagrangian_data(sp, -10, 3)
    assert (d.c, d.t, d.chiOZ) == (Q(1, 8), Q(3, 5), 1)
    d, _ = lagrangian_data(sp, 2, 192)
    assert (d.c, d.t) == (5, 3)
    # remark cases
    d, _ = lagrangian_data(sp, 8, 3 * 2**14 * 31**2)
    assert (d.c, d.t) == (620, Q(69, 2))
    d, _ = lagrangian_data(sp, 54, 3**7 * 7**4)
    assert (d.c, d.t) == (Q(245, 8), Q(23, 3))


def test_lagrangian_inadmissible(sp):
    with pytest.raises(InadmissibleError):
        lagrangian_data(sp, 6, 28)  # 28/3 not a square
    with pytest.raises(InadmissibleError):
        lagrangian_data(sp, 6, -3)
    with pytest.raises(InadmissibleError):
        lagrangian_data(sp, -2, 3)  # t^2 = 48/200 + 6/10 not a square
    with pytest.raises(DomainError):
        lagrangian_data(sp, 0, 27)


def test_lagrangian_chern_identity(sp):
    # integral of ch2^2 equals chi(Z) = (48/25) c^2 (lam, lam)^2
    for (q, chi_z) in ((6, 27), (2, 192), (-10, 3)):
        d, (ch2, ch3, ch4) = lagrangian_data(sp, q, chi_z)
        assert coh.integrate(coh.cup(ch2, ch2)) == chi_z
        assert Q(48, 25) * d.c**2 * q**2 == chi_z


def test_hodge_relations():
    h20, h11, flagged = hodge_relations(27, 5)
    assert (h20, h11, flagged) == (10, 25, False)
    h20, h11, flagged = hodge_relations(3, 0)
    assert flagged and h20 == Q(-1, 2)
    with pytest.raises(InadmissibleError):
        hodge_relations(28, 0)


def test_search_known_hits():
    hits1 = arithmetic_search(60, 1000, 1)
    hits2 = arithmetic_search(60, 1000, 2)
    trip = {(h.lambda_sq, h.c, h.t) for h in hits1 + hits2}
    assert (8, 620, Q(69, 2)) in trip
    assert (54, Q(245, 8), Q(23, 3)) in trip
    assert all(h.lambda_sq % 5 != 0 for h in hits1 + hits2)
    # chiZ round-trips through the c formula
    for h in hits1 + hits2:
        assert Q(48, 25) * h.c**2 * h.lambda_sq**2 == h.chiZ


def test_search_hits_are_admissible(sp):
    # every hit passes the lagrangian_data gates (round-trip property)
    for h in arithmetic_search(60, 1000, 1):
        d, _ = lagrangian_data(sp, h.lambda_sq, h.chiZ)
        assert d.c == h.c and d.t == h.t


def test_search_case_gates():
    # 3 | x forces divisibility 2, so the div-1 run has no such squares
    for h in arithmetic_search(60, 1000, 1):
        assert (h.lambda_sq // 2) % 3 != 0
    # the div-2 gate x = 3 (mod 8) holds on the 3 | x hits
    for h in arithmetic_search(60, 1000, 2):
        x = h.lambda_sq // 2
        if x % 3 == 0:
            assert x % 8 == 3
            assert (Q(8, 5) * h.c).denominator == 1


def test_search_rejects_bad_bounds():
    with pytest.raises(DomainError):
        arithmetic_search(60, 1000, 3)
    with pytest.raises(DomainError):
        arithmetic_search(1, 1000, 1)


# the root enumeration against the linear m-loop it replaced; rational
# c bounds exercise the m <= m_max = 4 q c / 5 edge, and the explicit
# examples put a hit exactly on it (the 3 | x hits have c = 5j/8)
@settings(derandomize=True, deadline=None, database=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(2, 900), st.integers(1, 10000), st.integers(1, 7),
       st.sampled_from((1, 2)))
@example(8, 620, 1, 1)
@example(900, 1670, 1, 1)
@example(2, 85, 2, 2)
@example(6, 205, 8, 2)
@example(600, 3505, 8, 2)
def test_search_matches_linear_oracle(lambda_sq_max, p, r, div):
    c_bound = Q(p, r)
    assert arithmetic_search(lambda_sq_max, c_bound, div) == \
        linear_search(lambda_sq_max, c_bound, div)


@pytest.mark.parametrize("lambda_sq_max, c_bound, divs",
                         [(400, 5000, (2,)), (800, 5000, (1, 2))])
def test_search_matches_linear_oracle_fixed_boxes(lambda_sq_max, c_bound,
                                                  divs):
    for div in divs:
        got = arithmetic_search(lambda_sq_max, c_bound, div)
        assert got and got == linear_search(lambda_sq_max, c_bound, div)


def test_search_refuses_huge_boxes():
    # counted before any search: c_bound = 10^30 would need ~10^15 steps
    with pytest.raises(DomainError, match="search box too large"):
        arithmetic_search(60, Q(10**30), 1)
    with pytest.raises(DomainError, match="search box too large"):
        arithmetic_search(10**40, Q(1, 10**50), 2)
    # SEARCH_STEP_LIMIT = 10^6: (800, 5 * 10^8, 2) needs just over 10^6
    # steps and is refused, (800, 4 * 10^8, 2) needs fewer and runs
    with pytest.raises(DomainError):
        arithmetic_search(800, 5 * 10**8, 2)
    assert arithmetic_search(800, 4 * 10**8, 2)


def test_integral_lagrangian_class(sp):
    # div 2, square 6: [Z] = (5 lam^2 - c2)/8
    eta26 = sp.h2.vector((2, 2) + (0,) * 20 + (1,))
    cls, den = integral_lagrangian_class(sp, eta26)
    assert den == 8
    lam2 = coh.cup(coh.h2_class(sp, eta26), coh.h2_class(sp, eta26))
    assert cls == Q(1, 8) * (5 * lam2 - coh.c2_class(sp))
    # div 1, square 2: 5 lam^2 - c2/3
    lam_d1 = sp.h2.vector((1, 1) + (0,) * 21)
    cls, den = integral_lagrangian_class(sp, lam_d1)
    assert den == 1
    lam2 = coh.cup(coh.h2_class(sp, lam_d1), coh.h2_class(sp, lam_d1))
    assert cls == 5 * lam2 - Q(1, 3) * coh.c2_class(sp)
    # div 2, square -10: (lam^2 + c2/3)/8 equals c (lam^2 - (lam,lam)/30 c2)
    eta_m10 = sp.h2.vector((2, -2) + (0,) * 20 + (1,))
    assert sp.h2.pair(eta_m10, eta_m10) == -10
    cls, den = integral_lagrangian_class(sp, eta_m10)
    assert den == gcd(40, 0) == 40
    lam2 = coh.cup(coh.h2_class(sp, eta_m10), coh.h2_class(sp, eta_m10))
    assert cls == Q(1, 8) * (lam2 + Q(1, 3) * coh.c2_class(sp))
    # agrees with c (lam^2 - (lam,lam)/30 c2) at c = 1/8
    assert cls == Q(1, 8) * (lam2 - Q(-10, 30) * coh.c2_class(sp))
    with pytest.raises(DomainError):
        integral_lagrangian_class(sp, tuple(2 * Q(c) for c in lam_d1))


def _brute_force_verdict(rho, g, div_a, alpha_sq, div_b, beta_sq, k):
    if gcd(k, rho) != 1:
        return False
    if gcd(rho, div_b) != g:
        return False
    modulus = rho if g == 1 else 2 * rho
    return (k * k * (beta_sq // 2)) % modulus == (alpha_sq // 2) % modulus


def test_untwisted_lift_against_brute_force():
    rng = random.Random(1234)
    for _ in range(50):
        r = rng.choice([4, 9, 8, 25, 16, 6])
        a = rng.choice([1, 2, 3])
        div_a = rng.choice([1, 2])
        rho = r // gcd(a, r)
        g = gcd(rho, div_a)
        if g not in (1, 2):
            continue
        alpha_sq = 2 * rng.randint(-20, 20)
        cands = [(rng.choice([1, 2]), 2 * rng.randint(-20, 20),
                  rng.randint(1, 12)) for _ in range(6)]
        got = untwisted_lift_check(r, a, div_a, alpha_sq, cands)
        want = [_brute_force_verdict(rho, g, div_a, alpha_sq, *cand)
                for cand in cands]
        assert got == want


def test_untwisted_lift_examples():
    # rank 4 transform with div 2: congruence mod 8 since odd k^2 = 1 (mod 8)
    res = untwisted_lift_check(4, 1, 2, 6, [(2, 22, 3), (2, 22, 2), (2, 38, 1)])
    assert res == [True, False, True]
    # rank 9, c1 = 3 alpha: rho = 3, congruence mod 3
    res = untwisted_lift_check(9, 3, 1, 2, [(1, 8, 1), (2, 8, 2), (1, 6, 1)])
    assert res == [True, True, False]
    # beta = alpha, k = 1 always lifts
    assert untwisted_lift_check(4, 1, 2, 6, [(2, 6, 1)]) == [True]
    with pytest.raises(DomainError):
        untwisted_lift_check(16, 1, 4, 8, [(1, 2, 1)])


def test_untwisted_k_periodicity():
    rng = random.Random(9)
    for _ in range(20):
        r, a, div_a = 9, 3, 1
        rho = 3
        alpha_sq = 2 * rng.randint(-10, 10)
        beta_sq = 2 * rng.randint(-10, 10)
        k = rng.choice([1, 2, 4, 5])
        v1 = untwisted_lift_check(r, a, div_a, alpha_sq, [(1, beta_sq, k)])
        v2 = untwisted_lift_check(r, a, div_a, alpha_sq, [(1, beta_sq, k + rho)])
        assert v1 == v2


def test_segre(sp):
    assert segre_enumerate(sp, 25) == [(1, 0, 3), (2, 6, 6), (3, 2, 10)]
    assert segre_enumerate(sp, 3) == [(1, 0, 3), (2, 6, 6), (3, 2, 10)]
    assert segre_enumerate(sp, 1) == [(1, 0, 3)]
    # r0 = 4 fails integrality: 5*16*15/(2*17) is not an integer
    assert all(r0 != 4 for (r0, _, _) in segre_enumerate(sp, 10))
    with pytest.raises(DomainError):
        segre_enumerate(sp, 0)
