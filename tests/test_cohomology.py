import random
from fractions import Fraction as Q

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from llvlat import DomainError, make_space
from llvlat import cohomology as coh
from llvlat.harmonic import (
    ReducedSymElement,
    delta_apply,
    expand_qtilde,
    full_context,
)
from oracle_dense_ring import DenseRing, densify


@pytest.fixture(scope="module")
def sp():
    return make_space("HilbK3", 2)


def rand_lam(rng, sp):
    return tuple(rng.randint(-3, 3) for _ in range(sp.h2.rank))


def test_table_golden_values(sp):
    c2 = coh.c2_class(sp)
    assert coh.integrate(coh.cup(c2, c2)) == 828
    lam = (1, 3) + (0,) * 21
    x = coh.h2_class(sp, lam)
    x2 = coh.cup(x, x)
    assert coh.integrate(coh.cup(c2, x2)) == 30 * 6
    assert coh.integrate(coh.cup(x2, x2)) == 3 * 36


def test_table_random_lambda(sp):
    rng = random.Random(101)
    c2 = coh.c2_class(sp)
    for _ in range(20):
        lam = rand_lam(rng, sp)
        q = sp.h2.pair(lam, lam)
        x = coh.h2_class(sp, lam)
        x2 = coh.cup(x, x)
        assert coh.integrate(coh.cup(x2, x2)) == 3 * q * q
        assert coh.integrate(coh.cup(c2, x2)) == 30 * q
        # lam^3 = (q/10) c2 lam in the dual-functional representation
        assert coh.cup(x2, x) == (Q(q, 10)) * coh.cup(c2, x)
        # c2 lam paired against mu
        mu = rand_lam(rng, sp)
        assert coh.integrate(coh.cup(coh.cup(c2, x), coh.h2_class(sp, mu))) \
            == 30 * sp.h2.pair(lam, mu)


def test_quadruple_formula(sp):
    rng = random.Random(55)
    p = sp.h2.pair
    for _ in range(10):
        a, b, c, d = (rand_lam(rng, sp) for _ in range(4))
        val = coh.integrate(coh.cup(
            coh.cup(coh.h2_class(sp, a), coh.h2_class(sp, b)),
            coh.cup(coh.h2_class(sp, c), coh.h2_class(sp, d)),
        ))
        assert val == p(a, b) * p(c, d) + p(a, c) * p(b, d) + p(a, d) * p(b, c)


def test_cup_commutative_bilinear(sp):
    rng = random.Random(77)
    for _ in range(8):
        x = coh.h2_class(sp, rand_lam(rng, sp))
        y = coh.h2_class(sp, rand_lam(rng, sp))
        z = coh.h2_class(sp, rand_lam(rng, sp))
        assert coh.cup(x, y) == coh.cup(y, x)
        s = Q(rng.randint(-3, 3))
        assert coh.cup(x + s * y, z) == coh.cup(x, z) + s * coh.cup(y, z)
        xy = coh.cup(x, y)
        zz = coh.cup(z, z)
        assert coh.cup(xy, zz) == coh.cup(zz, xy)


def test_integrate_basics(sp):
    assert coh.integrate(coh.scalar_class(sp, 1)) == 0
    assert coh.integrate(coh.point_class(sp, 1)) == 1


def test_degree_overflow_raises(sp):
    pt = coh.point_class(sp, 1)
    lam = coh.h2_class(sp, (1,) + (0,) * 22)
    with pytest.raises(DomainError):
        coh.cup(pt, lam)
    with pytest.raises(DomainError):
        coh.cup(coh.cup(lam, lam), pt)
    # the manifold product drops those pieces instead
    assert coh.cup_manifold(pt, lam) == coh.zero_class(sp)


def test_todd_data(sp):
    td, sqrt_td, inv = coh.todd_data(sp)
    assert coh.integrate(sqrt_td) == Q(25, 32)
    assert coh.integrate(td) == 3
    assert coh.integrate(inv) == Q(21, 32)
    assert coh.cup_manifold(sqrt_td, inv) == coh.scalar_class(sp, 1)
    assert td == coh.scalar_class(sp, 1) + Q(1, 12) * coh.c2_class(sp) \
        + coh.point_class(sp, 3)


def test_b_invariant(sp):
    b = coh.b_invariant_class(sp)
    assert coh.integrate(coh.cup(b, b)) == Q(25, 23)
    rng = random.Random(3)
    for _ in range(5):
        lam = rand_lam(rng, sp)
        y2 = coh.cup(coh.h2_class(sp, lam), coh.h2_class(sp, lam))
        assert coh.integrate(coh.cup(b, y2)) == Q(25, 23) * sp.h2.pair(lam, lam)
    assert coh.c2_class(sp) == Q(138, 5) * b


def test_psi_values(sp):
    fc = full_context(sp)
    qt = expand_qtilde(ReducedSymElement.qtilde(fc))
    ab = ReducedSymElement.monomial(fc, (0, 24))
    # psi(c2) = 30 (qt + alpha beta)
    assert coh.psi(coh.c2_class(sp), fc).terms == (Q(30) * (qt + ab)).terms
    # psi(1) = alpha^2/2, psi([pt]) = beta^2
    assert coh.psi(coh.scalar_class(sp, 1), fc).terms == {(0, (0, 0)): Q(1, 2)}
    assert coh.psi(coh.point_class(sp, 1), fc).terms == {(0, (24, 24)): Q(1)}
    # psi(lam) = lam alpha, psi of degree-6 w = w beta
    lam = (0, 1) + (0,) * 21
    assert coh.psi(coh.h2_class(sp, lam), fc).terms == {(0, (0, 2)): Q(1)}
    assert coh.psi(coh.deg6_class(sp, lam), fc).terms == {(0, (2, 24)): Q(1)}


def test_psi_linear_and_lands_in_kernel(sp):
    rng = random.Random(19)
    fc = full_context(sp)
    # linearity
    lam, mu = rand_lam(rng, sp), rand_lam(rng, sp)
    x, y = coh.h2_class(sp, lam), coh.h2_class(sp, mu)
    s = Q(rng.randint(-3, 3))
    lhs = coh.psi(x + s * y, fc)
    rhs = coh.psi(x, fc) + s * coh.psi(y, fc)
    assert lhs.terms == rhs.terms
    # Mukai vectors of the implemented families are harmonic
    _, sqrt_td, _ = coh.todd_data(sp)
    assert delta_apply(coh.psi(sqrt_td, fc)).is_zero()
    v_pt = coh.point_class(sp, 1)
    assert delta_apply(coh.psi(v_pt, fc)).is_zero()
    zero2 = coh.zero_class(sp)
    v_tw = coh.mukai_vector(sp, 1, lam, zero2, zero2, 0)
    # twists of the structure sheaf by an integral class stay harmonic
    ch2 = Q(1, 2) * coh.cup(coh.h2_class(sp, lam), coh.h2_class(sp, lam))
    ch3 = Q(1, 6) * coh.deg6_from_triple(sp, lam, lam, lam)
    q = sp.h2.pair(lam, lam)
    ch4 = Q(q * q, 8)  # lam^4/24 integrates from 3 q^2
    v_line = coh.mukai_vector(sp, 1, lam, ch2, ch3, ch4)
    assert delta_apply(coh.psi(v_line, fc)).is_zero()


def test_psi_of_lambda_squared(sp):
    # psi(lam^2) = lam^2 + (lam, lam) alpha beta
    rng = random.Random(47)
    fc = full_context(sp)
    lam = rand_lam(rng, sp)
    x2 = coh.cup(coh.h2_class(sp, lam), coh.h2_class(sp, lam))
    img = coh.psi(x2, fc)
    lam_lin = ReducedSymElement.zero(fc)
    for i, c in enumerate(lam):
        if c:
            lam_lin = lam_lin + ReducedSymElement.monomial(fc, (1 + i,), c)
    ab = ReducedSymElement.monomial(fc, (0, 24))
    expected = lam_lin * lam_lin + sp.h2.pair(lam, lam) * ab
    assert img.terms == expected.terms


def test_mukai_vectors(sp):
    zero2 = coh.zero_class(sp)
    v_o = coh.mukai_vector(sp, 1, (0,) * 23, zero2, zero2, 0)
    _, sqrt_td, _ = coh.todd_data(sp)
    assert v_o == sqrt_td
    v_sky = coh.mukai_vector(sp, 0, (0,) * 23, zero2, zero2, 1)
    assert v_sky == coh.point_class(sp, 1)


def test_non_k32_rejected():
    sp3 = make_space("HilbK3", 3)
    with pytest.raises(DomainError):
        coh.c2_class(sp3)


def test_serialization(sp):
    d = coh.point_class(sp, Q(5, 2)).to_dict()
    assert d["a8"] == "5/2"
    assert d["a0"] == "0"


# --- sparse ring against the dense piece-by-piece oracle

_SP = make_space("HilbK3", 2)
_ORACLE = DenseRing(_SP)
_K = _SP.h2.rank

_q = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_nonzero_q = _q.filter(bool)
_sparse_vec = st.lists(st.tuples(st.integers(0, _K - 1), _q), min_size=1,
                       max_size=4)
_a4_term = st.one_of(
    st.tuples(st.just("c2"), _nonzero_q),
    st.tuples(st.just("b"), _nonzero_q),
    st.tuples(st.just("outer"), _nonzero_q, _sparse_vec, _sparse_vec),
    st.tuples(st.just("entries"),
              st.lists(st.tuples(st.integers(0, _K - 1),
                                 st.integers(0, _K - 1), _q), max_size=12)),
    st.tuples(st.just("full"), st.integers(0, 2**32)),
)
_spec = st.tuples(
    st.one_of(st.just(0), _q),
    st.one_of(st.none(), _sparse_vec),
    st.lists(_a4_term, max_size=2),
    st.one_of(st.none(), _sparse_vec),
    st.one_of(st.just(0), _q),
)


def _vec(entries):
    v = [Q(0)] * _K
    for i, c in entries or ():
        v[i] += c
    return v


def _build(spec):
    """The class of a spec through the public constructors, its dense twin
    built by the oracle, and its H^4 and H^6 parts (sparse, dense)."""
    a0, a2, a4_terms, a6, a8 = spec
    ch2, ch2_d = coh.zero_class(_SP), _ORACLE.zero()
    for term in a4_terms:
        if term[0] in ("c2", "b"):
            t = term[1] * (coh.c2_class(_SP) if term[0] == "c2"
                           else coh.b_invariant_class(_SP))
            t_d = _ORACLE.scale(term[1], getattr(_ORACLE, term[0]))
        elif term[0] == "outer":
            u, v = _vec(term[2]), _vec(term[3])
            t = term[1] * coh.cup(coh.h2_class(_SP, u), coh.h2_class(_SP, v))
            t_d = _ORACLE.scale(term[1], _ORACLE.cup(
                _ORACLE.h2(u), _ORACLE.h2(v)))
        else:
            m = [[Q(0)] * _K for _ in range(_K)]
            if term[0] == "entries":
                cells = term[1]
            else:
                rng = random.Random(term[1])
                cells = [(i, j, Q(rng.randint(-3, 3)))
                         for i in range(_K) for j in range(i, _K)]
            for i, j, c in cells:
                m[i][j] += c
                if i != j:
                    m[j][i] += c
            t, t_d = coh.sym2_class(_SP, m), _ORACLE.sym2(m)
        ch2, ch2_d = ch2 + t, _ORACLE.add(ch2_d, t_d)
    ch3, ch3_d = coh.deg6_class(_SP, _vec(a6)), _ORACLE.deg6(_vec(a6))
    x = coh.scalar_class(_SP, a0) + coh.h2_class(_SP, _vec(a2)) + ch2 + ch3 \
        + coh.point_class(_SP, a8)
    x_d = _ORACLE.add(
        _ORACLE.add(_ORACLE.add(_ORACLE.scalar(a0), _ORACLE.h2(_vec(a2))), ch2_d),
        _ORACLE.add(ch3_d, _ORACLE.point(a8)))
    return x, x_d, ch2, ch2_d, ch3, ch3_d


def _check_cup(x, y, x_d, y_d):
    try:
        want = _ORACLE.cup(x_d, y_d)
    except DomainError:
        with pytest.raises(DomainError):
            coh.cup(x, y)
    else:
        assert densify(coh.cup(x, y)) == want


# 100 pairs: 200 random classes, plus the degree <= 4 part of each first one
@settings(max_examples=100, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(_spec, _spec)
def test_ring_matches_dense_oracle(spec_x, spec_y):
    x, x_d, ch2, ch2_d, ch3, ch3_d = _build(spec_x)
    y, y_d = _build(spec_y)[:2]
    assert densify(x) == x_d
    assert x.to_dict() == _ORACLE.to_dict(x_d)
    fc = full_context(_SP)
    assert coh.psi(x, fc).terms == _ORACLE.psi(x_d, fc).terms
    assert coh.chi(_SP, x) == _ORACLE.chi(x_d)
    v = coh.mukai_vector(_SP, x.a0, x.a2, ch2, ch3, x.a8)
    assert densify(v) == _ORACLE.mukai_vector(x.a0, x.a2, ch2_d, ch3_d, x.a8)
    assert densify(coh.cup_manifold(x, y)) == _ORACLE.cup(x_d, y_d, strict=False)
    _check_cup(x, y, x_d, y_d)
    # the degree <= 4 parts never overflow, so the strict product runs too
    low = coh.scalar_class(_SP, x.a0) + coh.h2_class(_SP, x.a2) + ch2
    low_d = _ORACLE.add(_ORACLE.add(_ORACLE.scalar(x.a0), _ORACLE.h2(x.a2)), ch2_d)
    _check_cup(low, y, low_d, y_d)
    _check_cup(low, low, low_d, low_d)


# --- H^4 as S + c G^-1: canonical equality, byte-stable output, triples

def _ginv_scaled(c):
    return [[c * v for v in row] for row in _SP.h2.inverse]


def test_symbolic_c2_equals_its_dense_matrix():
    c2 = coh.c2_class(_SP)
    assert (c2.s4, c2.c4) == ({}, Q(6, 5))
    dense = coh.sym2_class(_SP, _ginv_scaled(Q(6, 5)))
    assert dense.c4 == 0 and len(dense.s4) == len(c2.a4)
    assert dense == c2 and c2 == dense
    assert dense.a4 == c2.a4
    assert not dense != c2


def test_dense_inverse_plus_rank_one_equals_symbolic_sum():
    h = _vec([(0, 1), (1, 3), (22, Q(1, 2))])
    m = _ginv_scaled(Q(1))
    for i in range(_K):
        for j in range(_K):
            m[i][j] += h[i] * h[j]
    hc = coh.h2_class(_SP, h)
    rhs = 23 * coh.b_invariant_class(_SP) + coh.cup(hc, hc)
    assert coh.sym2_class(_SP, m) == rhs
    assert rhs == coh.sym2_class(_SP, m)
    assert densify(rhs) == densify(coh.sym2_class(_SP, m))


def test_h4_parts_differing_by_a_non_multiple_compare_unequal():
    c2 = coh.c2_class(_SP)
    # the same support as G^-1 with one symmetric pair of entries altered
    for (i, j) in ((0, 1), (22, 22), (6, 7)):
        m = _ginv_scaled(Q(6, 5))
        m[i][j] += 1
        if i != j:
            m[j][i] += 1
        assert coh.sym2_class(_SP, m) != c2
        assert c2 != coh.sym2_class(_SP, m)
    # a multiple of G^-1 other than the symbol's
    assert coh.sym2_class(_SP, _ginv_scaled(Q(7, 5))) != c2
    hc = coh.h2_class(_SP, _vec([(2, 1)]))
    assert c2 + coh.cup(hc, hc) != c2
    assert coh.cup(hc, hc) != coh.zero_class(_SP)
    # pieces outside H^4 still count
    assert c2 + coh.point_class(_SP, 1) != c2


def test_h4_zero_in_normal_form():
    # S = -c G^-1 is the zero class: equal to zero, and of no degree
    z = coh.sym2_class(_SP, _ginv_scaled(Q(-1))) + 23 * coh.b_invariant_class(_SP)
    assert z.s4 and z.c4 == 1
    assert z == coh.zero_class(_SP) and z.a4 == {}
    pt = coh.point_class(_SP, 1)
    assert coh.cup(z, pt) == coh.zero_class(_SP)
    assert coh.cup(z + coh.h2_class(_SP, _vec([(0, 1)])), coh.deg6_class(
        _SP, _vec([(1, 1)]))).a8 == 1
    with pytest.raises(DomainError):
        coh.cup(z + coh.c2_class(_SP), pt)


# SHA-256 of the to_dict JSON, captured when c2 was a dense Sym^2 matrix
_FROZEN_TO_DICT = {
    "c2": "bc5bc1de438ff61c3878cf5b4552448f92eb47e9272ea4b7a0fd050d43aa023a",
    "sqrt_td * inv_sqrt":
        "764d98de295ba3ea58464049b2c2169bdaafba0a53b694023bdfef31167b439b",
    "td": "4f062562e7d178a0eaaf2f14ea7d98a78062f15ed3b3daba9476989743615d86",
    "sqrt_td": "d6788af4023ac5641302a9f5122080203f3d17567f10f91ab2027c1ccfad3f2f",
    "inv_sqrt": "b0ab03454c4b9c089371da0d3b32088ae39c5d3d6149fecf2db30b35d5276389",
}


def test_to_dict_byte_identical_to_dense_form():
    import hashlib
    import json

    td, sqrt_td, inv_sqrt = coh.todd_data(_SP)
    classes = {"c2": coh.c2_class(_SP),
               "sqrt_td * inv_sqrt": coh.cup_manifold(sqrt_td, inv_sqrt),
               "td": td, "sqrt_td": sqrt_td, "inv_sqrt": inv_sqrt}
    for name, x in classes.items():
        digest = hashlib.sha256(json.dumps(x.to_dict()).encode()).hexdigest()
        assert digest == _FROZEN_TO_DICT[name], name
    assert td.s4 == {} and sqrt_td.s4 == {} and inv_sqrt.s4 == {}


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(_sparse_vec, _sparse_vec, _sparse_vec)
def test_deg6_from_triple_matches_ring(e1, e2, e3):
    x1, x2, x3 = _vec(e1), _vec(e2), _vec(e3)
    h = [coh.h2_class(_SP, x) for x in (x1, x2, x3)]
    assert coh.deg6_from_triple(_SP, x1, x2, x3) == \
        coh.cup(coh.cup(h[0], h[1]), h[2])


def test_deg6_from_triple_pairs_three_times(monkeypatch):
    from llvlat.lattice import QuadLattice

    calls = []
    real = QuadLattice.pair

    def counting(self, x, y):
        calls.append(1)
        return real(self, x, y)

    monkeypatch.setattr(QuadLattice, "pair", counting)
    coh.deg6_from_triple(_SP, _vec([(0, 1)]), _vec([(1, 2)]), _vec([(3, 1)]))
    assert len(calls) == 3
