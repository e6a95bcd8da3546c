import random
from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from llvlat import (
    DomainError,
    InconclusiveError,
    LLVVector,
    div_in_lambda,
    in_integral_llv,
    is_primitive_in_lambda,
    lambda_coords,
    make_lattice,
    make_space,
    orbit_invariants_equal,
)
from llvlat.lattice import E8_NEG_GRAM


def test_preset_signatures():
    assert make_lattice("U").signature() == (1, 1)
    assert make_lattice("E8neg").signature() == (0, 8)
    assert make_lattice("K3").signature() == (3, 19)
    assert make_lattice("HilbK3", 2).signature() == (3, 20)
    assert make_lattice("Kum", 2).signature() == (3, 4)


def test_presets_even():
    for lat in (make_lattice("U"), make_lattice("E8neg"), make_lattice("K3"),
                make_lattice("HilbK3", 4), make_lattice("Kum", 3)):
        assert all(lat.gram[i][i] % 2 == 0 for i in range(lat.rank))


def test_e8_gram_unimodular_negative_definite():
    from dense import det, mat
    from llvlat._linalg import int_det, sparse
    assert det(mat(E8_NEG_GRAM)) == int_det(sparse(E8_NEG_GRAM)) == 1
    assert make_lattice("E8neg").signature() == (0, 8)


def test_unknown_preset():
    with pytest.raises(DomainError):
        make_lattice("foo")
    with pytest.raises(DomainError):
        make_lattice("Kum", 1)


def test_delta_squares():
    assert make_lattice("HilbK3", 2).pair([0] * 22 + [1], [0] * 22 + [1]) == -2
    for n in (2, 3, 5):
        sp = make_space("HilbK3", n)
        assert sp.h2.pair(sp.delta(), sp.delta()) == 2 - 2 * n
        assert sp.h2.divisibility(sp.delta()) == 2 * n - 2
    kum = make_space("Kum", 2)
    assert kum.h2.pair(kum.delta(), kum.delta()) == -6
    assert kum.h2.divisibility(kum.delta()) == 6


def test_hilb1_is_k3():
    sp = make_space("HilbK3", 1)
    assert sp.dtype == "K3"
    assert sp.h2.rank == 22
    assert sp.fujiki == 1


def test_u_pairings():
    u = make_lattice("U")
    assert u.pair((1, 0), (0, 1)) == 1
    assert u.pair((1, 0), (1, 0)) == 0
    assert u.divisibility((1, 0)) == 1
    assert u.divisibility((2, 2)) == 2
    assert u.is_primitive((2, 3))
    assert not u.is_primitive((3, 0)) or True  # 3e primitive? gcd 3 -> no
    assert not u.is_primitive((3, 3))


def test_pair_examples():
    sp = make_space("HilbK3", 2)
    assert sp.pair(sp.alpha(), sp.beta()) == -1
    n = sp.n
    u0 = LLVVector.make(0, sp.delta(), n - 1)
    assert sp.pair(u0, u0) == 2 - 2 * n
    x = sp.alpha() - sp.beta()
    assert sp.pair(x, x) == 2


def test_pair_symmetric_bilinear_randomized():
    rng = random.Random(7)
    sp = make_space("HilbK3", 2)

    def rand_vec():
        return LLVVector.make(
            Q(rng.randint(-4, 4)),
            tuple(Q(rng.randint(-3, 3)) for _ in range(23)),
            Q(rng.randint(-4, 4), rng.choice([1, 2])),
        )

    for _ in range(40):
        x, y, z = rand_vec(), rand_vec(), rand_vec()
        c = Q(rng.randint(-3, 3))
        assert sp.pair(x, y) == sp.pair(y, x)
        assert sp.pair(x + c * y, z) == sp.pair(x, z) + c * sp.pair(y, z)


def test_dimension_mismatch():
    sp = make_space("HilbK3", 2)
    kum = make_space("Kum", 2)
    with pytest.raises(DomainError):
        sp.pair(sp.alpha(), kum.alpha())


@given(st.integers(min_value=-20, max_value=20).filter(lambda k: k != 0))
def test_divisibility_scales(k):
    lat = make_lattice("HilbK3", 2)
    x = [0] * 22 + [1]
    kx = [k * c for c in x]
    assert lat.divisibility(kx) == abs(k) * lat.divisibility(x)


def test_divisibility_rejects():
    lat = make_lattice("U")
    with pytest.raises(DomainError):
        lat.divisibility((0, 0))
    with pytest.raises(DomainError):
        lat.divisibility((Q(1, 2), 0))


def test_integral_reader_takes_ints_and_integral_fractions():
    # divisibility and primitivity read ints as they are, and any other
    # entry through Fraction; the refusals keep their wording
    lat = make_lattice("U")
    for x in ((2, 4), (Q(2), 4), ("2", Q(4, 1)), (True, 0)):
        assert lat.divisibility(x) == gcd(*(int(Q(c)) for c in x))
        assert lat.is_primitive(x) == (gcd(*(int(Q(c)) for c in x)) == 1)
    with pytest.raises(DomainError, match="vector of length 3 in rank 2 lattice"):
        lat.divisibility((1, 2, 3))
    with pytest.raises(DomainError, match="vector of length 1 in rank 2 lattice"):
        lat.is_primitive((Q(1, 2),))
    with pytest.raises(DomainError, match="primitivity is defined for integral"):
        lat.is_primitive((1, "1/3"))
    with pytest.raises(DomainError, match="divisibility of the zero vector"):
        lat.divisibility((Q(0), 0))


def test_fujiki_integral():
    sp = make_space("HilbK3", 2)
    lam = (1, 3) + (0,) * 21  # square 6
    assert sp.fujiki_integral(lam) == 3 * 36
    assert sp.fujiki_integral((0,) * 23) == 0
    isotropic = (1, 0) + (0,) * 21
    assert sp.fujiki_integral(isotropic) == 0
    kum = make_space("Kum", 2)
    assert kum.fujiki_integral((1, 1, 0, 0, 0, 0, 0)) == 36


def test_fujiki_agrees_with_ring():
    from llvlat import cohomology as coh
    sp = make_space("HilbK3", 2)
    rng = random.Random(3)
    for _ in range(5):
        lam = tuple(rng.randint(-2, 2) for _ in range(23))
        x = coh.h2_class(sp, lam)
        x2 = coh.cup(x, x)
        assert coh.integrate(coh.cup(x2, x2)) == sp.fujiki_integral(lam)


def test_lambda_membership_examples():
    sp = make_space("HilbK3", 2)
    gamma0 = LLVVector.make(2, (0,) * 23, Q(5, 2))
    assert in_integral_llv(sp, gamma0)
    assert div_in_lambda(sp, gamma0) == 2
    assert is_primitive_in_lambda(sp, gamma0)

    half = tuple(-Q(1, 2) * c for c in sp.delta())
    b_alpha = sp.b_lambda_apply(half, sp.alpha())
    assert b_alpha == LLVVector.make(1, (0,) * 22 + (Q(-1, 2),), Q(-1, 4))
    assert in_integral_llv(sp, b_alpha)

    assert in_integral_llv(sp, sp.beta())
    assert div_in_lambda(sp, sp.beta()) == 1

    # not a member: alpha alone (n = 2)
    assert not in_integral_llv(sp, sp.alpha())


def test_lambda_closure_randomized():
    rng = random.Random(11)
    sp = make_space("HilbK3", 2)
    half = tuple(-Q(1, 2) * c for c in sp.delta())

    def rand_member():
        w = LLVVector.make(
            rng.randint(-3, 3),
            tuple(rng.randint(-2, 2) for _ in range(23)),
            rng.randint(-3, 3),
        )
        return sp.b_lambda_apply(half, w)

    for _ in range(25):
        x, y = rand_member(), rand_member()
        assert in_integral_llv(sp, x)
        assert in_integral_llv(sp, x + y)
    # contains Z beta and H^2(Z)
    assert in_integral_llv(sp, sp.beta())
    for i in range(23):
        assert in_integral_llv(sp, sp.h2_basis_vector(i))


def test_lambda_wrong_type():
    # Lambda is defined here for Hilbert schemes only
    for sp in (make_space("K3"), make_space("Kum", 2), make_space("Kum", 3)):
        for fn in (lambda_coords, in_integral_llv, div_in_lambda,
                   is_primitive_in_lambda):
            with pytest.raises(DomainError, match="for HilbK3 spaces"):
                fn(sp, sp.beta())


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(st.data(), st.integers(2, 6))
def test_lambda_coords_match_b_half_delta_oracle(data, n):
    # lambda_coords(x) are the standard coordinates of B_{delta/2}(x) when
    # those are integral, and None otherwise; on members, primitivity and
    # divisibility are the two gcds, computed here
    sp = make_space("HilbK3", n)
    small = st.integers(-6, 6)
    w = data.draw(st.sampled_from((1, 2, 3))) * LLVVector.make(
        data.draw(small), data.draw(st.lists(small, min_size=23, max_size=23)),
        data.draw(small))
    x = sp.b_lambda_apply(tuple(-Q(1, 2) * c for c in sp.delta()), w)
    den = data.draw(st.sampled_from((1, 1, 2, 3, 4, 8)))
    if den > 1:
        bump = Q(data.draw(st.integers(1, den - 1)), den)
        where = data.draw(st.sampled_from(("r", "v_delta", "s")))
        x = x + LLVVector.make(bump if where == "r" else 0,
                               (0,) * 22 + (bump if where == "v_delta" else 0,),
                               bump if where == "s" else 0)
    oracle = sp.b_lambda_apply(tuple(Q(1, 2) * c for c in sp.delta()), x).coords()
    got = lambda_coords(sp, x)
    if any(c.denominator != 1 for c in oracle):
        assert got is None
        assert not in_integral_llv(sp, x)
        return
    assert got == oracle and all(type(c) is int for c in got)
    assert in_integral_llv(sp, x)
    assert is_primitive_in_lambda(sp, x) == (gcd(*got) == 1)
    if any(got):
        assert div_in_lambda(sp, x) == gcd(*sp.full.gram_vec(got))


def test_orbit_invariants():
    lat = make_lattice("HilbK3", 2)
    e1f1 = [1, 1] + [0] * 21
    e2f2 = [0, 0, 1, 1] + [0] * 19
    assert orbit_invariants_equal(lat, e1f1, e2f2)
    delta = [0] * 22 + [1]
    e1mf1 = [1, -1] + [0] * 21
    assert not orbit_invariants_equal(lat, delta, e1mf1)
    assert orbit_invariants_equal(lat, delta, delta)
    with pytest.raises(InconclusiveError):
        big = [0] * 22 + [1]
        orbit_invariants_equal(make_lattice("HilbK3", 4), big, big)  # div 6
    with pytest.raises(DomainError):
        orbit_invariants_equal(lat, [2, 2] + [0] * 21, e1f1)


def test_serialization():
    lat = make_lattice("U")
    d = lat.to_dict()
    assert d == {"name": "U", "rank": 2, "gram": [0, 1, 1, 0],
                 "labels": ["e1", "f1"]}


# --- one sparse Gram format, one inverse, canonical presets ---------------

LATTICE_PRESETS = [("U", None), ("E8neg", None)]
SPACE_PRESETS = [("K3", 1)] + [("HilbK3", n) for n in range(1, 7)] \
    + [("Kum", n) for n in range(2, 7)]


def _lattices_h2_and_full():
    """(name, lattice) for every preset, both as h2 and as the full space."""
    from llvlat import LLVSpace

    for preset, n in LATTICE_PRESETS:
        lat = make_lattice(preset, n)
        # the extended space over a lattice-only preset, to test ``full``
        yield f"{preset}.h2", lat
        yield f"{preset}.full", LLVSpace(lat, 1, Q(1), "K3").full
    for preset, n in SPACE_PRESETS:
        sp = make_space(preset, n)
        yield f"{preset}({n}).h2", sp.h2
        yield f"{preset}({n}).full", sp.full


def test_gram_times_inverse_is_identity():
    from dense import identity, mat, mat_mul

    for name, lat in _lattices_h2_and_full():
        g = mat(lat.gram)
        assert mat_mul(g, lat.inverse) == identity(lat.rank), name
        assert mat_mul(lat.inverse, g) == identity(lat.rank), name


def test_inverse_raises_on_singular_matrices():
    from dense import mat
    from llvlat._linalg import inverse

    for m in ([[0]], [[1, 2], [2, 4]], [[0, 0], [0, 0]],
              [[1, 1, 0], [1, 1, 0], [0, 0, 1]],
              [[0, 1, 1], [1, 0, 1], [1, 1, 2]]):
        with pytest.raises(ValueError):
            inverse(mat(m))


def test_rows_list_the_nonzero_gram_entries():
    for name, lat in _lattices_h2_and_full():
        dense = [[0] * lat.rank for _ in range(lat.rank)]
        for i, row in enumerate(lat.rows):
            assert all(g != 0 for _, g in row), name
            for j, g in row:
                dense[i][j] = g
        assert tuple(map(tuple, dense)) == lat.gram, name


def test_full_gram_is_the_bordered_matrix():
    from llvlat import LLVSpace

    u = LLVSpace(make_lattice("U"), 1, Q(1), "K3").full
    assert u.gram == ((0, 0, 0, -1),
                      (0, 0, 1, 0),
                      (0, 1, 0, 0),
                      (-1, 0, 0, 0))
    assert u.labels == ("alpha", "e1", "f1", "beta")
    sp = make_space("HilbK3", 2)
    k = sp.h2.rank
    expected = [[0] * (k + 2) for _ in range(k + 2)]
    expected[0][k + 1] = expected[k + 1][0] = -1
    for i in range(k):
        for j in range(k):
            expected[1 + i][1 + j] = sp.h2.gram[i][j]
    assert sp.full.gram == tuple(map(tuple, expected))
    assert sp.full.rank == sp.dim == 25


def test_full_pairing_and_gram_vec_match_dense():
    from dense import mat, mat_vec

    rng = random.Random(5)
    for preset, n in SPACE_PRESETS:
        sp = make_space(preset, n)
        g = mat(sp.full.gram)
        for _ in range(3):
            x = tuple(Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(sp.dim))
            y = tuple(Q(rng.randint(-4, 4)) for _ in range(sp.dim))
            vx, vy = LLVVector.from_coords(x), LLVVector.from_coords(y)
            dense = sum(a * b for a, b in zip(x, mat_vec(g, y)))
            assert sp.pair(vx, vy) == sp.full.pair(x, y) == dense
            assert sp.full.gram_vec(x) == mat_vec(g, x)
            assert sp.full.gram_vec(y) == mat_vec(g, y)


def test_presets_are_canonical():
    for preset, n in LATTICE_PRESETS:
        assert make_lattice(preset, n) is make_lattice(preset, n)
    for preset, n in SPACE_PRESETS:
        assert make_space(preset, n) is make_space(preset, n)
        assert make_lattice(preset, n) is make_lattice(preset, n)
        sp = make_space(preset, n)
        assert sp.full is sp.full and sp.full.inverse is sp.full.inverse


def test_k3_space_spellings_are_one_object():
    k3 = make_space("K3")
    assert make_space("K3", 1) is k3
    assert make_space("HilbK3", 1) is k3
    assert make_space(preset="HilbK3", n=1) is k3
    assert k3.full is make_space("HilbK3", 1).full
    assert k3.h2 is make_lattice("K3")
    assert (k3.n, k3.dtype) == (1, "K3")
    assert make_space("HilbK3", 2) is not k3


def test_lambda_gates_read_one_b_half_delta(monkeypatch):
    # membership, primitivity and divisibility are read off one
    # lambda_coords(x), the coordinates B_{delta/2}(x), per call, in each
    # public function and in the gate
    import llvlat.lattice as lat
    import llvlat.lines as lines
    from llvlat import ell_isotropic, ell_phiO

    sp = make_space("HilbK3", 2)
    calls = []
    real = lat.lambda_coords

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lat, "lambda_coords", counting)
    monkeypatch.setattr(lines, "lambda_coords", counting)
    gamma0 = LLVVector.make(2, (0,) * 23, Q(5, 2))
    for fn, want in ((in_integral_llv, True), (div_in_lambda, 2),
                     (is_primitive_in_lambda, True)):
        calls.clear()
        assert fn(sp, gamma0) == want
        assert len(calls) == 1, fn.__name__
    for build in (lambda: ell_phiO(sp, 1, (0,) * 23),
                  lambda: ell_isotropic(sp, 1, (0,) * 22 + (1,))):
        calls.clear()
        build()
        assert len(calls) == 1


def test_lambda_gate_refusals_unchanged():
    from llvlat import NotRealizableError
    from llvlat.lines import _lambda_gate

    sp = make_space("HilbK3", 2)
    gamma0 = LLVVector.make(2, (0,) * 23, Q(5, 2))
    assert _lambda_gate(sp, gamma0, 2) == {"lambda_member": True,
                                           "lambda_divisibility": 2}
    with pytest.raises(NotRealizableError, match="divisibility 1 in the "
                       "integral LLV lattice.*got 2"):
        _lambda_gate(sp, gamma0, 1)
    with pytest.raises(NotRealizableError, match="must be primitive"):
        _lambda_gate(sp, 2 * gamma0, 4)
    with pytest.raises(NotRealizableError, match="must lie in the integral"):
        _lambda_gate(sp, sp.alpha(), 1)
    with pytest.raises(DomainError, match="not in the integral LLV lattice"):
        div_in_lambda(sp, sp.alpha())
    with pytest.raises(DomainError, match="not in the integral LLV lattice"):
        is_primitive_in_lambda(sp, sp.alpha())
    zero = LLVVector.make(0, (0,) * 23, 0)
    with pytest.raises(DomainError, match="divisibility of the zero vector"):
        div_in_lambda(sp, zero)
    assert is_primitive_in_lambda(sp, zero) is False
    assert not is_primitive_in_lambda(sp, 2 * gamma0)


def test_space_hash_is_cached_and_by_value():
    # spaces key the ring's caches: equal spaces built apart hash alike and
    # share cache entries; the hash is computed once per space
    from fractions import Fraction
    from llvlat import cohomology as coh
    from llvlat.lattice import LLVSpace

    sp = make_space("HilbK3", 2)
    twin = LLVSpace(make_lattice("HilbK3", 2), 2, Fraction(1), "Hilb")
    assert twin is not sp and twin == sp and hash(twin) == hash(sp)
    assert {sp: 1}[twin] == 1
    assert coh.c2_class(twin) is coh.c2_class(sp)
    assert "_hash" in vars(sp)
    other = make_space("HilbK3", 3)
    assert other != sp and {sp: 1}.get(other) is None
    assert make_space("Kum", 2) != LLVSpace(make_lattice("Kum", 2), 2,
                                            Fraction(1), "Kummer")
