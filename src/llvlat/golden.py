"""Golden-value table of classical numeric values the toolkit reproduces.

Each check computes an exact value and compares it against the frozen
expected value.  The verify command replays the whole table; any mismatch
reports the exact expected and actual rationals.
"""

from __future__ import annotations

from fractions import Fraction

from . import arith, cohomology as coh, lines, monodromy as mono
from .harmonic import (
    GeneratorContext,
    ReducedSymElement,
    delta_apply,
    expand_qtilde,
    full_context,
    project_harmonic,
)
from ._linalg import int_det
from .isometry import b_lambda, duality_D, reflection
from .lattice import (
    LLVVector,
    div_in_lambda,
    in_integral_llv,
    make_lattice,
    make_space,
    orbit_invariants_equal,
)
from .rational import fmt_q

Q = Fraction


def _fmt(val) -> str:
    if isinstance(val, Fraction):
        return fmt_q(val)
    if isinstance(val, LLVVector):
        return "(" + ", ".join(fmt_q(c) for c in val.coords()) + ")"
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in val) + "]"
    return str(val)


def _k32():
    return make_space("HilbK3", 2)


def _lam(space, *coords):
    v = list(coords) + [0] * (space.h2.rank - len(coords))
    return space.h2.vector(v)


def golden_checks():
    """Yield (name, expected, actual) triples, all exact."""
    sp = _k32()
    k3 = make_space("K3")
    lat = sp.h2

    # --- lattices and pairings
    frozen_e8 = (
        (-2, 0, 1, 0, 0, 0, 0, 0),
        (0, -2, 0, 1, 0, 0, 0, 0),
        (1, 0, -2, 1, 0, 0, 0, 0),
        (0, 1, 1, -2, 1, 0, 0, 0),
        (0, 0, 0, 1, -2, 1, 0, 0),
        (0, 0, 0, 0, 1, -2, 1, 0),
        (0, 0, 0, 0, 0, 1, -2, 1),
        (0, 0, 0, 0, 0, 0, 1, -2),
    )
    e8 = make_lattice("E8neg")
    yield ("e8_gram_bit_exact", frozen_e8, e8.gram)
    yield ("e8_unimodular_even", (Q(1), True),
           (int_det(e8.rows),
            all(e8.gram[i][i] % 2 == 0 for i in range(8))))
    yield ("delta_square_hilb2", Q(-2), lat.pair(sp.delta(), sp.delta()))
    u = make_lattice("U")
    yield ("U_pairing", (Q(1), Q(0), Q(0)),
           (u.pair((1, 0), (0, 1)), u.pair((1, 0), (1, 0)), u.pair((0, 1), (0, 1))))
    yield ("alpha_beta_pairing", Q(-1), sp.pair(sp.alpha(), sp.beta()))
    yield ("kummer2_last_square", Q(-6),
           make_lattice("Kum", 2).pair((0,) * 6 + (1,), (0,) * 6 + (1,)))
    yield ("delta_divisibility_hilb3", 4,
           make_lattice("HilbK3", 3).divisibility((0,) * 22 + (1,)))
    yield ("fujiki_k32_lambda4", Q(3 * 36),
           sp.fujiki_integral(_lam(sp, 1, 3)))  # (lam,lam) = 6 -> 3 q^2
    yield ("fujiki_kummer2", Q(36),
           make_space("Kum", 2).fujiki_integral((1, 1, 0, 0, 0, 0, 0)))

    # --- integral LLV lattice
    gamma0 = LLVVector.make(2, (0,) * 23, Q(5, 2))
    yield ("gamma0_square", Q(-10), sp.pair(gamma0, gamma0))
    yield ("gamma0_in_lambda_div2", (True, 2),
           (in_integral_llv(sp, gamma0), div_in_lambda(sp, gamma0)))
    b_minus = b_lambda(sp, tuple(-Q(1, 2) * c for c in sp.delta()))
    balpha = b_minus.apply(sp.alpha())
    yield ("B_minus_half_delta_alpha",
           LLVVector.make(1, (0,) * 22 + (Q(-1, 2),), Q(-1, 4)), balpha)
    yield ("beta_in_lambda_div1", (True, 1),
           (in_integral_llv(sp, sp.beta()), div_in_lambda(sp, sp.beta())))
    e1f1 = _lam(sp, 1, 1)
    e2f2 = sp.h2.vector((0, 0, 1, 1) + (0,) * 19)
    yield ("orbit_same_square_div", True,
           orbit_invariants_equal(lat, e1f1, e2f2))
    yield ("orbit_delta_vs_div1", False,
           orbit_invariants_equal(lat, sp.delta(), _lam(sp, 1, -1)))

    # --- isometries
    lam6 = _lam(sp, 1, 3)
    yield ("e_lambda_alpha", LLVVector.make(0, lam6, 0),
           sp.e_lambda_apply(lam6, sp.alpha()))
    yield ("e_lambda_beta_zero", True, sp.e_lambda_apply(lam6, sp.beta()).is_zero())
    yield ("B_lambda_beta_fixed", sp.beta(),
           b_lambda(sp, lam6).apply(sp.beta()))
    u0 = LLVVector.make(0, sp.delta(), 1)
    refl = reflection(sp, u0)
    x = LLVVector.make(4, (0,) * 23, 5)
    yield ("reflection_u0_formula",
           x + (sp.pair(x, u0) / Q(1)) * u0, refl.apply(x))
    dd = duality_D(sp)
    yield ("duality_fixes_alpha_beta", LLVVector.make(4, (0,) * 23, 5),
           dd.apply(LLVVector.make(4, (0,) * 23, 5)))
    yield ("duality_negates_h2", LLVVector.make(0, tuple(-c for c in lam6), 3),
           dd.apply(LLVVector.make(0, lam6, 3)))

    # --- harmonic calculus
    ctx = GeneratorContext(sp, (sp.alpha(), sp.beta()))
    qt = ReducedSymElement.qtilde(ctx)
    yield ("delta_of_qtilde", Q(1), delta_apply(qt).coeff(()))
    ab = ReducedSymElement.monomial(ctx, (0, 1))
    yield ("delta_alpha_beta", Q(-1), delta_apply(ab).coeff(()))
    gam = ReducedSymElement.monomial(ctx, (0,), 2) + \
        ReducedSymElement.monomial(ctx, (1,), Q(5, 2))
    proj = project_harmonic(gam * gam)
    expected = (gam * gam) + ReducedSymElement.qtilde(ctx, 1, 10)
    yield ("projection_gamma0_squared", True, proj.terms == expected.terms)
    fc = full_context(sp)
    qt_exp = expand_qtilde(ReducedSymElement.qtilde(fc))
    b_exp = coh.psi(coh.b_invariant_class(sp), fc)
    ia, ib = 0, 24
    ab_f = ReducedSymElement.monomial(fc, (ia, ib))
    # b psi-image is btilde + alpha beta, so qtilde = (23 btilde - 2 ab)/25
    btilde = b_exp - ab_f
    rhs = Q(1, 25) * (Q(23) * btilde - Q(2) * ab_f)
    yield ("qtilde_in_terms_of_btilde", True, qt_exp.terms == rhs.terms)

    # --- K3[2] cohomology ring
    c2 = coh.c2_class(sp)
    yield ("int_c2_squared", Q(828), coh.integrate(coh.cup(c2, c2)))
    lam_cls = coh.h2_class(sp, lam6)
    lam2 = coh.cup(lam_cls, lam_cls)
    yield ("int_c2_lambda2", Q(180), coh.integrate(coh.cup(c2, lam2)))
    yield ("int_lambda4", Q(108), coh.integrate(coh.cup(lam2, lam2)))
    x1, x2, x3, x4 = (coh.h2_class(sp, _lam(sp, *c)) for c in
                      ((1, 1), (0, 1, 1, 0), (1, 0, 0, 1), (2, 1)))
    quad = coh.integrate(coh.cup(coh.cup(x1, x2), coh.cup(x3, x4)))
    p = lat.pair
    v1, v2, v3, v4 = (_lam(sp, *c) for c in
                      ((1, 1), (0, 1, 1, 0), (1, 0, 0, 1), (2, 1)))
    quad_expected = p(v1, v2) * p(v3, v4) + p(v1, v3) * p(v2, v4) \
        + p(v1, v4) * p(v2, v3)
    yield ("quadruple_integration", quad_expected, quad)
    td, sqrt_td, inv_sqrt = coh.todd_data(sp)
    yield ("int_sqrt_td", Q(25, 32), coh.integrate(sqrt_td))
    yield ("int_td_chiO", Q(3), coh.integrate(td))
    yield ("sqrt_td_inverse", True,
           coh.cup_manifold(sqrt_td, inv_sqrt) == coh.scalar_class(sp, 1))
    yield ("lambda_cubed_relation", True,
           coh.cup(lam2, lam_cls) ==
           (Q(6, 10)) * coh.cup(c2, lam_cls))
    b_cls = coh.b_invariant_class(sp)
    yield ("int_b_squared", Q(25, 23), coh.integrate(coh.cup(b_cls, b_cls)))
    yield ("int_b_y2", Q(25, 23) * 6,
           coh.integrate(coh.cup(b_cls, lam2)))
    psi_c2 = coh.psi(c2, fc)
    rhs_c2 = Q(30) * (qt_exp + ab_f)
    yield ("psi_of_c2", True, psi_c2.terms == rhs_c2.terms)
    alpha_f = ReducedSymElement.monomial(fc, (ia,))
    beta_f = ReducedSymElement.monomial(fc, (ib,))
    lin = alpha_f + Q(5, 4) * beta_f
    rhs_td = Q(1, 2) * (lin * lin + Q(5, 2) * qt_exp)
    yield ("psi_of_sqrt_td", True, coh.psi(sqrt_td, fc).terms == rhs_td.terms)
    lam3 = coh.deg6_from_triple(sp, lam6, lam6, lam6)
    psi_l3 = coh.psi(lam3, fc)
    lam_lin = ReducedSymElement.zero(fc)
    for i, c in enumerate(lam6):
        if c:
            lam_lin = lam_lin + ReducedSymElement.monomial(fc, (1 + i,), c)
    yield ("psi_of_lambda_cubed", True,
           psi_l3.terms == (Q(18) * (lam_lin * beta_f)).terms)
    zero2 = coh.zero_class(sp)
    v_sky = coh.mukai_vector(sp, 0, (0,) * 23, zero2, zero2, 1)
    yield ("mukai_vector_skyscraper", True, v_sky == coh.point_class(sp, 1))
    v_o = coh.mukai_vector(sp, 1, (0,) * 23, zero2, zero2, 0)
    yield ("mukai_vector_structure_sheaf", True, v_o == sqrt_td)

    # --- LLV lines
    line_o, t_o, s_int = lines.ell_structure_sheaf(sp)
    yield ("ell_structure_sheaf_k32", LLVVector.make(4, (0,) * 23, 5),
           line_o.generator)
    for n in (3, 4, 5, 6):
        spn = make_space("HilbK3", n)
        ln, tn, sn = lines.ell_structure_sheaf(spn)
        yield (f"ell_structure_sheaf_hilb{n}",
               LLVVector.make(4, (0,) * spn.h2.rank, n + 3), ln.generator)
    kum = make_space("Kum", 2)
    lk, tk, sk = lines.ell_structure_sheaf(kum)
    yield ("ell_structure_sheaf_kummer2",
           LLVVector.make(4, (0,) * 7, 3), lk.generator)
    yield ("sawon_integral_k32", Q(25, 32), s_int)
    yield ("ell_skyscraper", sp.beta(), lines.ell_skyscraper(sp).generator)
    l_lag, _ = lines.ell_lagrangian(sp, lam6, 1)
    yield ("ell_lagrangian_fano", LLVVector.make(0, lam6, -3),
           l_lag.generator)
    lam_m10 = _lam(sp, 1, -5)  # square -10
    l_p2, _ = lines.ell_lagrangian(sp, lam_m10, Q(3, 5))
    yield ("ell_lagrangian_plane", LLVVector.make(0, lam_m10, 3),
           l_p2.generator)
    _, g_phi, rep = lines.ell_phiO(sp, 1, (0,) * 23)
    yield ("phiO_gamma0", gamma0, g_phi)
    eta26 = (2, 2) + (0,) * 20 + (1,)  # 2e1+2f1+delta, square 6
    h26 = sp.h2.vector(eta26)  # r0 = 2: h = eta
    _, _, _, _, chi26 = lines.chern_phiO(sp, 2, h26)
    yield ("phiO_chi_2_6", Q(6), chi26)
    eta222 = (2, 6) + (0,) * 20 + (1,)  # square 2*2*6 - 2 = 22
    h222 = sp.h2.vector(eta222)
    yield ("phiO_eta222_square", Q(22), lat.pair(h222, h222))
    _, _, _, _, chi222 = lines.chern_phiO(sp, 2, h222)
    yield ("phiO_chi_2_22", Q(10), chi222)
    _, _, _, _, chi10 = lines.chern_phiO(sp, 1, (0,) * 23)
    yield ("phiO_chi_1_0", Q(3), chi10)
    _, g_iso, rep_iso = lines.ell_isotropic(sp, 1, tuple(-c for c in sp.delta()), 2)
    yield ("isotropic_gamma_square", Q(0), sp.pair(g_iso, g_iso))
    yield ("isotropic_rank_div", (2, 1),
           (rep_iso["rank"], rep_iso["lambda_divisibility"]))
    quad_line = lines.ell_from_kappa(sp, 1, 0, 0, (0,) * 23)
    yield ("kappa_identity_line", True,
           quad_line.same_line(line_o))
    for r0 in (2, 3):
        xyz = lines.kappa_for_phiO(r0)
        yield (f"kappa_quadric_phiO_r{r0}", Q(0), lines.kappa_quadric(*xyz))
    yield ("kappa_tensor_structure_sheaf", True,
           lines.kappa_tensor_check((1, 0, 0), lines.kappa_for_phiO(2)))
    yield ("kappa_tensor_two_phiO", False,
           lines.kappa_tensor_check(lines.kappa_for_phiO(2),
                                    lines.kappa_for_phiO(3)))
    dual = lines.ell_dual(sp, _line_of(0, lam6, 3))
    yield ("ell_dual_negates_h2", LLVVector.make(0, tuple(-c for c in lam6), 3),
           dual.generator)
    lam_ek = tuple(2 * Q(c) for c in (1, 3) + (0,) * 20) + (Q(-3),)
    tw = lines.ell_twist(sp, _line_of(0, lam_ek, -3),
                         tuple(2 * c for c in lam_ek))
    yield ("twist_by_2lambda", LLVVector.make(0, lam_ek, 9), tw.generator)

    # --- arithmetic
    d6, _ = arith.lagrangian_data(sp, 6, 27)
    yield ("lagrangian_6_27", (Q(5, 8), Q(1)), (d6.c, d6.t))
    dm10, _ = arith.lagrangian_data(sp, -10, 3)
    yield ("lagrangian_m10_3", (Q(1, 8), Q(3, 5)), (dm10.c, dm10.t))
    d2, _ = arith.lagrangian_data(sp, 2, 192)
    yield ("lagrangian_2_192", (Q(5), Q(3)), (d2.c, d2.t))
    h20, h11, flag = arith.hodge_relations(27, 5)
    yield ("hodge_27_5", (Q(10), Q(25), False), (h20, h11, flag))
    hits1 = arith.arithmetic_search(60, 1000, 1)
    hits2 = arith.arithmetic_search(60, 1000, 2)
    all_hits = {(h.lambda_sq, h.c, h.t) for h in hits1 + hits2}
    yield ("search_contains_8_620", True, (8, Q(620), Q(69, 2)) in all_hits)
    yield ("search_contains_54_245o8", True,
           (54, Q(245, 8), Q(23, 3)) in all_hits)
    yield ("search_nothing_div5", True,
           all(h.lambda_sq % 5 != 0 for h in hits1 + hits2))
    cls6, den6 = arith.integral_lagrangian_class(sp, eta26)
    yield ("integral_class_div2_denominator", Q(8), den6)
    lam_d1 = _lam(sp, 1, 1)
    cls2, den2 = arith.integral_lagrangian_class(sp, lam_d1)
    yield ("integral_class_div1_denominator", Q(1), den2)
    verd = arith.untwisted_lift_check(4, 1, 2, 6, [(2, 22, 1), (2, 8, 1),
                                                   (1, 6, 1)])
    yield ("untwisted_r0_2_mod8", [True, False, False], verd)
    verd3 = arith.untwisted_lift_check(9, 3, 1, 2, [(1, 8, 1), (1, 4, 1)])
    yield ("untwisted_r0_3_mod3", [True, False], verd3)
    yield ("segre_enumeration", [(1, 0, 3), (2, 6, 6), (3, 2, 10)],
           arith.segre_enumerate(sp, 25))

    # --- monodromy
    bmu = b_lambda(k3, (1, 2) + (0,) * 20)
    lifted = mono.dmon_lift(bmu, 2).lifted
    btheta = b_lambda(sp, (1, 2) + (0,) * 21)
    yield ("lift_of_B_is_B_theta", True, lifted == btheta)
    pp = mono.phi_p(k3)
    yield ("phi_p_det", -1, pp.det())
    chi_inv = mono.chi_involution(sp)
    img = chi_inv.apply(LLVVector.make(4, (0,) * 23, 5))
    target = LLVVector.make(4, (0,) * 22 + (-4,), 1)
    yield ("chi_involution_swaps_structure_sheaf", True,
           _line_of_vec(img).same_line(_line_of_vec(target)))
    yield ("chi_involution_fixes_beta_line", True,
           _line_of_vec(chi_inv.apply(sp.beta())).same_line(
               _line_of_vec(sp.beta())))
    c1g = (1, 1) + (0,) * 20
    rank_b, c1_b, s_b, line_b = mono.bkr_bundle_c1(2, c1g, 2, "+")
    yield ("bkr_c1_r2_plus", tuple(2 * Q(c) for c in c1g) + (Q(-1),),
           c1_b)
    rank_b3, c1_b3, s_b3, _ = mono.bkr_bundle_c1(3, c1g, 2, "+")
    yield ("bkr_c1_r3_plus", tuple(3 * Q(c) for c in c1g) + (Q(-3),), c1_b3)
    rank_fz, c1_fz, line_fz = mono.fz_bundle_c1(1, (1, 1) + (0,) * 20, 2)
    yield ("fz_rank_c1", (2, tuple(2 * Q(c) for c in c1g) + (Q(-1),)),
           (rank_fz, c1_fz))
    ek1 = mono.ek_pipeline(1)
    yield ("ek1_rank", 45, ek1["rank"])
    ek2 = mono.ek_pipeline(2)
    yield ("ek2_rank_line", (180, Q(0)), (ek2["rank"], ek2["s"]))
    yield ("ek_twist_line_k2",
           LLVVector.make(0, lam_ek, 9), ek2["twist_line"].generator)


def _line_of(r, v, s):
    return lines.LLVLine(LLVVector.make(r, v, s))


def _line_of_vec(vec):
    return lines.LLVLine(vec)


def run_golden():
    """Run every check; returns (results, all_ok).

    A check that raises is reported as a named failure and stops the
    table (later checks typically depend on the same broken invariant).
    """
    results = []
    ok_all = True
    gen = golden_checks()
    while True:
        try:
            name, expected, actual = next(gen)
        except StopIteration:
            break
        except Exception as exc:  # surfaced, not masked
            results.append({
                "name": "internal_consistency",
                "ok": False,
                "expected": "no exception",
                "actual": f"{type(exc).__name__}: {exc}",
            })
            ok_all = False
            break
        ok = expected == actual
        ok_all = ok_all and ok
        results.append({
            "name": name,
            "ok": ok,
            "expected": _fmt(expected),
            "actual": _fmt(actual),
        })
    return results, ok_all
