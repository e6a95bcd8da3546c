"""LLV lines of the standard object families, with their certificates.

Each family of objects on a hyper-Kahler manifold that deforms in
codimension one determines a rational line in the extended LLV space.  The
constructors here produce a preferred generator together with whatever
exact certificates the family carries: congruence gates, lattice
membership and divisibility, Chern data and Euler characteristics, and the
quadric obstruction for rank-normalized characteristic classes.

Lines are compared projectively; generators follow the normalizations
under which the golden values are stated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd

from . import cohomology as coh
from .errors import DomainError, NotRealizableError, certify
from .harmonic import project_harmonic
from .isometry import b_lambda, duality_D
from .lattice import LLVSpace, LLVVector, lambda_coords
from .rational import fmt_q


@dataclass(frozen=True)
class LLVLine:
    generator: LLVVector

    def square(self, space: LLVSpace) -> Fraction:
        return space.pair(self.generator, self.generator)

    def same_line(self, other: "LLVLine") -> bool:
        a = self.generator.coords()
        b = other.generator.coords()
        # projective equality: a and b proportional
        ia = next((i for i, c in enumerate(a) if c != 0), None)
        ib = next((i for i, c in enumerate(b) if c != 0), None)
        if ia != ib:
            return False
        if ia is None:
            return True
        t = b[ia] / a[ia]
        return all(t * x == y for x, y in zip(a, b))

    def contains(self, v: LLVVector) -> bool:
        return self.same_line(LLVLine(v)) or v.is_zero()


def ell_structure_sheaf(space: LLVSpace):
    """Line of the structure sheaf, with the square-root-of-Todd certificate.

    Returns (line, t, sqrt_td_integral): the line is spanned by
    4 alpha + (n+3) beta on Hilbert schemes of K3 surfaces and by
    4 alpha + (n+1) beta on generalized Kummer type, t is the beta slope of
    the monic generator, and t^n = n! * integral(sqrt td) / c_X holds
    exactly against the known closed-form integrals.
    """
    n = space.n
    if space.dtype == "Hilb":
        t = Fraction(n + 3, 4)
        sqrt_td_integral = Fraction((n + 3) ** n, 4**n * factorial(n))
    elif space.dtype == "Kummer":
        t = Fraction(n + 1, 4)
        sqrt_td_integral = Fraction((n + 1) ** (n + 1), 4**n * factorial(n))
    else:
        raise DomainError("for a K3 surface use the Mukai-lattice conventions "
                          "directly; the structure-sheaf line is (1, 0, 1)")
    certify(t**n == Fraction(factorial(n)) * sqrt_td_integral / space.fujiki,
            "t^n = n! * integral(sqrt td) / c_X")
    k = space.h2.rank
    line = LLVLine(LLVVector.make(4, (0,) * k, 4 * t))
    return line, t, sqrt_td_integral


def ell_structure_sheaf_roundtrip(space: LLVSpace) -> LLVLine:
    """Same line recovered through the harmonic projection round trip."""
    from .harmonic import GeneratorContext, ReducedSymElement, recover_line

    line, t, _ = ell_structure_sheaf(space)
    ctx = GeneratorContext(space, (space.alpha(), space.beta()))
    lin = ReducedSymElement.monomial(ctx, (0,), 1) + \
        ReducedSymElement.monomial(ctx, (1,), t)
    h = Fraction(1, factorial(space.n)) * project_harmonic(lin.power(space.n))
    recovered = recover_line(h)
    out = LLVLine(recovered)
    certify(out.same_line(line),
            "the harmonic round trip recovers the structure-sheaf line")
    return out


def ell_skyscraper(space: LLVSpace) -> LLVLine:
    """Sky-scraper sheaves sit on the beta line for every deformation type."""
    return LLVLine(space.beta())


def ell_lagrangian(space: LLVSpace, lam, t):
    """Line of the structure sheaf of a subcanonical lagrangian.

    For a lagrangian Z with rank-one restriction on H^2 cut out by lam and
    with canonical slope t, the line is spanned by lam - t (lam,lam)/2 beta.
    The opposite sign convention also circulates; both variants are
    returned as (line, intro_variant).
    """
    lamv = space.h2.vector(lam)
    if all(c == 0 for c in lamv):
        raise DomainError("lam must be nonzero")
    t = Fraction(t)
    q = space.h2.pair(lamv, lamv)
    main = LLVLine(LLVVector.make(0, lamv, -t * q / 2))
    intro = LLVLine(LLVVector.make(0, lamv, t * q / 2))
    return main, intro


def _lambda_gate(space: LLVSpace, gamma: LLVVector, div: int) -> dict:
    """Require gamma in Lambda, primitive there, of divisibility ``div``.

    All three are read off one coordinate vector, ``lambda_coords(gamma)``.
    Returns the report entries the gates certify.
    """
    w = lambda_coords(space, gamma)
    if w is None:
        raise NotRealizableError(
            "gamma must lie in the integral LLV lattice", "membership failed"
        )
    if not (any(w) and space.full.is_primitive(w)):
        raise NotRealizableError("gamma must be primitive in the integral "
                                 "LLV lattice")
    got = space.full.divisibility(w)
    if got != div:
        raise NotRealizableError(
            f"gamma must have divisibility {div} in the integral LLV lattice",
            f"got {fmt_q(got)}",
        )
    return {"lambda_member": True, "lambda_divisibility": div}


def _phiO_eta(space: LLVSpace, r0: int, h):
    """Split c1 = (r0 / gcd(r0, 2)) eta with eta integral, or reject."""
    hv = space.h2.vector(h)
    d = Fraction(r0, gcd(r0, 2))
    eta = tuple(c / d for c in hv)
    if not space.h2.is_integral(eta):
        raise NotRealizableError(
            "c1(F) = (r0 / gcd(r0, 2)) * eta with eta integral",
            f"r0 = {fmt_q(r0)}",
        )
    return hv, eta


def ell_phiO(space: LLVSpace, r0: int, h):
    """Line and certificates of a rank r0^2 transform of a structure sheaf.

    Gates, in order: the congruence on (eta, eta) forced by integrality of
    the Euler characteristic (r0 | 5 + 2(eta,eta) for odd r0, and
    2 r0 | 5 + (eta,eta)/2 for even r0, the even case sharpened by lattice
    membership), then membership, primitivity and divisibility 2 of gamma
    in the integral LLV lattice.  gamma has square -10 identically.

    Returns (line, gamma, report dict).
    """
    coh._require_k32(space)
    if r0 < 1:
        raise DomainError("r0 must be a positive integer")
    hv, eta = _phiO_eta(space, r0, h)
    eta_sq = space.h2.pair(eta, eta)
    if r0 % 2 == 1:
        cond = (f"r0 | (5 + 2 (eta, eta)): {fmt_q(r0)} | "
                f"(5 + 2 ({fmt_q(eta_sq)}))")
        if (5 + 2 * eta_sq) % r0 != 0:
            raise NotRealizableError(cond)
    else:
        cond = (f"r0 | (5 + (eta, eta)/2): {fmt_q(r0)} | "
                f"(5 + {fmt_q(eta_sq)}/2)")
        if (5 + eta_sq / 2) % r0 != 0:
            raise NotRealizableError(cond)
        # lattice membership sharpens the even-rank modulus to 2 r0
        if (5 + eta_sq / 2) % (2 * r0) != 0:
            raise NotRealizableError(
                f"2 r0 | (5 + (eta, eta)/2): {fmt_q(2 * r0)} | "
                f"(5 + {fmt_q(eta_sq)}/2)",
                "required for integral LLV lattice membership",
            )

    h_sq = space.h2.pair(hv, hv)
    s = Fraction(5 * r0**2 + 2 * h_sq, 2 * r0**3)
    gamma = LLVVector.make(2 * r0, tuple(2 * c / r0 for c in hv), s)
    certify(space.pair(gamma, gamma) == -10, "gamma^2 = -10")
    report = {
        "rank": r0**2,
        "eta_sq": eta_sq,
        "congruence": cond,
        "gamma_sq": Fraction(-10),
    } | _lambda_gate(space, gamma, 2)
    return LLVLine(gamma), gamma, report


def chern_phiO(space: LLVSpace, r0: int, h):
    """Chern data of the rank r0^2 family: (ch2, ch3, ch4, kappa, chi).

    Everything is forced by the rank and first Chern class; the projected
    Mukai vector is rechecked against (gamma^2 + 10 qt)/8 in the reduced
    symmetric algebra.
    """
    line, gamma, report = ell_phiO(space, r0, h)
    hv = space.h2.vector(h)
    h_sq = space.h2.pair(hv, hv)
    c2 = coh.c2_class(space)
    h_cls = coh.h2_class(space, hv)
    hh = coh.cup(h_cls, h_cls)
    ch2 = Fraction(1, 2 * r0**2) * hh + Fraction(1 - r0**2, 24) * c2
    h3 = coh.deg6_from_triple(space, hv, hv, hv)
    hc2 = coh.cup(h_cls, c2)
    ch3 = Fraction(1, 6 * r0**4) * h3 + Fraction(1 - r0**2, 24 * r0**2) * hc2
    ch4 = Fraction(
        4 * h_sq**2 + 20 * r0**2 * (1 - r0**2) * h_sq
        + 25 * r0**4 - 46 * r0**6 + 21 * r0**8,
        32 * r0**6,
    )
    kappa = coh.scalar_class(space, r0**2) + Fraction(1 - r0**2, 24) * c2 \
        + coh.point_class(space, Fraction(21 * r0**4 + 25 - 46 * r0**2, 32 * r0**2))
    chi_val = Fraction(
        4 * h_sq**2 + 20 * h_sq * r0**2 * (r0**2 + 1)
        + 25 * r0**4 * (r0**4 + 1) + 46 * r0**6,
        32 * r0**6,
    )
    ch = coh.scalar_class(space, r0**2) + coh.h2_class(space, hv) + ch2 + ch3 \
        + coh.point_class(space, ch4)
    certify(coh.chi(space, ch) == chi_val, "chi through the ring")
    certify(chi_val.denominator == 1, "chi is an integer")

    # cross-check against the harmonic picture
    from .harmonic import expand_qtilde, ReducedSymElement, full_context
    ctx = full_context(space)
    v = coh.cup_manifold(ch, coh.todd_data(space)[1])
    lhs = coh.psi(v, ctx)
    g1 = coh.llv_vector_to_reduced(ctx, gamma)
    rhs = Fraction(1, 8) * expand_qtilde(
        g1 * g1 + ReducedSymElement.qtilde(ctx, 1, 10)
    )
    certify(lhs.terms == rhs.terms,
            "the Mukai vector projects to (gamma^2 + 10 qt)/8")
    return ch2, ch3, ch4, kappa, chi_val


def ell_isotropic(space: LLVSpace, r0: int, h, n: int | None = None):
    """Isotropic line of a transform of a sky-scraper sheaf, any n >= 2.

    gamma = r0 alpha + h / (n! r0^(n-1)) + (h,h) / (2 (n!)^2 r0^(2n-1)) beta
    is isotropic identically.  For n = 2 the integral gates are enforced:
    gamma lies in the integral LLV lattice, is primitive there, and has
    divisibility 1; equivalently h = r0 gcd(2, r0) psi with psi integral,
    2 | div(psi) when r0 is odd, (2 r0 / gcd^2) | (psi, psi), and
    (psi, psi) gcd^2 / (2 r0) = -r0 (mod 4).  (The minus sign is forced by
    the lattice membership computation; see the sign worked out from
    B_{delta/2}.)

    Returns (line, gamma, report).
    """
    if r0 < 1:
        raise DomainError("r0 must be a positive integer")
    n = space.n if n is None else n
    if n != space.n:
        raise DomainError("n must match the space")
    hv = space.h2.vector(h)
    h_sq = space.h2.pair(hv, hv)
    nf = factorial(n)
    lam = tuple(c / (nf * r0 ** (n - 1)) for c in hv)
    s = Fraction(h_sq, 2 * nf**2 * r0 ** (2 * n - 1))
    gamma = LLVVector.make(r0, lam, s)
    certify(space.pair(gamma, gamma) == 0, "gamma is isotropic")
    report = {"rank": nf * r0**n, "gamma_sq": Fraction(0)}
    if n == 2:
        g = gcd(2, r0)
        psi_den = r0 * g
        psiv = tuple(c / psi_den for c in hv)
        if not space.h2.is_integral(psiv):
            raise NotRealizableError(
                "c1(F) = r0 gcd(2, r0) psi with psi integral"
            )
        psi_sq = space.h2.pair(psiv, psiv)
        if r0 % 2 == 1:
            div_psi = space.h2.divisibility(psiv) if any(psiv) else 0
            if any(psiv) and div_psi % 2 != 0:
                raise NotRealizableError("2 | div(psi) for odd r0",
                                         f"div(psi) = {fmt_q(div_psi)}")
        mod = Fraction(2 * r0, g * g)
        if psi_sq % mod != 0:
            raise NotRealizableError(
                f"(2 r0 / gcd(2, r0)^2) | (psi, psi): {fmt_q(mod)} | "
                f"{fmt_q(psi_sq)}"
            )
        cong = Fraction(psi_sq * g * g, 2 * r0)
        if (cong + r0) % 4 != 0:
            raise NotRealizableError(
                "(psi, psi) gcd^2 / (2 r0) = -r0 (mod 4)",
                f"got {fmt_q(cong)} vs -{fmt_q(r0)}",
            )
        report |= _lambda_gate(space, gamma, 1)
        report["psi_sq"] = psi_sq
    return LLVLine(gamma), gamma, report


def chern_isotropic_k32(space: LLVSpace, r0: int, h):
    """Chern data (ch2, ch3, ch4, chi) of the rank 2 r0^2 isotropic family."""
    coh._require_k32(space)
    line, gamma, report = ell_isotropic(space, r0, h, 2)
    hv = space.h2.vector(h)
    h_sq = space.h2.pair(hv, hv)
    c2 = coh.c2_class(space)
    h_cls = coh.h2_class(space, hv)
    hh = coh.cup(h_cls, h_cls)
    ch2 = Fraction(1, 4 * r0**2) * hh - Fraction(r0**2, 12) * c2
    h3 = coh.deg6_from_triple(space, hv, hv, hv)
    hc2 = coh.cup(h_cls, c2)
    ch3 = Fraction(1, 24 * r0**4) * h3 - Fraction(1, 24) * hc2
    ch4 = Fraction(h_sq**2, 64 * r0**6) - Fraction(5 * h_sq, 16 * r0**2) \
        + Fraction(21 * r0**2, 16)
    chi_val = (Fraction(h_sq + 10 * r0**4, 8 * r0**3)) ** 2
    ch = coh.scalar_class(space, 2 * r0**2) + coh.h2_class(space, hv) + ch2 \
        + ch3 + coh.point_class(space, ch4)
    certify(coh.chi(space, ch) == chi_val, "chi through the ring")
    certify(chi_val.denominator == 1, "chi is an integer")
    return ch2, ch3, ch4, chi_val


def kappa_quadric(x, y, z) -> Fraction:
    """Value of the codimension-one deformability quadric 450 y^2 + 3xy - xz."""
    x, y, z = Fraction(x), Fraction(y), Fraction(z)
    return 450 * y**2 + 3 * x * y - x * z


def ell_from_kappa(space: LLVSpace, x, y, z, c1):
    """Line from a rank-normalized class kappa = x + y c2 + z [pt].

    If the quadric 450 y^2 + 3 x y - x z = 0 holds the object deforms in
    codimension one and its line is
    x^2 alpha + x c1 + (5 x^2/4 + 30 x y + (c1, c1)/2) beta; otherwise the
    outcome string "codim>1" is returned in place of a line.
    """
    coh._require_k32(space)
    x, y, z = Fraction(x), Fraction(y), Fraction(z)
    if x == 0:
        raise DomainError("kappa classes of rank zero are not supported here")
    c1v = space.h2.vector(c1)
    if kappa_quadric(x, y, z) != 0:
        return "codim>1"
    q = space.h2.pair(c1v, c1v)
    s = Fraction(5, 4) * x**2 + 30 * x * y + q / 2
    return LLVLine(LLVVector.make(x**2, tuple(x * c for c in c1v), s))


def kappa_for_phiO(r0: int) -> tuple[Fraction, Fraction, Fraction]:
    """The (x, y, z) of the rank r0^2 structure-sheaf transforms."""
    return (
        Fraction(r0**2),
        Fraction(1 - r0**2, 24),
        Fraction(21 * r0**4 + 25 - 46 * r0**2, 32 * r0**2),
    )


def kappa_tensor_check(t1, t2) -> bool:
    """Whether a tensor product of two codim-1 families stays codim-1.

    Both triples must satisfy the quadric with nonzero x.  The product
    triple is (x1 x2, x1 y2 + x2 y1, x1 z2 + x2 z1 + 828 y1 y2); it
    satisfies the quadric exactly when y1 y2 = 0, and that boolean is
    returned.
    """
    (x1, y1, z1) = (Fraction(v) for v in t1)
    (x2, y2, z2) = (Fraction(v) for v in t2)
    for (x, y, z) in ((x1, y1, z1), (x2, y2, z2)):
        if x == 0:
            raise DomainError("x components must be nonzero")
        if kappa_quadric(x, y, z) != 0:
            raise DomainError("input triple violates the quadric")
    prod = (x1 * x2, x1 * y2 + x2 * y1, x1 * z2 + x2 * z1 + 828 * y1 * y2)
    ok = kappa_quadric(*prod) == 0
    certify(ok == (y1 * y2 == 0), "the product quadric vanishes iff y1 y2 = 0")
    return ok


def ell_dual(space: LLVSpace, line: LLVLine) -> LLVLine:
    return LLVLine(duality_D(space).apply(line.generator))


def ell_twist(space: LLVSpace, line: LLVLine, mu) -> LLVLine:
    return LLVLine(b_lambda(space, mu).apply(line.generator))


def llv_tensor_plane(space: LLVSpace, factors):
    """Plane containing the LLV data of a tensor product.

    factors is a list of (c1, r) pairs with r nonzero; the plane is the
    image of span{alpha, beta} under B of the slope sum, returned as its
    two spanning vectors, along with the slope-sum vector defining the
    graph maps lam -> (lam, c1_i / r_i).
    """
    k = space.h2.rank
    total = [Fraction(0)] * k
    slopes = []
    for c1, r in factors:
        r = Fraction(r)
        if r == 0:
            raise DomainError("factors must have nonzero rank")
        c1v = space.h2.vector(c1)
        slope = tuple(c / r for c in c1v)
        slopes.append(slope)
        total = [a + b for a, b in zip(total, slope)]
    b = b_lambda(space, total)
    return (b.apply(space.alpha()), b.apply(space.beta())), tuple(slopes)
