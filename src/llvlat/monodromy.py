"""Derived-monodromy actions on Hilbert-scheme LLV lattices.

An isometry g of the K3 Mukai lattice acts on the extended LLV space of the
n-th Hilbert scheme through

    lift(g) = det(g)^(n+1) * (B_{-delta/2} o eta_g o B_{delta/2}),

where eta_g extends g by fixing the exceptional class delta.  The
BKR-conjugate of tensoring by the sign character acts as (-1)^(n+1) times
the reflection in the hyperplane orthogonal to u0 = (0, delta, n-1); it is
an integral involution commuting with every lift.

The module also packages the bundle invariants these actions produce: the
first Chern classes of symmetrized exterior-power bundles, of transforms of
sky-scraper sheaves, and the end-to-end pipeline computing the rank, first
Chern class and LLV line of the reflexive transforms of twisted lagrangian
line bundles on the degree-six example, where the lagrangian surface is the
Fano variety of lines of a cubic threefold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from . import arith, cohomology as coh
from .errors import DomainError, certify
from .isometry import (Isometry, _isometry, _scaled_identity, b_lambda, eta_extend,
                       reflection)
from .lattice import LLVSpace, LLVVector, make_space
from .lines import LLVLine, ell_lagrangian, ell_twist


def phi_p(k3: LLVSpace) -> Isometry:
    """Spherical-twist action on the K3 Mukai lattice: (r, a, s) -> (s, -a, r)."""
    if k3.dtype != "K3":
        raise DomainError("phi_p lives on the K3 space")
    rows = _scaled_identity(k3.dim, -1)
    rows[0], rows[-1] = ((k3.dim - 1, 1),), ((0, 1),)
    return _isometry(k3, rows, 1)


@dataclass(frozen=True)
class DMonLift:
    g: Isometry
    n: int
    lifted: Isometry


@lru_cache(maxsize=32)
def _b_half_delta_pair(n: int) -> tuple[Isometry, Isometry]:
    """(B_{-delta/2}, B_{delta/2}) on the n-th Hilbert-scheme space."""
    target = make_space("HilbK3", n)
    half = tuple(Fraction(1, 2) * c for c in target.delta())
    return b_lambda(target, tuple(-c for c in half)), b_lambda(target, half)


def dmon_lift(g: Isometry, n: int) -> DMonLift:
    """Lift a K3 Mukai-lattice isometry to the Hilbert-scheme LLV space."""
    if g.space.dtype != "K3":
        raise DomainError("dmon_lift expects an isometry of the K3 space")
    if n < 2:
        raise DomainError("n must be at least 2")
    b_minus, b_plus = _b_half_delta_pair(n)
    core = b_minus.compose(eta_extend(g, n).compose(b_plus))
    if g.det() ** (n + 1) == -1:
        core = -core
    return DMonLift(g, n, core)


@lru_cache(maxsize=32)
def chi_involution(space: LLVSpace) -> Isometry:
    """Sign-character action: (-1)^(n+1) times reflection orthogonal to u0.

    It depends only on the space, so it is built and Gram-checked once.
    """
    if space.dtype != "Hilb" or space.n < 2:
        raise DomainError("chi involution lives on Hilbert schemes, n >= 2")
    # (u0, u0) = 2 - 2n, so the reflection is x -> x + (x, u0)/(n-1) u0
    refl = reflection(space, LLVVector.make(0, space.delta(), space.n - 1))
    return refl if space.n % 2 else -refl


def theta_embed(k3: LLVSpace, target: LLVSpace, x: LLVVector) -> LLVVector:
    """Extension of the H^2 embedding fixing alpha and beta."""
    pad = target.h2.rank - k3.h2.rank
    return LLVVector.make(x.r, x.v + (0,) * pad, x.s)


def bkr_bundle_c1(r0: int, c1G, n: int, sign: str):
    """Invariants of the symmetrized n-fold box product of a rigid bundle.

    sign "+" is the plain symmetrization, "-" the sign-character twist.
    Returns (rank, c1, s, line) on the Hilbert-scheme space: the divisor
    correction is t = -r0^(n-1)(r0 -+ 1)/2 and the beta coefficient is
    s = r0^(n-2) ((c1G, c1G) + 2)/2 + r0^n (n-1)/4 + (n-1) t.
    """
    if r0 < 1 or n < 2:
        raise DomainError("need r0 >= 1 and n >= 2")
    if sign not in ("+", "-"):
        raise DomainError("sign must be '+' or '-'")
    k3 = make_space("K3")
    target = make_space("HilbK3", n)
    c1G = k3.h2.vector(c1G)
    q = k3.h2.pair(c1G, c1G)
    if sign == "+":
        t = -Fraction(r0 ** (n - 1) * (r0 - 1), 2)
    else:
        t = -Fraction(r0 ** (n - 1) * (r0 + 1), 2)
    rank = r0**n
    pad = target.h2.rank - k3.h2.rank
    c1 = tuple(r0 ** (n - 1) * c for c in c1G) + (0,) * (pad - 1) + (t,)
    s = Fraction(r0 ** (n - 2)) * (q + 2) / 2 + Fraction(rank * (n - 1), 4) \
        + (n - 1) * t
    line = LLVLine(LLVVector.make(rank, c1, s))
    return rank, c1, s, line


def fz_bundle_c1(r0: int, lam, n: int):
    """Rank and c1 of the transform of a sky-scraper by a K3 moduli kernel.

    lam is the first Chern class of the rank r0 fiber bundles on the K3
    side (an isotropic Mukai vector (r0, lam, (lam,lam)/2r0)); the output
    bundle has rank n! r0^n and c1 = n! r0^(n-1) (theta(lam) - r0 delta/2),
    and its LLV line is the B_{-delta/2} image of the embedded Mukai
    vector, which matches the isotropic-line normal form.
    """
    if r0 < 1 or n < 2:
        raise DomainError("need r0 >= 1 and n >= 2")
    k3 = make_space("K3")
    target = make_space("HilbK3", n)
    lamv = k3.h2.vector(lam)
    q = k3.h2.pair(lamv, lamv)
    nf = factorial(n)
    rank = nf * r0**n
    pad = target.h2.rank - k3.h2.rank
    c1 = tuple(nf * r0 ** (n - 1) * c for c in lamv) + (0,) * (pad - 1) \
        + (-Fraction(nf * r0**n, 2),)
    v = LLVVector.make(r0, lamv, Fraction(q, 2 * r0))
    certify(k3.pair(v, v) == 0, "the K3 Mukai vector is isotropic")
    gen = _b_half_delta_pair(n)[0].apply(theta_embed(k3, target, v))
    # normal form: gamma = r0 alpha + c1/(n! r0^(n-1)) + ... beta
    gamma = LLVVector.make(
        r0,
        tuple(c / (nf * r0 ** (n - 1)) for c in c1),
        Fraction(target.h2.pair(c1, c1), 2 * nf**2 * r0 ** (2 * n - 1)),
    )
    certify(LLVLine(gen).same_line(LLVLine(gamma)),
            "the transform line is the isotropic normal form")
    return rank, c1, LLVLine(gen)


# rank of the auxiliary quotient sheaf in the degree-six pipeline; an
# intersection-theoretic input (the lagrangian meets the incidence divisor
# along a 12-sheeted cover), recorded rather than derived
_EK_QUOTIENT_RANK = 12


def ek_pipeline(k: int):
    """Invariants of the reflexive transforms E_k in the degree-six example.

    The lagrangian Z is the Fano surface of lines on a cubic threefold,
    embedded in the Hilbert square of a degree-six K3; lam = 2 h - 3 delta
    with (h, h) = 6, and the line bundle O_Z(k) has line (0, lam, 6k - 3).
    The transform chain is: twist by k lam, then the lift of the spherical
    twist, then the sign-character involution.  The rank comes from the
    section-count bookkeeping chi(O_Z(k+1)) + chi(O_Z(k)) - 12, with the
    Euler characteristics computed in the cohomology ring; the first Chern
    class is read off the line scaled to that rank.

    Returns a dict with rank, c1, s, line, and the intermediate twist line.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    space = make_space("HilbK3", 2)
    k3 = make_space("K3")
    h_k3 = (1, 3) + (0,) * 20  # e1 + 3 f1, square 6
    h_tilde = h_k3 + (0,)
    lam = tuple(2 * Fraction(c) for c in h_tilde[:-1]) + (Fraction(-3),)
    certify(space.h2.pair(lam, lam) == 6, "lambda^2 = 6")

    line0, _ = ell_lagrangian(space, lam, 1)
    certify(line0.generator == LLVVector.make(0, lam, -3),
            "the lagrangian line is (0, lambda, -3)")
    twisted = ell_twist(space, line0, tuple(k * c for c in lam))
    certify(twisted.generator == LLVVector.make(0, lam, 6 * k - 3),
            "the twisted line is (0, lambda, 6k - 3)")

    lift = dmon_lift(phi_p(k3), 2).lifted
    after_p = lift.apply(twisted.generator)
    after_chi = chi_involution(space).apply(after_p)

    rank = _ek_rank(space, lam, k)
    gen = (Fraction(rank) / after_chi.r) * after_chi
    line = LLVLine(gen)
    return {
        "rank": rank,
        "c1": gen.v,
        "s": gen.s,
        "line": line,
        "twist_line": twisted,
        "h_tilde": h_tilde,
    }


def _ek_rank(space: LLVSpace, lam, k: int) -> int:
    """chi(O_Z(k+1)) + chi(O_Z(k)) - 12, via the ring."""
    chi_k = chi_lagrangian_twist(space, lam, 27, k)
    chi_k1 = chi_lagrangian_twist(space, lam, 27, k + 1)
    rank = chi_k1 + chi_k - _EK_QUOTIENT_RANK
    certify(rank.denominator == 1, "the E_k rank is an integer")
    return int(rank)


def chi_lagrangian_twist(space: LLVSpace, lam, chiZ: int, k: int) -> Fraction:
    """Euler characteristic of O_Z(k) for a lagrangian with invariants.

    Assembles ch(i_* O_Z) exp(k lam) degree by degree (the curvature
    exponential never overflows the top degree against a torsion class) and
    integrates against the Todd class.
    """
    q = space.h2.pair(lam, lam)
    data, (ch2, ch3, ch4) = arith.lagrangian_data(space, q, chiZ, lam=lam)
    lam_cls = coh.h2_class(space, lam)
    lam2 = coh.cup(lam_cls, lam_cls)
    kf = Fraction(k)
    deg4 = ch2
    deg6 = ch3 + kf * coh.cup(ch2, lam_cls)
    deg8 = coh.point_class(space, ch4) + kf * coh.cup(ch3, lam_cls) \
        + (kf**2 / 2) * coh.cup(ch2, lam2)
    return coh.chi(space, deg4 + deg6 + deg8)
