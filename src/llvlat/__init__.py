"""Exact rational toolkit for the LLV lattices of hyper-Kahler manifolds.

Covers the BBF lattices of the K3[n] and generalized Kummer deformation
types, the extended LLV space and its isometries, the harmonic symmetric
calculus, the even cohomology ring of K3[2] type, LLV lines of the standard
sheaf families with their congruence certificates, lagrangian admissibility
arithmetic, and the derived-monodromy actions with their bundle invariants.

Everything is exact: all arithmetic is over fractions.Fraction, and no
floating point is used anywhere.
"""

from .errors import (
    CertificateError,
    DomainError,
    InadmissibleError,
    InconclusiveError,
    LLVError,
    NotRealizableError,
    ParseError,
    certify,
)
from .lattice import (
    LLVSpace,
    LLVVector,
    QuadLattice,
    div_in_lambda,
    in_integral_llv,
    is_primitive_in_lambda,
    lambda_coords,
    make_lattice,
    make_space,
    orbit_invariants_equal,
)
from .isometry import (
    Isometry,
    b_lambda,
    det_and_orientation,
    duality_D,
    eta_extend,
    identity_isometry,
    isometry_from_rows,
    reflection,
)
from .harmonic import (
    GeneratorContext,
    ReducedSymElement,
    delta_apply,
    expand_qtilde,
    full_context,
    project_harmonic,
    psi_power_line,
    recover_line,
)
from .cohomology import (
    CohClass,
    b_invariant_class,
    c2_class,
    chi,
    cup,
    cup_manifold,
    deg6_from_triple,
    h2_class,
    integrate,
    mukai_vector,
    point_class,
    psi,
    scalar_class,
    sym2_class,
    todd_data,
    zero_class,
)
from .lines import (
    LLVLine,
    chern_isotropic_k32,
    chern_phiO,
    ell_dual,
    ell_from_kappa,
    ell_isotropic,
    ell_lagrangian,
    ell_phiO,
    ell_skyscraper,
    ell_structure_sheaf,
    ell_twist,
    kappa_for_phiO,
    kappa_quadric,
    kappa_tensor_check,
    llv_tensor_plane,
)
from .arith import (
    LagrangianData,
    SearchHit,
    arithmetic_search,
    hodge_relations,
    integral_lagrangian_class,
    lagrangian_data,
    segre_enumerate,
    untwisted_lift_check,
)
from .monodromy import (
    DMonLift,
    bkr_bundle_c1,
    chi_involution,
    chi_lagrangian_twist,
    dmon_lift,
    ek_pipeline,
    fz_bundle_c1,
    phi_p,
    theta_embed,
)

__version__ = "0.1.0"
