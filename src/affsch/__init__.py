"""Exact combinatorics of Schubert-variety singularities in twisted affine Grassmannians."""

from affsch.rootsys import (
    Coweight,
    CorootVector,
    FiniteRootSystem,
    build_root_system,
    dominant_rep,
    pairing,
    short_dominant_coroot,
    two_rho_pairing,
)
from affsch.twist import (
    ABSOLUTELY_SPECIAL,
    OTHER_SPECIAL,
    RelativeAffineRoot,
    TwistedDatum,
    affine_roots_negative_at_vertex,
    build_twisted,
    cartan_sigma_dim,
    sigma_affine_to_relative,
    sigma_levels_at_degree,
    twisted_datum,
    validate_relative_root,
)
from affsch.schubert import (
    DegenerationEdge,
    KVector,
    SmoothLocusReport,
    SmoothnessCertificate,
    StratumReport,
    certificate,
    dominant_below,
    k_alpha,
    k_vector,
    minimal_degenerations,
    root_tangent_bound,
    smooth_locus_report,
)

from affsch.loopalg import (
    ChevalleyAlgebra,
    CycScalar,
    InvariantBasisReport,
    LaurentMatrix,
    LoopVector,
    Sigma0Map,
    TwistedLoopAlgebra,
    ad_exp,
    build_chevalley,
    cartan_component,
    cartan_direction,
    loop_context,
    make_e_a,
    matrix_realization,
    realize,
    sigma0_automorphism,
    sigma_action,
    verify_invariant_basis,
    verify_sl2_factorization,
)

__version__ = "0.1.0"
