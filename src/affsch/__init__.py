"""Exact combinatorics of Schubert-variety singularities in twisted affine Grassmannians.

affsch.loopalg, the largest module and read only by loopcheck and the loop
suites of verify, is imported on first use: affsch.loopalg, or a name below
re-exported from it, loads it then, so analyze and poset never compile it.
"""

import importlib

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

# served from affsch.loopalg by __getattr__
_LOOPALG_NAMES = (
    "ChevalleyAlgebra",
    "CycScalar",
    "InvariantBasisReport",
    "LaurentMatrix",
    "LoopVector",
    "Sigma0Map",
    "TwistedLoopAlgebra",
    "ad_exp",
    "build_chevalley",
    "cartan_component",
    "cartan_direction",
    "loop_context",
    "make_e_a",
    "matrix_realization",
    "realize",
    "sigma0_automorphism",
    "sigma_action",
    "verify_invariant_basis",
    "verify_sl2_factorization",
)

__version__ = "0.1.0"


def __getattr__(name: str):
    """affsch.loopalg and its re-exported names, importing the module on first use (PEP 562)."""
    if name == "loopalg" or name in _LOOPALG_NAMES:
        # importlib, not "from affsch import loopalg", which would call this again
        loopalg = importlib.import_module("affsch.loopalg")
        return loopalg if name == "loopalg" else getattr(loopalg, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
