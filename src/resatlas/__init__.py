"""resatlas: exact analysis of length-3 free-resolution formats via the
Kac-Moody combinatorics of T_{p,q,r} graphs.

Everything is exact (integers and rationals); no floating point anywhere.
"""

from .exact import ExactMatrix, MPoly, seeded_random_point
from .formats import (
    ResolutionFormat,
    TpqrClass,
    classify,
    classify_format,
    cyclic_exists,
    derive_ranks,
    format_exists,
    noetherian_generic_ring,
    tpqr_cartan_matrix,
)
from .kacmoody import (
    Root,
    TpqrGraph,
    bgg_euler_check,
    bgg_initial_terms,
    character_series,
    defect_graded_dims,
    enumerate_WS,
    enumerate_roots,
    kostant_weights,
    verify_denominator_identity,
    weyl_dim,
    weyl_kac_character,
)
from .rings import (
    GLWeightQuadruple,
    MuIndex,
    dictionary_crosscheck,
    kstar_terms,
    ra_component,
    ra_enumerate,
    rspec_component,
    semigroup_generators,
)
from .complexes import (
    FreeComplex,
    be_multipliers,
    be_rank_check,
    d4_relation_check,
    d4_split_model,
    koszul_complex,
    monomial_complex,
    q1_coefficients,
    thm112_build,
    verify_complex,
)
from .schur import g1_dim_formula, g2_dim_formula, schur_dim

__version__ = "0.1.0"

__all__ = [
    "ExactMatrix",
    "FreeComplex",
    "GLWeightQuadruple",
    "MPoly",
    "MuIndex",
    "ResolutionFormat",
    "Root",
    "TpqrClass",
    "TpqrGraph",
    "be_multipliers",
    "be_rank_check",
    "bgg_euler_check",
    "bgg_initial_terms",
    "character_series",
    "classify",
    "classify_format",
    "cyclic_exists",
    "d4_relation_check",
    "d4_split_model",
    "defect_graded_dims",
    "derive_ranks",
    "dictionary_crosscheck",
    "enumerate_WS",
    "enumerate_roots",
    "format_exists",
    "g1_dim_formula",
    "g2_dim_formula",
    "koszul_complex",
    "kostant_weights",
    "kstar_terms",
    "monomial_complex",
    "noetherian_generic_ring",
    "q1_coefficients",
    "ra_component",
    "ra_enumerate",
    "rspec_component",
    "schur_dim",
    "seeded_random_point",
    "semigroup_generators",
    "thm112_build",
    "tpqr_cartan_matrix",
    "verify_complex",
    "verify_denominator_identity",
    "weyl_dim",
    "weyl_kac_character",
]
