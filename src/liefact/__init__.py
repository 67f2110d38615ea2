"""liefact: exact computations with structure-constant Lie algebras.

Twisted derivations, matched pairs and bicrossed products, deformation maps
and r-deformations, complement classification with factorization indices,
and isomorphism/automorphism search, all over the rationals or GF(p) with
exact arithmetic throughout.
"""

from . import errors
from .exactmath import Field, Matrix, Scalar, enumerate_vectors
from .liecore import (
    BilinearForm,
    LieAlgebra,
    LinearMap,
    Subspace,
    center,
    derived_series,
    direct_product,
    dump_algebra,
    invariant_bilinear_forms,
    is_perfect,
    is_product_structure,
    load_algebra,
    lower_central_series,
    self_dual,
    solvable_length,
    split_product_structure,
)
from .derivations import (
    TnElement,
    TwistedDerivation,
    derivation_space,
    enumerate_twisted_derivations,
    inner_derivation,
    is_inner,
    tn_element,
    tn_to_twisted,
    tn_validate,
    twisted_derivations_for_lambda,
)
from .matched import (
    Factorization,
    MatchedPair,
    bicrossed_product,
    canonical_matched_pair,
    canonical_pair_L,
    canonical_pair_m,
    check_matched_pair,
    dump_pair,
    h5_derivation_pattern,
    h5_noninner_derivation,
    h_lambda_delta,
    load_pair,
    make_L,
    make_Lalpha,
    make_h5,
    make_l,
    make_l1,
    make_l1_char2,
    make_l2,
    make_l2_char2,
    make_l3,
    make_l4,
    make_m,
    make_sl2,
    pair_from_twisted,
)
from .deform import (
    ComplementReport,
    DeformationMap,
    classify_complements,
    closed_form_defmaps_L,
    closed_form_defmaps_m,
    enumerate_deformation_maps,
    is_deformation_map,
    make_h_a,
    make_l_a,
    make_lbar_a,
    make_lbarp_b,
    make_lbarpp_c,
    make_lp_b,
    make_lpp_b,
    r_deformation,
)
from .iso import (
    AutTriple,
    Fingerprint,
    IsoResult,
    are_isomorphic,
    aut_enumerate,
    aut_identity,
    aut_inverse,
    aut_multiply,
    enumerate_aut_triples,
    fingerprint,
    gcheck_inner,
    is_valid_triple,
    phi_from_triple,
    semidirect_embed,
    semidirect_multiply,
    verify_iso,
)

__version__ = "0.1.0"
