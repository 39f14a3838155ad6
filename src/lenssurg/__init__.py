"""Exact-arithmetic certification and enumeration of lens-space surgeries
on L-space homology spheres."""

from .alex import (
    ReducedVector,
    SymmetricPoly,
    delta_lift,
    delta_relation_check,
    genus_from_reduced,
    os_form_check,
    phi,
    reduced_coeffs,
    torsion_from_poly,
    unreduce,
)
from .arith import dedekind_sum, is_square_mod, mod_inverse
from .casson import euler_check, lambda_dedekind, lambda_rustamov, ras_verify
from .certify import (
    Certificate,
    Rejection,
    SurgeryDatum,
    bounds_check,
    canonical_h,
    canonical_q,
    certify,
    derive_d,
    lift_to_d2,
)
from .dinv import d_lens
from .fgroup import (
    BINARY_ICOSAHEDRAL,
    GroupPresentation,
    abelianization_order,
    build_presentation,
    todd_coxeter,
)
from .search import (
    FAMILY_SPECS,
    SearchReport,
    conjecture_check,
    enumerate_search,
    families,
    h_class_set,
    plotdata,
)

__version__ = "0.1.0"
