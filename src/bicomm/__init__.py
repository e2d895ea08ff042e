"""Exact invariant theory of free bicommutative algebras over Q.

The package realizes the rank-d free bicommutative algebra concretely,
computes invariants of finite rational matrix groups through the Reynolds
operator, evaluates the closed Molien-type series formulas as exact
rational functions, and cross-validates closed formulas against degree-wise
brute-force linear algebra.  All arithmetic is exact: no floating point.
"""

from .algebra_core import (
    BicommElement,
    UniPoly,
    YZPolynomial,
    basis_component,
    compositions,
    dim_component,
    random_element,
)
from .group_action import (
    DEFAULT_CLOSURE_CAP,
    CapExceededError,
    FiniteGroup,
    GroupFileError,
    RationalMatrix,
    SingularMatrixError,
    act,
    act_bulk,
    act_linear,
    diagonal_matrix,
    format_rational,
    group_closure,
    load_group,
    parse_rational,
    permutation_matrix,
    read_group_file,
    reynolds,
    symmetric_group,
    trivial_group,
)
from .hilbert import (
    RationalFunction,
    TruncatedSeries,
    char_det,
    dicks_formanek,
    expand,
    hilbert_free_bicomm,
    molien_bicomm,
    molien_classic,
)
from .invariants import (
    IntegralDependence,
    commutative_invariant_dimension,
    integral_dependence_polynomial,
    invariant_basis,
    invariant_dimension,
    nonfg_witness,
)
from .symmetric import (
    D2IdentityReport,
    SymmetricModuleGenerators,
    elementary_symmetric,
    polarized_elementary,
    symmetric_module_generators,
    verify_d2_identity,
)

__version__ = "0.1.0"

__all__ = [
    "BicommElement",
    "CapExceededError",
    "D2IdentityReport",
    "DEFAULT_CLOSURE_CAP",
    "FiniteGroup",
    "GroupFileError",
    "IntegralDependence",
    "RationalFunction",
    "RationalMatrix",
    "SingularMatrixError",
    "SymmetricModuleGenerators",
    "TruncatedSeries",
    "UniPoly",
    "YZPolynomial",
    "act",
    "act_bulk",
    "act_linear",
    "basis_component",
    "char_det",
    "commutative_invariant_dimension",
    "compositions",
    "diagonal_matrix",
    "dicks_formanek",
    "dim_component",
    "elementary_symmetric",
    "expand",
    "format_rational",
    "group_closure",
    "hilbert_free_bicomm",
    "integral_dependence_polynomial",
    "invariant_basis",
    "invariant_dimension",
    "load_group",
    "molien_bicomm",
    "molien_classic",
    "nonfg_witness",
    "parse_rational",
    "permutation_matrix",
    "polarized_elementary",
    "random_element",
    "read_group_file",
    "reynolds",
    "symmetric_group",
    "symmetric_module_generators",
    "trivial_group",
    "verify_d2_identity",
]
