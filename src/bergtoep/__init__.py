"""Toeplitz operators with quasi-radial pseudo-homogeneous symbols on
weighted Bergman spaces over complex projective space and the unit ball.

The package computes the eigenvalue-type coefficients gamma(alpha) of such
operators on the monomial basis, assembles the resulting shift-structured
matrices, verifies product/commutativity identities, and cross-checks every
closed formula against direct-integration oracles.
"""

from .expr import EvalError, ParseError, evaluate, parse, to_source
from .gamma import (
    BallSpace,
    GammaTable,
    ProjectiveSpace,
    UnsupportedCaseError,
    build_gamma_table,
    gamma_multisphere,
    gamma_multisphere_factor,
    gamma_quasi_radial,
)
from .geometry import (
    factorization_check,
    invariance_check,
    moment_map_full,
    moment_map_partition,
    to_delzant,
)
from .indexing import (
    DomainError,
    Partition,
    basis_rank,
    enumerate_basis,
    monomial_norm_sq_ball,
    monomial_norm_sq_projective,
)
from .operators import (
    ToeplitzMatrix,
    assemble,
    audit_shift_structure,
    commutation_suite,
    commutator,
    compose,
    export_matrix,
    frobenius_norm,
    fusion_defect,
    product_table,
)
from .oracle import (
    OracleResult,
    gamma_from_oracle,
    gamma_from_oracle_ball,
    inner_product_ball,
    inner_product_projective,
)
from .quadrature import QuadratureSpec, dirichlet_closed_form, simplex_rule
from .symbols import (
    ExtendedFactor,
    MultiSphereFactor,
    PhaseMonomial,
    Product,
    QuasiRadial,
    SingleSphereFactor,
    ValidationError,
    conjugate,
    evaluate_symbol,
    evaluate_symbol_batch,
    total_shift,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
