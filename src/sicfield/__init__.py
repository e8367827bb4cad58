"""Exact arithmetic for the dimension-4 SIC fiducial and its field.

The package has three layers. The exact layer (polynomials, tower,
minpoly, galois, matrices, weyl, sic4) works over the degree-16 field
Q(u, r) with rational coordinates, so every identity it reports is a
theorem, not a float coincidence. The numerical layer (search) runs
the general-dimension fiducial search with numpy. The expressions and
cli modules wrap both in a small language and a command line tool.
numpy and mpmath load on first use (see _lazy), not on import.
"""

from .expressions import ExpressionError, evaluate_expression, parse_expression
from .galois import (
    Automorphism,
    StructureCertificate,
    action_table,
    certify_structure,
    fixed_subfield_check,
    generate_group,
    order_census,
    standard_generators,
)
from .minpoly import (
    MinimalPolynomial,
    is_algebraic_integer,
    is_unit,
    minimal_polynomial,
    palindrome_reduce,
    verify_split,
)
from .polynomials import RatPoly, palindromic_lift
from .search import SearchConfig, SearchResult, extract_phases, known_fiducial, search, sic_residual
from .sic4 import (
    PhaseAudit,
    canonical_phase_matrix,
    discriminant,
    fiducial_projector,
    phase_unit_audit,
    reconstruct_projector,
    verify_sic_projector,
)
from .tower import CONSTANT_NAMES, FieldElement, U_MIN_POLY, X_MIN_POLY, constant, embed
from .weyl import clock_shift, displacement, displacement_exact, orbit, orbit_exact

__version__ = "0.1.0"

__all__ = [
    "Automorphism",
    "CONSTANT_NAMES",
    "ExpressionError",
    "FieldElement",
    "MinimalPolynomial",
    "PhaseAudit",
    "RatPoly",
    "SearchConfig",
    "SearchResult",
    "StructureCertificate",
    "U_MIN_POLY",
    "X_MIN_POLY",
    "action_table",
    "canonical_phase_matrix",
    "certify_structure",
    "clock_shift",
    "constant",
    "discriminant",
    "displacement",
    "displacement_exact",
    "embed",
    "evaluate_expression",
    "extract_phases",
    "fiducial_projector",
    "fixed_subfield_check",
    "generate_group",
    "is_algebraic_integer",
    "is_unit",
    "known_fiducial",
    "minimal_polynomial",
    "orbit",
    "orbit_exact",
    "order_census",
    "palindrome_reduce",
    "palindromic_lift",
    "parse_expression",
    "phase_unit_audit",
    "reconstruct_projector",
    "search",
    "sic_residual",
    "standard_generators",
    "verify_sic_projector",
    "verify_split",
    "__version__",
]
