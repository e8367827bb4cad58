"""Exact arithmetic for the dimension-4 SIC fiducial and its field.

The package has three layers. The exact layer (polynomials, tower,
minpoly, galois, matrices, weyl, sic4) works over the degree-16 field
Q(u, r) with rational coordinates, so every identity it reports is a
theorem, not a float coincidence. The numerical layer (search) runs
the general-dimension fiducial search with numpy. The expressions and
cli modules wrap both in a small language and a command line tool.

Importing the package runs none of its submodules: each is registered
in sys.modules (see _lazy) and runs when one of its names is first
read, as numpy and mpmath do. So `sicfield galois` runs galois and
tower; `verify-d4` sic4 and tower; `units` sic4, minpoly, tower and
polynomials; `discriminant` sic4 alone. None runs search, expressions,
weyl or matrices, or imports numpy, mpmath or dataclasses. `search`
runs search only.
"""

from ._lazy import lazy_import

__version__ = "0.1.0"

#: each public name and the submodule that defines it
_HOME = {
    "Automorphism": "tower",
    "CONSTANT_NAMES": "tower",
    "ExpressionError": "expressions",
    "FieldElement": "tower",
    "MinimalPolynomial": "minpoly",
    "PhaseAudit": "sic4",
    "RatPoly": "polynomials",
    "SearchConfig": "search",
    "SearchResult": "search",
    "StructureCertificate": "galois",
    "U_MIN_POLY": "tower",
    "X_MIN_POLY": "tower",
    "action_table": "galois",
    "canonical_phase_matrix": "sic4",
    "certify_structure": "galois",
    "clock_shift": "weyl",
    "constant": "tower",
    "discriminant": "sic4",
    "displacement": "weyl",
    "displacement_exact": "weyl",
    "embed": "tower",
    "evaluate_expression": "expressions",
    "extract_phases": "search",
    "fiducial_projector": "sic4",
    "fixed_subfield_check": "galois",
    "generate_group": "galois",
    "is_algebraic_integer": "minpoly",
    "is_unit": "minpoly",
    "known_fiducial": "search",
    "minimal_polynomial": "minpoly",
    "orbit": "weyl",
    "orbit_exact": "weyl",
    "order_census": "galois",
    "palindrome_reduce": "minpoly",
    "palindromic_lift": "polynomials",
    "parse_expression": "expressions",
    "phase_unit_audit": "sic4",
    "reconstruct_projector": "sic4",
    "search": "search",
    "sic_residual": "search",
    "standard_generators": "galois",
    "verify_sic_projector": "sic4",
    "verify_split": "minpoly",
}

__all__ = [*_HOME, "__version__"]

# cli is left out: `python -m sicfield.cli` must find it unimported. A
# registered submodule is never bound on the package, so `search` stays
# the function even after `import sicfield.search`.
_SUBMODULES = {name: lazy_import(f"{__name__}.{name}") for name in (
    "polynomials", "linalg", "tower", "minpoly", "galois", "matrices", "weyl",
    "sic4", "search", "expressions")}


def __getattr__(name: str):
    if name in _HOME:
        return getattr(_SUBMODULES[_HOME[name]], name)
    if name in _SUBMODULES:
        return _SUBMODULES[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
