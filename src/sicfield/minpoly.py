"""Minimal polynomials of tower elements, unit and integrality tests."""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .polynomials import RatPoly, palindrome_reduce, palindromic_lift
from .tower import FieldElement, _power_dependence

__all__ = [
    "MinimalPolynomial",
    "minimal_polynomial",
    "is_algebraic_integer",
    "is_unit",
    "palindromic_lift",
    "palindrome_reduce",
    "verify_split",
]


class MinimalPolynomial(NamedTuple):
    """A minimal polynomial in primitive integer form: content 1, lead positive."""

    primitive: RatPoly

    @property
    def monic(self) -> RatPoly:
        return self.primitive.monic()

    @property
    def degree(self) -> int:
        return self.primitive.degree

    @property
    def is_algebraic_integer(self) -> bool:
        """True when the primitive form's lead is 1 (Gauss's lemma)."""
        return self.primitive.coeffs[-1] == 1

    @property
    def is_unit(self) -> bool:
        """True for algebraic integers of norm +-1 (constant term +-1)."""
        return self.is_algebraic_integer and abs(self.primitive.coeffs[0]) == 1

    def __str__(self) -> str:
        return self.primitive.format()


def minimal_polynomial(a: FieldElement) -> MinimalPolynomial:
    """Minimal polynomial of a over Q, from the integer traces of the
    powers of den(a) a by Newton's identities with exact division
    (tower._power_dependence, which runs once per element; the unit and
    integrality tests read the same result). Its degree divides 16."""
    return MinimalPolynomial(RatPoly(_power_dependence(a)))


def is_algebraic_integer(a: FieldElement) -> bool:
    """True when the monic minimal polynomial has integer coefficients."""
    return minimal_polynomial(a).is_algebraic_integer


def is_unit(a: FieldElement) -> bool:
    """True for algebraic integers whose norm is +-1, i.e. whose monic
    minimal polynomial has integer coefficients and constant term +-1."""
    return minimal_polynomial(a).is_unit


def verify_split(p: RatPoly, roots: Sequence[FieldElement]) -> bool:
    """Check exactly that p(t) = lead * prod (t - root) over the tower."""
    if p.is_zero() or len(roots) != p.degree:
        return False
    product = [FieldElement.one()]
    for root in roots:
        next_coeffs = [FieldElement.zero() for _ in range(len(product) + 1)]
        for k, c in enumerate(product):
            next_coeffs[k + 1] = next_coeffs[k + 1] + c
            next_coeffs[k] = next_coeffs[k] - c * root
        product = next_coeffs
    target = p.monic()
    return all(
        c == FieldElement.from_rational(target.coefficient(k))
        for k, c in enumerate(product)
    )
