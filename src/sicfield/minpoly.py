"""Minimal polynomials of tower elements, unit and integrality tests."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .polynomials import RatPoly, palindromic_lift
from .tower import FieldElement, _power_dependence, _trace

__all__ = [
    "MinimalPolynomial",
    "minimal_polynomial",
    "is_algebraic_integer",
    "is_unit",
    "palindromic_lift",
    "palindrome_reduce",
    "verify_split",
]


@dataclass(frozen=True)
class MinimalPolynomial:
    """Monic and primitive-integer forms of a minimal polynomial."""

    monic: RatPoly
    primitive: RatPoly
    degree: int

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
    """Minimal polynomial of a over Q, from the traces of the powers of a
    by Newton's identities (tower._power_dependence, which
    FieldElement.inverse also reads), content 1 and lead positive. Its
    degree divides 16."""
    coeffs, _ = _power_dependence(a)
    primitive = RatPoly(coeffs)
    return MinimalPolynomial(primitive / primitive.coeffs[-1], primitive,
                             len(coeffs) - 1)


def _integral_minimal_polynomial(a: FieldElement) -> list[int] | None:
    """The coefficients of the monic minimal polynomial of a, lowest power
    first, when they are all integers, and otherwise None.

    An algebraic integer has integer traces, so a trace of a or of a^2
    that is not an integer answers None at once. Otherwise the
    coefficients of _power_dependence are primitive with a positive lead,
    and the monic polynomial, which is them divided by the lead, is
    integral exactly when that lead is 1 (Gauss's lemma).
    """
    trace = _trace()  # 2 Tr(basis_i)
    for power in (a, a * a):
        if sum(map(mul, trace, power.nums)) % (2 * power.den):
            return None
    coeffs, _ = _power_dependence(a)
    return coeffs if coeffs[-1] == 1 else None


def is_algebraic_integer(a: FieldElement) -> bool:
    """True when the monic minimal polynomial has integer coefficients."""
    return _integral_minimal_polynomial(a) is not None


def is_unit(a: FieldElement) -> bool:
    """True for algebraic integers whose norm is +-1, i.e. whose monic
    minimal polynomial has integer coefficients and constant term +-1."""
    coeffs = _integral_minimal_polynomial(a)
    return coeffs is not None and abs(coeffs[0]) == 1


def palindrome_reduce(p: RatPoly) -> RatPoly:
    """Invert the palindromic lift: find q with t^n q(t + 1/t) = p.

    Requires p palindromic of even degree 2n. Peels coefficients from the
    top down, one per power of t + 1/t.
    """
    if p.degree < 2 or p.degree % 2 != 0:
        raise ValueError("palindrome reduction needs even degree at least 2")
    if not p.is_palindromic():
        raise ValueError("polynomial is not palindromic")
    n = p.degree // 2
    remainder = p
    out = [Fraction(0)] * (n + 1)
    for k in range(n, -1, -1):
        c = remainder.coefficient(n + k)
        if c == 0:
            continue
        out[k] = c
        lift = palindromic_lift(RatPoly.monomial(k, c))
        remainder = remainder - RatPoly.monomial(n - k) * lift
    if not remainder.is_zero():
        raise ValueError("polynomial is not a palindromic lift")
    return RatPoly(out)


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
