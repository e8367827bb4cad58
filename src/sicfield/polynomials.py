"""Dense univariate polynomials with exact rational coefficients."""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Iterator, Union

# the integer helpers live with the field arithmetic, so that the field
# runs without this module; linalg reads _integers_over_lcm from here
from .tower import _horner, _integers_over_lcm, _power, _primitive

Scalar = Union[int, Fraction]


class RatPoly:
    """Immutable polynomial over Q, stored dense, lowest power first.

    Trailing zero coefficients are stripped on construction, so two equal
    polynomials always compare equal coefficient-wise. The zero polynomial
    has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Scalar]) -> None:
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RatPoly is immutable")

    def __reduce__(self):
        return RatPoly, (self.coeffs,)

    @classmethod
    def zero(cls) -> RatPoly:
        return cls(())

    @classmethod
    def one(cls) -> RatPoly:
        return cls((1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RatPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == RatPoly((other,))
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals its Fraction (and int), so it hashes alike
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else Fraction(0))
        return hash(("RatPoly", self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __neg__(self) -> RatPoly:
        return RatPoly(-c for c in self.coeffs)

    def __add__(self, other: RatPoly | Scalar) -> RatPoly:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return RatPoly(out)

    __radd__ = __add__

    def __sub__(self, other: RatPoly | Scalar) -> RatPoly:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> RatPoly:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: RatPoly | Scalar) -> RatPoly:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return RatPoly.zero()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return RatPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> RatPoly:
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        q = Fraction(other)
        return RatPoly(c / q for c in self.coeffs)

    def __pow__(self, n: int) -> RatPoly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return _power(self, n, RatPoly.one())

    def __divmod__(self, divisor: RatPoly) -> tuple[RatPoly, RatPoly]:
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dcs = divisor.coeffs
        dn = len(dcs) - 1
        lead = dcs[-1]
        quot = [Fraction(0)] * max(len(rem) - dn, 0)
        for k in range(len(rem) - 1, dn - 1, -1):
            c = rem[k]
            if c == 0:
                continue
            q = c / lead
            quot[k - dn] = q
            for j in range(dn + 1):
                rem[k - dn + j] -= q * dcs[j]
        return RatPoly(quot), RatPoly(rem)

    def __call__(self, x):
        """Evaluate by Horner's rule at any value supporting + and *."""
        if not self.coeffs:
            if isinstance(x, (int, Fraction)):
                return Fraction(0)
            return x * 0
        return _horner(self.coeffs, x)

    def monic(self) -> RatPoly:
        if self.is_zero():
            raise ValueError("zero polynomial cannot be made monic")
        return self / self.coeffs[-1]

    def primitive(self) -> RatPoly:
        """Integer-coefficient multiple with content 1 and positive lead."""
        if self.is_zero():
            return self
        return RatPoly(_primitive(_integers_over_lcm(self.coeffs)[0]))

    def is_palindromic(self) -> bool:
        return bool(self.coeffs) and self.coeffs == tuple(reversed(self.coeffs))

    def format(self, var: str = "t") -> str:
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for power in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[power]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if power == 0:
                body = str(mag)
            else:
                tpow = var if power == 1 else f"{var}^{power}"
                if mag == 1:
                    body = tpow
                elif mag.denominator == 1:
                    body = f"{mag}{tpow}"
                else:
                    body = f"{mag}*{tpow}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"RatPoly({list(self.coeffs)!r})"


def _coerce(value: RatPoly | Scalar) -> RatPoly | None:
    if isinstance(value, RatPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return RatPoly((value,))
    return None


def _lift_column(n: int, k: int) -> Iterator[tuple[int, int]]:
    """Column k of the lift of a degree-n p, as (power, coefficient) terms:
    t^(n-k) (t^2 + 1)^k = sum_i C(k, i) t^(n-k+2i), with top term t^(n+k)."""
    return ((n - k + 2 * i, comb(k, i)) for i in range(k + 1))


def palindromic_lift(p: RatPoly) -> RatPoly:
    """Return t^n * p(t + 1/t) with n the degree of p, the palindromic
    lift of p, the sum over k of p_k times column k.

    If z is a root of the lift then z + 1/z is a root of p, which is how a
    degree-n minimal polynomial of a real trace is promoted to the
    degree-2n minimal polynomial of the algebraic number on the unit side.
    """
    n = p.degree
    if n < 0:
        raise ValueError("cannot lift the zero polynomial")
    out = [Fraction(0)] * (2 * n + 1)
    for k, c in enumerate(p.coeffs):
        for power, b in _lift_column(n, k):
            out[power] += b * c
    return RatPoly(out)


def palindrome_reduce(p: RatPoly) -> RatPoly:
    """Invert the palindromic lift: find q with t^n q(t + 1/t) = p.

    Requires p palindromic of even degree 2n, which makes it a lift: the
    n + 1 columns span those palindromes. The lift is unit-triangular, so
    from k = n down q_k is what is left at t^(n+k), and its column goes.
    """
    if p.degree < 2 or p.degree % 2 != 0:
        raise ValueError("palindrome reduction needs even degree at least 2")
    if not p.is_palindromic():
        raise ValueError("polynomial is not palindromic")
    n = p.degree // 2
    rest = list(p.coeffs)
    out = [Fraction(0)] * (n + 1)
    for k in range(n, -1, -1):
        c = out[k] = rest[n + k]
        for power, b in _lift_column(n, k):
            rest[power] -= b * c
    return RatPoly(out)
