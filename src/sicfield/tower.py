"""Exact arithmetic in the degree-16 number field Q(u, r).

The field is presented as a tower. The inner generator u satisfies

    u^8 = 2u^6 + 2u^4 + 2u^2 - 1,

so Q(u) has degree 8 with power basis 1, u, ..., u^7. On top of it the
outer generator r satisfies the quadratic

    r^2 + c r + 1 = 0,    c = 2 / (u + 1/u),

so every element is written uniquely as a + b r with a, b in Q(u). The
16 rational coordinates of an element are the u-power coefficients of a
followed by those of b.

As a Q-vector space the field has the basis u^k r^e (k < 8, e < 2),
basis element m being u^(m % 8) r^(m // 8). Every operation is integer
linear algebra on that basis: an element is 16 integer numerators over
one positive denominator, a product contracts them with the structure
tensor of basis products, and conjugation and the Galois automorphisms
are integer 16x16 matrices (Automorphism). The trace is one integer
linear functional, read off the tensor's diagonal. The minimal polynomial
of a comes from the integer traces of the powers of den(a) a by Newton's
identities with exact division, checked exactly against those powers,
which apply multiplication by a, an integer matrix like an
automorphism's. One sparse kernel, _apply, builds its columns from rows
of the tensor as the powers first need them and applies it, so each
later power costs one matrix-vector product instead of a contraction
with the tensor. The inverse of a divides out its norm, taken down the
tower one quadratic step at a time. Elements are immutable, so the
checked polynomial and the inverse are kept on the element.

u embeds as the unit-modulus complex number
(sqrt5 - 1)/(2 sqrt2) + i sqrt(sqrt5 + 1)/2 and r as the real number
-(sqrt5 + 1)/(2 sqrt2) - sqrt(sqrt5 - 1)/2, the root of its quadratic
with absolute value greater than 1. All arithmetic here is exact; the
embedding is the only place floating point enters, and every value it
returns carries a certified error bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

from . import polynomials
from ._lazy import mpmath

Scalar = Union[int, Fraction]

#: minimal polynomial of u over Q: t^8 - 2t^6 - 2t^4 - 2t^2 + 1
_OCTIC = (1, 0, -2, 0, -2, 0, -2, 0, 1)

#: coefficients, lowest power first, of U_MIN_POLY, the minimal polynomial
#: of u, and X_MIN_POLY, that of x = u + 1/u (t^4 - 6t^2 + 4). Each RatPoly
#: is built and kept on its first read, so that field arithmetic runs no
#: polynomials module.
_MIN_POLYS = {"U_MIN_POLY": _OCTIC, "X_MIN_POLY": (4, 0, -6, 0, 1)}


def __getattr__(name: str):
    if name not in _MIN_POLYS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    poly = globals()[name] = polynomials.RatPoly(_MIN_POLYS[name])
    return poly


def _integers_over_lcm(values: Iterable[Scalar]) -> tuple[list[int], int]:
    """Integers n_k and the lcm D of the denominators, with values[k] = n_k / D."""
    qs = [Fraction(v) for v in values]
    den = lcm(*(q.denominator for q in qs))
    return [q.numerator * (den // q.denominator) for q in qs], den


def _primitive(ints: Sequence[int]) -> list[int]:
    """Integers with a nonzero last entry, divided by their content and
    signed so that entry is positive."""
    content = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
    return [n // content for n in ints]


def _horner(coeffs: Sequence, x):
    """sum coeffs[k] x^k by Horner's rule; coeffs is not empty."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _power(base, n: int, one):
    """base^n for n >= 0 by square-and-multiply, skipping the last squaring."""
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _as_scalar(value: object) -> Fraction | None:
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    return None


# -- integer u-polynomials and the structure tensor ---------------------------


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _reduce_u(p: Sequence[int]) -> list[int]:
    """Integer u-polynomial reduced below degree 8 by subtracting
    multiples of the monic octic, top degree first."""
    p = list(p) + [0] * (8 - len(p))
    for n in range(len(p) - 1, 7, -1):
        c = p[n]
        if c:
            for k, a in enumerate(_OCTIC):
                p[n - 8 + k] -= c * a
    return p[:8]


# u (u^7 - 2u^5 - 2u^3 - 2u) = -1, so 1/u negates the octic above u^0.
_INV_U = tuple(-a for a in _OCTIC[1:])

# x = u + 1/u, and 2c = 4/x = 6x - x^3, read off x^4 - 6x^2 + 4 = 0.
_X = tuple(a + (k == 1) for k, a in enumerate(_INV_U))
_C2 = tuple(6 * a - b for a, b in zip(_X, _reduce_u(_poly_mul(_X, _poly_mul(_X, _X)))))

if _reduce_u(_poly_mul(_C2, _X)) != [4] + [0] * 7:
    raise AssertionError("tower bootstrap failed: c * x != 2")


def _sparse(vec: Sequence[int]) -> tuple[tuple[int, int], ...]:
    return tuple([(k, x) for k, x in enumerate(vec) if x])


@lru_cache(maxsize=1)
def _structure() -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
    """T[i][j]: the nonzero (k, 2 * coefficient) pairs of basis_i * basis_j.

    u^a r^e * u^b r^f = u^(a+b) r^(e+f), reduced with the octic and with
    r^2 = -1 - c r. c lies in (1/2)Z[u] and nothing else in the rules has
    a denominator, so the doubled entries are integers; 848 of the 4096
    are nonzero. An entry depends only on a + b < 15 and e + f < 3, so
    the 256 entries are 45 vectors: the reduced powers u^n times 1, r
    and r^2, each u^(n+1) reduced from u times u^n."""
    products, power = [], [1] + [0] * 7
    for _ in range(15):
        doubled = [2 * x for x in power]
        times_r2 = [-x for x in doubled] + [-x for x in _reduce_u(_poly_mul(power, _C2))]
        products.append(tuple(map(_sparse, (doubled + [0] * 8, [0] * 8 + doubled, times_r2))))
        power = _reduce_u([0] + power)
    return tuple(
        tuple(products[i % 8 + j % 8][i // 8 + j // 8] for j in range(16))
        for i in range(16)
    )


# -- elements -----------------------------------------------------------------


class FieldElement:
    """An element of Q(u, r): 16 integer numerators over one denominator.

    Coordinate m is nums[m] / den; coordinates 0..7 are the u-power
    coefficients of the Q(u) part, coordinates 8..15 those of the
    coefficient of r. The form is canonical: den > 0 and the gcd of the
    numerators and den is 1, so equal elements have equal fields.
    """

    # _dependence: what _power_dependence found for this element, once it
    # has been checked, and _inverse: what inverse returned; unset until then
    __slots__ = ("nums", "den", "_dependence", "_inverse")

    nums: tuple[int, ...]
    den: int

    def __init__(self, coords: Iterable[Scalar]) -> None:
        nums, den = _integers_over_lcm(coords)
        if len(nums) != 16:
            raise ValueError("a field element has exactly 16 coordinates")
        _SET_NUMS(self, tuple(nums))
        _SET_DEN(self, den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FieldElement is immutable")

    def __reduce__(self):
        return _make, (self.nums, self.den)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, value: Scalar) -> FieldElement:
        q = Fraction(value)
        return _make((q.numerator,) + (0,) * 15, q.denominator)

    @classmethod
    def zero(cls) -> FieldElement:
        return _ZERO

    @classmethod
    def one(cls) -> FieldElement:
        return _ONE

    # -- views ---------------------------------------------------------

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The 16 coordinates as reduced fractions."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def u_part(self) -> polynomials.RatPoly:
        return polynomials.RatPoly(self.coords[:8])

    @property
    def r_part(self) -> polynomials.RatPoly:
        return polynomials.RatPoly(self.coords[8:])

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    # -- ring structure --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        # a rational element equals its Fraction (and int), so it hashes alike
        if self.is_rational():
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.nums, self.den))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __neg__(self) -> FieldElement:
        return _make(tuple(-n for n in self.nums), self.den)

    def __add__(self, other: FieldElement | Scalar) -> FieldElement:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        da, db = self.den, other.den
        return _reduced([a * db + b * da for a, b in zip(self.nums, other.nums)], da * db)

    __radd__ = __add__

    def __sub__(self, other: FieldElement | Scalar) -> FieldElement:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> FieldElement:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other: FieldElement | Scalar) -> FieldElement:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        table = _structure()
        right = [(j, y) for j, y in enumerate(other.nums) if y]
        out = [0] * 16
        for i, x in enumerate(self.nums):
            if x:
                row = table[i]
                for j, y in right:
                    xy = x * y
                    for k, t in row[j]:
                        out[k] += t * xy
        return _reduced(out, 2 * self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: FieldElement | Scalar) -> FieldElement:
        q = _as_scalar(other)
        if q is not None:
            if q == 0:
                raise ZeroDivisionError("division by zero")
            return self * (1 / q)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: Scalar) -> FieldElement:
        q = _as_scalar(other)
        if q is None:
            return NotImplemented
        return self.inverse() * q

    def __pow__(self, n: int) -> FieldElement:
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, _ONE)

    def inverse(self) -> FieldElement:
        """Multiplicative inverse by the norm down the tower: from num = 1
        and n = a, each map g of _norm_steps that does not fix n takes n
        one quadratic step down to its relative norm n g(n) and multiplies
        num by g(n), so a num = n and n ends in Q: 1/a = num / n. An n that
        ends irrational is an internal fault (AssertionError). The result
        is kept on a, as the power dependence is, and not pickled."""
        if hasattr(self, "_inverse"):
            return self._inverse
        num, n = _ONE, self
        for g in _norm_steps():
            image = g.apply(n)
            if image != n:
                num, n = num * image, n * image
        if not n.is_rational():
            raise AssertionError("the norm down the tower is not rational")
        if n.is_zero():
            raise ZeroDivisionError("zero has no inverse")
        inverse = _reduced([x * n.den for x in num.nums], num.den * n.nums[0])
        _SET_INVERSE(self, inverse)
        return inverse

    def conjugate(self) -> FieldElement:
        """Complex conjugation: u maps to 1/u, r is real and fixed; this is
        g1, the second of _norm_steps."""
        return _norm_step(1).apply(self)

    # -- display -----------------------------------------------------------

    def __complex__(self) -> complex:
        return embed(self)

    def __str__(self) -> str:
        a, b = self.u_part, self.r_part
        if b.is_zero():
            return a.format("u")
        if a.is_zero():
            return f"({b.format('u')})*r"
        return f"({a.format('u')}) + ({b.format('u')})*r"

    def __repr__(self) -> str:
        return f"<FieldElement {self}>"


_SET_NUMS = FieldElement.nums.__set__
_SET_DEN = FieldElement.den.__set__
_SET_DEPENDENCE = FieldElement._dependence.__set__
_SET_INVERSE = FieldElement._inverse.__set__


def _make(nums: tuple[int, ...], den: int) -> FieldElement:
    """An element from numerators and denominator already in canonical form."""
    elem = object.__new__(FieldElement)
    _SET_NUMS(elem, nums)
    _SET_DEN(elem, den)
    return elem


def _reduced(nums: list[int], den: int) -> FieldElement:
    """An element from any numerators over a nonzero denominator."""
    g = gcd(*nums, den)
    if den < 0:
        g = -g
    if g != 1:
        return _make(tuple(n // g for n in nums), den // g)
    return _make(tuple(nums), den)


def _coerce(value: object) -> FieldElement | None:
    if isinstance(value, FieldElement):
        return value
    q = _as_scalar(value)
    if q is not None:
        return FieldElement.from_rational(q)
    return None


_ZERO = _make((0,) * 16, 1)
_ONE = _make((1,) + (0,) * 15, 1)


@lru_cache(maxsize=1)
def _trace() -> tuple[int, ...]:
    """Tr(basis_i) for each i: the trace of multiplication by basis_i is
    the sum over j of the e_j coefficient of basis_i * basis_j, which the
    structure tensor holds doubled."""
    return tuple(sum(dict(row[j]).get(j, 0) for j in range(16)) // 2 for row in _structure())


def _from_power_sums(sums: Sequence[int], den: int) -> tuple[int, ...] | None:
    """Primitive integer coefficients, lowest power first, of the
    polynomial of degree n = len(sums) whose roots times den have the
    integer power sums P_k = sums[k - 1], or None when those roots times
    den are not the roots of a monic integer polynomial.

    Newton's identities k e_k = sum_(i=1..k) (-1)^(i-1) e_(k-i) P_i give
    the elementary symmetric functions e_k of the roots times den, each
    by exact division by k. The roots' polynomial then has the
    coefficient (-1)^(n-j) e_(n-j) den^j at t^j, over den^n.
    """
    n = len(sums)
    e = [1]
    for k in range(1, n + 1):
        acc = 0
        for i in range(1, k + 1):
            term = e[k - i] * sums[i - 1]
            acc += term if i % 2 else -term
        e_k, rest = divmod(acc, k)
        if rest:
            return None
        e.append(e_k)
    return tuple(_primitive([(-1) ** (n - j) * e[n - j] * den**j for j in range(n + 1)]))


def _apply(columns: Sequence[Sequence[tuple[int, int]] | None],
           nums: Sequence[int]) -> list[int]:
    """sum_m nums[m] columns[m]: an integer matrix, held as sparse
    (k, entry) columns, applied to an integer vector. Only the columns
    where nums is nonzero are read, so the others may be None."""
    out = [0] * 16
    for x, col in zip(nums, columns):
        if x:
            for k, c in col:
                out[k] += x * c
    return out


def _power_dependence(a: FieldElement) -> tuple[int, ...]:
    """Integer coefficients q_0..q_n of the minimal polynomial m of a, so
    that q_0 + q_1 a + ... + q_n a^n = 0.

    This rests on [Q(u, r):Q] = 16: the characteristic polynomial of
    multiplication by a is then m^(16/n), n = deg m dividing 16, so the
    roots of m times den(a) have the power sums (n/16) Tr(b^k), b = den(a) a,
    integers since b is an integer combination of basis elements,
    algebraic integers as u, r and c are. At n = 1, 2, 4, 8, 16 in turn,
    skipping an n where they are not, the candidate is the polynomial
    with those power sums (_from_power_sums), and the first one with
    sum q_k a^k = 0, checked exactly, is m; so a wrong trace or an
    arithmetic slip raises instead of returning a wrong polynomial.

    Multiplication by 2b is one integer linear map, and _apply both
    builds and applies it. Column i, 2b basis_i, is _apply of row i of
    the structure tensor to a, built the first time a power has a
    nonzero coordinate i. The powers are the integer vectors
    v_k = 2^k b^k, each _apply of the columns to the one before, so
    Tr(b^k) = Tr(v_k) / 2^k, and sum q_k a^k = 0 is
    sum q_k (2 den(a))^(n-k) v_k = 0 in integers: no power is reduced.
    A dense element fills all 16 columns once, reading the 848 tensor
    entries that every product with it reads, and each power after that
    takes at most 256 multiply-adds instead of 848; an element of low
    degree, whose powers stay in a subfield, fills only the columns its
    powers use. The call that passes the exact check keeps q on a, which
    is immutable; a call that raises keeps nothing.
    """
    if hasattr(a, "_dependence"):
        return a._dependence
    trace, table = _trace(), _structure()
    powers = [[1] + [0] * 15]
    times_a: list[tuple[tuple[int, int], ...] | None] = [None] * 16
    traces = []  # Tr(b^k), k = 1, 2, ...
    for n in (1, 2, 4, 8, 16):
        for k in range(len(powers), n + 1):
            last = powers[-1]
            for i, x in enumerate(last):
                if x and times_a[i] is None:
                    times_a[i] = _sparse(_apply(table[i], a.nums))
            powers.append(_apply(times_a, last))
            traces.append(sum(map(mul, trace, powers[k])) >> k)
        if any(n * t % 16 for t in traces[:n]):
            continue
        q = _from_power_sums([n * t // 16 for t in traces[:n]], a.den)
        if q is None:
            continue
        scaled = [c * (2 * a.den) ** (n - k) for k, c in enumerate(q)]
        if not any(sum(map(mul, scaled, column)) for column in zip(*powers)):
            _SET_DEPENDENCE(a, q)
            return q
    raise AssertionError("no candidate annihilates the element within the tower degree")


# -- automorphisms ----------------------------------------------------------------

_U = _make((0, 1) + (0,) * 14, 1)
_R = _make((0,) * 8 + (1,) + (0,) * 7, 1)
_U_INVERSE = _make(_INV_U + (0,) * 8, 1)
# r^2 + c r + 1 = 0 gives 1/r = -(r + c), and c = _C2 / 2
_R_INVERSE = _reduced([-a for a in _C2] + [-2] + [0] * 7, 2)


class Automorphism:
    """A field automorphism, held as an integer 16x16 matrix on the basis
    u^k r^e over a positive denominator, in lowest terms.

    Column m, stored sparse as (row, entry) pairs, holds the numerators
    of the image of basis element m. Automorphism(image_u, image_r) is
    the map u^k r^e -> image_u^k image_r^e. The structure tensor reduces
    only u^8 (by the octic) and r^2 (to -1 - c r), so that map is
    multiplicative exactly when it agrees with the tensor on those two;
    otherwise ValueError. Products are matrix products, composing right
    to left: (sigma * phi)(e) = sigma(phi(e)). Powers and inverses are
    products, so they need no check. A pickle or copy holds the images of
    u and r, so loading one runs the check again.
    """

    __slots__ = ("cols", "den")

    cols: tuple[tuple[tuple[int, int], ...], ...]
    den: int

    def __new__(cls, image_u: FieldElement, image_r: FieldElement) -> Automorphism:
        m = _substitution(image_u, image_r)
        if m is None:
            raise ValueError("images do not satisfy the tower relations")
        return m

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Automorphism is immutable")

    def __reduce__(self):
        return Automorphism, (self.image_u, self.image_r)

    @classmethod
    def identity(cls) -> Automorphism:
        return _IDENTITY

    def is_identity(self) -> bool:
        return self == _IDENTITY

    @property
    def image_u(self) -> FieldElement:
        return self.apply(_U)

    @property
    def image_r(self) -> FieldElement:
        return self.apply(_R)

    def apply(self, elem: FieldElement) -> FieldElement:
        """Image of a field element under the automorphism."""
        return _reduced(_apply(self.cols, elem.nums), self.den * elem.den)

    def __mul__(self, other: Automorphism) -> Automorphism:
        """Composition, other first: (self * other)(e) = self(other(e))."""
        if not isinstance(other, Automorphism):
            return NotImplemented
        columns = []
        for col in other.cols:
            dense = [0] * 16
            for k, c in col:
                dense[k] = c
            columns.append(_apply(self.cols, dense))
        return _matrix(columns, self.den * other.den)

    def __pow__(self, n: int) -> Automorphism:
        """The group is finite, so n counts modulo the order of self; a
        negative n is a power of the inverse."""
        return _power(self, n % element_order(self), _IDENTITY)

    def inverse(self) -> Automorphism:
        return self ** -1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Automorphism):
            return NotImplemented
        return self.den == other.den and self.cols == other.cols

    def __hash__(self) -> int:
        return hash((self.cols, self.den))

    def __repr__(self) -> str:
        return f"<Automorphism u -> {self.image_u}, r -> {self.image_r}>"


def _matrix(columns: Sequence[Sequence[int]], den: int) -> Automorphism:
    """The map with these integer columns over den > 0, in lowest terms;
    nothing checks that it is multiplicative."""
    g = gcd(den, *(x for col in columns for x in col))
    m = object.__new__(Automorphism)
    object.__setattr__(m, "cols", tuple(_sparse([x // g for x in col]) for col in columns))
    object.__setattr__(m, "den", den // g)
    return m


def _linear_map(images: Sequence[FieldElement]) -> Automorphism:
    """The linear map sending basis element m to images[m], unchecked."""
    den = lcm(*(e.den for e in images))
    return _matrix([[n * (den // e.den) for n in e.nums] for e in images], den)


def _substitution(image_u: FieldElement, image_r: FieldElement) -> Automorphism | None:
    """The map u^k r^e -> image_u^k image_r^e, or None when it does not
    agree with the structure tensor on u^8 and r^2."""
    powers = [_ONE]
    for _ in range(7):
        powers.append(powers[-1] * image_u)
    m = _linear_map(powers + [p * image_r for p in powers])
    if image_u * powers[7] != m.apply(_U**8) or image_r * image_r != m.apply(_R * _R):
        return None
    return m


_IDENTITY = _matrix([[int(k == m) for k in range(16)] for m in range(16)], 1)


def element_order(g: Automorphism) -> int:
    generators = (_U, _R)
    images = (g.image_u, g.image_r)
    for order in range(1, 17):
        if images == generators:
            return order
        images = (g.apply(images[0]), g.apply(images[1]))
    raise ValueError("element order exceeds the field degree")


#: the images of u and r under g3, g1, g2 and g4, the steps of _norm_steps
_STEP_IMAGES = ((_U, _R_INVERSE), (_U_INVERSE, _R), (-_U, -_R), (_R, _U))


@lru_cache(maxsize=4)
def _norm_step(k: int) -> Automorphism:
    """Step k of _norm_steps, built and checked on first use, so that
    conjugation builds g1 alone."""
    return Automorphism(*_STEP_IMAGES[k])


@lru_cache(maxsize=1)
def _norm_steps() -> tuple[Automorphism, ...]:
    """g3, g1, g2 and g4, galois's standard generators, built once: each
    maps Q(u, r), Q(u), Q(x) and Q(sqrt5) in turn onto itself and
    generates its Galois group over the next field down. g3: r -> 1/r
    fixes u; g1: u -> 1/u, complex conjugation, fixes x = u + 1/u;
    g2: u, r -> -u, -r sends x to -x; g4: u <-> r sends x to
    r + 1/r = -2/x, so sqrt5 to -sqrt5."""
    return tuple(map(_norm_step, range(4)))


def substitute(elem: FieldElement, image_u: FieldElement,
               image_r: FieldElement) -> FieldElement:
    """The image of elem under the automorphism u -> image_u, r -> image_r;
    ValueError when the images do not define one."""
    return Automorphism(image_u, image_r).apply(elem)


def substitute_with_powers(elem: FieldElement,
                           u_powers: Sequence[FieldElement],
                           image_r: FieldElement) -> FieldElement:
    """The linear map u^k r^e -> u_powers[k] image_r^e applied to elem,
    with the powers image_u^0..image_u^7 given and no relation check."""
    return _linear_map(list(u_powers) + [p * image_r for p in u_powers]).apply(elem)


def defining_relations_hold(image_u: FieldElement,
                            image_r: FieldElement) -> bool:
    """Whether the pair of images satisfies the tower's two relations,
    i.e. whether Automorphism accepts it."""
    return _substitution(image_u, image_r) is not None


# -- named constants --------------------------------------------------------

CONSTANT_NAMES = (
    "u", "r", "x", "i", "tau", "sqrt2", "sqrt5", "isqrt_sqrt5p1",
    "u1", "u2", "u3", "u4", "u5",
)


@lru_cache(maxsize=1)
def _constants() -> dict[str, FieldElement]:
    u, r = _U, _R
    x = u + _U_INVERSE
    sqrt5 = 3 - x * x
    isqrt = u - _U_INVERSE  # i * sqrt(sqrt5 + 1)
    sqrt2 = -(x * isqrt * isqrt) / 2
    i = -(isqrt * (r - _R_INVERSE)) / 2
    tau = -(1 + i) * sqrt2 / 2
    u2 = isqrt * sqrt2 / 2
    u3 = (sqrt5 - 1) * sqrt2 / 4 + isqrt / 2
    return {
        "u": u,
        "r": r,
        "x": x,
        "i": i,
        "tau": tau,
        "sqrt2": sqrt2,
        "sqrt5": sqrt5,
        "isqrt_sqrt5p1": isqrt,
        "u1": 1 + sqrt2,
        "u2": u2,
        "u3": u3,
        "u4": x + (3 - sqrt5) / 2 * u2,
        "u5": u2 + u3,
    }


def constant(name: str) -> FieldElement:
    """Look up a named constant of the field.

    Valid names are listed in CONSTANT_NAMES. u1..u5 are the five
    cyclotomic-style units attached to the dimension-4 fiducial.
    """
    try:
        return _constants()[name]
    except KeyError:
        known = ", ".join(CONSTANT_NAMES)
        raise ValueError(f"unknown constant {name!r}; known names: {known}") from None


# -- the complex embedding ---------------------------------------------------

_S5, _S2 = math.sqrt(5), math.sqrt(2)
_U_COMPLEX = complex((_S5 - 1) / (2 * _S2), math.sqrt(_S5 + 1) / 2)
_R_COMPLEX = complex(-(_S5 + 1) / (2 * _S2) - math.sqrt(_S5 - 1) / 2, 0)

#: a value is returned once its error bound is at most this fraction of
#: its modulus
EMBED_RELATIVE_ERROR = 1e-13
# 2^-44 < 0.6 EMBED_RELATIVE_ERROR, which leaves room for the rounding of
# an exact value to the nearest double
_EMBED_RELATIVE_BITS = math.ceil(-math.log2(EMBED_RELATIVE_ERROR))

# Error of Horner's rule in double precision on 8 + 8 coordinates, |u| = 1:
# at most _ROUNDING_FACTOR * 2^-53 * (sum |a_k| + |r| sum |b_k|), with room
# for the rounding of the coordinates and generators themselves.
_ROUNDING_FACTOR = 64

# below this a coordinate may be subnormal, and its rounding no longer
# relative to its size
_SMALLEST_NORMAL = 2.0**-1000


def _certified(value, bound, relative_error) -> bool:
    """Whether an error bound is small enough against |value|; an
    infinite or NaN bound never is."""
    return bound <= relative_error * (abs(value) - bound)


def _embed_double(elem: FieldElement) -> complex | None:
    """Double-precision Horner value, or None when its bound is too loose."""
    nums, den = elem.nums, elem.den
    try:
        # int / int is correctly rounded, unlike float(n) / float(den)
        coords = [n / den for n in nums]
    except OverflowError:
        return None
    if any(n and abs(c) < _SMALLEST_NORMAL for n, c in zip(nums, coords)):
        return None
    a, b = coords[:8], coords[8:]
    z = _horner(a, _U_COMPLEX) + _horner(b, _U_COMPLEX) * _R_COMPLEX
    scale = sum(map(abs, a)) + abs(_R_COMPLEX) * sum(map(abs, b))
    bound = _ROUNDING_FACTOR * 2.0**-53 * scale
    return z if _certified(z, bound, EMBED_RELATIVE_ERROR) else None


#: bits that _basis_values carries below the unit 2^-q it rounds to
_GUARD_BITS = 32

#: each entry of _basis_values(q) is within this many units of 2^q times
#: the basis value it stands for, as a complex number
_TABLE_ERROR = 2


@lru_cache(maxsize=16)
def _basis_values(q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The real parts and the imaginary parts of 2^q u^k r^e, basis
    element m = k + 8e at index m, as integers each within one unit of
    the truth.

    The work is in fixed point at p = q + _GUARD_BITS bits. Floor square
    roots by math.isqrt give u = (sqrt10 - sqrt2)/4 + i sqrt(sqrt5 + 1)/2
    and r = -(sqrt10 + sqrt2)/4 - sqrt(sqrt5 - 1)/2 within 4 units of
    2^-p in each component. Each of the at most eight products that build
    a basis value scales the error carried in by |u| = 1 or |r| < 2 and
    adds the error of its generator and less than 2 units of rounding, so
    every component is within 2^8 units at p bits. Rounding to q bits
    leaves it within 1/2 + 2^-24 units, and each entry within
    sqrt2 < _TABLE_ERROR units as a complex number.
    """
    p = q + _GUARD_BITS
    one = 1 << p
    s2, s5, s10 = (math.isqrt(n << 2 * p) for n in (2, 5, 10))
    u_re = (s10 - s2) >> 2
    u_im = math.isqrt((s5 + one) << p) >> 1
    r = -((s10 + s2) >> 2) - (math.isqrt((s5 - one) << p) >> 1)
    powers = [(one, 0)]
    for _ in range(7):
        a, b = powers[-1]
        powers.append(((a * u_re - b * u_im) >> p, (a * u_im + b * u_re) >> p))
    powers += [((a * r) >> p, (b * r) >> p) for a, b in powers]
    half = 1 << (_GUARD_BITS - 1)
    return (tuple([(a + half) >> _GUARD_BITS for a, _ in powers]),
            tuple([(b + half) >> _GUARD_BITS for _, b in powers]))


def _embed_exact(elem: FieldElement, relative_bits: int) -> tuple[int, int, int]:
    """Integers x, y and d > 0 such that (x + iy) / d is within
    2^-relative_bits of the embedded value, relative to its modulus.

    x + iy is the exact integer sum of nums[m] times entry m of
    _basis_values(q), so it is within _TABLE_ERROR sum |nums[m]| units of
    2^q den times the value, and isqrt(x^2 + y^2) minus that bound is a
    lower bound on the modulus of the latter. While the bound is not small
    enough against it, q doubles. The first q, a multiple of 64 so that
    few tables are built, also covers the largest coordinate's bits,
    which is as much as the 16 terms can cancel against a modest value.
    """
    nums, den = elem.nums, elem.den
    top = max(abs(n).bit_length() for n in nums) - den.bit_length()
    q = -(-(64 + relative_bits + max(top, 0)) // 64) * 64
    bound = _TABLE_ERROR * sum(map(abs, nums))
    while True:
        re, im = _basis_values(q)
        x, y = sum(map(mul, nums, re)), sum(map(mul, nums, im))
        if (bound << relative_bits) + bound <= math.isqrt(x * x + y * y):
            return x, y, den << q
        q *= 2


def _float_ratio(n: int, d: int) -> float:
    """n / d correctly rounded, or an infinity of its sign when it is
    beyond the float range."""
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def embed(elem: FieldElement, dps: int | None = None):
    """Numerical value of an element under the defining embedding.

    With dps=None this returns a Python complex within EMBED_RELATIVE_ERROR
    of the true value, relative to its modulus. It is the double-precision
    Horner value whenever an a-priori rounding bound certifies that.
    Otherwise, and for coordinates too large for a float, it is the double
    nearest an exact integer sum of the coordinates times a fixed-point
    table of the basis values, whose error bound is checked in integers
    (_embed_exact). A value beyond the float range is an infinity, and one
    whose modulus is below the normal range (sys.float_info.min) has the
    nearest subnormal or zero parts, without that relative bound. With a
    positive int dps it returns an mpmath.mpc with that many correct
    decimal digits, relative to its modulus, from the same integer sum;
    only this path loads mpmath. Any other dps raises ValueError.
    """
    if dps is None:
        z = _embed_double(elem)
        if z is not None:
            return z
        x, y, d = _embed_exact(elem, _EMBED_RELATIVE_BITS)
        return complex(_float_ratio(x, d), _float_ratio(y, d))
    if isinstance(dps, bool) or not isinstance(dps, int) or dps < 1:
        raise ValueError(f"dps must be a positive int, not {dps!r}")
    x, y, d = _embed_exact(elem, math.ceil(dps * math.log2(10)) + 4)
    with mpmath.workdps(dps):
        # fdiv reads both integers exactly and rounds their quotient once
        return mpmath.mpc(mpmath.fdiv(x, d), mpmath.fdiv(y, d))
