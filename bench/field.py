"""An exact reference for the field Q(u, r), used only to check outputs.

It is written from the defining relations alone and shares no code with
the package under test:

    u^8 = 2u^6 + 2u^4 + 2u^2 - 1,    r^2 + c r + 1 = 0,    c = 2/(u + 1/u).

An element is a tuple of 16 Fractions: the u-power coefficients of a
followed by those of b, for a + b r. This is the coordinate order the
package prints, so coordinates compare directly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import mpmath

ZERO8 = (Fraction(0),) * 8


def _umul(a, b):
    prod = [Fraction(0)] * 15
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    # u^k = 2u^(k-2) + 2u^(k-4) + 2u^(k-6) - u^(k-8), from the top down
    for k in range(14, 7, -1):
        c = prod[k]
        if c:
            prod[k - 2] += 2 * c
            prod[k - 4] += 2 * c
            prod[k - 6] += 2 * c
            prod[k - 8] -= c
    return tuple(prod[:8])


def _uadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _uscale(a, q):
    return tuple(x * q for x in a)


def _uinv(a):
    """Inverse in Q(u): solve (a * y) = 1 by Gauss-Jordan elimination."""
    basis = [tuple(Fraction(int(k == j)) for k in range(8)) for j in range(8)]
    columns = [_umul(a, e) for e in basis]
    rows = [[columns[j][i] for j in range(8)] + [Fraction(int(i == 0))]
            for i in range(8)]
    for col in range(8):
        pivot = next(k for k in range(col, 8) if rows[k][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for k in range(8):
            if k != col and rows[k][col] != 0:
                f = rows[k][col]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[col])]
    return tuple(row[8] for row in rows)


_U = tuple(Fraction(int(k == 1)) for k in range(8))
_INV_U = tuple(Fraction(c) for c in (0, 2, 0, 2, 0, 2, 0, -1))
_C = _uscale(_uinv(_uadd(_U, _INV_U)), 2)


def split(e):
    return e[:8], e[8:]


def rational(q) -> tuple:
    return (Fraction(q),) + (Fraction(0),) * 15


def add(e, f):
    return tuple(x + y for x, y in zip(e, f))


def sub(e, f):
    return tuple(x - y for x, y in zip(e, f))


def neg(e):
    return tuple(-x for x in e)


def mul(e, f):
    (a, b), (c, d) = split(e), split(f)
    bd = _umul(b, d)
    u_part = _uadd(_umul(a, c), _uscale(bd, -1))
    r_part = _uadd(_uadd(_umul(a, d), _umul(b, c)), _uscale(_umul(_C, bd), -1))
    return u_part + r_part


def is_zero(e) -> bool:
    return not any(e)


def inv(e):
    """(a + b r)^-1 = ((a - b c) - b r) / (a^2 - a b c + b^2)."""
    if is_zero(e):
        raise ZeroDivisionError("zero has no inverse")
    a, b = split(e)
    norm = _uadd(_uadd(_umul(a, a), _uscale(_umul(_umul(a, b), _C), -1)), _umul(b, b))
    n_inv = _uinv(norm)
    return _umul(_uadd(a, _uscale(_umul(b, _C), -1)), n_inv) + _uscale(_umul(b, n_inv), -1)


def power(e, n: int):
    if n < 0:
        return power(inv(e), -n)
    result, base = rational(1), e
    while n:
        if n & 1:
            result = mul(result, base)
        base = mul(base, base)
        n >>= 1
    return result


def _constants() -> dict:
    half = Fraction(1, 2)
    u = _U + ZERO8
    r = ZERO8 + rational(1)[:8]
    inv_u = _INV_U + ZERO8
    inv_r = neg(add(r, _C + ZERO8))
    x = add(u, inv_u)
    sqrt5 = sub(rational(3), mul(x, x))
    isqrt = sub(u, inv_u)
    sqrt2 = mul(rational(-half), mul(x, mul(isqrt, isqrt)))
    i = mul(rational(-half), mul(isqrt, sub(r, inv_r)))
    tau = mul(rational(-half), mul(add(rational(1), i), sqrt2))
    u2 = mul(rational(half), mul(isqrt, sqrt2))
    u3 = add(mul(rational(Fraction(1, 4)), mul(sub(sqrt5, rational(1)), sqrt2)),
             mul(rational(half), isqrt))
    return {
        "u": u, "r": r, "x": x, "i": i, "tau": tau, "sqrt2": sqrt2,
        "sqrt5": sqrt5, "isqrt_sqrt5p1": isqrt, "u1": add(rational(1), sqrt2),
        "u2": u2, "u3": u3,
        "u4": add(x, mul(mul(rational(half), sub(rational(3), sqrt5)), u2)),
        "u5": add(u2, u3),
    }


CONSTANTS = _constants()


def bits(e) -> int:
    """Largest numerator or denominator size among the coordinates."""
    return max(max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in e)


def _value(e, u, r):
    a, b = split(e)
    acc_a = acc_b = mpmath.mpf(0)
    for ca, cb in zip(reversed(a), reversed(b)):
        acc_a = acc_a * u + mpmath.mpf(ca.numerator) / ca.denominator
        acc_b = acc_b * u + mpmath.mpf(cb.numerator) / cb.denominator
    return acc_a + acc_b * r


def embed(e, dps: int = 50):
    """The defining embedding at dps digits: u on the unit circle, r the
    real root of its quadratic with |r| > 1."""
    with mpmath.workdps(dps):
        s5, s2 = mpmath.sqrt(5), mpmath.sqrt(2)
        u = mpmath.mpc((s5 - 1) / (2 * s2), mpmath.sqrt(s5 + 1) / 2)
        r = -(s5 + 1) / (2 * s2) - mpmath.sqrt(s5 - 1) / 2
        return _value(e, u, r)


_ROOT_DPS = 400


@lru_cache(maxsize=1)
def _embeddings() -> tuple:
    """The 16 pairs (u_j, r_j) of roots, to _ROOT_DPS digits."""
    with mpmath.workdps(_ROOT_DPS):
        pairs = []
        for u in mpmath.polyroots([1, 0, -2, 0, -2, 0, -2, 0, 1], maxsteps=400,
                                  extraprec=2 * _ROOT_DPS):
            c = 2 / (u + 1 / u)
            for r in mpmath.polyroots([1, c, 1], extraprec=2 * _ROOT_DPS):
                pairs.append((u, r))
    return tuple(pairs)


def degree(e) -> int:
    """Degree over Q, as the number of distinct images of e under the 16
    embeddings of the field. Valid for coordinates up to 600 bits."""
    dps = 40 + bits(e) // 2
    if dps > _ROOT_DPS - 60:
        raise ValueError("coordinates too large for the stored roots")
    with mpmath.workdps(dps):
        images = [_value(e, u, r) for u, r in _embeddings()]
        eps = mpmath.mpf(10) ** (-(dps // 2))
        distinct: list = []
        for z in images:
            if all(abs(z - w) > eps * max(1, abs(z)) for w in distinct):
                distinct.append(z)
    if 16 % len(distinct):
        raise ArithmeticError(f"{len(distinct)} distinct conjugates do not divide 16")
    return len(distinct)
