"""Small dense matrices over the tower field."""

from __future__ import annotations

from typing import Sequence

from .tower import FieldElement

Matrix = tuple[tuple[FieldElement, ...], ...]
Vector = tuple[FieldElement, ...]


def identity(n: int) -> Matrix:
    one = FieldElement.one()
    zero = FieldElement.zero()
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def zeros(n: int) -> Matrix:
    zero = FieldElement.zero()
    return tuple(tuple(zero for _ in range(n)) for _ in range(n))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_scale(s: FieldElement, a: Matrix) -> Matrix:
    return tuple(tuple(s * x for x in row) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, m, p = len(a), len(b), len(b[0])
    assert all(len(row) == m for row in a)
    cols = list(zip(*b))
    return tuple(
        tuple(
            sum((a[i][k] * cols[j][k] for k in range(m)), FieldElement.zero())
            for j in range(p)
        )
        for i in range(n)
    )


def mat_vec(a: Matrix, v: Sequence[FieldElement]) -> Vector:
    return tuple(
        sum((x * y for x, y in zip(row, v)), FieldElement.zero()) for row in a
    )


def dagger(a: Matrix) -> Matrix:
    return tuple(
        tuple(a[j][i].conjugate() for j in range(len(a))) for i in range(len(a[0]))
    )


def trace(a: Matrix) -> FieldElement:
    return sum((a[k][k] for k in range(len(a))), FieldElement.zero())


def inner(v: Sequence[FieldElement], w: Sequence[FieldElement]) -> FieldElement:
    """Hermitian inner product, conjugate-linear in the first slot."""
    return sum(
        (x.conjugate() * y for x, y in zip(v, w)), FieldElement.zero()
    )
