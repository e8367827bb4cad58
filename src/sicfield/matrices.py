"""Small dense matrices over the tower field.

The product, adjoint and trace live in sic4, the one module that reads
them on a command's path; they are imported here, so each name is one
object in both modules. No command runs this module.
"""

from __future__ import annotations

from typing import Sequence

from .sic4 import Matrix, dagger, mat_mul, trace
from .tower import FieldElement

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


def mat_vec(a: Matrix, v: Sequence[FieldElement]) -> Vector:
    return tuple(
        sum((x * y for x, y in zip(row, v)), FieldElement.zero()) for row in a
    )


def inner(v: Sequence[FieldElement], w: Sequence[FieldElement]) -> FieldElement:
    """Hermitian inner product, conjugate-linear in the first slot."""
    return sum(
        (x.conjugate() * y for x, y in zip(v, w)), FieldElement.zero()
    )
