"""Weyl-Heisenberg displacement operators.

Numeric operators exist for every dimension d >= 2. In dimension 4 the
phases tau = -exp(i pi / 4) and omega = tau^2 = i live inside the tower
field, so the same operators are also available with exact entries.

Conventions: the shift acts as X|k> = |k+1 mod d>, the clock as
Z|k> = omega^k |k>, and the displacement is D(i, j) = tau^(ij) X^i Z^j
indexed row-major so that the orbit of a fiducial lists D(i, j) psi at
position i*d + j.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import matrices
from .matrices import Matrix
from .tower import FieldElement, constant

__all__ = [
    "omega",
    "tau_phase",
    "clock_shift",
    "displacement",
    "displacement_dagger_sign",
    "orbit",
    "clock_shift_exact",
    "displacement_exact",
    "orbit_exact",
]


def omega(d: int) -> complex:
    return cmath.exp(2j * cmath.pi / d)


def tau_phase(d: int) -> complex:
    return -cmath.exp(1j * cmath.pi / d)


def _check_dimension(d: int) -> None:
    if d < 2:
        raise ValueError("dimension must be at least 2")


def clock_shift(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The shift X and clock Z in dimension d."""
    _check_dimension(d)
    shift = np.zeros((d, d), dtype=complex)
    for k in range(d):
        shift[(k + 1) % d, k] = 1.0
    clock = np.diag([omega(d) ** k for k in range(d)])
    return shift, clock


def displacement(d: int, i: int, j: int) -> np.ndarray:
    """D(i, j) = tau^(ij) X^i Z^j, indices taken mod d."""
    _check_dimension(d)
    shift, clock = clock_shift(d)
    phase = tau_phase(d) ** (i * j)
    return phase * (
        np.linalg.matrix_power(shift, i % d) @ np.linalg.matrix_power(clock, j % d)
    )


def displacement_dagger_sign(d: int, i: int, j: int) -> int:
    """Sign s in D(i, j)^dagger = s * D(-i, -j), for even d.

    The adjoint picks up (-1)^(i+j) except on the axes, where the tau
    power is even and no sign appears. In odd dimensions the sign is
    always +1.
    """
    if d % 2 == 1 or i % d == 0 or j % d == 0:
        return 1
    return (-1) ** (i + j)


def orbit(d: int, fiducial: np.ndarray) -> np.ndarray:
    """All d^2 displaced copies of a fiducial vector, row-major in (i, j)."""
    _check_dimension(d)
    psi = np.asarray(fiducial, dtype=complex).reshape(d)
    out = np.empty((d * d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            out[i * d + j] = displacement(d, i, j) @ psi
    return out


# -- exact dimension 4 -------------------------------------------------------


def clock_shift_exact() -> tuple[Matrix, Matrix]:
    """Exact X and Z in dimension 4; the clock eigenvalues are powers
    of the exact imaginary unit."""
    one = FieldElement.one()
    zero = FieldElement.zero()
    ii = constant("i")
    shift = tuple(
        tuple(one if i == (j + 1) % 4 else zero for j in range(4))
        for i in range(4)
    )
    clock = tuple(
        tuple(ii**i if i == j else zero for j in range(4)) for i in range(4)
    )
    return shift, clock


@lru_cache(maxsize=1)
def _tau_powers() -> tuple[FieldElement, ...]:
    """tau^0 .. tau^7; tau is a primitive eighth root of unity."""
    tau = constant("tau")
    powers = [FieldElement.one()]
    for _ in range(7):
        powers.append(powers[-1] * tau)
    return tuple(powers)


def displacement_exact(i: int, j: int) -> Matrix:
    """Exact D(i, j) at d = 4 with tau from the tower.

    D(i, j) is monomial: D(i, j)|k> = tau^(ij) i^(jk) |k + i>, and with
    i = tau^2 every entry is a power of tau.
    """
    powers = _tau_powers()
    zero = FieldElement.zero()
    rows = [[zero] * 4 for _ in range(4)]
    for k in range(4):
        rows[(k + i) % 4][k] = powers[(i * j + 2 * j * k) % 8]
    return tuple(tuple(row) for row in rows)


def orbit_exact(fiducial: Sequence[FieldElement]) -> list[tuple[FieldElement, ...]]:
    """All 16 exact displaced copies of a d = 4 fiducial, row-major."""
    if len(fiducial) != 4:
        raise ValueError("exact orbits exist in dimension 4 only")
    out = []
    for i in range(4):
        for j in range(4):
            out.append(matrices.mat_vec(displacement_exact(i, j), fiducial))
    return out
