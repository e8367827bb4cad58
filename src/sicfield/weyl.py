"""Weyl-Heisenberg displacement operators.

Numeric operators exist for every dimension d >= 2. In dimension 4 the
phases tau = -exp(i pi / 4) and omega = tau^2 = i live inside the tower
field, so the same operators are also available with exact entries.

Conventions: the shift acts as X|k> = |k+1 mod d>, the clock as
Z|k> = omega^k |k>, and the displacement is D(i, j) = tau^(ij) X^i Z^j
indexed row-major so that the orbit of a fiducial lists D(i, j) psi at
position i*d + j.

Every operator is built from one rule, sic4's `monomial`: since
omega = tau^2 and tau^(2d) = 1, D(i, j)|k> = tau^(ij + 2jk mod 2d)
|k + i mod d>. The rule and the exact tau powers live in sic4, and
tau_phase in search, the modules that read them on a command's path;
the builders here import them from there. No command runs this module.
"""

from __future__ import annotations

from typing import Sequence

from . import sic4, tower
from ._lazy import np
from .search import tau_phase
from .sic4 import _tau_powers, monomial

__all__ = [
    "clock_shift",
    "displacement",
    "orbit",
    "clock_shift_exact",
    "displacement_exact",
    "orbit_exact",
]


def _check_dimension(d: int) -> None:
    if d < 2:
        raise ValueError("dimension must be at least 2")


def clock_shift(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The shift X and clock Z in dimension d."""
    return displacement(d, 1, 0), displacement(d, 0, 1)


def displacement(d: int, i: int, j: int) -> np.ndarray:
    """D(i, j) = tau^(ij) X^i Z^j for any integers i, j. tau^d = (-1)^(d+1):
    at odd d the indices count mod d, and at even d D(i + d, j) =
    (-1)^j D(i, j) and D(i, j + d) = (-1)^i D(i, j)."""
    _check_dimension(d)
    tau = tau_phase(d)
    out = np.zeros((d, d), dtype=complex)
    for k, (row, e) in enumerate(monomial(d, i, j)):
        out[row, k] = tau**e
    return out


def _displaced(d: int, fiducial: Sequence, powers: Sequence, zero) -> list[tuple]:
    """D(i, j) psi for every (i, j), row-major, with tau^e = powers[e]."""
    out = []
    for i in range(d):
        for j in range(d):
            image = [zero] * d
            for k, (row, e) in enumerate(monomial(d, i, j)):
                image[row] = powers[e] * fiducial[k]
            out.append(tuple(image))
    return out


def orbit(d: int, fiducial: np.ndarray) -> np.ndarray:
    """All d^2 displaced copies of a fiducial vector, row-major in (i, j)."""
    _check_dimension(d)
    psi = np.asarray(fiducial, dtype=complex).reshape(d)
    powers = [tau_phase(d) ** e for e in range(2 * d)]
    return np.array(_displaced(d, psi.tolist(), powers, 0j), dtype=complex)


# -- exact dimension 4 -------------------------------------------------------


def clock_shift_exact() -> tuple[sic4.Matrix, sic4.Matrix]:
    """Exact X and Z in dimension 4; the clock eigenvalues are powers
    of the exact imaginary unit."""
    return displacement_exact(1, 0), displacement_exact(0, 1)


def displacement_exact(i: int, j: int) -> sic4.Matrix:
    """Exact D(i, j) at d = 4 with tau from the tower."""
    powers = _tau_powers()
    rows = [[tower.FieldElement.zero()] * 4 for _ in range(4)]
    for k, (row, e) in enumerate(monomial(4, i, j)):
        rows[row][k] = powers[e]
    return tuple(tuple(row) for row in rows)


def orbit_exact(
        fiducial: Sequence[tower.FieldElement]) -> list[tuple[tower.FieldElement, ...]]:
    """All 16 exact displaced copies of a d = 4 fiducial, row-major."""
    if len(fiducial) != 4:
        raise ValueError("exact orbits exist in dimension 4 only")
    return _displaced(4, fiducial, _tau_powers(), tower.FieldElement.zero())
