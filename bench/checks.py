"""Checks on the program's outputs, run outside every timed span.

Each check returns a list of (kind, message) failures; an empty list
means the output is right. Only kind "embed" marks the known defect of
the double-precision embedding (ROADMAP item 3): such a failure is
counted as a failed operation like any other, but it does not make the
run incorrect.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

import field

EMBED_RTOL = 1e-9
RESIDUAL_TOL = 1e-12
NORM_TOL = 1e-12
KNOWN_DEFECTS = ("embed",)


def check_expression(reply: dict, value: tuple, degree: int) -> list[tuple[str, str]]:
    """reply carries the program's coords, monic minimal polynomial (low
    to high), degree, unit flag and double-precision embedding of one
    expression whose reference value and degree are given."""
    failures = []
    coords = tuple(Fraction(c) for c in reply["coords"])
    if coords != value:
        failures.append(("value", "coordinates differ from the reference value"))
    monic = [Fraction(c) for c in reply["monic"]]
    if not monic:
        failures.append(("minpoly", "no minimal polynomial"))
        return failures
    if reply["degree"] != len(monic) - 1 or monic[-1] != 1:
        failures.append(("minpoly", "polynomial is not monic of the reported degree"))
    if reply["degree"] < 1 or 16 % reply["degree"] or reply["degree"] != degree:
        failures.append(("degree", f"degree {reply['degree']}, expected {degree}"))
    acc = field.rational(0)
    for c in reversed(monic):
        acc = field.add(field.mul(acc, value), field.rational(c))
    if not field.is_zero(acc):
        failures.append(("minpoly", "minimal polynomial does not vanish at the element"))
    unit = all(c.denominator == 1 for c in monic) and abs(monic[0]) == 1
    if reply["unit"] != unit:
        failures.append(("unit", f"is_unit {reply['unit']} disagrees with the polynomial"))
    z = complex(*reply["embed"])
    exact = field.embed(value)
    if not abs(z - exact) <= EMBED_RTOL * abs(exact):
        failures.append(("embed", f"embed {z} vs {complex(exact)}"))
    return failures


def residual(d: int, psi: np.ndarray) -> float:
    """The SIC residual from its definition, independently of the package:
    |<psi|D(i,j)|psi>| = |sum_k omega^(jk) conj(psi[k+i]) psi[k]|, so the d^2
    moments are one FFT over the shifted products."""
    shifted = np.array([np.roll(psi, -i).conj() * psi for i in range(d)])
    moments = np.fft.fft(shifted, axis=1)
    devs = np.abs(moments) ** 2 - 1.0 / (d + 1)
    devs[0, 0] = 0.0
    return float(np.sum(devs ** 2))


def check_search(reply: dict, d: int) -> list[tuple[str, str]]:
    failures = []
    psi = np.array([complex(re, im) for re, im in reply["fiducial"]])
    if psi.shape != (d,) or abs(np.linalg.norm(psi) - 1) > NORM_TOL:
        failures.append(("norm", "fiducial is not a unit vector in C^d"))
        return failures
    recomputed = residual(d, psi)
    if abs(reply["residual"] - recomputed) > RESIDUAL_TOL * max(1.0, recomputed):
        failures.append(("residual", f"reported {reply['residual']!r}, recomputed {recomputed!r}"))
    if reply["converged"] != (reply["residual"] < reply["tolerance"]):
        failures.append(("converged", "converged flag disagrees with residual < tolerance"))
    return failures


def check_cli(stdout: bytes, code: int, golden: bytes, golden_code: int) -> list[tuple[str, str]]:
    failures = []
    if stdout != golden:
        failures.append(("output", "stdout differs from the golden file"))
    if code != golden_code:
        failures.append(("exit", f"exit code {code}, expected {golden_code}"))
    return failures
