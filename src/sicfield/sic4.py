"""The exact dimension-4 SIC fiducial projector and its audits.

The 15 phases attached to the nontrivial displacement operators all lie
in the inner field Q(u) and are powers-of-u up to sign. Reconstruction
sums the displaced phases into a rank-one projector

    Pi = (1/4) [ I + (1/sqrt5) sum phases(i, j) D(i, j)^dagger ],

and every property that makes it a SIC fiducial (hermitian, idempotent,
trace one, equal overlaps 1/5) is checkable with exact arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import NamedTuple

from . import matrices, minpoly, tower, weyl
from ._lazy import np

__all__ = [
    "CheckResult",
    "Discriminant",
    "canonical_phase_matrix",
    "reconstruct_projector",
    "fiducial_projector",
    "overlap",
    "verify_sic_projector",
    "hermiticity_symmetry_holds",
    "phases_in_inner_field",
    "phase_unit_audit",
    "embedded_projector",
    "discriminant",
]


#: the (shift, clock) index of every displacement but the identity
_NONTRIVIAL = tuple((i, j) for i in range(4) for j in range(4) if (i, j) != (0, 0))


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def canonical_phase_matrix(negate_entry: tuple[int, int] | None = None) -> matrices.Matrix:
    """The 4x4 table of reconstruction phases, indexed [shift][clock].

    The (0, 0) slot belongs to the identity operator, carries no phase,
    and is filled with 1 as a sentinel. Pass negate_entry to flip the
    sign of one phase, which breaks the SIC property and is useful as a
    negative control.
    """
    u = tower.constant("u")
    v = tower._U_INVERSE
    one = tower.FieldElement.one()
    rows = (
        (one, u, -one, v),
        (u, v, -v, v),
        (-one, -u, -one, v),
        (v, u, u, u),
    )
    if negate_entry is None:
        return rows
    i, j = negate_entry
    if (i, j) not in _NONTRIVIAL:
        raise ValueError("negate_entry must be a nontrivial index pair")
    return tuple(
        tuple(-rows[a][b] if (a, b) == (i, j) else rows[a][b] for b in range(4))
        for a in range(4)
    )


def reconstruct_projector(phases: matrices.Matrix | None = None) -> matrices.Matrix:
    """Assemble the projector from a phase table, exactly. D(i, j)^dagger
    has tau^(-e) at (k, k + i), so each phase lands in four entries."""
    if phases is None:
        phases = canonical_phase_matrix()
    powers = weyl._tau_powers()
    scale = tower.constant("sqrt5") / 20
    quarter = tower.FieldElement.from_rational(Fraction(1, 4))
    acc = [[quarter if a == b else tower.FieldElement.zero() for b in range(4)]
           for a in range(4)]
    for i, j in _NONTRIVIAL:
        weight = phases[i][j] * scale
        for k, (row, e) in enumerate(weyl.monomial(4, i, j)):
            acc[k][row] = acc[k][row] + weight * powers[-e % 8]
    return tuple(tuple(row) for row in acc)


@lru_cache(maxsize=1)
def fiducial_projector() -> matrices.Matrix:
    return reconstruct_projector()


def _shift_overlaps(proj: matrices.Matrix, i: int) -> list[tower.FieldElement]:
    """Tr(Pi D Pi D^dagger) for D = D(i, j), j = 0..3, for any 4 x 4 Pi.

    D|k> = tau^(e_k) |k + i>, so the trace sums Pi[w + i][y + i] Pi[y][w]
    tau^(e_y - e_w) over (w, y), and tau^(e_y - e_w) = tau^(2j(y - w)). With
    the products summed by m = (y - w) mod 4 into S[m], the overlap at every
    j is S[0] + (-1)^j S[2] + tau^(2j) (S[1] + (-1)^j S[3]); tau^2 = sqrt(-1)."""
    sums = [tower.FieldElement.zero()] * 4
    for w in range(4):
        for y in range(4):
            sums[(y - w) % 4] += proj[(w + i) % 4][(y + i) % 4] * proj[y][w]
    even_a, even_b = sums[0] + sums[2], sums[1] + sums[3]
    odd_a, odd_b = sums[0] - sums[2], weyl._tau_powers()[2] * (sums[1] - sums[3])
    return [even_a + even_b, odd_a + odd_b, even_a - even_b, odd_a - odd_b]


def overlap(proj: matrices.Matrix, i: int, j: int) -> tower.FieldElement:
    """Tr(Pi D Pi D^dagger) for D = D(i, j); i and j count mod 4."""
    return _shift_overlaps(proj, i)[j % 4]


def verify_sic_projector(proj: matrices.Matrix | None = None) -> list[CheckResult]:
    """Run every exact SIC property check and report each one."""
    if proj is None:
        proj = fiducial_projector()
    results = [
        CheckResult("hermitian", proj == matrices.dagger(proj)),
        CheckResult("trace_one", matrices.trace(proj) == 1),
        CheckResult("idempotent", matrices.mat_mul(proj, proj) == proj),
    ]
    target = tower.FieldElement.from_rational(Fraction(1, 5))
    table = [_shift_overlaps(proj, i) for i in range(4)]
    for i, j in _NONTRIVIAL:
        value = table[i][j]
        ok = value == target
        detail = "" if ok else f"value approx {tower.embed(value):.6g}"
        results.append(CheckResult(f"overlap_{i}{j}", ok, detail))
    return results


def hermiticity_symmetry_holds(phases: matrices.Matrix | None = None) -> bool:
    """Conjugating a phase must land on the phase at the negated index,
    up to the parity sign the displacement adjoint picks up."""
    if phases is None:
        phases = canonical_phase_matrix()
    for i, j in _NONTRIVIAL:
        sign = weyl.displacement_dagger_sign(4, i, j)
        mirrored = phases[(-i) % 4][(-j) % 4]
        if phases[i][j].conjugate() != sign * mirrored:
            return False
    return True


def phases_in_inner_field(phases: matrices.Matrix | None = None) -> bool:
    """All 15 phases lie in Q(u): their r parts vanish."""
    if phases is None:
        phases = canonical_phase_matrix()
    return all(phases[i][j].r_part.is_zero() for i, j in _NONTRIVIAL)


class PhaseAudit(NamedTuple):
    index: tuple[int, int]
    unit_modulus: bool
    algebraic_unit: bool
    minpoly_degree: int


def phase_unit_audit(phases: matrices.Matrix | None = None) -> list[PhaseAudit]:
    """Certify each phase is a unit-modulus algebraic unit."""
    if phases is None:
        phases = canonical_phase_matrix()
    audits = []
    for i, j in _NONTRIVIAL:
        z = phases[i][j]
        result = minpoly.minimal_polynomial(z)
        audits.append(PhaseAudit(
            index=(i, j),
            unit_modulus=z * z.conjugate() == 1,
            algebraic_unit=result.is_unit,
            minpoly_degree=result.degree,
        ))
    return audits


def embedded_projector(proj: matrices.Matrix | None = None) -> np.ndarray:
    """Double-precision image of an exact projector."""
    if proj is None:
        proj = fiducial_projector()
    return np.array([[tower.embed(entry) for entry in row] for row in proj])


class Discriminant(NamedTuple):
    dimension: int
    value: int
    squarefree_part: int


#: largest dimension discriminant() accepts; trial division to the cube
#: root of each factor stays well under a second up to here
MAX_DISCRIMINANT_DIMENSION = 10**18


def _squarefree_odd(n: int) -> int:
    """Squarefree kernel of an odd n >= 1.

    Trial division runs only while p^3 <= the cofactor: what is left then
    has at most two prime factors, so it is squarefree unless a square.
    """
    kernel, p = 1, 3
    while p * p * p <= n:
        exponent = 0
        while n % p == 0:
            n //= p
            exponent += 1
        if exponent % 2:
            kernel *= p
        p += 2
    root = isqrt(n)
    return kernel if root * root == n else kernel * n


def discriminant(d: int) -> Discriminant:
    """(d - 3)(d + 1) and its squarefree kernel, for 4 <= d <= 10^18.

    The squarefree part names the real quadratic field attached to the
    dimension; dimensions below 4 have no such field and are rejected.
    gcd(d - 3, d + 1) divides 4, so once the factors of 2 are taken out
    the two odd parts are coprime and their kernels multiply.
    """
    if d < 4:
        raise ValueError("the discriminant is defined for dimensions 4 and up")
    if d > MAX_DISCRIMINANT_DIMENSION:
        raise ValueError(
            f"dimension above {MAX_DISCRIMINANT_DIMENSION} is not supported"
        )
    kernel, twos = 1, 0
    for factor in (d - 3, d + 1):
        while factor % 2 == 0:
            factor //= 2
            twos += 1
        kernel *= _squarefree_odd(factor)
    return Discriminant(d, (d - 3) * (d + 1), kernel * 2 ** (twos % 2))
