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

from . import minpoly, tower
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


# a string, so that defining the alias reads nothing of tower
Matrix = tuple[tuple["tower.FieldElement", ...], ...]


def monomial(d: int, i: int, j: int) -> list[tuple[int, int]]:
    """For each column k of D(i, j), its nonzero row and tau exponent.

    D(i, j) = tau^(ij) X^i Z^j with X|k> = |k+1 mod d>, Z|k> = omega^k |k>
    and omega = tau^2; as tau^(2d) = 1, D(i, j)|k> = tau^(ij + 2jk mod 2d)
    |k + i mod d>."""
    return [((k + i) % d, (i * j + 2 * j * k) % (2 * d)) for k in range(d)]


def displacement_dagger_sign(d: int, i: int, j: int) -> int:
    """Sign s in D(i, j)^dagger = s * D(-i, -j), for even d.

    The adjoint picks up (-1)^(i+j) except on the axes, where the tau
    power is even and no sign appears. In odd dimensions the sign is
    always +1.
    """
    if d % 2 == 1 or i % d == 0 or j % d == 0:
        return 1
    return (-1) ** (i + j)


@lru_cache(maxsize=1)
def _tau_powers() -> tuple[tower.FieldElement, ...]:
    """tau^0 .. tau^7; tau = -exp(i pi / 4) is a primitive eighth root of
    unity in the tower."""
    tau = tower.constant("tau")
    powers = [tower.FieldElement.one()]
    for _ in range(7):
        powers.append(powers[-1] * tau)
    return tuple(powers)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, m, p = len(a), len(b), len(b[0])
    assert all(len(row) == m for row in a)
    cols = list(zip(*b))
    zero = tower.FieldElement.zero()
    return tuple(
        tuple(sum((a[i][k] * cols[j][k] for k in range(m)), zero) for j in range(p))
        for i in range(n)
    )


def dagger(a: Matrix) -> Matrix:
    return tuple(
        tuple(a[j][i].conjugate() for j in range(len(a))) for i in range(len(a[0]))
    )


def trace(a: Matrix) -> tower.FieldElement:
    return sum((a[k][k] for k in range(len(a))), tower.FieldElement.zero())


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def canonical_phase_matrix(negate_entry: tuple[int, int] | None = None) -> Matrix:
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


def reconstruct_projector(phases: Matrix | None = None) -> Matrix:
    """Assemble the projector from a phase table, exactly. D(i, j)^dagger
    has tau^(-e) at (k, k + i), so each phase lands in four entries."""
    if phases is None:
        phases = canonical_phase_matrix()
    powers = _tau_powers()
    scale = tower.constant("sqrt5") / 20
    quarter = tower.FieldElement.from_rational(Fraction(1, 4))
    acc = [[quarter if a == b else tower.FieldElement.zero() for b in range(4)]
           for a in range(4)]
    for i, j in _NONTRIVIAL:
        weight = phases[i][j] * scale
        for k, (row, e) in enumerate(monomial(4, i, j)):
            acc[k][row] = acc[k][row] + weight * powers[-e % 8]
    return tuple(tuple(row) for row in acc)


@lru_cache(maxsize=1)
def fiducial_projector() -> Matrix:
    return reconstruct_projector()


def _shift_overlaps(proj: Matrix, i: int) -> list[tower.FieldElement]:
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
    odd_a, odd_b = sums[0] - sums[2], _tau_powers()[2] * (sums[1] - sums[3])
    return [even_a + even_b, odd_a + odd_b, even_a - even_b, odd_a - odd_b]


def overlap(proj: Matrix, i: int, j: int) -> tower.FieldElement:
    """Tr(Pi D Pi D^dagger) for D = D(i, j); i and j count mod 4."""
    return _shift_overlaps(proj, i)[j % 4]


def verify_sic_projector(proj: Matrix | None = None) -> list[CheckResult]:
    """Run every exact SIC property check and report each one."""
    if proj is None:
        proj = fiducial_projector()
    results = [
        CheckResult("hermitian", proj == dagger(proj)),
        CheckResult("trace_one", trace(proj) == 1),
        CheckResult("idempotent", mat_mul(proj, proj) == proj),
    ]
    target = tower.FieldElement.from_rational(Fraction(1, 5))
    table = [_shift_overlaps(proj, i) for i in range(4)]
    for i, j in _NONTRIVIAL:
        value = table[i][j]
        ok = value == target
        detail = "" if ok else f"value approx {tower.embed(value):.6g}"
        results.append(CheckResult(f"overlap_{i}{j}", ok, detail))
    return results


def hermiticity_symmetry_holds(phases: Matrix | None = None) -> bool:
    """Conjugating a phase must land on the phase at the negated index,
    up to the parity sign the displacement adjoint picks up."""
    if phases is None:
        phases = canonical_phase_matrix()
    for i, j in _NONTRIVIAL:
        sign = displacement_dagger_sign(4, i, j)
        mirrored = phases[(-i) % 4][(-j) % 4]
        if phases[i][j].conjugate() != sign * mirrored:
            return False
    return True


def phases_in_inner_field(phases: Matrix | None = None) -> bool:
    """All 15 phases lie in Q(u): their r parts, numerators 8..15, vanish."""
    if phases is None:
        phases = canonical_phase_matrix()
    return all(not any(phases[i][j].nums[8:]) for i, j in _NONTRIVIAL)


class PhaseAudit(NamedTuple):
    index: tuple[int, int]
    unit_modulus: bool
    algebraic_unit: bool
    minpoly_degree: int


def phase_unit_audit(phases: Matrix | None = None) -> list[PhaseAudit]:
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


def embedded_projector(proj: Matrix | None = None) -> np.ndarray:
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
