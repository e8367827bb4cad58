"""Numerical search for SIC fiducials.

The residual of a unit vector psi is

    R(psi) = sum over (i, j) != (0, 0) of (|<psi|D(i,j)|psi>|^2 - 1/(d+1))^2,

which vanishes exactly on fiducials. Zauner's conjecture, which every
known Weyl-Heisenberg SIC bears out, puts a fiducial in an eigenspace
of Zauner's order-3 Clifford unitary; each restart searches the largest
one, of dimension floor(d/3) + 1, over the coefficients of an
orthonormal basis built once per d. A warm start searches all of C^d
through the identity map, with no basis matrix: its coefficients are psi.

On that eigenspace |<psi|D(i,j)|psi>| is constant on each orbit of the
order-6 group G generated by (i, j) -> (j, -i-j) and (i, j) -> (-i, -j),
and every orbit meets the rows R = {i : min(i, d - i) <= floor(d/3)}.
So a restart there builds only the moments of rows R, about 2d/3 of the
d, and weights the squared deviation at (i, j) by
6 / #{g in G : the row of g(i, j) is in R}, 0 at (0, 0), so that the
weights of each orbit sum to its size. A warm start, and the public
functions, use every row, each deviation of weight 1 but (0, 0)'s.

The optimizer is L-BFGS on the unit sphere of coefficients, then Armijo
backtracking from the unit step, normalizing every trial point. It keeps
one pair, that of the newest step with s.y > 0, and applies the two-loop
recursion over it in closed form. Up to d = 32 an iteration works on
at most 11 complex coefficients, so its time goes to numpy calls, not
arithmetic: the recursion over three pairs took 19 calls per iteration,
the closed form takes 7, and three pairs saved only about 5% of the
iterations at d = 4..14 and under 1% at d = 24..32. A restart stalls
when MAX_HALVINGS halvings find no Armijo decrease, or when an accepted
step lowers the residual by less than MIN_DECREASE of itself, so a
restart caught in a local minimum ends early. MIN_DECREASE is 1e-6, the
loosest decade at which such a stall still agrees with scipy's L-BFGS-B
to its cross-check's relative 1e-6 up to d = 12. Every restart draws its
own random stream, so any single restart can be reproduced in
isolation. Each point costs one moments table: the accepted point's
table, and the shifted copies of psi it was built from, also give its
gradient, which the next iteration computes only if it runs, so the
point a restart ends at costs no gradient.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from ._lazy import np

__all__ = [
    "SearchConfig",
    "RestartResult",
    "SearchResult",
    "sic_residual",
    "residual_gradient",
    "fourth_moment",
    "known_fiducial",
    "search",
    "extract_phases",
]

#: L-BFGS, which keeps one pair (see the module docstring): halvings of
#: the unit step a line search may try, Armijo's sufficient-decrease
#: fraction, and the relative decrease below which an accepted step ends
#: the restart as stalled
MAX_HALVINGS = 20
ARMIJO = 1e-4
MIN_DECREASE = 1e-6
#: how far extract_phases lets a phase modulus miss 1
PHASE_TOLERANCE = 1e-6
#: largest dimension a search accepts. Memory grows as d^2: the tables
#: _tables keeps take 48 d^2 bytes (48 MB here), the basis, rows and
#: weights _zauner_basis keeps about 11 d^2 per dimension, and a restart
#: holds at most about 170 d^2 in all (about 0.18 GB here)
MAX_SEARCH_DIMENSION = 1024


@dataclass(frozen=True)
class SearchConfig:
    dimension: int
    restarts: int = 8
    max_iterations: int = 20_000
    tolerance: float = 1e-10
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.dimension < 2:
            raise ValueError("dimension must be at least 2")
        if self.dimension > MAX_SEARCH_DIMENSION:
            raise ValueError(f"dimension must be at most {MAX_SEARCH_DIMENSION}, "
                             f"got {self.dimension}")
        if self.restarts < 1:
            raise ValueError("at least one restart is required")
        if self.max_iterations < 0:
            raise ValueError("max iterations must not be negative")
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be a positive finite number")
        if self.rng_seed < 0:
            raise ValueError(f"seed must not be negative, got {self.rng_seed}")


@dataclass(frozen=True)
class RestartResult:
    restart_index: int
    residual: float
    iterations: int
    converged: bool
    fiducial: np.ndarray
    #: why the restart ended: "converged", "stalled" (the line search found
    #: no lower residual, or a step lowered it by under MIN_DECREASE of
    #: itself), "budget" (max_iterations ran out) or "zero_gradient"
    stop_reason: str


@dataclass(frozen=True)
class SearchResult:
    dimension: int
    converged: bool
    residual: float
    #: max over (i, j) != (0, 0) of | |<psi|D(i,j)|psi>|^2 - 1/(d+1) |
    sic_defect: float
    fiducial: np.ndarray
    restart_index: int
    iterations: int
    fourth_moment: float
    restarts: tuple[RestartResult, ...]


def tau_phase(d: int) -> complex:
    """tau = -exp(i pi / d), the phase in D(i, j) = tau^(ij) X^i Z^j."""
    return -cmath.exp(1j * cmath.pi / d)


@lru_cache(maxsize=1)
def _tables(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The index (k + i) mod d at [i, k]; omega^(jk) at [k, j], and 8 times
    its conjugate, the factor _descent needs; and the weight of each
    deviation over all rows, 1 but 0 at (0, 0). Both DFT tables index the
    d roots of unity. Only the dimension in use is kept, as these take
    48 d^2 bytes."""
    r = np.arange(d)
    shift = np.add.outer(r, r) % d
    exponents = np.outer(r, r) % d
    roots = np.exp(2j * np.pi / d * r)
    weights = np.ones((d, d))
    weights[0, 0] = 0.0
    tables = shift, roots[exponents], (8 * roots.conj())[exponents], weights
    for table in tables:
        table.setflags(write=False)
    return tables


def _evaluate(psi: np.ndarray, tables: tuple) -> tuple[float, tuple]:
    """The residual at psi over the rows i of tables's shift, and the point
    _descent reads: the shifted copies psi[k + i] at [i, k], the moments
    M[i, j] = sum_k omega^(jk) conj(psi[k + i]) psi[k], and the weighted
    deviations w (|M|^2 - 1/(d+1)). D(i, j) is monomial, so M[i, j] is
    <psi|D(i,j)|psi> without its unit factor tau^(ij)."""
    shift, dft, _, weights = tables
    shifted = psi[shift]
    products = shifted.conj()
    products *= psi
    m = products @ dft
    squares = np.square(m.view(float))  # Re M and Im M side by side
    devs = squares[:, 0::2] + squares[:, 1::2]
    devs -= 1.0 / (psi.size + 1)
    weighted = weights * devs
    return float(np.vdot(weighted, devs)), (shifted, m, weighted)


def _descent(point: tuple, tables: tuple) -> np.ndarray:
    """The gradient of the residual in complex form, 2 * dR/d conj(psi),
    from the point _evaluate gave for this psi."""
    shifted, m, weighted = point
    _, _, dft_h, _ = tables
    # M[-i, -j] = omega^(-ij) conj(M[i, j]) and the rows and weights are
    # symmetric under (i, j) -> (-i, -j), so the conj(psi[k + i]) in M[i, j]
    # and the conj(psi[k]) in conj(M[i, j]) contribute equally: 2 dR/d
    # conj(psi[k]) is 8 sum over (i, j) of w devs M[i, j] omega^(-jk) psi[k + i],
    # and dft_h holds 8 omega^(-jk), exactly, as 8 is a power of two
    return ((weighted * m) @ dft_h * shifted).sum(axis=0)


def _full(d: int, psi: np.ndarray) -> tuple[float, tuple]:
    """_evaluate over all d^2 moments, at psi read as a vector in C^d."""
    return _evaluate(np.asarray(psi, dtype=complex).reshape(d), _tables(d))


def sic_residual(d: int, psi: np.ndarray) -> float:
    """Sum of squared deviations of the overlaps from 1/(d+1)."""
    return _full(d, psi)[0]


def residual_gradient(d: int, psi: np.ndarray) -> np.ndarray:
    """Euclidean gradient of the raw residual, realified.

    The first d entries are derivatives with respect to the real parts
    of psi, the last d with respect to the imaginary parts. No sphere
    projection is applied, so central finite differences of
    sic_residual reproduce this vector directly.
    """
    gradient = _descent(_full(d, psi)[1], _tables(d))
    return np.concatenate([gradient.real, gradient.imag])


def fourth_moment(d: int, psi: np.ndarray) -> float:
    """Sum of |<psi|D|psi>|^4 over the whole group, identity included.

    Equals 2d/(d+1) exactly when psi is a fiducial.
    """
    _, (_, m, _) = _full(d, psi)
    return float(np.sum(np.abs(m) ** 4))


def known_fiducial(d: int) -> np.ndarray:
    """A reference fiducial for the dimensions with a closed form here."""
    if d == 2:
        theta = np.arccos(1 / np.sqrt(3))
        return np.array([
            np.cos(theta / 2),
            np.exp(1j * np.pi / 4) * np.sin(theta / 2),
        ])
    if d == 3:
        return np.array([0, 1, -1]) / np.sqrt(2)
    if d == 4:
        # the exact layer, run only for the one dimension that needs it
        from .sic4 import embedded_projector
        evals, evecs = np.linalg.eigh(embedded_projector())
        return evecs[:, int(np.argmax(evals))]
    raise ValueError(f"no reference fiducial stored for dimension {d}")


def _zauner_unitary(d: int) -> np.ndarray:
    """Zauner's order-3 Clifford unitary, U[r, s] = e^(i pi (d-1)/12) / sqrt(d)
    * tau^(2rs + (d+1)s^2); U^3 is a multiple of the identity."""
    r = np.arange(d)
    exponents = (2 * np.outer(r, r) + (d + 1) * r ** 2) % (2 * d)  # tau^(2d) = 1
    phase = cmath.exp(1j * math.pi * (d - 1) / 12) / math.sqrt(d)
    return phase * tau_phase(d) ** exponents


@lru_cache(maxsize=16)
def _zauner_basis(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal columns spanning the largest eigenspace of Zauner's
    unitary, of dimension floor(d/3) + 1, with the moment rows and weights
    a restart there evaluates (see the module docstring). At d = 2 mod 3
    two eigenspaces have that dimension; of the eigenvalues
    c^(1/3) e^(2 pi i k/3), k = 0, 1, 2, from the principal cube root of
    U^3 = c I, the first wins. The last 16 dimensions searched keep their
    basis, rows and weights, which cost an eigh of a d x d matrix to build
    and take about 11 d^2 bytes."""
    u = _zauner_unitary(d)
    u2 = u @ u
    cube = complex(u2[0] @ u[:, 0])  # (U^3)[0, 0]
    trace_u, trace_u2 = complex(np.trace(u)), complex(np.trace(u2))
    # U's eigenvalues are the cube roots l of `cube`; with w = conj(l), the
    # projector onto l's eigenspace is (I + w U + w^2 U^2) / 3, and its
    # trace is the eigenspace's dimension
    roots = [(cube ** (1 / 3) * cmath.exp(2j * math.pi * k / 3)).conjugate()
             for k in range(3)]
    w = max(roots, key=lambda w: round((d + w * trace_u + w * w * trace_u2).real / 3))
    values, vectors = np.linalg.eigh((np.eye(d) + w * u + w * w * u2) / 3)
    basis = vectors[:, values > 0.5]
    r = np.arange(d)
    in_rows = np.minimum(r, d - r) <= d // 3
    rows = np.flatnonzero(in_rows)
    # the orbit of (i, j) has rows +-i, +-j and +-(i + j), each the row of
    # two of G's six elements; i is in R, and R = -R
    weights = 3.0 / (1 + in_rows + in_rows[np.add.outer(rows, r) % d])
    weights[0, 0] = 0.0
    for table in (basis, rows, weights):
        table.setflags(write=False)
    return basis, rows, weights


def _normalize(psi: np.ndarray) -> np.ndarray:
    norm2 = np.vdot(psi, psi).real
    if norm2 == 0:
        raise ValueError("cannot normalize the zero vector")
    return psi / math.sqrt(norm2)


def _space(d: int, zauner: bool) -> tuple:
    """The maps from a restart's coefficients to psi and back, and the
    tables that evaluate its points: products with an orthonormal basis of
    the largest eigenspace of Zauner's unitary and with the basis's adjoint,
    and the eigenspace's rows and weights; or else the identity on all of
    C^d, and every row. np.asarray returns an array as it is, so a warm
    start's psi shares memory with its coefficients; nothing writes either
    once it is built."""
    tables = _tables(d)
    if not zauner:
        return np.asarray, np.asarray, tables
    basis, rows, weights = _zauner_basis(d)
    shift, dft, dft_h, _ = tables
    return (basis.__matmul__, basis.conj().T.__matmul__,
            (shift[rows], dft, dft_h, weights))


def _tangent_gradient(back, x: np.ndarray, point: tuple, tables: tuple) -> np.ndarray:
    """The residual's gradient over the coefficients x of psi, mapped back
    from psi's by back, less its radial part; point is _evaluate's at psi."""
    g = back(_descent(point, tables)).view(float)
    return g - g.dot(x) * x


def _single_run(config: SearchConfig, psi0: np.ndarray, restart_index: int,
                zauner: bool) -> RestartResult:
    """One L-BFGS restart from psi0, over the largest eigenspace of Zauner's
    unitary and its rows and weights, or else over all of C^d. The
    coefficients are real vectors, the real and imaginary part of each
    complex coefficient side by side, so every inner product of the
    recursion is one real dot product. Each iteration starts with the
    gradient at x and forms from it the pair (s, y) of the step that
    reached x, so a restart that converges, stalls or runs out of budget
    after n iterations computes n gradients, none at the point it ends at."""
    d = config.dimension
    to_psi, back, tables = _space(d, zauner)
    x = _normalize(back(np.asarray(psi0, dtype=complex).reshape(d))).view(float)
    psi = to_psi(x.view(complex))
    residual, point = _evaluate(psi, tables)
    iterations = 0
    converged = residual < config.tolerance
    stop_reason = "budget"
    gradient = None
    # (s, y, 1 / s.y, s.y / y.y) of the newest accepted step with s.y > 0;
    # the last factor scales the initial inverse Hessian
    pair = None
    while not converged and iterations < config.max_iterations:
        previous = gradient
        gradient = _tangent_gradient(back, x, point, tables)
        if previous is not None:  # the pair of the step that reached x
            y = gradient - previous
            sy = s.dot(y)
            if sy > 0:  # keep H positive definite
                pair = s, y, 1.0 / sy, sy / y.dot(y)
        if gradient.dot(gradient) < 1e-36:  # |gradient| < 1e-18
            stop_reason = "zero_gradient"
            break
        q = gradient
        if pair is not None:
            # q = H gradient: the two-loop recursion over one pair, in its
            # order of operations
            s, y, rho, scale = pair
            a = rho * s.dot(q)
            q = scale * (q - a * y)
            q = q + (a - rho * y.dot(q)) * s
        slope = -gradient.dot(q)
        if slope >= 0:  # rounding spoiled H: fall back on steepest descent
            pair = None
            q = gradient
            slope = -gradient.dot(gradient)
        iterations += 1
        alpha, step = 1.0, q
        for _ in range(MAX_HALVINGS + 1):
            trial = x - step
            trial /= math.sqrt(trial.dot(trial))
            trial_psi = to_psi(trial.view(complex))
            value, trial_point = _evaluate(trial_psi, tables)
            if value <= residual + ARMIJO * alpha * slope:
                break
            alpha *= 0.5
            step = alpha * q
        else:
            stop_reason = "stalled"
            break
        small = residual - value < MIN_DECREASE * residual
        s = trial - x
        x, psi, residual, point = trial, trial_psi, value, trial_point
        converged = residual < config.tolerance
        if small and not converged:
            stop_reason = "stalled"
            break
    if converged:
        stop_reason = "converged"
    return RestartResult(restart_index, residual, iterations, converged, psi,
                         stop_reason)


def search(config: SearchConfig,
           initial: np.ndarray | None = None) -> SearchResult:
    """Run restarts until one converges or all have run; the best wins.

    A warm start vector, when given, is used by restart 0, which
    searches all of C^d (a known fiducial need not lie in the Zauner
    eigenspace). The remaining restarts draw their starting states from
    per-restart seeded streams default_rng([rng_seed, restart_index])
    and search the Zauner eigenspace from the start's projection onto
    it. A warm start must hold d finite entries.
    """
    d = config.dimension
    if initial is not None:
        initial = np.asarray(initial, dtype=complex)
        if initial.size != d:
            raise ValueError(f"initial state must have {d} entries, "
                             f"got {initial.size}")
        if not np.isfinite(initial).all():
            raise ValueError("initial state must be finite")
    results: list[RestartResult] = []
    for k in range(config.restarts):
        if k == 0 and initial is not None:
            result = _single_run(config, initial, k, zauner=False)
        else:
            rng = np.random.default_rng([config.rng_seed, k])
            psi0 = rng.normal(size=d) + 1j * rng.normal(size=d)
            result = _single_run(config, psi0, k, zauner=True)
        results.append(result)
        if result.converged:
            break
    best = min(results, key=lambda r: r.residual)
    _, (_, m, weighted) = _full(d, best.fiducial)
    return SearchResult(
        dimension=d,
        converged=best.converged,
        residual=best.residual,
        sic_defect=float(np.abs(weighted).max()),
        fiducial=best.fiducial,
        restart_index=best.restart_index,
        iterations=best.iterations,
        fourth_moment=float(np.sum(np.abs(m) ** 4)),
        restarts=tuple(results),
    )


def extract_phases(psi: np.ndarray) -> np.ndarray:
    """Read the reconstruction phases off a numerical fiducial.

    phases(i, j) = sqrt(d + 1) * <psi|D(i,j)|psi> must be unit modulus;
    anything farther than PHASE_TOLERANCE from the unit circle means the
    state is not a fiducial, and that is an error. The (0, 0) slot is
    set to 1.
    """
    psi = np.asarray(psi, dtype=complex)
    d = psi.shape[0]
    psi = _normalize(psi.reshape(d))
    tau = tau_phase(d) ** (np.outer(range(d), range(d)) % (2 * d))  # tau^(2d) = 1
    _, (_, m, _) = _full(d, psi)
    phases = np.sqrt(d + 1.0) * tau * m
    moduli = np.abs(phases.flat[1:])
    worst = float(np.max(np.abs(moduli - 1.0)))
    if worst > PHASE_TOLERANCE:
        raise ValueError(
            f"state is not a fiducial: a phase modulus misses 1 by {worst:.3g}"
        )
    phases[0, 0] = 1.0
    return phases
