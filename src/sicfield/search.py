"""Numerical search for SIC fiducials.

The residual of a unit vector psi is

    R(psi) = sum over (i, j) != (0, 0) of (|<psi|D(i,j)|psi>|^2 - 1/(d+1))^2,

which vanishes exactly on fiducials. Zauner's conjecture, which every
known Weyl-Heisenberg SIC bears out, puts a fiducial in an eigenspace
of Zauner's order-3 Clifford unitary; each restart searches the largest
one, of dimension floor(d/3) + 1, over the coefficients of an
orthonormal basis built once per d. A warm start searches all of C^d.

The optimizer is L-BFGS on the unit sphere of coefficients: the
two-loop recursion over the last MEMORY steps, then Armijo backtracking
from the unit step, normalizing every trial point. A restart stalls
when MAX_HALVINGS halvings find no Armijo decrease, or when an accepted
step lowers the residual by less than MIN_DECREASE of itself, so a
restart caught in a local minimum ends early. Every restart draws its
own random stream, so any single restart can be reproduced in
isolation. Each point costs one moments table: the accepted point's
table also gives its gradient.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from ._lazy import np
from .weyl import tau_phase

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

#: L-BFGS: pairs kept, halvings of the unit step a line search may try,
#: Armijo's sufficient-decrease fraction, and the relative decrease below
#: which an accepted step ends the restart as stalled
MEMORY = 3
MAX_HALVINGS = 20
ARMIJO = 1e-4
MIN_DECREASE = 1e-9
#: how far extract_phases lets a phase modulus miss 1
PHASE_TOLERANCE = 1e-6
#: largest dimension a search accepts: the d x d tables and products a
#: restart holds are 16 MB each here, about 0.1 GB in all, and grow as d^2
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
    #: no lower residual), "budget" (max_iterations ran out) or
    #: "zero_gradient"
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


@lru_cache(maxsize=1)
def _tables(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The index (k + i) mod d at [i, k], and omega^(jk) at [k, j]; only
    the dimension in use is kept, as the pair takes 24 d^2 bytes."""
    r = np.arange(d)
    shift = np.add.outer(r, r) % d
    dft = np.exp(2j * np.pi / d * (np.outer(r, r) % d))
    for table in (shift, dft):
        table.setflags(write=False)
    return shift, dft


def _moments(d: int, psi: np.ndarray) -> np.ndarray:
    """M[i, j] = sum_k omega^(jk) conj(psi[k + i]) psi[k]: D(i, j) is
    monomial, so this is <psi|D(i,j)|psi> without its unit factor tau^(ij)."""
    shift, dft = _tables(d)
    return (psi[shift].conj() * psi) @ dft


def _evaluate(d: int, psi: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """The residual at psi, with the moments table and the deviations
    |M|^2 - 1/(d+1) (zero at (0, 0)) that _descent reads."""
    m = _moments(d, psi)
    devs = m.real ** 2 + m.imag ** 2 - 1.0 / (d + 1)
    devs[0, 0] = 0.0
    flat = devs.ravel()
    return float(flat @ flat), m, devs


def _descent(d: int, psi: np.ndarray, m: np.ndarray, devs: np.ndarray) -> np.ndarray:
    """The gradient of the residual in complex form, 2 * dR/d conj(psi),
    from the moments and deviations _evaluate gave for this psi."""
    shift, dft = _tables(d)
    # M[-i, -j] = omega^(-ij) conj(M[i, j]), so the conj(psi[k + i]) in
    # M[i, j] and the conj(psi[k]) in conj(M[i, j]) contribute equally
    weights = (2 * devs * m) @ dft.conj()
    return 4 * (weights * psi[shift]).sum(axis=0)


def sic_residual(d: int, psi: np.ndarray) -> float:
    """Sum of squared deviations of the overlaps from 1/(d+1)."""
    return _evaluate(d, np.asarray(psi, dtype=complex).reshape(d))[0]


def residual_gradient(d: int, psi: np.ndarray) -> np.ndarray:
    """Euclidean gradient of the raw residual, realified.

    The first d entries are derivatives with respect to the real parts
    of psi, the last d with respect to the imaginary parts. No sphere
    projection is applied, so central finite differences of
    sic_residual reproduce this vector directly.
    """
    psi = np.asarray(psi, dtype=complex).reshape(d)
    _, m, devs = _evaluate(d, psi)
    gradient = _descent(d, psi, m, devs)
    return np.concatenate([gradient.real, gradient.imag])


def fourth_moment(d: int, psi: np.ndarray) -> float:
    """Sum of |<psi|D|psi>|^4 over the whole group, identity included.

    Equals 2d/(d+1) exactly when psi is a fiducial.
    """
    psi = np.asarray(psi, dtype=complex).reshape(d)
    return float(np.sum(np.abs(_moments(d, psi)) ** 4))


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
def _zauner_basis(d: int) -> np.ndarray:
    """Orthonormal columns spanning the largest eigenspace of Zauner's
    unitary, of dimension floor(d/3) + 1. At d = 2 mod 3 two eigenspaces
    have that dimension; of the eigenvalues c^(1/3) e^(2 pi i k/3),
    k = 0, 1, 2, from the principal cube root of U^3 = c I, the first
    wins. The last 16 dimensions searched keep their basis, which costs
    an eigh of a d x d matrix to build."""
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
    basis.setflags(write=False)
    return basis


def _normalize(psi: np.ndarray) -> np.ndarray:
    norm2 = np.vdot(psi, psi).real
    if norm2 == 0:
        raise ValueError("cannot normalize the zero vector")
    return psi / math.sqrt(norm2)


def _tangent_gradient(d: int, basis_h: np.ndarray, x: np.ndarray, psi: np.ndarray,
                      m: np.ndarray, devs: np.ndarray) -> np.ndarray:
    """The residual's gradient over the coefficients x of psi = basis @ x,
    less its radial part, from the moments _evaluate gave for psi."""
    g = (basis_h @ _descent(d, psi, m, devs)).view(float)
    return g - g.dot(x) * x


def _single_run(config: SearchConfig, psi0: np.ndarray, restart_index: int,
                basis: np.ndarray) -> RestartResult:
    """One L-BFGS restart from psi0 over the span of basis's orthonormal
    columns. The coefficients are real vectors, the real and imaginary
    part of each complex coefficient side by side, so every inner product
    of the recursion is one real dot product."""
    d = config.dimension
    basis_h = basis.conj().T
    x = _normalize(basis_h @ np.asarray(psi0, dtype=complex).reshape(d)).view(float)
    psi = basis @ x.view(complex)
    residual, m, devs = _evaluate(d, psi)
    iterations = 0
    converged = residual < config.tolerance
    stop_reason = "budget"
    gradient = None
    # (s, y, 1 / s.y) of the last MEMORY accepted steps, oldest first, and
    # the newest pair's s.y / y.y, which scales the initial inverse Hessian
    pairs: list[tuple[np.ndarray, np.ndarray, float]] = []
    scale = 1.0
    while not converged and iterations < config.max_iterations:
        if gradient is None:
            gradient = _tangent_gradient(d, basis_h, x, psi, m, devs)
        if gradient.dot(gradient) < 1e-36:  # |gradient| < 1e-18
            stop_reason = "zero_gradient"
            break
        # the two-loop recursion: q = H gradient
        q = gradient
        alphas = []
        for s, y, rho in reversed(pairs):
            a = rho * s.dot(q)
            q = q - a * y
            alphas.append(a)
        q = scale * q
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            q = q + (a - rho * y.dot(q)) * s
        slope = -gradient.dot(q)
        if slope >= 0:  # rounding spoiled H: fall back on steepest descent
            pairs.clear()
            scale = 1.0
            q = gradient
            slope = -gradient.dot(gradient)
        iterations += 1
        alpha, step = 1.0, q
        for _ in range(MAX_HALVINGS + 1):
            trial = _normalize(x - step)
            trial_psi = basis @ trial.view(complex)
            value, trial_m, trial_devs = _evaluate(d, trial_psi)
            if value <= residual + ARMIJO * alpha * slope:
                break
            alpha *= 0.5
            step = alpha * q
        else:
            stop_reason = "stalled"
            break
        new_gradient = _tangent_gradient(d, basis_h, trial, trial_psi, trial_m,
                                         trial_devs)
        s = trial - x
        y = new_gradient - gradient
        sy = s.dot(y)
        if sy > 0:  # keep H positive definite
            pairs.append((s, y, 1.0 / sy))
            scale = sy / y.dot(y)
            if len(pairs) > MEMORY:
                del pairs[0]
        small = residual - value < MIN_DECREASE * residual
        x, psi, residual, m, devs, gradient = (trial, trial_psi, value, trial_m,
                                              trial_devs, new_gradient)
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
            psi0, basis = initial, np.eye(d)
        else:
            rng = np.random.default_rng([config.rng_seed, k])
            psi0 = rng.normal(size=d) + 1j * rng.normal(size=d)
            basis = _zauner_basis(d)
        result = _single_run(config, psi0, k, basis)
        results.append(result)
        if result.converged:
            break
    best = min(results, key=lambda r: r.residual)
    _, _, devs = _evaluate(d, best.fiducial)
    return SearchResult(
        dimension=d,
        converged=best.converged,
        residual=best.residual,
        sic_defect=float(np.abs(devs).max()),
        fiducial=best.fiducial,
        restart_index=best.restart_index,
        iterations=best.iterations,
        fourth_moment=fourth_moment(d, best.fiducial),
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
    phases = np.sqrt(d + 1.0) * tau * _moments(d, psi)
    moduli = np.abs(phases.flat[1:])
    worst = float(np.max(np.abs(moduli - 1.0)))
    if worst > PHASE_TOLERANCE:
        raise ValueError(
            f"state is not a fiducial: a phase modulus misses 1 by {worst:.3g}"
        )
    phases[0, 0] = 1.0
    return phases
