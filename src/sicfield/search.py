"""Numerical search for SIC fiducials in small dimensions.

The residual of a unit vector psi is

    R(psi) = sum over (i, j) != (0, 0) of (|<psi|D(i,j)|psi>|^2 - 1/(d+1))^2,

which vanishes exactly on fiducials. The optimizer is projected
gradient descent on the unit sphere with backtracking line search and
seeded restarts; every restart draws its own independent random stream,
so any single restart can be reproduced in isolation. The descent loop
holds the current point's moments table: each line-search evaluation
builds one table, and the gradient of the accepted point reuses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from ._lazy import np
from .sic4 import embedded_projector
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

#: the line search's first step in each restart, and its shrink per rejection
INITIAL_STEP = 1.0
SHRINK_FACTOR = 0.5
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
        evals, evecs = np.linalg.eigh(embedded_projector())
        return evecs[:, int(np.argmax(evals))]
    raise ValueError(f"no reference fiducial stored for dimension {d}")


def _normalize(psi: np.ndarray) -> np.ndarray:
    norm2 = np.vdot(psi, psi).real
    if norm2 == 0:
        raise ValueError("cannot normalize the zero vector")
    return psi / math.sqrt(norm2)


def _single_run(config: SearchConfig, psi0: np.ndarray,
                restart_index: int) -> RestartResult:
    d = config.dimension
    psi = _normalize(np.asarray(psi0, dtype=complex).reshape(d))
    residual, m, devs = _evaluate(d, psi)
    step = INITIAL_STEP
    iterations = 0
    converged = residual < config.tolerance
    stop_reason = "budget"
    while not converged and iterations < config.max_iterations:
        direction = _descent(d, psi, m, devs)
        if np.vdot(direction, direction).real < 1e-36:  # |direction| < 1e-18
            stop_reason = "zero_gradient"
            break
        alpha = step
        improved = False
        while alpha > 1e-18:
            candidate = _normalize(psi - alpha * direction)
            value, candidate_m, candidate_devs = _evaluate(d, candidate)
            if value < residual:
                psi, residual, m, devs = candidate, value, candidate_m, candidate_devs
                # let the accepted step grow again so long plateaus
                # do not pin the line search at a tiny scale
                step = alpha * 2
                improved = True
                break
            alpha *= SHRINK_FACTOR
        iterations += 1
        if not improved:
            stop_reason = "stalled"
            break
        converged = residual < config.tolerance
    if converged:
        stop_reason = "converged"
    return RestartResult(restart_index, residual, iterations, converged, psi,
                         stop_reason)


def search(config: SearchConfig,
           initial: np.ndarray | None = None) -> SearchResult:
    """Run restarts until one converges or all have run; the best wins.

    A warm start vector, when given, is used by restart 0; the
    remaining restarts draw their starting states from per-restart
    seeded streams default_rng([rng_seed, restart_index]). A warm start
    must hold d finite entries.
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
            psi0 = initial
        else:
            rng = np.random.default_rng([config.rng_seed, k])
            psi0 = _normalize(rng.normal(size=d) + 1j * rng.normal(size=d))
        result = _single_run(config, psi0, k)
        results.append(result)
        if result.converged:
            break
    best = min(results, key=lambda r: r.residual)
    return SearchResult(
        dimension=d,
        converged=best.converged,
        residual=best.residual,
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
