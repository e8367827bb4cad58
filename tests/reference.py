"""Reference implementations that tests compare the library against.

`descent_run` is one restart of the fiducial search written the plain
way: every residual and gradient comes from the public `sic_residual`
and `residual_gradient`, so the moments table of each accepted point is
built twice, once in the line search and again for the next gradient.
`sicfield.search._single_run` carries that table instead, and must give
the same result bit for bit.
"""

import numpy as np

from sicfield.search import INITIAL_STEP, SHRINK_FACTOR, residual_gradient, sic_residual


def normalize(psi):
    return psi / np.sqrt(np.vdot(psi, psi).real)


def descent_run(d, psi0, max_iterations, tolerance):
    """(residual, iterations, converged, fiducial) of one restart from psi0."""
    psi = normalize(np.asarray(psi0, dtype=complex).reshape(d))
    residual = sic_residual(d, psi)
    step = INITIAL_STEP
    iterations = 0
    converged = residual < tolerance
    while not converged and iterations < max_iterations:
        grad = residual_gradient(d, psi)
        direction = grad[:d] + 1j * grad[d:]
        if np.linalg.norm(direction) < 1e-18:
            break
        alpha = step
        improved = False
        while alpha > 1e-18:
            candidate = normalize(psi - alpha * direction)
            value = sic_residual(d, candidate)
            if value < residual:
                psi, residual = candidate, value
                step = alpha * 2
                improved = True
                break
            alpha *= SHRINK_FACTOR
        iterations += 1
        if not improved:
            break
        converged = residual < tolerance
    return residual, iterations, converged, psi
