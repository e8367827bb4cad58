"""Reference implementations that tests compare the library against.

`descent_run` is one restart of the fiducial search written the plain
way: every residual and gradient comes from the public `sic_residual`
and `residual_gradient`, so the moments table of each accepted point is
built twice, once in the line search and again for the next gradient.
`sicfield.search._single_run` carries that table instead, and must give
the same result bit for bit.

`gauss_jordan` is the textbook reduced row echelon form over Fraction,
row by row, for `sicfield.linalg`, which reads its reduced form off the
dependencies among the columns instead.
"""

from fractions import Fraction

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


def gauss_jordan(rows):
    """(reduced, pivots): the RREF of a rational matrix and its pivot
    columns, pivoting on the first nonzero entry in column order."""
    m = [[Fraction(c) for c in row] for row in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        k = next((k for k in range(r, len(m)) if m[k][c] != 0), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        m[r] = [a / m[r][c] for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                x = m[i][c]
                m[i] = [a - x * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots
