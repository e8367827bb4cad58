"""Reference implementations that tests compare the library against.

`lbfgs_run` is one restart of the fiducial search written the plain
way: the two-loop recursion over a list of the last three steps, every
residual and gradient from the public `sic_residual` and
`residual_gradient`, and the basis applied explicitly to every point
and gradient, so the moments table of each accepted point is built
twice. `sicfield.search._single_run` carries that table instead. The
coefficients are real vectors, the real and imaginary part of each
complex coefficient side by side, as in `_single_run`. Over all of C^d
(a warm start) both read every moment with weight 1, so the two must
agree bit for bit. In the Zauner eigenspace `_single_run` reads only
the rows that meet each symmetry orbit, weighted, which equals the full
residual there up to rounding: the two must take the same iterations
and stop for the same reason, at residuals within 1e-12 of each other,
relative to max(1, residual).

`gauss_jordan` is the textbook reduced row echelon form over Fraction,
row by row, for `sicfield.linalg`, which reads its reduced form off the
dependencies among the columns instead.

`minimal_polynomial` is the first linear dependence among the powers
1, a, a^2, ... of a field element, found by `gauss_jordan`, for
`sicfield.minpoly.minimal_polynomial`, which reads it off the traces of
the powers by Newton's identities instead.

`render_number` is the earlier `sicfield.cli.render_number`, which
picked a conversion by type and read an mpmath value through a 25-digit
string, for the one that rounds the exact rational once.

`dense_displacement` and `dense_reconstruction` build the d = 4
displacements and the SIC projector as products and sums of dense 4 x 4
matrices, for `sicfield.sic4.reconstruct_projector`, which reads each
displacement's one nonzero entry per column instead.

`numeric_displacement` is the same D(i, j) = tau^(ij) X^i Z^j in any
dimension d, in floating point, as a product of powers of the dense
shift and clock matrices, for `sicfield.search`, whose moment tables
read each displacement off its index rule instead.

`reduce_mod` is polynomial long division by a monic modulus, for the
structure tensor that `sicfield.tower.FieldElement.__mul__` contracts
with instead.

`mat_mul`, `dagger`, `scaled_identity`, `scale`, `mat_vec` and `inner`
are plain 4 x 4 matrix and vector operations over FieldElement, written
here entry by entry so that no reference leans on `sicfield.matrices`,
whose product and adjoint `sicfield.sic4.verify_sic_projector` checks
idempotence and hermiticity with.

`parenthesized` renders an expression tree with every operand in
parentheses, for the parser to read back: it needs no precedence rules
and no care for the rational literal a bare "int / int" would be.
"""

from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np

from sicfield.search import (
    ARMIJO, MAX_HALVINGS, MEMORY, MIN_DECREASE, residual_gradient, sic_residual,
)
from sicfield.expressions import BinOp, Literal, Name, Pow, Unary
from sicfield.tower import FieldElement, constant


def normalize(psi):
    return psi / np.sqrt(np.vdot(psi, psi).real)


def lbfgs_run(d, psi0, basis, max_iterations, tolerance):
    """(residual, iterations, converged, stop_reason, fiducial) of one
    restart from psi0 over the span of basis's orthonormal columns."""

    def state(x):
        return basis @ x.view(complex)

    def gradient(x):
        # the gradient over the coefficients, less its radial part
        grad = residual_gradient(d, state(x))
        g = (basis.conj().T @ (grad[:d] + 1j * grad[d:])).view(float)
        return g - g.dot(x) * x

    x = normalize(basis.conj().T @ np.asarray(psi0, dtype=complex).reshape(d)).view(float)
    residual = sic_residual(d, state(x))
    steps = []  # (s, y) of the last MEMORY accepted steps, oldest first
    iterations = 0
    stop_reason = "budget"
    while residual >= tolerance and iterations < max_iterations:
        g = gradient(x)
        if g.dot(g) < 1e-36:
            stop_reason = "zero_gradient"
            break
        # two-loop recursion: q = H g for the L-BFGS inverse Hessian H
        q = g
        alphas = []
        for s, y in reversed(steps):
            alphas.append(1.0 / s.dot(y) * s.dot(q))
            q = q - alphas[-1] * y
        gamma = 1.0
        if steps:
            s, y = steps[-1]
            gamma = s.dot(y) / y.dot(y)
        q = gamma * q
        for (s, y), a in zip(steps, reversed(alphas)):
            q = q + (a - 1.0 / s.dot(y) * y.dot(q)) * s
        slope = -g.dot(q)
        if slope >= 0:
            steps = []
            q = g
            slope = -g.dot(g)
        # Armijo backtracking from the unit step
        iterations += 1
        alpha = 1.0
        for _ in range(MAX_HALVINGS + 1):
            trial = normalize(x - alpha * q)
            value = sic_residual(d, state(trial))
            if value <= residual + ARMIJO * alpha * slope:
                break
            alpha *= 0.5
        else:
            stop_reason = "stalled"
            break
        s, y = trial - x, gradient(trial) - g
        if s.dot(y) > 0:
            steps = (steps + [(s, y)])[-MEMORY:]
        small = residual - value < MIN_DECREASE * residual
        x, residual = trial, value
        if small and residual >= tolerance:
            stop_reason = "stalled"
            break
    converged = residual < tolerance
    if converged:
        stop_reason = "converged"
    return residual, iterations, converged, stop_reason, state(x)


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


def minimal_polynomial(a):
    """Monic coefficients, lowest power first, of the minimal polynomial
    of a field element: the first power a^n that depends on 1, ..., a^(n-1),
    read off the RREF of the 16 x 17 matrix whose columns are the powers
    1, a, ..., a^16, whose first free column is n."""
    powers = [FieldElement.one()]
    for _ in range(16):
        powers.append(powers[-1] * a)
    reduced, pivots = gauss_jordan(list(zip(*(p.coords for p in powers))))
    n = next(k for k in range(17) if k not in pivots)
    return [-reduced[row][n] for row in range(n)] + [Fraction(1)]


def render_number(value):
    """12 significant digits, round half to even."""
    with localcontext() as ctx:
        ctx.prec = 12
        ctx.rounding = ROUND_HALF_EVEN
        if isinstance(value, Fraction):
            dec = Decimal(value.numerator) / Decimal(value.denominator)
        elif isinstance(value, int):
            dec = Decimal(value)
        elif isinstance(value, float) or not isinstance(value, mpmath.mpf):
            dec = Decimal(float(value))
        else:
            dec = Decimal(mpmath.nstr(value, 25))
        return str(ctx.plus(dec))


def mat_mul(a, b):
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(4)), FieldElement.zero())
                       for j in range(4)) for i in range(4))


def dagger(m):
    return tuple(tuple(m[j][i].conjugate() for j in range(4)) for i in range(4))


def scaled_identity(s):
    zero = FieldElement.zero()
    return tuple(tuple(s if a == b else zero for b in range(4)) for a in range(4))


def scale(s, m):
    return tuple(tuple(s * x for x in row) for row in m)


def mat_vec(m, v):
    return tuple(sum((x * y for x, y in zip(row, v)), FieldElement.zero())
                 for row in m)


def inner(v, w):
    """Hermitian inner product, conjugate-linear in the first slot."""
    return sum((x.conjugate() * y for x, y in zip(v, w)), FieldElement.zero())


@lru_cache(maxsize=None)
def dense_displacement(i, j):
    """Exact tau^(ij) X^i Z^j as a product of dense matrices."""
    one, zero, tau = FieldElement.one(), FieldElement.zero(), constant("tau")
    shift = tuple(tuple(one if a == (b + 1) % 4 else zero for b in range(4))
                  for a in range(4))
    clock = tuple(tuple(constant("i") ** a if a == b else zero for b in range(4))
                  for a in range(4))
    out = scaled_identity(tau ** (i * j))
    for _ in range(i):
        out = mat_mul(out, shift)
    for _ in range(j):
        out = mat_mul(out, clock)
    return out


def numeric_displacement(d, i, j):
    """tau^(ij) X^i Z^j with tau = -exp(i pi / d), from the shift
    X|k> = |k + 1 mod d> and the clock Z|k> = tau^(2k) |k>."""
    tau = -np.exp(1j * np.pi / d)
    shift = np.roll(np.eye(d), 1, axis=0)
    clock = np.diag(tau ** (2 * np.arange(d)))
    return tau ** (i * j) * (np.linalg.matrix_power(shift, i)
                             @ np.linalg.matrix_power(clock, j))


def dense_reconstruction(phases):
    """(1/4)(I + (1/sqrt5) sum phases(i, j) D(i, j)^dagger), term by term."""
    inv_sqrt5 = constant("sqrt5") / 5
    acc = scaled_identity(FieldElement.one())
    for i in range(4):
        for j in range(4):
            if (i, j) != (0, 0):
                s = phases[i][j] * inv_sqrt5
                term = dagger(dense_displacement(i, j))
                acc = tuple(tuple(x + s * y for x, y in zip(ra, rt))
                            for ra, rt in zip(acc, term))
    return tuple(tuple(x / 4 for x in row) for row in acc)


def reduce_mod(coeffs, modulus):
    """The remainder of a polynomial on division by a monic one, both
    given lowest power first, as deg(modulus) Fractions."""
    out = [Fraction(c) for c in coeffs]
    n = len(modulus) - 1
    for k in range(len(out) - 1, n - 1, -1):
        c = out[k]
        for i, m in enumerate(modulus):
            out[k - n + i] -= c * m
    return out[:n] + [Fraction(0)] * (n - len(out))


def parenthesized(node):
    """Source text for an expression tree, each operand in parentheses."""
    if isinstance(node, Literal):
        return str(node.value)
    if isinstance(node, Name):
        return node.name
    if isinstance(node, Unary):
        return f"-({parenthesized(node.operand)})"
    if isinstance(node, Pow):
        return f"({parenthesized(node.base)})^{node.exponent}"
    if isinstance(node, BinOp):
        return f"({parenthesized(node.left)}) {node.op} ({parenthesized(node.right)})"
    raise TypeError(f"not an expression node: {node!r}")
