"""Exact linear algebra over Q, sized for the degree-16 tower.

first_dependence is the only elimination the library runs; the tower's
inverse and minimal polynomial both read it. rref, solve and nullspace
(fraction-free, by Bareiss's rule) are kept for tests and tracing.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Matrix = list[list[Fraction]]


class LinearSystemError(ValueError):
    """Raised when a linear system has no solution."""


def _integer_rows(rows: Sequence[Sequence[int | Fraction]]) -> list[list[int]]:
    """Each row times the lcm of its denominators; scaling a row leaves
    the row space, and so the reduced form, unchanged."""
    out = []
    for row in rows:
        cs = [Fraction(c) for c in row]
        scale = lcm(*(c.denominator for c in cs)) if cs else 1
        out.append([c.numerator * (scale // c.denominator) for c in cs])
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("ragged matrix")
    return out


def bareiss(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Returns (reduced, pivots, divisor) with reduced == divisor * RREF:
    every pivot entry equals divisor and the rest of each pivot column
    is zero. Each entry stays an integer minor of the input, so every
    division below is exact. Pivoting is deterministic: the first
    nonzero entry in column order.
    """
    m = [list(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        k = next((k for k in range(r, nrows) if m[k][c]), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(nrows):
            if i == r:
                continue
            x = m[i][c]
            if x:
                m[i] = [(p * a - x * b) // prev for a, b in zip(m[i], prow)]
            elif p != prev:
                m[i] = [p * a // prev for a in m[i]]
        pivots.append(c)
        prev = p
        r += 1
    return m, pivots, prev


def rref(rows: Sequence[Sequence[int | Fraction]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns.

    Pivoting is deterministic: the first nonzero entry in column order.
    """
    reduced, pivots, divisor = bareiss(_integer_rows(rows))
    return [[Fraction(c, divisor) for c in row] for row in reduced], pivots


def solve(rows: Sequence[Sequence[int | Fraction]],
          rhs: Sequence[int | Fraction]) -> list[Fraction]:
    """Solve A x = b exactly.

    Raises LinearSystemError("inconsistent") when no solution exists. For
    underdetermined consistent systems the free variables are set to zero,
    which makes the answer deterministic.
    """
    if len(rows) != len(rhs):
        raise ValueError("dimension mismatch between matrix and rhs")
    if not rows:
        if any(c != 0 for c in rhs):
            raise LinearSystemError("inconsistent")
        return []
    ncols = len(rows[0])
    reduced, pivots = rref([list(row) + [bk] for row, bk in zip(rows, rhs)])
    if ncols in pivots:
        raise LinearSystemError("inconsistent")
    x = [Fraction(0)] * ncols
    for k, col in enumerate(pivots):
        x[col] = reduced[k][ncols]
    return x


def nullspace(rows: Sequence[Sequence[int | Fraction]]) -> list[list[Fraction]]:
    """Basis of the right kernel of A, one vector per free column."""
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[list[Fraction]] = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for k, col in enumerate(pivots):
            v[col] = -reduced[k][f]
        basis.append(v)
    return basis


def first_dependence(vectors: Iterable[Sequence[int]]) -> list[int] | None:
    """Integer coefficients c_0..c_n, c_n != 0, of the first linear
    dependence sum c_k v_k = 0 in a stream of integer vectors.

    Vectors are drawn only until the dependence shows, so a lazy stream
    (the powers of a field element) is never computed past it. Each new
    vector is reduced against the earlier ones by fraction-free row
    operations, with the content divided out after every step; None
    means the stream ended first.
    """
    basis: list[tuple[int, list[int], list[int]]] = []  # pivot, row, combination
    for n, v in enumerate(vectors):
        row = list(v)
        combo = [0] * n + [1]
        for pivot, brow, bcombo in basis:
            x = row[pivot]
            if not x:
                continue
            p = brow[pivot]
            row = [p * a - x * b for a, b in zip(row, brow)]
            combo = [p * a for a in combo]
            for k, b in enumerate(bcombo):
                combo[k] -= x * b
            g = gcd(*row, *combo)
            if g > 1:
                row = [a // g for a in row]
                combo = [a // g for a in combo]
        if not any(row):
            return combo
        pivot = next(k for k, a in enumerate(row) if a)
        basis.append((pivot, row, combo))
    return None
