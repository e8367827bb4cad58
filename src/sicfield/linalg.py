"""Exact linear algebra over Q: rref, solve and nullspace.

Nothing else in the package calls this module; it serves the tests and
the benchmark tracer. One elimination, `_dependencies`, reduces a stream
of integer vectors fraction-free and yields each linear dependence it
meets. rref, solve and nullspace read the dependencies among a matrix's
columns: a column is a pivot exactly when it is independent of the
columns before it, and the dependence of a free column holds its RREF
entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Sequence

from .polynomials import _integers_over_lcm

Matrix = list[list[Fraction]]


class LinearSystemError(ValueError):
    """Raised when a linear system has no solution."""


def _dependencies(vectors: Iterable[Sequence[int]]) -> Iterator[list[int]]:
    """For each vector v_n of a stream of integer vectors that depends on
    the earlier ones, the integer coefficients c_0..c_n, c_n != 0, of
    sum c_k v_k = 0; c_k is zero unless v_k is independent of v_0..v_(k-1).

    Each new vector is reduced against the independent ones by
    fraction-free row operations, with the content divided out after
    every step. A dependence is yielded before the next vector is drawn.
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
        if any(row):
            basis.append((next(k for k, a in enumerate(row) if a), row, combo))
        else:
            yield combo


def _column_dependencies(
        rows: Sequence[Sequence[int | Fraction]]) -> tuple[int, dict[int, list[int]]]:
    """The column count and, for each free column f, the dependence of
    column f on the pivot columns before it. Scaling a row by the lcm of
    its denominators changes no dependence among the columns."""
    ints = [_integers_over_lcm(row)[0] for row in rows]
    ncols = len(ints[0]) if ints else 0
    if any(len(row) != ncols for row in ints):
        raise ValueError("ragged matrix")
    return ncols, {len(c) - 1: c for c in _dependencies(zip(*ints))}


def rref(rows: Sequence[Sequence[int | Fraction]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns.

    Pivoting is deterministic: the first nonzero entry in column order.
    """
    ncols, free = _column_dependencies(rows)
    pivots = [j for j in range(ncols) if j not in free]
    reduced = [[Fraction(0)] * ncols for _ in rows]
    for k, p in enumerate(pivots):
        reduced[k][p] = Fraction(1)
        for f, c in free.items():
            if p < f:
                reduced[k][f] = Fraction(-c[p], c[f])
    return reduced, pivots


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
        return []
    n, free = _column_dependencies([list(row) + [bk] for row, bk in zip(rows, rhs)])
    # b depends on the pivot columns of A alone, so the free variables are zero
    c = free.get(n - 1)
    if c is None:
        raise LinearSystemError("inconsistent")
    return [Fraction(-a, c[-1]) for a in c[:-1]]


def nullspace(rows: Sequence[Sequence[int | Fraction]]) -> list[list[Fraction]]:
    """Basis of the right kernel of A, one vector per free column f, with
    entry f equal to 1 and every other free entry 0."""
    ncols, free = _column_dependencies(rows)
    return [[Fraction(a, c[-1]) for a in c] + [Fraction(0)] * (ncols - len(c))
            for c in free.values()]
