from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from reference import gauss_jordan
from sicfield.linalg import LinearSystemError, nullspace, rref, solve

INTEGERS = st.integers(min_value=-5, max_value=5)
RATIONALS = st.one_of(st.just(0), INTEGERS,
                      st.fractions(min_value=-5, max_value=5, max_denominator=7))


def int_matrix(rows: int, cols: int):
    return st.lists(
        st.lists(INTEGERS, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    )


@st.composite
def matrices(draw):
    """Matrices of every shape up to 5 x 6, 0 x n included (written []),
    with some rows and columns set to zero."""
    nrows = draw(st.integers(0, 5))
    ncols = draw(st.integers(0, 6))
    m = draw(st.lists(st.lists(RATIONALS, min_size=ncols, max_size=ncols),
                      min_size=nrows, max_size=nrows))
    zero_rows = draw(st.sets(st.integers(0, nrows - 1))) if nrows else set()
    zero_cols = draw(st.sets(st.integers(0, ncols - 1))) if ncols else set()
    return [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
            for i, row in enumerate(m)]


def reference_nullspace(m):
    reduced, pivots = gauss_jordan(m)
    ncols = len(m[0]) if m else 0
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for k, col in enumerate(pivots):
            v[col] = -reduced[k][f]
        basis.append(v)
    return basis


EDGE_SHAPES = ([], [[]], [[0, 0, 0]], [[0], [0]], [[Fraction(1, 2), 0, 3]],
               [[Fraction(-2, 3)], [0], [5]], [[0, 0], [0, 1]])


def test_solve_identity():
    assert solve([[1, 0], [0, 1]], [3, 4]) == [3, 4]


def test_solve_2x2():
    # x + y = 3, x - y = 1
    assert solve([[1, 1], [1, -1]], [3, 1]) == [2, 1]


def test_solve_exact_fractions():
    sol = solve([[2, 1], [1, 3]], [1, 0])
    assert sol == [Fraction(3, 5), Fraction(-1, 5)]


def test_solve_inconsistent():
    with pytest.raises(LinearSystemError, match="inconsistent"):
        solve([[1, 1], [1, 1]], [0, 1])


def test_solve_underdetermined_sets_free_to_zero():
    assert solve([[1, 1]], [5]) == [5, 0]


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve([[1, 0]], [1, 2])


def test_nullspace_rank_deficient():
    basis = nullspace([[1, 1], [2, 2]])
    assert basis == [[-1, 1]]


def test_nullspace_full_rank_is_empty():
    assert nullspace([[1, 0], [0, 1]]) == []


def test_nullspace_wide():
    basis = nullspace([[1, 2, 3]])
    assert len(basis) == 2
    for v in basis:
        assert v[0] + 2 * v[1] + 3 * v[2] == 0


def test_rref_pivots():
    reduced, pivots = rref([[0, 2], [3, 0]])
    assert pivots == [0, 1]
    assert reduced == [[1, 0], [0, 1]]


def test_ragged_rejected():
    with pytest.raises(ValueError):
        rref([[1, 2], [1]])


@given(int_matrix(4, 4), st.lists(st.integers(-5, 5), min_size=4, max_size=4))
def test_solve_recovers_constructed_rhs(m, x):
    rhs = [sum(row[k] * x[k] for k in range(4)) for row in m]
    sol = solve(m, rhs)
    assert [sum(row[k] * sol[k] for k in range(4)) for row in m] == rhs


@given(int_matrix(3, 5))
def test_nullspace_vectors_annihilate(m):
    for v in nullspace(m):
        assert all(sum(row[k] * v[k] for k in range(5)) == 0 for row in m)
    assert len(nullspace(m)) == 5 - len(gauss_jordan(m)[1])


def with_edge_shapes(test):
    for m in EDGE_SHAPES:
        test = example(m)(test)
    return test


@given(matrices())
@with_edge_shapes
def test_rref_matches_gauss_jordan(m):
    assert rref(m) == gauss_jordan(m)


@given(matrices())
@with_edge_shapes
def test_nullspace_matches_gauss_jordan(m):
    assert nullspace(m) == reference_nullspace(m)


@st.composite
def systems(draw):
    """(A, b) for a matrix A of any shape: half consistent by construction."""
    m = draw(matrices())
    ncols = len(m[0]) if m else 0
    if draw(st.booleans()):
        x = draw(st.lists(RATIONALS, min_size=ncols, max_size=ncols))
        return m, [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in m]
    return m, draw(st.lists(RATIONALS, min_size=len(m), max_size=len(m)))


@given(systems())
@example(([], []))
@example(([[]], [0]))
@example(([[]], [1]))
@example(([[0, 0, 0]], [2]))
@example(([[0], [Fraction(1, 2)]], [0, 3]))
@example(([[0], [0]], [0, 1]))
def test_solve_matches_gauss_jordan(system):
    m, rhs = system
    ncols = len(m[0]) if m else 0
    reduced, pivots = gauss_jordan([list(row) + [b] for row, b in zip(m, rhs)])
    if ncols in pivots:
        with pytest.raises(LinearSystemError, match="inconsistent"):
            solve(m, rhs)
        return
    expected = [Fraction(0)] * ncols
    for k, col in enumerate(pivots):
        expected[col] = reduced[k][ncols]
    assert solve(m, rhs) == expected
