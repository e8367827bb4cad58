from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sicfield.linalg import LinearSystemError, bareiss, first_dependence, nullspace, rref, solve


def int_matrix(rows: int, cols: int):
    entry = st.integers(min_value=-5, max_value=5)
    return st.lists(
        st.lists(entry, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    )


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
    assert len(nullspace(m)) == 5 - len(rref(m)[1])


@given(int_matrix(4, 6))
def test_bareiss_is_a_multiple_of_the_rref(m):
    reduced, pivots, divisor = bareiss(m)
    expected, expected_pivots = rref(m)
    assert pivots == expected_pivots
    assert [[Fraction(c, divisor) for c in row] for row in reduced] == expected
    assert all(reduced[k][col] == divisor for k, col in enumerate(pivots))


@given(int_matrix(5, 4))
def test_first_dependence_is_the_first(vectors):
    c = first_dependence(vectors)
    if c is None:
        assert len(rref(vectors)[1]) == 5
        return
    n = len(c) - 1
    assert c[n] != 0
    assert all(sum(c[k] * vectors[k][i] for k in range(n + 1)) == 0 for i in range(4))
    assert len(rref(vectors[:n])[1]) == n  # the earlier vectors are independent


def test_first_dependence_stops_drawing():
    drawn = []

    def stream():
        for v in ([1, 0], [0, 1], [2, 3], [5, 5]):
            drawn.append(v)
            yield v

    assert first_dependence(stream()) == [-2, -3, 1]
    assert len(drawn) == 3
