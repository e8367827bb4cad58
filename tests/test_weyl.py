import cmath
from fractions import Fraction

import numpy as np
import pytest
from reference import dense_displacement, inner, mat_vec, scale, scaled_identity

from sicfield import matrices
from sicfield.search import tau_phase
from sicfield.sic4 import displacement_dagger_sign
from sicfield.tower import FieldElement, constant, embed
from sicfield.weyl import (
    clock_shift,
    clock_shift_exact,
    displacement,
    displacement_exact,
    orbit,
    orbit_exact,
)

DIMS = (2, 3, 4, 5, 7)


def reference_displacement(d, i, j):
    """tau^(ij) X^i Z^j from explicit X and Z, without the monomial rule."""
    shift = np.zeros((d, d), dtype=complex)
    for k in range(d):
        shift[(k + 1) % d, k] = 1.0
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    tau = -np.exp(1j * np.pi / d)
    return tau ** (i * j) * (
        np.linalg.matrix_power(shift, i % d) @ np.linalg.matrix_power(clock, j % d)
    )


class TestAgainstReference:
    @pytest.mark.parametrize("d", range(2, 10))
    def test_numeric_matches_every_operator(self, d):
        for i in range(d):
            for j in range(d):
                assert np.allclose(displacement(d, i, j),
                                   reference_displacement(d, i, j),
                                   rtol=0, atol=1e-12), (i, j)

    @pytest.mark.parametrize("d", (4, 5))
    def test_indices_outside_the_range(self, d):
        for i in (-d - 1, -1, d, 2 * d + 1):
            for j in (-2, -1, d + 1, 2 * d):
                assert np.allclose(displacement(d, i, j),
                                   reference_displacement(d, i, j),
                                   rtol=0, atol=1e-12), (i, j)

    def test_exact_matches_numeric_reference(self):
        for i in range(4):
            for j in range(4):
                exact = displacement_exact(i, j)
                ref = reference_displacement(4, i, j)
                for a in range(4):
                    for b in range(4):
                        assert abs(embed(exact[a][b]) - ref[a, b]) < 1e-12

    def test_exact_matches_exact_reference(self):
        for i in range(4):
            for j in range(4):
                assert displacement_exact(i, j) == dense_displacement(i, j)

    def test_exact_orbit_matches_reference(self):
        psi = (constant("u"), constant("r"), FieldElement.from_rational(3),
               constant("tau") / 2)
        vectors = orbit_exact(psi)
        for i in range(4):
            for j in range(4):
                expected = mat_vec(dense_displacement(i, j), psi)
                assert vectors[i * 4 + j] == expected

    # the reference's matrix powers drift from the exact tau^e by up to
    # 6e-15 at these sizes, and psi has entries up to 2
    @pytest.mark.parametrize("d", range(2, 10))
    def test_numeric_orbit_matches_reference(self, d):
        psi = np.array([0.3, 1j, -0.5 + 0.2j, 0.1, 2.0, -0.7j, 0.4, 1.5, -1.1])[:d]
        vectors = orbit(d, psi)
        for i in range(d):
            for j in range(d):
                assert np.allclose(vectors[i * d + j],
                                   reference_displacement(d, i, j) @ psi,
                                   rtol=0, atol=1e-13), (i, j)


class TestIndexPeriodicity:
    """tau^d = (-1)^(d+1): the indices count mod d at odd d, and at even d
    a full turn of one index multiplies D by the parity of the other."""

    @pytest.mark.parametrize("d", (4, 6))
    def test_even_dimension_signs(self, d):
        for i in range(d):
            for j in range(d):
                base = displacement(d, i, j)
                assert np.allclose(displacement(d, i + d, j), (-1) ** j * base,
                                   rtol=0, atol=1e-12), (i, j)
                assert np.allclose(displacement(d, i, j + d), (-1) ** i * base,
                                   rtol=0, atol=1e-12), (i, j)
        assert np.allclose(displacement(d, d + 1, 1), -displacement(d, 1, 1),
                           rtol=0, atol=1e-12)

    def test_even_dimension_signs_exact(self):
        for i in range(4):
            for j in range(4):
                base = displacement_exact(i, j)
                assert displacement_exact(i + 4, j) == scale(
                    FieldElement.from_rational((-1) ** j), base)
                assert displacement_exact(i, j + 4) == scale(
                    FieldElement.from_rational((-1) ** i), base)
        assert displacement_exact(5, 1) != displacement_exact(1, 1)

    @pytest.mark.parametrize("d", (3, 5, 7))
    def test_odd_dimension_indices_count_mod_d(self, d):
        for i in range(d):
            for j in range(d):
                base = displacement(d, i, j)
                for a, b in ((i + d, j), (i, j + d), (i - d, j - 2 * d)):
                    assert np.allclose(displacement(d, a, b), base,
                                       rtol=0, atol=1e-12), (a, b)


class TestNumericOperators:
    def test_shift_matrix_d2(self):
        shift, _ = clock_shift(2)
        assert np.allclose(shift, [[0, 1], [1, 0]])

    def test_clock_diagonal(self):
        _, clock = clock_shift(4)
        assert np.allclose(np.diag(clock), [1, 1j, -1, -1j])

    @pytest.mark.parametrize("d", DIMS)
    def test_operators_have_order_d(self, d):
        shift, clock = clock_shift(d)
        eye = np.eye(d)
        assert np.allclose(np.linalg.matrix_power(shift, d), eye)
        assert np.allclose(np.linalg.matrix_power(clock, d), eye)

    @pytest.mark.parametrize("d", DIMS)
    def test_weyl_commutation(self, d):
        shift, clock = clock_shift(d)
        assert np.allclose(clock @ shift, cmath.exp(2j * cmath.pi / d) * shift @ clock)

    @pytest.mark.parametrize("d", DIMS)
    def test_tau_squares_to_omega(self, d):
        assert abs(tau_phase(d) ** 2 - cmath.exp(2j * cmath.pi / d)) < 1e-12

    def test_displacement_zero_is_identity(self):
        for d in DIMS:
            assert np.allclose(displacement(d, 0, 0), np.eye(d))

    def test_displacements_are_unitary(self):
        for d in DIMS:
            for i in range(d):
                for j in range(d):
                    m = displacement(d, i, j)
                    assert np.allclose(m @ m.conj().T, np.eye(d), atol=1e-12)

    @pytest.mark.parametrize("d", (2, 3, 4, 5))
    def test_trace_orthogonality(self, d):
        ops = {(i, j): displacement(d, i, j) for i in range(d) for j in range(d)}
        for a, ma in ops.items():
            for b, mb in ops.items():
                expected = d if a == b else 0
                assert abs(np.trace(ma.conj().T @ mb) - expected) < 1e-9

    @pytest.mark.parametrize("d", (3, 4, 5))
    def test_dagger_sign_rule(self, d):
        for i in range(d):
            for j in range(d):
                sign = displacement_dagger_sign(d, i, j)
                lhs = displacement(d, i, j).conj().T
                rhs = sign * displacement(d, (-i) % d, (-j) % d)
                assert np.allclose(lhs, rhs, atol=1e-12)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            clock_shift(1)
        with pytest.raises(ValueError):
            displacement(0, 0, 0)


class TestNumericOrbit:
    def test_shape_and_norms(self):
        rng = np.random.default_rng(7)
        for d in (2, 3, 5):
            psi = rng.normal(size=d) + 1j * rng.normal(size=d)
            psi /= np.linalg.norm(psi)
            vectors = orbit(d, psi)
            assert vectors.shape == (d * d, d)
            assert np.allclose(np.linalg.norm(vectors, axis=1), 1.0)

    def test_row_major_indexing(self):
        psi = np.array([1.0, 0.0])
        vectors = orbit(2, psi)
        assert np.allclose(vectors[0], psi)  # (0, 0)
        assert np.allclose(vectors[1 * 2 + 0], [0, 1])  # shift only

    def test_first_vector_is_the_fiducial(self):
        psi = np.array([1, 1j, -1]) / np.sqrt(3)
        assert np.allclose(orbit(3, psi)[0], psi)


class TestExactOperators:
    def test_exact_clock_and_shift_match_numeric(self):
        shift, clock = clock_shift_exact()
        nshift, nclock = clock_shift(4)
        for i in range(4):
            for j in range(4):
                assert abs(embed(shift[i][j]) - nshift[i, j]) < 1e-14
                assert abs(embed(clock[i][j]) - nclock[i, j]) < 1e-14

    def test_exact_commutation(self):
        shift, clock = clock_shift_exact()
        lhs = matrices.mat_mul(clock, shift)
        rhs = scale(constant("i"), matrices.mat_mul(shift, clock))
        assert lhs == rhs

    def test_exact_displacement_11(self):
        tau = constant("tau")
        shift, clock = clock_shift_exact()
        expected = scale(tau, matrices.mat_mul(shift, clock))
        assert displacement_exact(1, 1) == expected

    def test_exact_matches_numeric_everywhere(self):
        for i in range(4):
            for j in range(4):
                exact = displacement_exact(i, j)
                numeric = displacement(4, i, j)
                for a in range(4):
                    for b in range(4):
                        assert abs(embed(exact[a][b]) - numeric[a, b]) < 1e-12

    def test_fourth_power_is_identity(self):
        eye = scaled_identity(FieldElement.one())
        for i in range(4):
            for j in range(4):
                m = displacement_exact(i, j)
                p = matrices.mat_mul(matrices.mat_mul(m, m), matrices.mat_mul(m, m))
                assert p == eye

    def test_exact_dagger_sign(self):
        for i in range(4):
            for j in range(4):
                sign = displacement_dagger_sign(4, i, j)
                lhs = matrices.dagger(displacement_exact(i, j))
                rhs = scale(
                    FieldElement.from_rational(sign),
                    displacement_exact((-i) % 4, (-j) % 4),
                )
                assert lhs == rhs

    def test_exact_trace_orthogonality_sample(self):
        d11 = displacement_exact(1, 1)
        d23 = displacement_exact(2, 3)
        assert matrices.trace(matrices.mat_mul(matrices.dagger(d11), d11)) == 4
        assert matrices.trace(
            matrices.mat_mul(matrices.dagger(d11), d23)
        ) == FieldElement.zero()


class TestExactOrbit:
    def test_norms_stay_one(self):
        half = Fraction(1, 2)
        psi = (
            constant("u") * half,
            constant("i") * half,
            constant("tau") * half,
            FieldElement.from_rational(half),
        )
        assert inner(psi, psi) == 1
        vectors = orbit_exact(psi)
        assert len(vectors) == 16
        for v in vectors:
            assert inner(v, v) == 1

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            orbit_exact((FieldElement.one(),) * 3)
