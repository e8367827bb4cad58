from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
from reference import dagger, dense_displacement, dense_reconstruction, mat_mul

from conftest import small_fractions
from sicfield.sic4 import (
    canonical_phase_matrix,
    discriminant,
    embedded_projector,
    fiducial_projector,
    hermiticity_symmetry_holds,
    overlap,
    phase_unit_audit,
    phases_in_inner_field,
    reconstruct_projector,
    trace,
    verify_sic_projector,
)
from sicfield.tower import FieldElement, constant, embed

NONTRIVIAL = [(i, j) for i in range(4) for j in range(4) if (i, j) != (0, 0)]


def sparse_field_elements():
    """Field elements with at most two nonzero coordinates."""
    return st.dictionaries(st.integers(0, 15), small_fractions(), max_size=2).map(
        lambda terms: FieldElement([terms.get(k, 0) for k in range(16)]))


class TestAgainstDenseReference:
    @pytest.mark.parametrize("negate", [None] + NONTRIVIAL)
    def test_reconstruction_equals_the_dense_sum(self, negate):
        phases = canonical_phase_matrix(negate_entry=negate)
        assert reconstruct_projector(phases) == dense_reconstruction(phases)

    def test_overlap_equals_the_dense_trace(self):
        # a corrupted projector, so that the overlaps are not all 1/5
        proj = reconstruct_projector(canonical_phase_matrix(negate_entry=(2, 1)))
        values = set()
        for i, j in NONTRIVIAL:
            d = dense_displacement(i, j)
            expected = trace(mat_mul(
                mat_mul(proj, d),
                mat_mul(proj, dagger(d)),
            ))
            assert overlap(proj, i, j) == expected
            values.add(expected)
        assert len(values) > 1

    @given(st.lists(st.lists(sparse_field_elements(), min_size=4, max_size=4),
                    min_size=4, max_size=4))
    # no shrink phase, so a failure is reported as drawn, and soon: a
    # shrink of 16 entries can run for minutes and look like a hang. Seven
    # broken overlap sums failed in 3.5-8 s each with it, about 1 s without
    # (2-core VM)
    @settings(max_examples=10, deadline=None, phases=set(Phase) - {Phase.shrink})
    def test_overlap_equals_the_dense_trace_for_any_matrix(self, rows):
        # neither hermitian nor rank one, as a corrupted projector is not;
        # a shift or clock index moved by 4 flips the sign of D, not the trace.
        # The trace sums products of two entries, so entries of at most two
        # terms reach every product of basis elements
        m = tuple(tuple(row) for row in rows)
        for i in range(4):
            for j in range(4):
                for a, b in ((i, j), (i + 4, j), (i, j + 4)):
                    d = dense_displacement(a, b)
                    left = mat_mul(m, d)
                    right = mat_mul(m, dagger(d))
                    expected = sum((left[x][y] * right[y][x]
                                    for x in range(4) for y in range(4)),
                                   FieldElement.zero())
                    assert overlap(m, a, b) == expected, (a, b)


class TestPhaseMatrix:
    def test_entries(self):
        u = constant("u")
        v = u.inverse()
        p = canonical_phase_matrix()
        assert p[0][1] == u and p[0][2] == -1 and p[0][3] == v
        assert p[1][0] == u and p[1][1] == v and p[1][2] == -v and p[1][3] == v
        assert p[2][0] == -1 and p[2][1] == -u and p[2][2] == -1 and p[2][3] == v
        assert p[3][0] == v and p[3][1] == u and p[3][2] == u and p[3][3] == u

    def test_sentinel(self):
        assert canonical_phase_matrix()[0][0] == 1

    def test_negate_entry(self):
        p = canonical_phase_matrix(negate_entry=(1, 2))
        q = canonical_phase_matrix()
        assert p[1][2] == -q[1][2]
        assert p[0][1] == q[0][1]

    def test_negate_entry_guards(self):
        with pytest.raises(ValueError):
            canonical_phase_matrix(negate_entry=(0, 0))
        with pytest.raises(ValueError):
            canonical_phase_matrix(negate_entry=(4, 1))

    def test_hermiticity_symmetry(self):
        assert hermiticity_symmetry_holds()

    def test_hermiticity_symmetry_needs_the_parity_sign(self):
        # conj(P(1,2)) equals -P(3,2), not +P(3,2); a sign-free mirror
        # rule is simply false for this table
        p = canonical_phase_matrix()
        assert p[1][2].conjugate() == -p[3][2]
        assert p[1][2].conjugate() != p[3][2]

    def test_symmetry_detects_corruption(self):
        assert not hermiticity_symmetry_holds(
            canonical_phase_matrix(negate_entry=(1, 2))
        )

    def test_phases_live_in_the_inner_field(self):
        assert phases_in_inner_field()

    @pytest.mark.parametrize("k", range(16))
    def test_a_phase_with_an_r_part_leaves_the_inner_field(self, k):
        phases = [list(row) for row in canonical_phase_matrix()]
        phases[1][2] = FieldElement([int(m == k) for m in range(16)])
        assert phases_in_inner_field(phases) == (k < 8)

    def test_unit_audit(self):
        audits = phase_unit_audit()
        assert len(audits) == 15
        for a in audits:
            assert a.unit_modulus
            assert a.algebraic_unit
            assert a.minpoly_degree in (1, 8)


class TestProjector:
    def test_every_check_passes(self):
        results = verify_sic_projector()
        assert len(results) == 18
        assert all(r.passed for r in results)

    def test_trace_is_exactly_one(self):
        assert trace(fiducial_projector()) == 1

    def test_idempotent_exactly(self):
        proj = fiducial_projector()
        assert mat_mul(proj, proj) == proj

    def test_hermitian_exactly(self):
        proj = fiducial_projector()
        assert proj == dagger(proj)

    def test_overlaps_are_exactly_one_fifth(self):
        proj = fiducial_projector()
        target = FieldElement.from_rational(Fraction(1, 5))
        for i in range(4):
            for j in range(4):
                if (i, j) != (0, 0):
                    assert overlap(proj, i, j) == target

    def test_rank_one_numerically(self):
        evals = np.linalg.eigvalsh(embedded_projector())
        assert np.allclose(sorted(evals), [0, 0, 0, 1], atol=1e-12)

    def test_embedded_is_hermitian(self):
        p = embedded_projector()
        assert np.allclose(p, p.conj().T, atol=1e-14)


class TestCorruption:
    def test_negated_phase_breaks_idempotence_and_overlaps(self):
        bad = reconstruct_projector(canonical_phase_matrix(negate_entry=(1, 2)))
        results = {r.name: r for r in verify_sic_projector(bad)}
        assert not results["idempotent"].passed
        overlap_failures = [
            name for name, r in results.items()
            if name.startswith("overlap_") and not r.passed
        ]
        assert overlap_failures

    def test_failure_reports_carry_values(self):
        bad = reconstruct_projector(canonical_phase_matrix(negate_entry=(1, 2)))
        failing = [r for r in verify_sic_projector(bad)
                   if r.name.startswith("overlap_") and not r.passed]
        assert all("value" in r.detail for r in failing)

    def test_all_ones_phases_are_not_a_sic(self):
        ones = tuple(tuple(FieldElement.one() for _ in range(4)) for _ in range(4))
        results = {r.name: r for r in verify_sic_projector(reconstruct_projector(ones))}
        assert not results["idempotent"].passed


class TestDiscriminant:
    @pytest.mark.parametrize("d,value,squarefree", [
        (4, 5, 5),
        (5, 12, 3),
        (7, 32, 2),
        (8, 45, 5),
        (19, 320, 5),
    ])
    def test_values(self, d, value, squarefree):
        result = discriminant(d)
        assert result.value == value
        assert result.squarefree_part == squarefree
        assert result.dimension == d

    def test_rejects_small_dimensions(self):
        for d in (0, 1, 2, 3):
            with pytest.raises(ValueError):
                discriminant(d)

    def test_agrees_with_trial_division_by_every_integer(self):
        for d in range(4, 3001):
            rest = (d - 3) * (d + 1)
            p = 2
            while p * p <= rest:
                while rest % (p * p) == 0:
                    rest //= p * p
                p += 1
            assert discriminant(d).squarefree_part == rest, d

    def test_rejects_dimensions_above_the_bound(self):
        assert discriminant(10**18).value == (10**18 - 3) * (10**18 + 1)
        with pytest.raises(ValueError):
            discriminant(10**18 + 1)

    def test_squarefree_part_is_squarefree_and_divides(self):
        for d in range(4, 40):
            result = discriminant(d)
            assert result.value % result.squarefree_part == 0
            ratio = result.value // result.squarefree_part
            root = int(round(ratio ** 0.5))
            assert root * root == ratio
            for p in range(2, result.squarefree_part):
                assert result.squarefree_part % (p * p) != 0
