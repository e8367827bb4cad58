import dataclasses
import importlib
import time
import tracemalloc

import numpy as np
import pytest

from reference import lbfgs_run, numeric_displacement
from sicfield.sic4 import canonical_phase_matrix, embedded_projector
from sicfield.search import (
    SearchConfig,
    _single_run,
    _zauner_basis,
    _zauner_unitary,
    extract_phases,
    fourth_moment,
    known_fiducial,
    residual_gradient,
    search,
    sic_residual,
)
from sicfield.tower import embed

# the package binds the name `search` to the function, so reach the module
search_module = importlib.import_module("sicfield.search")


def random_unit(d, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return psi / np.linalg.norm(psi)


def reference_values(d, psi):
    """Residual, gradient and fourth moment from the d^2 dense
    displacement matrices, the definition the search kernel must match."""
    stack = np.array([numeric_displacement(d, i, j) for i in range(d) for j in range(d)])
    m = np.einsum("a,kab,b->k", psi.conj(), stack, psi)
    devs = np.abs(m) ** 2 - 1.0 / (d + 1)
    devs[0] = 0.0
    d_psi = np.einsum("kab,b->ka", stack, psi)
    ddag_psi = np.einsum("kba,b->ka", stack.conj(), psi)
    wirtinger = (
        np.einsum("k,ka->a", 2 * devs * m.conj(), d_psi)
        + np.einsum("k,ka->a", 2 * devs * m, ddag_psi)
    )
    gradient = np.concatenate([2 * wirtinger.real, 2 * wirtinger.imag])
    return float(np.sum(devs**2)), gradient, float(np.sum(np.abs(m) ** 4))


class TestKernel:
    @pytest.mark.parametrize("d", (*range(2, 10), 12, 16, 24, 32))
    def test_matches_the_displacement_definition(self, d):
        psi = random_unit(d, 100 + d)
        residual, gradient, moment = reference_values(d, psi)
        assert abs(sic_residual(d, psi) - residual) <= 1e-12 * max(1, residual)
        got = residual_gradient(d, psi)
        assert np.max(np.abs(got - gradient)) <= 1e-12 * max(1, np.max(np.abs(gradient)))
        assert abs(fourth_moment(d, psi) - moment) <= 1e-12 * max(1, moment)

    @pytest.mark.parametrize("d", (2, 3, 4))
    def test_phases_carry_the_tau_factor(self, d):
        psi = known_fiducial(d)
        phases = extract_phases(psi)
        for i in range(d):
            for j in range(d):
                if (i, j) == (0, 0):
                    continue
                want = np.sqrt(d + 1) * (psi.conj() @ numeric_displacement(d, i, j) @ psi)
                assert abs(phases[i, j] - want) < 1e-12

    def test_only_the_dimension_in_use_keeps_its_tables(self):
        search_module._tables.cache_clear()
        for d in (3, 7, 4, 16, 4):
            sic_residual(d, random_unit(d, d))
            assert search_module._tables.cache_info().currsize == 1
        residual_gradient(9, random_unit(9, 9))
        assert search_module._tables.cache_info().currsize == 1

    def test_memory_stays_quadratic_in_d(self):
        # the d^2 dense displacement matrices at d = 64 alone take 268 MB
        psi = random_unit(64, 5)
        tracemalloc.start()
        try:
            residual_gradient(64, psi)
            sic_residual(64, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


class TestResidual:
    @pytest.mark.parametrize("d", (2, 3, 4))
    def test_vanishes_at_known_fiducials(self, d):
        assert sic_residual(d, known_fiducial(d)) < 1e-20

    def test_positive_away_from_fiducials(self):
        assert sic_residual(2, np.array([1.0, 0.0])) > 1e-3
        assert sic_residual(4, np.array([1.0, 0, 0, 0])) > 1e-3

    @pytest.mark.parametrize("d", (2, 3, 5))
    def test_global_phase_invariance(self, d):
        psi = random_unit(d, 11)
        r0 = sic_residual(d, psi)
        r1 = sic_residual(d, np.exp(0.7j) * psi)
        assert abs(r0 - r1) < 1e-12 * max(r0, 1)

    @pytest.mark.parametrize("d", (2, 3, 4))
    def test_orbit_invariance(self, d):
        psi = random_unit(d, 23)
        r0 = sic_residual(d, psi)
        for i in range(d):
            for j in range(d):
                assert abs(sic_residual(d, numeric_displacement(d, i, j) @ psi) - r0) < 1e-10

    def test_unknown_reference_dimension(self):
        with pytest.raises(ValueError):
            known_fiducial(6)


class TestGradient:
    @pytest.mark.parametrize("d", (2, 3, 5))
    def test_matches_central_differences(self, d):
        psi = random_unit(d, 37 + d)
        grad = residual_gradient(d, psi)
        h = 1e-6
        fd = np.zeros(2 * d)
        for a in range(d):
            for part in range(2):
                e = np.zeros(d, complex)
                e[a] = 1.0 if part == 0 else 1.0j
                fd[a + part * d] = (
                    sic_residual(d, psi + h * e) - sic_residual(d, psi - h * e)
                ) / (2 * h)
        assert np.linalg.norm(grad - fd) <= 1e-5 * np.linalg.norm(fd)

    def test_small_at_fiducial(self):
        for d in (2, 3, 4):
            grad = residual_gradient(d, known_fiducial(d))
            assert np.linalg.norm(grad) < 1e-8

    def test_realified_shape(self):
        assert residual_gradient(3, known_fiducial(3)).shape == (6,)


class TestFourthMoment:
    @pytest.mark.parametrize("d", (2, 3, 4))
    def test_identity_at_fiducials(self, d):
        assert abs(fourth_moment(d, known_fiducial(d)) - 2 * d / (d + 1)) < 1e-12

    def test_off_fiducial_value_differs(self):
        assert abs(fourth_moment(2, np.array([1.0, 0])) - 4 / 3) > 0.1


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(dimension=1)
        with pytest.raises(ValueError):
            SearchConfig(dimension=3, restarts=0)

    @pytest.mark.parametrize("tolerance", (
        float("inf"), float("-inf"), float("nan"), 0.0, -1e-10,
    ))
    def test_tolerance_must_be_positive_and_finite(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            SearchConfig(dimension=3, tolerance=tolerance)

    def test_max_iterations_must_not_be_negative(self):
        with pytest.raises(ValueError, match="iterations"):
            SearchConfig(dimension=3, max_iterations=-1)
        assert SearchConfig(dimension=3, max_iterations=0).max_iterations == 0

    def test_seed_must_not_be_negative(self):
        with pytest.raises(ValueError, match="seed"):
            SearchConfig(dimension=3, rng_seed=-1)
        assert SearchConfig(dimension=3, rng_seed=10**26).rng_seed == 10**26

    def test_dimension_has_an_upper_bound(self):
        for d in (10**5, 10**30):
            with pytest.raises(ValueError, match=str(d)):
                SearchConfig(dimension=d)

    def test_five_fields(self):
        assert [f.name for f in dataclasses.fields(SearchConfig)] == [
            "dimension", "restarts", "max_iterations", "tolerance", "rng_seed",
        ]


class TestSearch:
    def test_converges_in_dimension_two(self):
        result = search(SearchConfig(dimension=2, restarts=4, rng_seed=3))
        assert result.converged
        assert result.residual < 1e-10
        assert abs(np.linalg.norm(result.fiducial) - 1) < 1e-12

    def test_reports_best_restart(self):
        # a tolerance no restart can meet, so every restart runs (at d = 2
        # the Zauner eigenvector is itself a fiducial, residual ~1e-31)
        result = search(SearchConfig(
            dimension=5, restarts=3, rng_seed=9, max_iterations=10,
            tolerance=1e-300,
        ))
        assert not any(r.converged for r in result.restarts)
        assert len(result.restarts) == 3
        best = min(result.restarts, key=lambda r: r.residual)
        assert result.restart_index == best.restart_index
        assert result.residual == best.residual

    def test_deterministic_given_seed(self):
        cfg = SearchConfig(dimension=3, restarts=2, rng_seed=5, max_iterations=500,
                           tolerance=1e-6)
        a = search(cfg)
        b = search(cfg)
        assert a.residual == b.residual
        assert np.array_equal(a.fiducial, b.fiducial)
        assert a.iterations == b.iterations

    def test_restart_streams_are_independent(self):
        # restart k is reproducible on its own: running with one restart
        # and seed list [seed, 0] has nothing to do with restart count
        one = search(SearchConfig(dimension=5, restarts=1, rng_seed=42,
                                  max_iterations=10, tolerance=1e-300))
        many = search(SearchConfig(dimension=5, restarts=3, rng_seed=42,
                                   max_iterations=10, tolerance=1e-300))
        assert not any(r.converged for r in one.restarts + many.restarts)
        assert len(many.restarts) == 3
        assert np.array_equal(one.restarts[0].fiducial, many.restarts[0].fiducial)

    def test_warm_start_is_instant(self):
        result = search(
            SearchConfig(dimension=4, restarts=1), initial=known_fiducial(4),
        )
        assert result.converged
        assert result.iterations <= 5
        assert result.residual < 1e-20

    def test_fourth_moment_reported(self):
        result = search(SearchConfig(dimension=2, restarts=4, rng_seed=1))
        assert abs(result.fourth_moment - 4 / 3) < 1e-8

    @pytest.mark.parametrize("d", (2, 4, 5))
    def test_small_dimensions_converge(self, d):
        result = search(SearchConfig(dimension=d, restarts=16, rng_seed=2))
        assert result.converged
        assert result.residual < 1e-10

    def test_dimension_24_converges_within_a_second(self):
        # the backtracking descent over all of C^d stalled at d = 20..28
        start = time.perf_counter()
        result = search(SearchConfig(dimension=24))
        assert time.perf_counter() - start < 1.0
        assert result.converged

    @pytest.mark.parametrize("d", (20, 28))
    def test_dimensions_in_the_twenties_converge(self, d):
        assert search(SearchConfig(dimension=d, restarts=40)).converged

    @pytest.mark.parametrize("d, max_iterations", ((2, 100), (5, 100), (12, 100),
                                                   (24, 40), (31, 40)))
    def test_each_residual_is_the_residual_at_its_fiducial(self, d, max_iterations):
        # Zauner restarts sum weighted rows, yet report the full residual
        result = search(SearchConfig(dimension=d, restarts=3, rng_seed=4,
                                     max_iterations=max_iterations))
        for restart in result.restarts:
            want = sic_residual(d, restart.fiducial)
            assert abs(restart.residual - want) <= 1e-12 * max(1, want)
            assert restart.converged == (restart.residual < 1e-10)
        assert result.fourth_moment == fourth_moment(d, result.fiducial)

    @pytest.mark.parametrize("d, restarts", ((5, 16), (7, 1)))
    def test_sic_defect_is_the_largest_overlap_deviation(self, d, restarts):
        result = search(SearchConfig(dimension=d, restarts=restarts, max_iterations=5))
        psi = result.fiducial
        want = max(abs(abs(psi.conj() @ numeric_displacement(d, i, j) @ psi) ** 2 - 1 / (d + 1))
                   for i in range(d) for j in range(d) if (i, j) != (0, 0))
        assert result.sic_defect == pytest.approx(want, rel=1e-9, abs=1e-15)


def random_start(d, seed):
    rng = np.random.default_rng([seed, d])
    return rng.normal(size=d) + 1j * rng.normal(size=d)


#: (d, start, max_iterations, tolerance, warm): runs to convergence or a
#: stall at d = 2..12, budget-limited runs, warm starts near and at known
#: fiducials, and one start off the sphere; a warm start searches all of
#: C^d, as `search` does, and every other start the Zauner eigenspace
DESCENT_PROBLEMS = [
    *[(d, random_start(d, seed), 20_000, 1e-10, False)
      for d in range(2, 13) for seed in range(3)],
    *[(d, random_start(d, 7), budget, 1e-10, False)
      for d in (3, 5, 8, 11) for budget in (0, 1, 8)],
    *[(d, known_fiducial(d) + 1e-3 * random_start(d, 9), 20_000, 1e-10, True)
      for d in (2, 3, 4)],
    (4, known_fiducial(4), 20_000, 1e-300, True),
    (6, 3.0 * random_start(6, 11), 20_000, 1e-12, False),
]


class TestDescentLoop:
    @pytest.mark.parametrize("d, start, max_iterations, tolerance, warm", DESCENT_PROBLEMS,
                             ids=[f"{k}-d{p[0]}-budget{p[2]}"
                                  for k, p in enumerate(DESCENT_PROBLEMS)])
    def test_matches_the_reference_loop_bitwise(self, d, start, max_iterations,
                                                tolerance, warm):
        # a warm start reads every moment, as the reference does, so the two
        # agree bit for bit; a Zauner restart reads weighted rows that meet
        # every symmetry orbit, which equals the full residual on the
        # eigenspace only up to rounding (TestZaunerRows)
        config = SearchConfig(dimension=d, max_iterations=max_iterations,
                              tolerance=tolerance)
        basis = np.eye(d) if warm else _zauner_basis(d)[0]
        got = _single_run(config, start, 0, zauner=not warm)
        residual, iterations, converged, stop_reason, fiducial = lbfgs_run(
            d, start, basis, max_iterations, tolerance)
        assert got.iterations == iterations
        assert got.converged == converged
        assert got.stop_reason == stop_reason
        if warm:
            assert got.residual == residual
            assert np.array_equal(got.fiducial, fiducial)
        else:
            assert abs(got.residual - residual) <= 1e-12 * max(1, residual)

    def test_warm_start_maps_are_the_identity(self):
        # a warm start searches C^d with no basis matrix: both maps return
        # their argument itself, and its tables are those of every row
        to_psi, back, tables = search_module._space(5, zauner=False)
        v = random_start(5, 3)
        assert to_psi(v) is v and back(v) is v
        assert tables is search_module._tables(5)

    @pytest.mark.parametrize("seed", range(3))
    def test_d3_converges_within_100_iterations(self, seed):
        # the d = 3 fiducials form a continuous family, on which the
        # backtracking descent crawled: 12871 iterations from this start
        got = _single_run(SearchConfig(dimension=3), random_start(3, seed), 0,
                          zauner=True)
        assert got.converged
        assert got.iterations <= 100


def subspace_objective(d, basis):
    """The residual at basis @ c / |c| and its gradient, over the real and
    imaginary parts of the coefficients c side by side."""
    def objective(x):
        norm = np.linalg.norm(x)
        unit = x / norm
        psi = basis @ unit.view(complex)
        grad = residual_gradient(d, psi)
        g = (basis.conj().T @ (grad[:d] + 1j * grad[d:])).view(float)
        return sic_residual(d, psi), (g - g.dot(unit) * unit) / norm
    return objective


class TestScipyCrossCheck:
    """scipy's L-BFGS-B on the same objective as `_single_run`, from the
    same starts: d = 3..12, four starts each."""

    @pytest.mark.parametrize("d", range(3, 13))
    def test_same_minima_from_the_same_starts(self, d):
        optimize = pytest.importorskip("scipy.optimize")
        basis = _zauner_basis(d)[0]
        objective = subspace_objective(d, basis)
        ours_found = theirs_found = False
        for seed in range(4):
            start = random_start(d, seed)
            ours = _single_run(SearchConfig(dimension=d), start, 0, zauner=True)
            x0 = (basis.conj().T @ start).view(float)
            theirs = optimize.minimize(objective, x0 / np.linalg.norm(x0), jac=True,
                                       method="L-BFGS-B",
                                       options={"ftol": 1e-15, "gtol": 1e-12})
            ours_found |= ours.converged
            theirs_found |= theirs.fun < 1e-10
            if not ours.converged and theirs.fun >= 1e-10:
                # neither found a fiducial: both stopped at one local minimum
                assert ours.residual == pytest.approx(theirs.fun, rel=1e-6)
        # both find a fiducial in the Zauner eigenspace
        assert ours_found and theirs_found


class TestStallRule:
    """A restart stalls once a step lowers the residual by under
    MIN_DECREASE of itself. TestScipyCrossCheck certifies the stalls up to
    d = 12; past it, a stall must end near where the 1000 times tighter
    rule of 1e-9 ends the same start."""

    @pytest.mark.parametrize("d", (13, 20, 32))
    def test_stalls_end_near_the_tighter_rules_stall(self, d, monkeypatch):
        stalls = 0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            start = rng.normal(size=d) + 1j * rng.normal(size=d)
            ours = _single_run(SearchConfig(dimension=d), start, 0, zauner=True)
            if ours.stop_reason != "stalled":
                continue
            stalls += 1
            with monkeypatch.context() as patch:
                patch.setattr(search_module, "MIN_DECREASE", 1e-9)
                tight = _single_run(SearchConfig(dimension=d), start, 0, zauner=True)
            assert ours.residual == pytest.approx(tight.residual, rel=1e-3)
        assert stalls >= 4

    @pytest.mark.parametrize("d, max_iterations, stop_reason", (
        (7, 20_000, "converged"), (9, 20_000, "stalled"), (7, 5, "budget"),
    ))
    def test_a_restart_computes_one_gradient_per_iteration(
            self, d, max_iterations, stop_reason, monkeypatch):
        # the gradient at a restart's last point is never read
        calls = []
        tangent_gradient = search_module._tangent_gradient

        def spy(*args):
            calls.append(None)
            return tangent_gradient(*args)

        monkeypatch.setattr(search_module, "_tangent_gradient", spy)
        rng = np.random.default_rng([0, 0])
        start = rng.normal(size=d) + 1j * rng.normal(size=d)
        got = _single_run(SearchConfig(dimension=d, max_iterations=max_iterations),
                          start, 0, zauner=True)
        assert got.stop_reason == stop_reason
        assert len(calls) == got.iterations > 0


class TestHitRate:
    def test_d35_hits_from_a_fixed_list_of_starts(self):
        # at hit rate p a search runs about 1/p restarts, so this bounds its
        # cost at d = 35: Zauner restarts from these 60 starts found a
        # fiducial from seeds 5, 30 and 48 under both the 1e-9 and the 1e-6
        # stall rule; raise the bound with a change that raises the count
        d = 35
        hits = 0
        for seed in range(60):
            rng = np.random.default_rng([seed, 0])
            start = rng.normal(size=d) + 1j * rng.normal(size=d)
            hits += _single_run(SearchConfig(dimension=d), start, 0, zauner=True).converged
        assert hits >= 3


class TestZaunerBasis:
    @pytest.mark.parametrize("d", range(2, 41))
    def test_largest_eigenspace(self, d):
        u = _zauner_unitary(d)
        assert np.abs(u @ u.conj().T - np.eye(d)).max() < 1e-12
        cube = u @ u @ u
        assert np.abs(cube - cube[0, 0] * np.eye(d)).max() < 1e-12
        basis = _zauner_basis(d)[0]
        assert basis.shape == (d, d // 3 + 1)
        assert np.abs(basis.conj().T @ basis - np.eye(d // 3 + 1)).max() < 1e-12
        lam = np.vdot(basis[:, 0], u @ basis[:, 0])
        assert abs(abs(lam) - 1) < 1e-12
        assert np.abs(u @ basis - lam * basis).max() < 1e-12


def group_images(d):
    """The images g(i, j) of every (i, j), as index arrays, for the six g
    of the group G generated by F(i, j) = (j, -i-j) and -I."""
    i, j = np.indices((d, d))
    images = [(i, j)]
    for _ in range(2):
        a, b = images[-1]
        images.append((b, (-a - b) % d))
    return images + [(-a % d, -b % d) for a, b in images]


def zauner_state(d, seed):
    """A random unit vector in the largest eigenspace of Zauner's unitary."""
    basis = _zauner_basis(d)[0]
    rng = np.random.default_rng([seed, d])
    psi = basis @ (rng.normal(size=basis.shape[1]) + 1j * rng.normal(size=basis.shape[1]))
    return psi / np.linalg.norm(psi)


class TestZaunerRows:
    """A restart in the Zauner eigenspace reads only the moments of rows
    R = {i : min(i, d - i) <= d // 3}, each deviation weighted by 6 over the
    number of g in G that keep its row in R. That gives the full residual
    because |M| is constant on G's orbits there and every orbit meets R."""

    @pytest.mark.parametrize("d", range(3, 49))
    def test_moduli_are_constant_on_orbits(self, d):
        _, (_, m, _) = search_module._full(d, zauner_state(d, 1))
        moduli = np.abs(m)
        for a, b in group_images(d):
            assert np.abs(moduli[a, b] - moduli).max() < 1e-12

    @pytest.mark.parametrize("d", range(2, 65))
    def test_every_orbit_meets_the_rows(self, d):
        rows = _zauner_basis(d)[1]
        in_rows = np.isin(np.arange(d), rows)
        assert np.logical_or.reduce([in_rows[a] for a, _ in group_images(d)]).all()
        assert len(rows) == 2 * (d // 3) + 1

    @pytest.mark.parametrize("d", range(2, 65))
    def test_weights_sum_each_orbit_to_its_size(self, d):
        # summed over the six g, an orbit of size 6/s counts each member s
        # times, so the weights of its members in R must sum to 6 over g
        _, rows, weights = _zauner_basis(d)
        full = np.zeros((d, d))
        full[rows] = weights
        totals = sum(full[a, b] for a, b in group_images(d))
        want = np.full((d, d), 6.0)
        want[0, 0] = 0.0
        assert np.array_equal(totals, want)

    @pytest.mark.parametrize("d", range(3, 49))
    def test_weighted_rows_give_the_full_residual_and_gradient(self, d):
        psi = zauner_state(d, 2)
        to_psi, back, tables = search_module._space(d, zauner=True)
        basis_h = _zauner_basis(d)[0].conj().T
        residual, point = search_module._evaluate(psi, tables)
        want = sic_residual(d, psi)
        assert abs(residual - want) <= 1e-13 * want
        x = back(psi).view(float)
        assert np.abs(to_psi(x.view(complex)) - psi).max() < 1e-12
        got = search_module._tangent_gradient(back, x, point, tables)
        grad = residual_gradient(d, psi)
        g = (basis_h @ (grad[:d] + 1j * grad[d:])).view(float)
        want = g - g.dot(x) * x
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestStopReason:
    def test_converged(self):
        result = search(SearchConfig(dimension=2, restarts=4, rng_seed=3))
        assert result.converged
        assert result.restarts[result.restart_index].stop_reason == "converged"

    def test_converged_at_the_start(self):
        result = search(SearchConfig(dimension=2, restarts=1, max_iterations=0),
                        initial=known_fiducial(2))
        assert (result.iterations, result.restarts[0].stop_reason) == (0, "converged")

    @pytest.mark.parametrize("max_iterations", (0, 3))
    def test_budget(self, max_iterations):
        result = search(SearchConfig(dimension=5, restarts=2,
                                     max_iterations=max_iterations))
        for restart in result.restarts:
            assert not restart.converged
            assert restart.iterations == max_iterations
            assert restart.stop_reason == "budget"

    def test_stalled(self):
        # the known d = 4 fiducial's residual is about 3e-32 in doubles
        # and never drops below 1e-300, so the line search runs out of
        # lower residuals
        result = search(SearchConfig(dimension=4, restarts=1, tolerance=1e-300),
                        initial=known_fiducial(4))
        restart = result.restarts[0]
        assert not restart.converged
        assert 0 < restart.iterations < 20_000
        assert restart.stop_reason == "stalled"

    def test_zero_gradient(self, monkeypatch):
        # a unit vector where the raw gradient vanishes has residual 0, so
        # no real input reaches this; stub the gradient to check the branch
        monkeypatch.setattr(search_module, "_descent",
                            lambda point, tables: np.zeros(3, complex))
        result = search(SearchConfig(dimension=3, restarts=1))
        restart = result.restarts[0]
        assert (restart.iterations, restart.converged) == (0, False)
        assert restart.stop_reason == "zero_gradient"


class TestWarmStartValidation:
    @pytest.fixture(autouse=True)
    def no_restart_runs(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a restart ran before the warm start was checked")
        monkeypatch.setattr(search_module, "_single_run", refuse)

    @pytest.mark.parametrize("bad", (np.inf, -np.inf, np.nan, complex(0, np.inf)))
    def test_non_finite_entries_are_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            search(SearchConfig(dimension=4, restarts=2), initial=[bad, 1, 0, 0])

    @pytest.mark.parametrize("entries", (3, 5))
    def test_wrong_length_is_refused(self, entries):
        with pytest.raises(ValueError, match=f"4 entries, got {entries}"):
            search(SearchConfig(dimension=4, restarts=2), initial=np.ones(entries))


class TestExtractPhases:
    def test_recovers_the_canonical_table(self):
        psi = known_fiducial(4)
        phases = extract_phases(psi)
        table = canonical_phase_matrix()
        for i in range(4):
            for j in range(4):
                assert abs(phases[i, j] - embed(table[i][j])) < 1e-8

    def test_sentinel_is_one(self):
        assert extract_phases(known_fiducial(4))[0, 0] == 1.0

    def test_unit_moduli(self):
        phases = extract_phases(known_fiducial(3))
        assert np.allclose(np.abs(phases), 1, atol=1e-10)

    def test_rejects_non_fiducials(self):
        with pytest.raises(ValueError, match="not a fiducial"):
            extract_phases(np.array([1.0, 0, 0, 0]))

    def test_eigenvector_matches_exact_projector(self):
        psi = known_fiducial(4)
        outer = np.outer(psi, psi.conj())
        assert np.allclose(outer, embedded_projector(), atol=1e-12)
