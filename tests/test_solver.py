"""Solver behavior: initialization, candidates, line search, full fits."""

import numpy as np
import pytest

import logcave as lc
from logcave.errors import NoAscent
from logcave.objective import ObjectiveWorkspace
from logcave.solver import IcmState, _line_search

from oracles import (
    grid_search_loglik,
    kkt_residual_blocks,
    projected_gradient_loglik,
)

TIGHT = lc.IcmConfig(phi_tolerance=1e-15, max_iterations=20000)


def normal_sample(n, seed, scale=1.0):
    return lc.validate_sample(
        scale * np.random.default_rng(seed).normal(0, 1, n))


class TestInitialization:
    def test_three_point_example(self):
        sample = lc.validate_sample([-1.0, 0.0, 1.0])
        omega = lc.initialize_normal(sample)
        assert np.allclose(omega.slopes, [0.5, -0.5], rtol=1e-14)
        # two-segment sum by hand: both segments contribute rho(1/2), so
        # omega_1 = -log(2 rho(1/2)) = -log(4 (sqrt(e) - 1))
        assert omega.intercept == pytest.approx(
            -np.log(4.0 * (np.exp(0.5) - 1.0)), rel=1e-12)
        theta = lc.theta_from_omega(omega, sample)
        assert lc.normalization_mass(theta, sample) == pytest.approx(
            1.0, abs=1e-12)

    def test_slopes_nonincreasing_and_mass_one(self):
        for seed in range(5):
            sample = normal_sample(30, seed, scale=2.5)
            omega = lc.initialize_normal(sample)
            assert np.all(omega.slopes[:-1] >= omega.slopes[1:])
            theta = lc.theta_from_omega(omega, sample)
            assert lc.normalization_mass(theta, sample) == pytest.approx(
                1.0, abs=1e-12)


class TestCandidate:
    def test_fixed_point_at_two_point_optimum(self):
        sample = lc.validate_sample([0.0, 1.0])
        omega = lc.OmegaVector(0.0, [0.0])
        state = IcmState(omega, lc.phi(omega, sample))
        cand = lc.icm_candidate(state, sample)
        assert cand.slopes[0] == pytest.approx(0.0, abs=1e-14)

    def test_candidate_feasible_and_normalized(self):
        for seed in range(3):
            sample = normal_sample(40, seed)
            omega = lc.initialize_normal(sample)
            state = IcmState(omega, lc.phi(omega, sample))
            cand = lc.icm_candidate(state, sample)
            assert np.all(cand.slopes[:-1] >= cand.slopes[1:])
            theta = lc.theta_from_omega(cand, sample)
            assert lc.normalization_mass(theta, sample) == pytest.approx(
                1.0, abs=1e-12)


class TestLineSearch:
    def test_accepts_improving_candidate_at_full_step(self):
        sample = normal_sample(25, 3)
        config = lc.IcmConfig()
        omega = lc.initialize_normal(sample)
        state = IcmState(omega, lc.phi(omega, sample))
        cand = lc.icm_candidate(state, sample)
        if lc.phi(cand, sample) > state.phi:
            accepted, step = lc.line_search(state, cand, config, sample)
            assert step == 1.0
            assert np.array_equal(accepted.slopes, cand.slopes)

    def test_overshoot_accepted_at_half_step(self):
        # one-dimensional slope problem where the proposed move doubles the
        # distance past the maximizer: s=1 fails, s=1/2 lands on it
        sample = lc.validate_sample([0.0, 1.0])
        ws = ObjectiveWorkspace(sample)
        current = np.array([0.8])
        phi0 = ws.manifold_phi(current)
        overshoot = None
        for delta in np.arange(1.6, 12.0, 0.05):
            trial = np.array([0.8 - delta])
            if ws.manifold_phi(trial) <= phi0:
                overshoot = trial
                break
        assert overshoot is not None
        slopes, step, new_phi = _line_search(ws, current, phi0, overshoot, 60)
        assert step == 0.5
        assert new_phi > phi0

    def test_zero_direction_raises_no_ascent(self):
        sample = normal_sample(10, 4)
        config = lc.IcmConfig()
        omega = lc.initialize_normal(sample)
        state = IcmState(omega, lc.phi(omega, sample))
        with pytest.raises(NoAscent):
            lc.line_search(state, omega, config, sample)


class TestFit:
    def test_two_points_give_uniform(self):
        fit, report = lc.fit(lc.validate_sample([0.0, 1.0]))
        assert report.converged
        assert np.max(np.abs(fit.theta - 0.0)) < 1e-6
        assert fit.log_likelihood == pytest.approx(0.0, abs=1e-9)

    def test_two_points_general_interval(self):
        fit, _ = lc.fit(lc.validate_sample([2.0, 5.0]))
        assert np.max(np.abs(fit.theta + np.log(3.0))) < 1e-6

    def test_three_point_symmetric_sample(self):
        sample = lc.validate_sample([-1.0, 0.0, 1.0])
        fit, report = lc.fit(sample, TIGHT)
        omega = lc.omega_from_theta(fit.theta, sample)
        assert abs(omega.slopes[0] + omega.slopes[1]) < 1e-6

    def test_three_point_matches_grid_oracle(self):
        for seed in range(5):
            rng = np.random.default_rng(400 + seed)
            sample = lc.validate_sample(np.cumsum(rng.uniform(0.25, 1.2, 3)))
            fit, _ = lc.fit(sample, TIGHT)
            want = grid_search_loglik(sample.knots)
            assert fit.log_likelihood == pytest.approx(want, abs=1e-4)

    def test_four_point_matches_projected_gradient_oracle(self):
        for seed in range(3):
            rng = np.random.default_rng(500 + seed)
            sample = lc.validate_sample(np.cumsum(rng.uniform(0.25, 1.2, 4)))
            fit, _ = lc.fit(sample, TIGHT)
            start = lc.initialize_normal(sample).slopes
            want = projected_gradient_loglik(sample.knots, start)
            assert fit.log_likelihood == pytest.approx(want, abs=1e-4)

    def test_phi_trace_strictly_increasing(self):
        for seed in range(3):
            _, report = lc.fit(normal_sample(30, seed))
            trace = report.phi_trace
            assert np.all(np.diff(trace) > -1e-12)
            assert np.all(np.diff(trace[:-1]) > 0)

    def test_iterate_feasibility_invariants(self):
        # accepted iterates satisfy the slope ordering exactly and sit on
        # the unit-mass manifold
        config = lc.IcmConfig()
        for seed in range(3):
            sample = normal_sample(40, 600 + seed)
            omega = lc.initialize_normal(sample)
            state = IcmState(omega, lc.phi(omega, sample))
            for _ in range(15):
                cand = lc.icm_candidate(state, sample, config)
                try:
                    accepted, _ = lc.line_search(state, cand, config, sample)
                except NoAscent:
                    break
                assert np.all(accepted.slopes[:-1] >= accepted.slopes[1:])
                theta = lc.theta_from_omega(accepted, sample)
                assert lc.normalization_mass(theta, sample) == pytest.approx(
                    1.0, abs=1e-10)
                state = IcmState(accepted, lc.phi(accepted, sample))

    def test_fit_output_normalized(self):
        for seed in range(4):
            sample = normal_sample(40, 600 + seed)
            fit, report = lc.fit(sample)
            # the fit carries the solver's iterate, feasible exactly
            assert np.all(fit.slopes[:-1] >= fit.slopes[1:])
            assert abs(fit.mass - 1.0) < 1e-10
            assert fit.normalized

    def test_not_converged_is_soft(self):
        config = lc.IcmConfig(phi_tolerance=1e-15, max_iterations=3)
        fit, report = lc.fit(normal_sample(60, 7), config)
        assert not report.converged
        assert report.iterations == 3
        assert fit.mass == pytest.approx(1.0, abs=1e-10)

    def test_log_likelihood_equals_sum_theta(self):
        fit, _ = lc.fit(normal_sample(25, 8))
        assert fit.log_likelihood == pytest.approx(float(np.sum(fit.theta)),
                                                   abs=1e-8)

    def test_scale_and_shift_equivariance(self):
        base = np.random.default_rng(9).normal(0, 1, 30)
        a, c = 2.0, 3.0
        cfg = lc.IcmConfig(phi_tolerance=1e-12, max_iterations=20000)
        fit_x, _ = lc.fit(lc.validate_sample(base), cfg)
        fit_y, _ = lc.fit(lc.validate_sample(a * base + c), cfg)
        grid = np.linspace(base.min(), base.max(), 97)
        left = fit_y.log_pdf(a * grid + c)
        right = fit_x.log_pdf(grid) - np.log(a)
        assert np.max(np.abs(left - right)) < 1e-8


class TestKkt:
    def test_zero_at_two_point_optimum(self):
        sample = lc.validate_sample([0.0, 1.0])
        omega = lc.OmegaVector(0.0, [0.0])
        assert lc.kkt_residual(omega, sample) < 1e-12

    def test_small_on_converged_normal_fits(self):
        cfg = lc.IcmConfig(phi_tolerance=1e-30, max_iterations=100000)
        for seed in range(3):
            sample = normal_sample(50, seed)
            fit, report = lc.fit(sample, cfg)
            assert report.converged
            assert report.kkt_residual < 1e-6

    def test_positive_at_initialization_of_skewed_sample(self):
        draws = np.random.default_rng(11).standard_exponential(40)
        sample = lc.validate_sample(draws)
        omega = lc.initialize_normal(sample)
        assert lc.kkt_residual(omega, sample) > 1e-3

    def test_infeasible_point_rejected(self):
        sample = lc.validate_sample([0.0, 1.0, 2.0])
        bad = lc.OmegaVector(0.0, [0.0, 1.0])  # increasing slopes
        with pytest.raises(lc.InfeasiblePoint):
            lc.kkt_residual(bad, sample)
        off_manifold = lc.OmegaVector(5.0, [0.0, -1.0])
        with pytest.raises(lc.InfeasiblePoint):
            lc.kkt_residual(off_manifold, sample)


def test_theorem_boundedness_small_probe():
    # estimated peak stays modest for normal data (full probe lives in the
    # acceptance suite)
    peaks = []
    for seed in range(5):
        fit, _ = lc.fit(normal_sample(100, 900 + seed))
        peaks.append(float(np.exp(fit.theta.max())))
    assert max(peaks) < 2.0


class TestKktAgainstBlockLoop:
    """The vectorized residual against the block-by-block loop oracle."""

    @staticmethod
    def _agree(slopes, sample, block_tol):
        slopes = np.asarray(slopes, float)
        omega = lc.OmegaVector(lc.omega1_from_constraint(slopes, sample),
                               slopes)
        fast = lc.kkt_residual(omega, sample, block_tol=block_tol)
        slow = kkt_residual_blocks(lc.grad_phi(omega, sample), slopes,
                                   block_tol)
        assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12 * sample.n)
        return fast

    @staticmethod
    def _sample(rng, n):
        return lc.validate_sample(np.cumsum(rng.uniform(0.2, 1.0, n)))

    def test_random_feasible_points_with_blocks(self):
        rng = np.random.default_rng(41)
        for n in (2, 3, 10, 200, 2000):
            sample = self._sample(rng, n)
            for _ in range(10):
                # drops of zero make blocks of equal slopes
                drops = rng.uniform(0.0, 0.05, n - 2)
                drops[rng.uniform(size=n - 2) < 0.6] = 0.0
                slopes = rng.normal(0.0, 0.3) + drops.sum() / 2 - np.concatenate(
                    ([0.0], np.cumsum(drops)))
                self._agree(slopes, sample, 1e-8)

    def test_one_block_only(self):
        rng = np.random.default_rng(42)
        for n in (2, 5, 500):
            sample = self._sample(rng, n)
            self._agree(np.full(n - 1, -0.01), sample, 1e-8)

    def test_all_distinct_slopes(self):
        rng = np.random.default_rng(43)
        for n in (3, 50, 1000):
            sample = self._sample(rng, n)
            slopes = 0.5 - np.cumsum(rng.uniform(0.01, 0.02, n - 1))
            self._agree(slopes, sample, 1e-8)

    def test_gaps_exactly_at_block_tol(self):
        # a gap equal to block_tol does not split a block; a larger one does
        rng = np.random.default_rng(44)
        sample = self._sample(rng, 40)
        slopes = 0.2 - 0.01 * np.arange(39)
        slopes[10:20] = slopes[10]
        slopes[15:20] -= 1e-9
        block_tol = slopes[14] - slopes[15]
        assert block_tol > 0
        joined = self._agree(slopes, sample, block_tol)
        split = self._agree(slopes, sample, np.nextafter(block_tol, 0.0))
        assert joined != split
