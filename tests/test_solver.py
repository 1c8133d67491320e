"""Solver behavior: initialization, candidates, line search, full fits."""

import dataclasses
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import logcave as lc
from logcave import solver
from logcave._rho import segment_masses, segment_triples
from logcave.errors import NoAscent
from logcave.objective import ObjectiveWorkspace
from logcave.solver import _candidate_slopes, _line_search

from oracles import (
    active_set_single_add,
    backtracking_line_search,
    fit_moments,
    grid_search_loglik,
    kkt_residual_blocks,
    newton_dense,
    projected_gradient_loglik,
    step_trial,
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


def icm_candidate(ws, omega):
    """ICM's surrogate maximizer from omega, with its intercept restored."""
    slopes = _candidate_slopes(ws, omega)
    return lc.OmegaVector(float(ws.restore_intercept(slopes)), slopes)


def icm_step(ws, omega, config):
    """One ICM iteration from omega: (accepted point, step size); raises
    NoAscent when no step increases the objective."""
    slopes, intercept, _, k = _line_search(
        ws, omega.slopes, np.longdouble(ws.phi(omega)),
        _candidate_slopes(ws, omega), config.max_halvings)
    return lc.OmegaVector(float(intercept), slopes), 0.5 ** k


class TestConfig:
    @pytest.mark.parametrize("setting", [
        {"phi_tolerance": math.nan}, {"phi_tolerance": math.inf},
        {"phi_tolerance": -1.0}, {"phi_tolerance": 0.0},
        {"phi_tolerance": "1e-8"}, {"phi_tolerance": True},
        {"max_iterations": 0}, {"max_iterations": 10.0},
        {"max_iterations": math.nan}, {"max_iterations": True},
        {"max_halvings": -1}, {"max_halvings": 2.5},
        {"max_halvings": math.inf}])
    def test_bad_settings_raise(self, setting):
        with pytest.raises(lc.BadConfig, match=next(iter(setting))):
            lc.IcmConfig(**setting)

    def test_config_error_is_a_value_error(self):
        # callers that catch ValueError keep working
        assert issubclass(lc.BadConfig, lc.LogcaveError)
        with pytest.raises(ValueError):
            lc.IcmConfig(phi_tolerance=math.nan)

    def test_numpy_and_extreme_settings_accepted(self):
        config = lc.IcmConfig(phi_tolerance=np.float64(1e-300),
                              max_iterations=np.int64(5), max_halvings=1)
        assert config.max_iterations == 5
        lc.IcmConfig(phi_tolerance=1, max_iterations=10 ** 400)

    def test_public_surface(self):
        # the objective and the ICM steps are reached through
        # ObjectiveWorkspace and the solver module, not the package
        for name in ("phi", "grad_phi", "diag_curvature",
                     "omega1_from_constraint", "icm_candidate",
                     "line_search", "IcmState"):
            assert not hasattr(lc, name), name
        assert [f.name for f in dataclasses.fields(lc.IcmConfig)] == [
            "phi_tolerance", "max_iterations", "max_halvings"]
        assert [f.name for f in dataclasses.fields(ObjectiveWorkspace)] == [
            "sample"]
        assert not hasattr(ObjectiveWorkspace, "curvature")


class TestCandidate:
    def test_fixed_point_at_two_point_optimum(self):
        sample = lc.validate_sample([0.0, 1.0])
        omega = lc.OmegaVector(0.0, [0.0])
        cand = icm_candidate(ObjectiveWorkspace(sample), omega)
        assert cand.slopes[0] == pytest.approx(0.0, abs=1e-14)

    def test_curvature_floor_keeps_weights_positive(self, monkeypatch):
        # a curvature that underflows to zero is raised to the floor, and
        # only there; the workspace itself returns the exact curvature
        sample = normal_sample(20, 1)
        ws = ObjectiveWorkspace(sample)
        omega = lc.initialize_normal(sample)
        grad, curv = ws.derivatives(omega)
        curv = curv.copy()
        curv[3] = 0.0
        weights = []
        monkeypatch.setattr(ws, "derivatives", lambda _: (grad, curv))
        monkeypatch.setattr(solver, "concave_majorant_slopes",
                            lambda d, v: weights.append(d) or v / d)
        _candidate_slopes(ws, omega)
        floor = solver.CURVATURE_FLOOR * max(1.0, float(curv.max()))
        assert weights[0][3] == floor
        assert np.array_equal(np.delete(weights[0], 3), np.delete(curv, 3))

    def test_candidate_feasible_and_normalized(self):
        for seed in range(3):
            sample = normal_sample(40, seed)
            omega = lc.initialize_normal(sample)
            cand = icm_candidate(ObjectiveWorkspace(sample), omega)
            assert np.all(cand.slopes[:-1] >= cand.slopes[1:])
            theta = lc.theta_from_omega(cand, sample)
            assert lc.normalization_mass(theta, sample) == pytest.approx(
                1.0, abs=1e-12)


class TestLineSearch:
    def test_accepts_improving_candidate_at_full_step(self):
        sample = normal_sample(25, 3)
        config = lc.IcmConfig()
        ws = ObjectiveWorkspace(sample)
        omega = lc.initialize_normal(sample)
        cand = icm_candidate(ws, omega)
        if ws.phi(cand) > ws.phi(omega):
            accepted, step = icm_step(ws, omega, config)
            assert step == 1.0
            assert np.array_equal(accepted.slopes, cand.slopes)

    def test_overshoot_accepted_at_half_step(self):
        # one-dimensional slope problem where the proposed move doubles the
        # distance past the maximizer: s=1 fails, s=1/2 lands on it
        sample = lc.validate_sample([0.0, 1.0])
        ws = ObjectiveWorkspace(sample)
        current = np.array([0.8])
        phi0, _ = ws.manifold_phi(current)
        overshoot = None
        for delta in np.arange(1.6, 12.0, 0.05):
            trial = np.array([0.8 - delta])
            if ws.manifold_phi(trial)[0] <= phi0:
                overshoot = trial
                break
        assert overshoot is not None
        slopes, _, new_phi, halvings = _line_search(ws, current, phi0,
                                                    overshoot, 60)
        assert halvings == 1
        assert new_phi > phi0

    def test_zero_direction_raises_no_ascent(self):
        sample = normal_sample(10, 4)
        config = lc.IcmConfig()
        ws = ObjectiveWorkspace(sample)
        omega = lc.initialize_normal(sample)
        with pytest.raises(NoAscent):
            _line_search(ws, omega.slopes, np.longdouble(ws.phi(omega)),
                         omega.slopes, config.max_halvings)


class TestWarmStartedLineSearch:
    """The search started at any step against backtracking from step 1."""

    @staticmethod
    def _searches(ws, slopes0, candidate, dtype, max_halvings=60):
        """Run every start; return whether the increasing steps form an
        interval, and backtracking's step (None when no step increases)."""
        phi0, _ = ws.manifold_phi(slopes0, dtype)
        increasing = [
            k for k in range(max_halvings + 1)
            if ws.manifold_phi(step_trial(slopes0, candidate, k),
                               dtype)[0] > phi0]
        if not increasing:
            for start in range(max_halvings + 1):
                with pytest.raises(NoAscent):
                    _line_search(ws, slopes0, phi0, candidate, max_halvings,
                                 dtype, start=start)
            return True, None
        want = backtracking_line_search(ws, slopes0, phi0, candidate,
                                        max_halvings, dtype)
        interval = increasing[-1] - increasing[0] == len(increasing) - 1
        for start in range(max_halvings + 1):
            got = _line_search(ws, slopes0, phi0, candidate, max_halvings,
                               dtype, start=start)
            assert got[3] in increasing and got[2] > phi0
            if interval:
                assert got[3] == want[3]
                assert np.array_equal(got[0], want[0])
                assert got[1] == want[1] and got[2] == want[2]
        return interval, want[3]

    def test_every_start_matches_backtracking_at_random_points(self):
        # concavity along the segment makes the increasing steps an
        # interval, and then every start finds backtracking's step.  Double
        # rounding can add isolated increasing steps far below the step
        # accepted (gains under one ulp of phi); a start among those may
        # return one of them, still an ascent step.
        rng = np.random.default_rng(71)
        accepted = set()
        intervals = []
        for n in (5, 40, 120):
            sample = lc.validate_sample(np.cumsum(rng.uniform(0.1, 1.0, n)))
            ws = ObjectiveWorkspace(sample)
            for _ in range(3):
                slopes0 = np.sort(rng.normal(0.0, 1.0, n - 1))[::-1].copy()
                omega = lc.OmegaVector(ws.restore_intercept(slopes0), slopes0)
                icm = solver._candidate_slopes(ws, omega)
                # stretching the ICM direction moves the accepted step
                # down the ladder; a random feasible point mostly fails
                targets = [np.minimum.accumulate(slopes0 + c * (icm - slopes0))
                           for c in (1.0, 2.0 ** 6, 2.0 ** 14)]
                targets.append(np.sort(rng.normal(0.0, 1.0, n - 1))[::-1])
                for candidate in targets:
                    for dtype in (float, np.longdouble):
                        interval, k = self._searches(ws, slopes0, candidate,
                                                     dtype)
                        intervals.append(interval)
                        accepted.add(k)
        # the corpus reaches the unit step, deep halvings and no ascent at
        # all, and most of its points have an interval of increasing steps
        assert {0, None} <= accepted
        assert max(k for k in accepted if k is not None) >= 14
        assert np.mean(intervals) > 0.75

    @staticmethod
    def _fit_pair(monkeypatch, sample, config=None):
        fast = lc.fit_icm(sample, config)

        def oracle(ws, slopes0, phi0, candidate, max_halvings,
                   dtype=np.longdouble, start=0):
            return backtracking_line_search(ws, slopes0, phi0, candidate,
                                            max_halvings, dtype)

        with monkeypatch.context() as patch:
            patch.setattr(solver, "_line_search", oracle)
            slow = lc.fit_icm(sample, config)
        return fast, slow

    @pytest.mark.parametrize("n, max_iterations", [(25, 1000), (200, 1000),
                                                   (2000, 50)])
    def test_whole_fits_match_backtracking(self, monkeypatch, n,
                                           max_iterations):
        config = lc.IcmConfig(max_iterations=max_iterations)
        for index, density in enumerate(lc.REFERENCE_DENSITIES.values()):
            draws = lc.sample_true(
                density, np.random.SeedSequence(4, spawn_key=(index, n)), n)
            (fit_a, rep_a), (fit_b, rep_b) = self._fit_pair(
                monkeypatch, lc.validate_sample(draws), config)
            assert np.array_equal(rep_a.step_sizes, rep_b.step_sizes)
            assert np.array_equal(rep_a.phi_trace, rep_b.phi_trace)
            assert np.array_equal(fit_a.theta, fit_b.theta)

    def test_evaluations_per_iteration_stay_low(self, monkeypatch):
        # large samples never accept the unit step; restarting every search
        # at step 1 costs about 7.6 evaluations per iteration here
        draws = lc.sample_true(lc.DOUBLE_EXPONENTIAL,
                               np.random.SeedSequence(5, spawn_key=(5000,)),
                               5000)
        sample = lc.validate_sample(draws)
        config = lc.IcmConfig(max_iterations=100)
        calls = []
        counted = ObjectiveWorkspace.manifold_phi

        def counting(ws, *args, **kwargs):
            calls.append(1)
            return counted(ws, *args, **kwargs)

        monkeypatch.setattr(ObjectiveWorkspace, "manifold_phi", counting)
        (_, report), (_, restarted) = self._fit_pair(monkeypatch, sample,
                                                     config)
        assert report.iterations == restarted.iterations == 100
        assert report.phi_evaluations < 4.5 * report.iterations
        assert restarted.phi_evaluations > 6.0 * restarted.iterations
        # the report counts every objective evaluation of the fit
        assert report.phi_evaluations + restarted.phi_evaluations == len(calls)


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
            ws = ObjectiveWorkspace(sample)
            omega = lc.initialize_normal(sample)
            for _ in range(15):
                try:
                    accepted, _ = icm_step(ws, omega, config)
                except NoAscent:
                    break
                assert np.all(accepted.slopes[:-1] >= accepted.slopes[1:])
                theta = lc.theta_from_omega(accepted, sample)
                assert lc.normalization_mass(theta, sample) == pytest.approx(
                    1.0, abs=1e-10)
                omega = accepted

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
        ws = ObjectiveWorkspace(sample)
        omega = lc.OmegaVector(ws.restore_intercept(slopes), slopes)
        fast = lc.kkt_residual(omega, sample, block_tol=block_tol)
        slow = kkt_residual_blocks(ws.gradient(omega), slopes, block_tol)
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


class TestActiveSet:
    """The default solver: report contract, exactness and termination."""

    def test_report_fields_are_finite(self):
        normal = normal_sample(200, 1)
        cases = [(normal, None), (lc.validate_sample([0.0, 1.0]), None),
                 (normal, lc.IcmConfig(max_iterations=1)),
                 (normal, lc.IcmConfig(phi_tolerance=1e-300))]
        for sample, config in cases:
            fit, report = lc.fit(sample, config)
            assert report.iterations == len(report.step_sizes) >= 1
            assert report.phi_trace.shape == (report.iterations + 1,)
            assert np.all(np.isfinite(report.phi_trace))
            assert np.all(np.diff(report.phi_trace) > -1e-12)
            assert np.all((report.step_sizes > 0) & (report.step_sizes <= 1))
            for value in (report.kkt_residual, report.certificate):
                assert np.isfinite(value) and value >= 0
            for count in (report.newton_steps, report.kinks_added,
                          report.kinks_dropped, report.phi_evaluations):
                assert isinstance(count, int) and count >= 0
            assert isinstance(report.converged, bool)
            assert fit.log_likelihood == pytest.approx(
                report.phi_trace[-1] + sample.n, abs=1e-9 * sample.n)
        assert not lc.fit(normal, lc.IcmConfig(max_iterations=1))[1].converged

    def test_reaches_the_mle_where_icm_stops_early(self):
        # ICM reports converged here after 618 iterations, KKT residual 4.36
        draws = lc.sample_true(lc.DOUBLE_EXPONENTIAL,
                               np.random.SeedSequence(7, spawn_key=(1000,)),
                               1000)
        _, report = lc.fit(lc.validate_sample(draws))
        assert report.converged
        assert report.kkt_residual / 1000 <= 1e-6

    def test_certificate_sees_kinks_that_should_shrink(self):
        # no directional derivative of this early-stopped ICM fit is
        # positive; only the derivatives at its kinks show it is not the MLE
        draws = lc.sample_true(lc.NORMAL,
                               np.random.SeedSequence(7, spawn_key=(200,)),
                               200)
        sample = lc.validate_sample(draws)
        icm, icm_report = lc.fit_icm(sample)
        derivatives = solver._directional_derivatives(icm.theta, sample.gaps)
        assert derivatives.max() <= 0.0
        assert icm_report.certificate > 1e-4
        assert lc.fit(sample)[1].certificate < 1e-8

    def test_fitted_variance_at_most_sample_variance(self):
        # every log-concave MLE has this property; ICM's fit of this sample
        # has a variance 1.0053 times the sample variance
        draws = lc.sample_true(lc.BETA,
                               np.random.SeedSequence(31, spawn_key=(1000, 1)),
                               1000)
        fit, _ = lc.fit(lc.validate_sample(draws))
        mass, _, variance = fit_moments(fit.sample.knots, fit.theta)
        assert mass == pytest.approx(1.0, abs=1e-12)
        assert variance <= np.var(draws)

    def test_floor_fit_of_large_sample_converges_quickly(self):
        # an earlier prototype cycled forever on this sample, adding and
        # dropping neighbouring kinks with derivatives near 1e-8
        draws = lc.sample_true(lc.DOUBLE_EXPONENTIAL,
                               np.random.SeedSequence(7, spawn_key=(10000,)),
                               10000)
        sample = lc.validate_sample(draws)
        start = time.perf_counter()
        _, report = lc.fit(sample, lc.IcmConfig(phi_tolerance=1e-30,
                                                max_iterations=200000))
        assert time.perf_counter() - start < 1.0
        assert report.converged
        assert report.certificate <= solver.CERTIFICATE_FLOOR

    def test_unwanted_kink_cannot_make_it_cycle(self, monkeypatch):
        # a derivative that reports a gain the objective does not have keeps
        # selecting the same knot; each time the Newton solution drops it
        # again, and the solver stops instead of cycling to the cap
        derivatives = solver._directional_derivatives

        def misleading(theta, gaps, empirical):
            out = derivatives(theta, gaps, empirical).copy()
            out[50] += 1.0
            return out

        monkeypatch.setattr(solver, "_directional_derivatives", misleading)
        _, report = lc.fit(normal_sample(200, 7),
                           lc.IcmConfig(max_iterations=1000))
        assert not report.converged
        assert report.iterations < 50

    def test_directional_derivatives_match_their_definition(self):
        # D_j = int (x - x_j)_+ e^theta(x) dx - mean of (x_i - x_j)_+ for any
        # knot values theta, with the integral by Gauss-Legendre on every
        # segment, where the integrand is smooth
        rng = np.random.default_rng(12)
        x = np.sort(rng.normal(0.0, 1.0, 30))
        theta = rng.normal(0.0, 1.0, 30)
        nodes, weights = np.polynomial.legendre.leggauss(20)
        nodes, weights = 0.5 * (nodes + 1.0), 0.5 * weights
        h = np.diff(x)[:, None]
        points = x[:-1, None] + h * nodes
        mass = h * weights * np.exp(theta[:-1, None]
                                    + np.diff(theta)[:, None] * nodes)
        want = [float(np.sum((points[j:] - x[j]) * mass[j:]))
                - float(np.mean(np.maximum(x - x[j], 0.0)))
                for j in range(x.size)]
        gaps = np.diff(x)
        got = solver._directional_derivatives(theta, gaps)
        assert np.allclose(got, want, rtol=0.0, atol=1e-13)
        assert np.array_equal(got, solver._directional_derivatives(
            theta, gaps, solver._empirical_terms(gaps)))

    def test_batch_add_reaches_the_single_add_oracles_mle(self, monkeypatch):
        # fit adds the best knot of every block between kinks per
        # iteration, this repo's variant of the active-set method; the
        # oracle adds one knot per iteration, as Duembgen, Huesler and
        # Rufibach state it.  By concavity a fit with certificate c is
        # within n * c * range * (drop + drop*) of the MLE's
        # log-likelihood, with drop the fit's total slope decrease and
        # drop* the MLE's, taken here as the larger of the two fits'; the
        # log-likelihoods, sums of n values, add their rounding.
        samples = [lc.validate_sample(lc.sample_true(
            density, np.random.SeedSequence(13, spawn_key=(index, n)), n),
            jitter_ties=True)
            for index, density in enumerate(lc.REFERENCE_DENSITIES.values())
            for n in (25, 200, 2000)]
        batch = [lc.fit(sample) for sample in samples]
        monkeypatch.setattr(solver, "_active_set", active_set_single_add)
        single = [lc.fit(sample) for sample in samples]
        for sample, (fit, report), (want, want_report) in zip(samples, batch,
                                                             single):
            assert report.converged and want_report.converged
            assert max(report.certificate, want_report.certificate) <= 1e-8
            drop = max(f.slopes[0] - f.slopes[-1] for f in (fit, want))
            span = sample.knots[-1] - sample.knots[0]
            gap = (sample.n * span * 2.0 * drop
                   * (report.certificate + want_report.certificate)
                   + 1e-12 * sample.n)
            assert abs(fit.log_likelihood - want.log_likelihood) <= gap
        assert (sum(report.iterations for _, report in batch)
                < sum(report.iterations for _, report in single))

    def test_batch_add_takes_fewer_derivative_passes(self, monkeypatch):
        # a cost guard without a wall clock: every pass is O(n)
        draws = lc.sample_true(lc.NORMAL,
                               np.random.SeedSequence(5, spawn_key=(10000,)),
                               10000)
        sample = lc.validate_sample(draws)
        derivatives = solver._directional_derivatives
        calls = []

        def counted(*args):
            calls.append(None)
            return derivatives(*args)

        monkeypatch.setattr(solver, "_directional_derivatives", counted)
        assert lc.fit(sample)[1].converged
        batch = len(calls)
        calls.clear()
        monkeypatch.setattr(solver, "_active_set", active_set_single_add)
        assert lc.fit(sample)[1].converged
        assert batch < len(calls)

    def test_benchmark_sample_that_stopped_a_batch_prototype_converges(self):
        # a batch add that kept the single-add anti-cycling rule, and that
        # counted a kink tight at zero slope change even where the Newton
        # solution wants it concave, stopped on this fit_large sample with
        # certificate 2.3e-6
        raw = np.random.default_rng(np.random.SeedSequence(
            11, spawn_key=(1, 5000, 8))).laplace(0.0, 1.0, 5000)
        _, report = lc.fit(lc.validate_sample(raw),
                           lc.IcmConfig(max_iterations=100))
        assert report.converged

    def test_add_without_gain_falls_back_to_single_adds(self, monkeypatch):
        # once, the derivatives offer only the knot whose true derivative is
        # lowest: the batch adds it, the Newton solution drops it again and
        # the objective does not rise.  The fit then adds one knot per
        # iteration, and still reaches the MLE.
        derivatives = solver._directional_derivatives
        calls = []

        def misleading(theta, gaps, empirical):
            out = derivatives(theta, gaps, empirical)
            calls.append(None)
            if len(calls) == 3:
                lowest = int(np.argmin(out))
                out = np.full_like(out, -1.0)
                out[lowest] = 1.0
            return out

        monkeypatch.setattr(solver, "_directional_derivatives", misleading)
        _, report = lc.fit(normal_sample(200, 7))
        assert len(calls) > 3
        assert report.converged


def _density_samples(sizes, seed=17):
    return [lc.validate_sample(lc.sample_true(
        density, np.random.SeedSequence(seed, spawn_key=(index, n)), n),
        jitter_ties=True)
        for index, density in enumerate(lc.REFERENCE_DENSITIES.values())
        for n in sizes]


class TestFitFinish:
    """What ``fit`` does after the active-set loop: the certificate and the
    KKT residual from the loop's last derivative pass, the intercept from
    one pass of segment masses, and the stop reason."""

    def test_kkt_residual_matches_the_public_one(self):
        # the report takes its slope gradient from the derivative pass at
        # the standardized kink values, the public function from the
        # returned fit; they differ by rounding only, also where a capped
        # run stopped after a drop step, away from unit mass
        capped = [(sample, lc.IcmConfig(max_iterations=cap))
                  for sample in _density_samples((50, 1000), seed=18)
                  for cap in (2, 3, 5)]
        cases = [(sample, None) for sample in
                 _density_samples((25, 50, 200, 1000, 10000))] + capped
        assert any(lc.fit(*case)[1].step_sizes[-1] < 1.0 for case in capped)
        for sample, config in cases:
            fit, report = lc.fit(sample, config)
            omega = lc.OmegaVector(fit.theta[0], fit.slopes)
            assert np.array_equal(lc.theta_from_omega(omega, sample),
                                  fit.theta)
            assert abs(report.kkt_residual - lc.kkt_residual(omega, sample)
                       ) <= 1e-12 * sample.n
            # fit restores the intercept with the workspace's arithmetic
            assert ObjectiveWorkspace(sample).restore_intercept(
                fit.slopes) == fit.theta[0]

    def test_certificate_equals_one_recomputed_from_the_fit(self,
                                                            monkeypatch):
        # the certificate reuses the loop's last derivative pass, which must
        # be the pass at the returned kinks and values, on every exit; a
        # run that stopped after a drop step makes a pass of its own, at
        # those values normalized to unit mass
        active_set = solver._active_set
        runs = []

        def recorded(u, gaps, config):
            result = active_set(u, gaps, config)
            runs.append((u, gaps, result))
            return result

        monkeypatch.setattr(solver, "_active_set", recorded)
        for sample in _density_samples((25, 200, 2000)):
            for config in (None, lc.IcmConfig(max_iterations=1),
                           lc.IcmConfig(max_iterations=2),
                           lc.IcmConfig(max_iterations=5)):
                _, report = lc.fit(sample, config)
                u, gaps, (kinks, eta, _, derivatives, run) = runs[-1]
                theta = np.interp(u, u[kinks], eta)
                if report.step_sizes[-1] < 1.0:
                    theta -= np.log(np.sum(segment_masses(theta, gaps)))
                want = solver._directional_derivatives(theta, gaps)
                assert np.array_equal(derivatives, want)
                assert report.certificate == solver._certificate(
                    want, gaps, kinks)
        reasons = {run["stop_reason"] for *_, (*_, run) in runs}
        assert reasons == {"tolerance", "max_iterations"}
        assert any(run["step_sizes"][-1] < 1.0 for *_, (*_, run) in runs)

    @pytest.mark.parametrize("n, seed", [(25, 1), (200, 2), (5000, 3)])
    def test_finishing_costs_no_extra_pass(self, monkeypatch, n, seed):
        # a cost guard without a wall clock: a converged fit makes one
        # derivative pass per unit step, runs no rho'' and builds no
        # workspace
        def refused(*args, **kwargs):
            raise AssertionError("called by fit")

        from logcave import _rho, objective
        monkeypatch.setattr(objective.ObjectiveWorkspace, "__post_init__",
                            refused)
        monkeypatch.setattr(solver, "kkt_residual", refused)
        monkeypatch.setattr(_rho, "segment_triples", refused)
        moments = solver._segment_moments
        orders = []

        def counted_moments(theta, dx, order):
            orders.append(order)
            return moments(theta, dx, order)

        monkeypatch.setattr(solver, "_segment_moments", counted_moments)
        derivatives = solver._directional_derivatives
        calls = []

        def counted(*args):
            calls.append(None)
            return derivatives(*args)

        monkeypatch.setattr(solver, "_directional_derivatives", counted)
        _, report = lc.fit(normal_sample(n, seed))
        assert report.converged
        assert len(calls) == np.count_nonzero(report.step_sizes == 1.0)
        assert orders == [2] * len(calls)

    def test_phi_evaluations_count_kink_passes(self, monkeypatch):
        kink_pass = solver._kink_pass
        calls = []

        def counted(*args):
            calls.append(None)
            return kink_pass(*args)

        monkeypatch.setattr(solver, "_kink_pass", counted)
        for config in (None, lc.IcmConfig(max_iterations=3)):
            calls.clear()
            _, report = lc.fit(normal_sample(200, 4), config)
            assert report.phi_evaluations == len(calls)
            assert report.phi_evaluations > report.newton_steps

    def test_fit_stop_reasons(self, monkeypatch):
        sample = normal_sample(200, 7)
        _, report = lc.fit(sample)
        assert (report.stop_reason, report.converged) == ("tolerance", True)
        for cap in (1, 2, 3):
            _, report = lc.fit(sample, lc.IcmConfig(max_iterations=cap))
            assert report.stop_reason == "max_iterations"
            assert report.iterations == cap and not report.converged
        # a derivative that reports a gain the objective does not have
        derivatives = solver._directional_derivatives

        def misleading(theta, gaps, empirical):
            out = derivatives(theta, gaps, empirical).copy()
            out[50] += 1.0
            return out

        monkeypatch.setattr(solver, "_directional_derivatives", misleading)
        _, report = lc.fit(sample)
        assert (report.stop_reason, report.converged) == ("no_ascent", False)

    def test_icm_stop_reasons(self, monkeypatch):
        sample = normal_sample(50, 3)
        _, report = lc.fit_icm(sample)
        assert (report.stop_reason, report.converged) == ("tolerance", True)
        _, report = lc.fit_icm(sample, lc.IcmConfig(max_iterations=2))
        assert (report.stop_reason, report.converged) == ("max_iterations",
                                                          False)

        def no_ascent(*args, **kwargs):
            raise NoAscent("no step")

        monkeypatch.setattr(solver, "_line_search", no_ascent)
        _, report = lc.fit_icm(sample)
        assert (report.stop_reason, report.converged) == ("no_ascent", True)
        assert report.iterations == 0

        def step_failure(*args, **kwargs):
            raise lc.StepFailure("no derivatives")

        monkeypatch.setattr(solver, "_candidate_slopes", step_failure)
        _, report = lc.fit_icm(sample)
        assert (report.stop_reason, report.converged) == ("step_failure",
                                                          False)


def _kink_case(size, seed):
    """(start, c, blocks) of a kink system with ``size`` random kinks on a
    normal sample, started from the uniform density as ``fit`` starts."""
    rng = np.random.default_rng(seed)
    n = max(4 * size, 50)
    x = np.sort(rng.normal(0.0, 1.0, n))
    u = x - x[0]
    inner = rng.choice(np.arange(1, n - 1), size - 2, replace=False)
    kinks = np.sort(np.concatenate(([0, n - 1], inner)))
    c, blocks = solver._kink_system(u, np.diff(x), kinks)
    return np.full(size, -np.log(u[-1])), c, blocks


def _assert_newtons_agree(start, c, blocks, config):
    eta, value, steps, _ = solver._newton(start, c, blocks, config)
    want_eta, want_value, want_steps, _ = newton_dense(start, c, blocks,
                                                       config)
    assert value == pytest.approx(want_value, rel=1e-12)
    assert np.max(np.abs(np.subtract(eta, want_eta))) <= 1e-8
    # the two solves round differently, and the last step taken can sit at
    # the rounding floor of the gradient
    assert abs(steps - want_steps) <= 1
    return steps


class TestNewton:
    """The scalar Newton over the kink values against the dense solve."""

    @pytest.mark.parametrize("size", [2, 3, 5, 16, 64, 128, 512])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_dense_solve(self, size, seed):
        start, c, blocks = _kink_case(size, seed)
        assert _assert_newtons_agree(start, c, blocks, lc.IcmConfig()) > 0

    @pytest.mark.parametrize("size", [2, 5, 64])
    def test_matches_dense_solve_across_large_t_segments(self, size):
        start, c, blocks = _kink_case(size, 3)
        start[0] = -700.0  # its first segment rises by more than 690
        assert start[1] - start[0] >= 690.0
        _assert_newtons_agree(start, c, blocks, lc.IcmConfig())

    @pytest.mark.parametrize("size", [2, 5, 64])
    def test_matches_dense_solve_when_the_full_step_overflows(self, size):
        start, c, blocks = _kink_case(size, 4)
        start[:] = -30.0  # tiny masses: the Newton step is about 1e13 long
        _, grad, diag, off = solver._kink_pass(start.tolist(), c, blocks)
        delta = solver._thomas(diag, off, grad)
        full = [e + d for e, d in zip(start.tolist(), delta)]
        assert solver._kink_pass(full, c, blocks)[0] == -np.inf
        assert _assert_newtons_agree(start, c, blocks, lc.IcmConfig()) > 0

    @pytest.mark.parametrize("size", [2, 5, 64, 512])
    @pytest.mark.parametrize("shift, spread", [(-2.0, 1.0), (2.0, 2.0)])
    def test_matches_dense_solve_with_one_halving(self, size, shift, spread):
        # perturbed starts: some steps need their one halving (size 2 from
        # below, 512 from above), some find no ascent and stop
        start, c, blocks = _kink_case(size, 5)
        start += shift + np.random.default_rng(1).normal(0.0, spread, size)
        _assert_newtons_agree(start, c, blocks, lc.IcmConfig(max_halvings=1))

    def test_start_that_overflows_takes_no_step(self):
        start, c, blocks = _kink_case(5, 6)
        start[2] = 720.0
        eta, value, steps, passes = solver._newton(start, c, blocks,
                                                   lc.IcmConfig())
        assert (value, steps, passes) == (-np.inf, 0, 1)
        assert np.array_equal(eta, start)
        with np.errstate(over="ignore", invalid="ignore"):
            assert newton_dense(start, c, blocks, lc.IcmConfig())[1:] == (
                -np.inf, 0, 1)

    @pytest.mark.parametrize("size", [1, 2, 3, 17, 512])
    def test_thomas_sweep_matches_dense_solve(self, size):
        # Hessians of random kink systems, which are positive definite
        rng = np.random.default_rng(size)
        eta = rng.normal(0.0, 2.0, size + 1)
        m0, m1, m2 = segment_triples(eta, rng.uniform(0.1, 2.0, size))
        diag = np.append(m0 - 2.0 * m1 + m2, 0.0)
        diag[1:] += m2
        off = m1 - m2
        rhs = rng.normal(0.0, 1.0, size + 1)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        got = solver._thomas(diag.tolist(), off.tolist(), rhs.tolist())
        want = np.linalg.solve(dense, rhs)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-10 * np.max(
            np.abs(want)))

    def test_thomas_sweep_stops_at_a_nonpositive_pivot(self):
        assert solver._thomas([1.0, 1.0], [2.0], [1.0, 1.0]) is None
        assert solver._thomas([2.0, 2.0], [1.0], [3.0, 3.0]) == [1.0, 1.0]

    def test_fits_take_the_dense_solves_iterations(self, monkeypatch):
        # 300 samples drawn as the mc_small benchmark draws them at seed 11
        samples = []
        for index, density in enumerate(lc.REFERENCE_DENSITIES.values()):
            for n, replications in ((25, 40), (50, 20)):
                for m in range(replications):
                    seed = np.random.SeedSequence(11,
                                                  spawn_key=(index, n, m))
                    samples.append(lc.validate_sample(
                        lc.sample_true(density, seed, n), jitter_ties=True))

        def run():
            out = []
            for sample in samples:
                fit, report = lc.fit(sample)
                assert report.converged
                out.append((fit.log_likelihood, report.newton_steps,
                            (report.iterations, report.kinks_added,
                             report.kinks_dropped)))
            return out

        scalar = run()
        monkeypatch.setattr(solver, "_newton", newton_dense)
        dense = run()
        # the batch add (this repo's variant of the active-set method) may
        # add a kink whose derivative sits at the tolerance, and whose slope
        # change stays zero after a step of 0.  Were such a kink counted
        # tight whenever that slope change rounds to zero, the two solves
        # would part on samples (3, 50, 8) and (4, 50, 7); counted tight
        # only where the solution wants it convex, they agree on all 300.
        for (loglik, steps, counts), (want_loglik, want_steps,
                                      want_counts) in zip(scalar, dense):
            assert counts == want_counts
            assert abs(steps - want_steps) <= 1
            assert loglik == pytest.approx(want_loglik, rel=1e-12)
        # 1 708 iterations when the active set added one knot per iteration
        assert sum(want_counts[0] for _, _, want_counts in dense) == 1530


def test_subnormal_data_fail_loudly():
    # the standardized fit exists, but its raw log-density does not fit in
    # double precision; no fit is claimed
    sample = lc.validate_sample(1e-310 * normal_sample(50, 2).knots)
    with pytest.raises(lc.StepFailure):
        lc.fit(sample)


AFFINE_BASE = lc.sample_true(lc.NORMAL,
                             np.random.SeedSequence(5, spawn_key=(200,)), 200)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(log_scale=st.floats(-150.0, 150.0), shift=st.floats(-1e9, 1e9),
       negate=st.booleans())
@example(log_scale=8.0, shift=0.0, negate=False)
@example(log_scale=-8.0, shift=0.0, negate=False)
@example(log_scale=150.0, shift=0.0, negate=False)
@example(log_scale=-150.0, shift=0.0, negate=False)
@example(log_scale=300.0, shift=0.0, negate=False)
@example(log_scale=-300.0, shift=0.0, negate=False)
@example(log_scale=0.0, shift=1e9, negate=False)
@example(log_scale=0.0, shift=0.0, negate=True)
def test_affine_equivariance(log_scale, shift, negate):
    # log-likelihoods transform with the Jacobian: l(a(x + b)) = l(x) -
    # n log|a|; the shift rounds the sample to the spacing of |b|
    base, _ = lc.fit(lc.validate_sample(AFFINE_BASE))
    a = (-1.0 if negate else 1.0) * 10.0 ** log_scale
    fit, report = lc.fit(lc.validate_sample(a * (AFFINE_BASE + shift)))
    assert report.converged
    moved = fit.log_likelihood + AFFINE_BASE.size * np.log(abs(a))
    assert moved == pytest.approx(base.log_likelihood, abs=1e-6)


def test_fit_at_scale_1e300_raises_no_warning():
    # the KKT residual needs the gradient only; the curvature's squared
    # gaps would overflow at this scale
    sample = lc.validate_sample(1e300 * AFFINE_BASE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, report = lc.fit(sample)
    assert report.converged and np.isfinite(report.kkt_residual)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(order=st.permutations(range(AFFINE_BASE.size)))
def test_permutation_invariance(order):
    base, _ = lc.fit(lc.validate_sample(AFFINE_BASE))
    fit, _ = lc.fit(lc.validate_sample(AFFINE_BASE[list(order)]))
    assert np.array_equal(fit.theta, base.theta)
