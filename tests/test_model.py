"""Sample validation, parametrizations and fitted-density behavior."""

import numpy as np
import pytest

import logcave as lc
from logcave.errors import NonFinite, OutOfRange, Ties, TooFewPoints

from oracles import quad_pdf


def random_feasible_omega(sample, rng, scale=1.0):
    drops = rng.uniform(0.05, 0.6, sample.n - 2)
    top = rng.normal(0.0, scale) + drops.sum() / 2
    slopes = top - np.concatenate(([0.0], np.cumsum(drops)))
    return lc.OmegaVector(lc.ObjectiveWorkspace(sample).restore_intercept(
        slopes), slopes)


def random_fit(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    sample = lc.validate_sample(np.cumsum(rng.uniform(0.25, 1.2, n)))
    omega = random_feasible_omega(sample, rng, scale)
    theta = lc.theta_from_omega(omega, sample)
    return lc.LogConcaveFit(sample, theta)


class TestValidateSample:
    def test_sorts_and_computes_gaps(self):
        s = lc.validate_sample([3.0, 1.0, 2.0])
        assert np.array_equal(s.knots, [1.0, 2.0, 3.0])
        assert np.array_equal(s.gaps, [1.0, 1.0])

    def test_rejects_too_few(self):
        with pytest.raises(TooFewPoints):
            lc.validate_sample([1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(NonFinite):
            lc.validate_sample([0.0, np.nan, 1.0])
        with pytest.raises(NonFinite):
            lc.validate_sample([0.0, np.inf])

    def test_rejects_ties_and_names_value(self):
        with pytest.raises(Ties) as info:
            lc.validate_sample([1.0, 1.0])
        assert "1.0" in str(info.value)

    def test_nearly_tied_points_accepted(self):
        s = lc.validate_sample([0.0, 1e-12, 1.0])
        assert s.n == 3

    def test_jitter_separates_duplicates_deterministically(self):
        data = [2.0, 1.0, 1.0, 1.0, 0.0]
        a = lc.validate_sample(data, jitter_ties=True)
        b = lc.validate_sample(data, jitter_ties=True)
        assert np.all(np.diff(a.knots) > 0)
        assert np.array_equal(a.knots, b.knots)
        spread = 1e-9 * 2.0
        assert a.knots[1] == 1.0
        assert a.knots[2] == 1.0 + spread
        assert a.knots[3] == 1.0 + 2 * spread

    def test_jitter_cannot_fix_constant_sample(self):
        with pytest.raises(Ties):
            lc.validate_sample([5.0, 5.0, 5.0], jitter_ties=True)


class TestParametrizations:
    def test_zero_slopes_give_constant_theta(self):
        s = lc.validate_sample([0.0, 0.5, 2.0, 3.0])
        theta = lc.theta_from_omega(lc.OmegaVector(1.7, [0.0, 0.0, 0.0]), s)
        assert np.allclose(theta, 1.7, rtol=0, atol=0)

    def test_telescoping_example(self):
        s = lc.validate_sample([0.0, 1.0, 3.0])
        theta = lc.theta_from_omega(lc.OmegaVector(0.0, [2.0, -1.0]), s)
        assert np.allclose(theta, [0.0, 2.0, 0.0])
        back = lc.omega_from_theta(theta, s)
        assert back.intercept == 0.0
        assert np.allclose(back.slopes, [2.0, -1.0])

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        for n in (2, 5, 40):
            sample = lc.validate_sample(np.cumsum(rng.uniform(0.1, 2.0, n)))
            omega = random_feasible_omega(sample, rng)
            back = lc.omega_from_theta(lc.theta_from_omega(omega, sample),
                                       sample)
            assert back.intercept == pytest.approx(omega.intercept, rel=1e-12)
            assert np.allclose(back.slopes, omega.slopes, rtol=1e-12, atol=1e-12)

    def test_feasible_omega_lands_in_cone(self):
        rng = np.random.default_rng(8)
        sample = lc.validate_sample(np.cumsum(rng.uniform(0.1, 2.0, 30)))
        omega = random_feasible_omega(sample, rng)
        theta = lc.theta_from_omega(omega, sample)
        quot = np.diff(theta) / sample.gaps
        assert np.all(quot[:-1] >= quot[1:] - 1e-12)

    def test_length_mismatch(self):
        s = lc.validate_sample([0.0, 1.0, 2.0])
        with pytest.raises(lc.LengthMismatch):
            lc.theta_from_omega(lc.OmegaVector(0.0, [1.0]), s)
        with pytest.raises(lc.LengthMismatch):
            lc.omega_from_theta(np.zeros(4), s)


class TestNormalizationMass:
    def test_uniform_unit_interval(self):
        s = lc.validate_sample([0.0, 1.0])
        assert lc.normalization_mass(np.zeros(2), s) == pytest.approx(1.0)

    def test_uniform_length_two(self):
        s = lc.validate_sample([0.0, 1.0, 2.0])
        assert lc.normalization_mass(np.zeros(3), s) == pytest.approx(2.0)

    def test_exponential_segment_against_quadrature(self):
        from scipy.integrate import quad
        s = lc.validate_sample([0.0, 1.0])
        got = lc.normalization_mass(np.array([0.0, 1.0]), s)
        want, _ = quad(lambda x: np.exp(x), 0.0, 1.0, epsabs=1e-12)
        assert got == pytest.approx(want, abs=1e-10)
        assert got == pytest.approx(np.e - 1, rel=1e-12)

    def test_random_fit_against_quadrature(self):
        fit = random_fit(12, seed=3)
        lo, hi = fit.support
        assert quad_pdf(fit, lo, hi) == pytest.approx(fit.mass, abs=1e-8)


class TestDensityEvaluation:
    def test_outside_support_is_minus_inf(self):
        fit = lc.LogConcaveFit(lc.validate_sample([0.0, 1.0]), np.zeros(2))
        assert fit.log_pdf(-0.1) == -np.inf
        assert fit.log_pdf(1.1) == -np.inf
        assert fit.pdf(-0.1) == 0.0

    def test_knot_values_exact(self):
        fit = random_fit(9, seed=11)
        for x, t in zip(fit.sample.knots, fit.theta):
            assert fit.log_pdf(float(x)) == t

    def test_midpoint_interpolation(self):
        fit = lc.LogConcaveFit(lc.validate_sample([0.0, 2.0]),
                               np.array([0.0, 2.0]))
        assert fit.log_pdf(1.0) == pytest.approx(1.0, rel=1e-15)

    def test_mode_unique_max(self):
        fit = lc.LogConcaveFit(lc.validate_sample([0.0, 1.0, 2.0]),
                               np.array([-1.0, 0.0, -1.0]))
        assert fit.mode() == 1.0

    def test_mode_flat_top_returns_left_knot(self):
        fit = lc.LogConcaveFit(lc.validate_sample([0.0, 1.0]), np.zeros(2))
        assert fit.mode() == 0.0

    def test_mode_matches_grid_argmax(self):
        fit = random_fit(15, seed=4)
        lo, hi = fit.support
        grid = np.linspace(lo, hi, 20001)
        best = grid[np.argmax(fit.log_pdf(grid))]
        step = grid[1] - grid[0]
        assert abs(fit.mode() - best) <= step


class TestCdfQuantile:
    def test_cdf_endpoints(self):
        fit, _ = lc.fit(lc.validate_sample([0.0, 0.7, 1.3, 4.0]))
        assert fit.cdf(fit.sample.knots[0]) == 0.0
        assert fit.cdf(fit.sample.knots[-1]) == pytest.approx(1.0, abs=1e-10)

    def test_uniform_cdf_and_quantile(self):
        fit = lc.LogConcaveFit(lc.validate_sample([0.0, 1.0]), np.zeros(2))
        assert fit.cdf(0.25) == pytest.approx(0.25, rel=1e-14)
        assert fit.quantile(0.7) == pytest.approx(0.7, rel=1e-14)

    def test_cdf_against_quadrature(self):
        fit = random_fit(10, seed=21)
        lo, hi = fit.support
        for x in np.linspace(lo, hi, 17)[1:-1]:
            assert fit.cdf(float(x)) == pytest.approx(
                quad_pdf(fit, lo, float(x)), abs=1e-8)

    def test_cdf_across_a_segment_rising_by_more_than_690(self):
        # e^{theta_left} underflows to 0 and e^t overflows on the first
        # segment, so its partial integrals need the e^{theta_right} form
        knots = np.array([0.0, 1.0, 2.0])
        raw = np.array([-750.0, 0.0, -1.0])
        masses = np.array([-np.expm1(-750.0) / 750.0, -np.expm1(-1.0)])
        theta = raw - np.log(masses.sum())
        fit = lc.LogConcaveFit(lc.SortedSample(knots), theta)
        assert fit.slopes[0] * (knots[1] - knots[0]) >= 690.0
        steep = np.linspace(690.0 / 750.0, 1.0, 200)
        grid = np.sort(np.concatenate((np.linspace(-0.5, 2.5, 301), steep)))
        values = fit.cdf(grid)
        assert np.all(np.isfinite(values))
        assert np.all(np.diff(values) >= 0)
        cumulative = np.concatenate(([0.0], np.cumsum(masses))) / masses.sum()
        assert fit.cdf(knots) == pytest.approx(cumulative, rel=1e-14)
        for x in steep[::20]:
            assert fit.cdf(float(x)) == pytest.approx(
                quad_pdf(fit, 0.0, float(x)), rel=1e-8, abs=1e-12)

    def test_cdf_nondecreasing(self):
        fit = random_fit(25, seed=5, scale=3.0)
        lo, hi = fit.support
        grid = np.linspace(lo - 0.5, hi + 0.5, 400)
        values = fit.cdf(grid)
        assert np.all(np.diff(values) >= 0)

    def test_quantile_round_trip(self):
        fit, _ = lc.fit(lc.validate_sample(
            np.random.default_rng(2).normal(0, 1, 40)))
        ps = np.linspace(0.0, 1.0, 101)
        again = fit.cdf(fit.quantile(ps))
        assert np.max(np.abs(again - ps)) < 1e-9

    def test_quantile_endpoints_and_range_check(self):
        fit = random_fit(6, seed=9)
        lo, hi = fit.support
        assert fit.quantile(0.0) == lo
        assert fit.quantile(1.0) == hi
        with pytest.raises(OutOfRange):
            fit.quantile(1.5)
        with pytest.raises(OutOfRange):
            fit.quantile(-0.1)


class TestSampling:
    def test_zero_draws(self):
        fit = random_fit(5, seed=1)
        assert fit.sample_points(0, seed=3).size == 0

    def test_draws_stay_in_support(self):
        fit = random_fit(8, seed=2)
        lo, hi = fit.support
        draws = fit.sample_points(500, seed=10)
        assert np.all((draws >= lo) & (draws <= hi))

    def test_deterministic_per_seed(self):
        fit = random_fit(8, seed=2)
        assert np.array_equal(fit.sample_points(64, seed=5),
                              fit.sample_points(64, seed=5))

    def test_uniform_fit_empirical_cdf(self):
        # Dvoretzky-Kiefer-Wolfowitz style check on a uniform fit
        fit = lc.LogConcaveFit(lc.validate_sample([0.0, 1.0]), np.zeros(2))
        draws = np.sort(fit.sample_points(100000, seed=42))
        ecdf = np.arange(1, draws.size + 1) / draws.size
        assert np.max(np.abs(ecdf - fit.cdf(draws))) < 0.01


def test_lemma3_bound_on_solver_fits():
    # at any two knots with g(a) <= g(b):  g(b) <= (1 + log(g(b)/g(a)))/(b-a)
    for seed in (0, 1, 2):
        data = np.random.default_rng(seed).normal(0, 2, 35)
        fit, _ = lc.fit(lc.validate_sample(data))
        x = fit.sample.knots
        g = np.exp(fit.theta)
        for i in range(x.size):
            for j in range(x.size):
                if x[i] < x[j] and g[i] <= g[j] and g[i] > 0:
                    bound = (1 + np.log(g[j] / g[i])) / (x[j] - x[i])
                    assert g[j] - bound <= 1e-9
