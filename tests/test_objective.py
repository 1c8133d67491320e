"""Objective, gradient, curvature and side-condition checks."""

import numpy as np
import pytest

import logcave as lc
from logcave import ObjectiveWorkspace as Workspace
from logcave._rho import segment_masses

from oracles import grad_reference, curvature_reference, phi_reference
from test_model import random_feasible_omega


def off_cone_omega(sample, rng):
    """Random point, monotonicity not required (phi is defined off-cone)."""
    slopes = rng.normal(0.0, 1.0, sample.n - 1)
    return lc.OmegaVector(Workspace(sample).restore_intercept(slopes), slopes)


class TestPhi:
    def test_uniform_two_points(self):
        s = lc.validate_sample([0.0, 1.0])
        assert Workspace(s).phi(lc.OmegaVector(0.0, [0.0])) == pytest.approx(
            -2.0)

    def test_uniform_three_points(self):
        s = lc.validate_sample([0.0, 1.0, 2.0])
        value = Workspace(s).phi(lc.OmegaVector(-np.log(2.0), [0.0, 0.0]))
        assert value == pytest.approx(-3.0 * np.log(2.0) - 3.0, rel=1e-14)

    def test_identity_with_normalization_mass(self):
        rng = np.random.default_rng(13)
        for n in (2, 6, 30):
            sample = lc.validate_sample(np.cumsum(rng.uniform(0.2, 1.0, n)))
            omega = off_cone_omega(sample, rng)
            theta = lc.theta_from_omega(omega, sample)
            expected = (float(np.sum(theta))
                        - sample.n * lc.normalization_mass(theta, sample))
            assert Workspace(sample).phi(omega) == pytest.approx(expected,
                                                             rel=1e-10)

    def test_equals_loglik_minus_n_on_manifold(self):
        rng = np.random.default_rng(14)
        sample = lc.validate_sample(np.cumsum(rng.uniform(0.2, 1.0, 12)))
        omega = random_feasible_omega(sample, rng)
        theta = lc.theta_from_omega(omega, sample)
        fit = lc.LogConcaveFit(sample, theta)
        assert fit.normalized
        assert Workspace(sample).phi(omega) == pytest.approx(
            fit.log_likelihood - sample.n, rel=1e-10)

    def test_overflow_guard_returns_minus_inf(self):
        s = lc.validate_sample([0.0, 1.0, 2.0])
        assert Workspace(s).phi(lc.OmegaVector(800.0, [0.0, 0.0])) == -np.inf

    def test_matches_reference_formula(self):
        rng = np.random.default_rng(15)
        sample = lc.validate_sample(np.cumsum(rng.uniform(0.2, 1.0, 9)))
        omega = off_cone_omega(sample, rng)
        want = float(phi_reference(omega.intercept, omega.slopes,
                                   sample.knots))
        assert Workspace(sample).phi(omega) == pytest.approx(want, rel=1e-12)


class TestGradient:
    def test_stationary_slope_entry_at_two_point_optimum(self):
        s = lc.validate_sample([0.0, 1.0])
        grad = Workspace(s).gradient(lc.OmegaVector(0.0, [0.0]))
        assert grad[1] == pytest.approx(0.0, abs=1e-14)

    def test_intercept_entry_vanishes_on_manifold(self):
        rng = np.random.default_rng(16)
        sample = lc.validate_sample(np.cumsum(rng.uniform(0.2, 1.0, 20)))
        omega = random_feasible_omega(sample, rng)
        grad = Workspace(sample).gradient(omega)
        assert abs(grad[0]) < 1e-10 * sample.n

    @pytest.mark.parametrize("n", [3, 5, 20])
    def test_matches_finite_differences(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            sample = lc.validate_sample(np.cumsum(rng.uniform(0.2, 1.0, n)))
            omega = off_cone_omega(sample, rng)
            got = Workspace(sample).gradient(omega)
            want = grad_reference(omega.intercept, omega.slopes, sample.knots)
            assert np.max(np.abs(got - want)
                          / np.maximum(1.0, np.abs(want))) < 1e-6


class TestCurvature:
    def test_two_point_uniform_value(self):
        s = lc.validate_sample([0.0, 1.0])
        d = Workspace(s).derivatives(lc.OmegaVector(0.0, [0.0]))[1]
        assert d[0] == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_all_positive(self):
        rng = np.random.default_rng(17)
        sample = lc.validate_sample(np.cumsum(rng.uniform(0.2, 1.0, 25)))
        omega = random_feasible_omega(sample, rng)
        assert np.all(Workspace(sample).derivatives(omega)[1] > 0)

    @pytest.mark.parametrize("n", [3, 5, 20])
    def test_matches_second_differences(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(10):
            sample = lc.validate_sample(np.cumsum(rng.uniform(0.2, 1.0, n)))
            omega = off_cone_omega(sample, rng)
            got = Workspace(sample).derivatives(omega)[1]
            want = curvature_reference(omega.intercept, omega.slopes,
                                       sample.knots)
            assert np.max(np.abs(got - want)
                          / np.maximum(1.0, np.abs(want))) < 1e-5


class TestSideCondition:
    def test_unit_interval(self):
        s = lc.validate_sample([0.0, 1.0])
        assert Workspace(s).restore_intercept([0.0]) == pytest.approx(0.0)

    def test_length_two_uniform(self):
        s = lc.validate_sample([0.0, 1.0, 2.0])
        assert Workspace(s).restore_intercept([0.0, 0.0]) == pytest.approx(
            -np.log(2.0), rel=1e-14)

    def test_reconstructed_mass_is_one(self):
        rng = np.random.default_rng(18)
        for n in (2, 4, 17, 60):
            sample = lc.validate_sample(np.cumsum(rng.uniform(0.2, 1.0, n)))
            slopes = rng.normal(0, 2, n - 1)
            w1 = Workspace(sample).restore_intercept(slopes)
            theta = lc.theta_from_omega(lc.OmegaVector(w1, slopes), sample)
            assert lc.normalization_mass(theta, sample) == pytest.approx(
                1.0, abs=1e-12)

    def test_extreme_slopes_stay_finite(self):
        s = lc.validate_sample([0.0, 1.0, 2.0, 3.0])
        w1 = Workspace(s).restore_intercept([900.0, 100.0, -1200.0])
        assert np.isfinite(w1)


def test_telescoping_identity():
    # the direct difference quotients and the weighted-rho form agree
    rng = np.random.default_rng(19)
    sample = lc.validate_sample(np.cumsum(rng.uniform(0.2, 1.0, 15)))
    omega = random_feasible_omega(sample, rng)
    theta = lc.theta_from_omega(omega, sample)
    dt = np.diff(theta)
    assert np.all(np.abs(dt) > 1e-8)  # direct form is well-conditioned here
    direct = np.sum((np.exp(theta[1:]) - np.exp(theta[:-1])) / dt
                    * sample.gaps)
    viarho = np.sum(segment_masses(theta, sample.gaps))
    assert direct == pytest.approx(viarho, rel=1e-12)


def test_workspace_is_reusable_and_consistent():
    rng = np.random.default_rng(20)
    sample = lc.validate_sample(np.cumsum(rng.uniform(0.2, 1.0, 10)))
    ws = Workspace(sample)
    a = random_feasible_omega(sample, rng)
    b = random_feasible_omega(sample, rng)
    phi_a, phi_b = ws.phi(a), ws.phi(b)
    # interleaved evaluations do not contaminate each other
    assert ws.phi(a) == phi_a
    assert ws.phi(b) == phi_b
    ga, da = ws.derivatives(a)
    ws.derivatives(b)
    assert np.array_equal(ga, ws.gradient(a))
    assert np.array_equal(da, ws.derivatives(a)[1])
