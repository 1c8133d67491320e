"""The benchmark's checkers accept a genuine fit and reject broken ones.

    python3 -m pytest bench/test_checks.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import logcave  # noqa: E402
from checks import CheckFailed  # noqa: E402


@pytest.fixture(scope="module")
def fitted():
    raw = np.random.default_rng(3).standard_normal(120)
    fit_obj, _ = logcave.fit(logcave.validate_sample(raw))
    return raw, fit_obj.sample.knots, fit_obj.theta, fit_obj.log_likelihood


def _renormalized(knots, theta):
    mass = math.fsum(checks.chord_mass(np.diff(knots), theta[:-1], theta[1:]))
    return theta - math.log(mass)


def test_genuine_fit_passes(fitted):
    raw, knots, theta, loglik = fitted
    figures = checks.check_fit(raw, knots, theta, loglik)
    assert figures["gain"] > 0
    assert figures["var_ratio"] <= 1.0


def test_unnormalized_theta_is_rejected(fitted):
    raw, knots, theta, _ = fitted
    shifted = theta + 1e-7
    with pytest.raises(CheckFailed, match="mass"):
        checks.check_fit(raw, knots, shifted, math.fsum(shifted))


def test_convex_kink_is_rejected(fitted):
    raw, knots, theta, _ = fitted
    kinked = theta.copy()
    kinked[knots.size // 2] -= 0.05
    kinked = _renormalized(knots, kinked)
    with pytest.raises(CheckFailed, match="convex"):
        checks.check_fit(raw, knots, kinked, math.fsum(kinked))


def test_loglik_off_by_a_little_is_rejected(fitted):
    raw, knots, theta, loglik = fitted
    with pytest.raises(CheckFailed, match="log-likelihood"):
        checks.check_fit(raw, knots, theta, loglik + 1e-6)


def test_knots_must_be_the_sample(fitted):
    raw, knots, theta, loglik = fitted
    with pytest.raises(CheckFailed, match="knots"):
        checks.check_fit(raw + 1e-9, knots, theta, loglik)


def test_hellinger_agrees_and_a_perturbed_value_is_rejected(fitted):
    _, knots, theta, _ = fitted
    fit_obj = logcave.LogConcaveFit(logcave.SortedSample(knots), theta)
    value = logcave.hellinger(fit_obj, logcave.NORMAL)
    checks.check_hellinger(value, knots, theta, "normal")
    with pytest.raises(CheckFailed, match="hellinger"):
        checks.check_hellinger(value + 1e-5, knots, theta, "normal")


def test_hellinger_trend_must_fall():
    checks.check_hellinger_trend({("normal", 50): [0.2], ("normal", 200): [0.1]})
    with pytest.raises(CheckFailed, match="does not fall"):
        checks.check_hellinger_trend({("normal", 50): [0.1],
                                      ("normal", 200): [0.2]})


def test_eval_cdf_and_draws_are_checked(fitted):
    _, knots, theta, _ = fitted
    grid = np.linspace(knots[0] - 1, knots[-1] + 1, 501)
    log_pdf = np.interp(grid, knots, theta)
    log_pdf[(grid < knots[0]) | (grid > knots[-1])] = -np.inf
    cdf = checks.cdf_at(knots, theta, grid)
    table = np.column_stack((grid, np.exp(log_pdf), log_pdf, cdf))
    checks.check_eval(knots, theta, grid, table)
    off = table.copy()
    off[250, 3] += 1e-7
    with pytest.raises(CheckFailed, match="closed form"):
        checks.check_eval(knots, theta, grid, off)

    fit_obj = logcave.LogConcaveFit(logcave.SortedSample(knots), theta)
    draws = fit_obj.sample_points(20000, seed=1)
    checks.check_draws(knots, theta, draws, 20000)
    with pytest.raises(CheckFailed, match="KS distance"):
        checks.check_draws(knots, theta, np.sort(draws) * 0.9 + 0.1 * knots[0],
                           20000)
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_draws(knots, theta, draws + (knots[-1] - knots[0]), 20000)
