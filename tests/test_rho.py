"""Checks for the rho family against extended-precision references."""

import mpmath
import numpy as np
import pytest

from logcave import rho_family
from logcave._rho import SERIES_THRESHOLD, _rho0

from oracles import rho0_masked

mpmath.mp.dps = 40


def mp_rho(t):
    t = mpmath.mpf(t)
    if t == 0:
        return mpmath.mpf(1), mpmath.mpf("0.5"), mpmath.mpf(1) / 3
    e = mpmath.exp(t)
    return ((e - 1) / t,
            ((t - 1) * e + 1) / t ** 2,
            ((t * t - 2 * t + 2) * e - 2) / t ** 3)


def test_values_at_zero():
    assert rho_family(0.0) == (1.0, 0.5, pytest.approx(1 / 3, rel=1e-15))


def test_values_at_one():
    r0, r1, r2 = rho_family(1.0)
    assert r0 == pytest.approx(np.e - 1, rel=1e-14)
    assert r1 == pytest.approx(1.0, rel=1e-14)
    assert r2 == pytest.approx(np.e - 2, rel=1e-14)


@pytest.mark.parametrize("t", [-1e-8, 1e-8, -3e-5, 3e-5])
def test_series_branch_matches_high_precision(t):
    got = rho_family(t)
    want = mp_rho(t)
    for g, w in zip(got, want):
        assert abs(g - float(w)) / abs(float(w)) < 1e-13


@pytest.mark.parametrize("t", [-30.0, -5.0, -1.0, -0.5, -1e-3, 1e-3,
                               0.2, 0.999, 1.0, 2.5, 10.0, 50.0, 300.0])
def test_matches_high_precision_everywhere(t):
    got = rho_family(t)
    want = mp_rho(t)
    for g, w in zip(got, want):
        assert abs(g - float(w)) / abs(float(w)) < 1e-13


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_continuous_across_series_threshold(sign):
    tau = SERIES_THRESHOLD
    at = rho_family(sign * tau)                      # closed-form side
    inside = rho_family(sign * np.nextafter(tau, 0))  # series side
    for a, b in zip(at, inside):
        assert abs(a - b) < 1e-12


def test_vectorized_agrees_with_scalar():
    ts = np.array([-2.0, -1e-6, 0.0, 1e-6, 0.3, 4.0])
    r0, r1, r2 = rho_family(ts)
    for i, t in enumerate(ts):
        s0, s1, s2 = rho_family(float(t))
        assert (r0[i], r1[i], r2[i]) == (s0, s1, s2)


def test_derivative_consistency_by_finite_differences():
    # rho' and rho'' really are the derivatives of rho
    for t in (-2.0, -0.3, 0.7, 3.0):
        h = 1e-6
        r0p, _, _ = rho_family(t + h)
        r0m, _, _ = rho_family(t - h)
        _, r1p, _ = rho_family(t + h)
        _, r1m, _ = rho_family(t - h)
        r0, r1, r2 = rho_family(t)
        assert (r0p - r0m) / (2 * h) == pytest.approx(r1, rel=1e-8)
        assert (r1p - r1m) / (2 * h) == pytest.approx(r2, rel=1e-8)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_rho0_matches_masked_evaluation_bit_for_bit(dtype):
    tau = dtype(SERIES_THRESHOLD)
    edges = [0.0, 0.25, -0.25, 1e-300, -1e-300, 690.0, -745.0]
    for edge in (tau, -tau):
        edges += [edge, np.nextafter(edge, dtype(0)),
                  np.nextafter(edge, 2 * edge)]
    t = np.concatenate((np.array(edges, dtype=dtype),
                        np.random.default_rng(3).normal(0, 2, 500).astype(dtype),
                        np.linspace(-3e-4, 3e-4, 301, dtype=dtype)))
    got = _rho0(t, SERIES_THRESHOLD)
    want = rho0_masked(t, SERIES_THRESHOLD)
    assert got.dtype == want.dtype and np.array_equal(got, want)
