"""Checks for the rho family against extended-precision references."""

import mpmath
import numpy as np
import pytest

from logcave import rho_family
from logcave._rho import (SERIES_THRESHOLD, _rho0, _rho_triple,
                          segment_triple, segment_triples)

from oracles import rho0_masked, rho_triple_per_order

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
    got = _rho0(t)
    want = rho0_masked(t)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def _regime_grid():
    """Arguments at and around every regime boundary, plus random ones at
    several scales."""
    edges = [0.0, 1e-300, -1e-300, 689.9, 690.0, 700.0, -745.0]
    for edge in (SERIES_THRESHOLD, -SERIES_THRESHOLD, 0.25, -0.25):
        edges += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, 2 * edge)]
    rng = np.random.default_rng(5)
    scales = [rng.normal(0.0, s, 200) for s in (1e-5, 1e-2, 0.2, 2.0, 50.0)]
    return np.concatenate([np.array(edges)] + scales)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_stacked_horner_matches_per_order_passes_bit_for_bit(dtype):
    # beyond |t| = 1e23 the series overflows before its entries are
    # overwritten by the closed forms
    t = np.concatenate((_regime_grid(), [1e30, -1e30, 1e300, -1e300]))
    t = t.astype(dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _rho_triple(t)
        want = rho_triple_per_order(t)
    assert got.dtype == dtype
    for order in range(3):
        assert np.array_equal(got[order], want[order], equal_nan=True), order


def test_scalar_segment_kernel_matches_rho_family():
    # on a unit segment from 0 the kernel is (rho, rho', rho'').  math's
    # exp and expm1 may differ from numpy's by an ulp, which the closed
    # forms amplify near |t| = 0.25, most for rho''
    t = _regime_grid()
    want = rho_family(t)
    got = np.array([segment_triple(0.0, float(x), 1.0) for x in t]).T
    for order, bound in enumerate((4e-15, 3e-14, 3e-13)):
        # rho''(700) overflows to inf in both
        finite = np.isfinite(want[order])
        assert np.array_equal(np.isfinite(got[order]), finite)
        rel = (np.abs(got[order][finite] - want[order][finite])
               / np.abs(want[order][finite]))
        assert np.max(rel) < bound, order


def test_scalar_segment_kernel_matches_segment_triples():
    # random segments, including the t >= 690 rewrite and huge left values
    rng = np.random.default_rng(8)
    left = np.concatenate((rng.normal(0.0, 3.0, 300), [-700.0, -1000.0,
                                                       -20.0, 5.0]))
    right = left + np.concatenate((rng.normal(0.0, 2.0, 300),
                                   [695.0, 1005.0, 0.1, -800.0]))
    dx = rng.uniform(0.01, 3.0, left.size)
    for i in range(left.size):
        want = segment_triples(np.array([left[i], right[i]]), dx[i:i + 1])
        got = segment_triple(float(left[i]), float(right[i]), float(dx[i]))
        for g, w in zip(got, want):
            assert g == pytest.approx(float(w[0]), rel=3e-13, abs=0.0)


@pytest.mark.parametrize("left, right", [(710.0, 710.5), (-1.0, 720.0),
                                         (10.0, 711.0)])
def test_scalar_segment_kernel_raises_where_numpy_overflows(left, right):
    with np.errstate(over="ignore", invalid="ignore"):
        want = segment_triples(np.array([left, right]), np.array([1.0]))
    assert not all(np.isfinite(w[0]) for w in want)
    with pytest.raises(OverflowError):
        segment_triple(left, right, 1.0)
