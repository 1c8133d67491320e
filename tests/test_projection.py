"""Weighted projection onto nonincreasing sequences: scipy PAVA vs the
pooling-loop and min-max oracles."""

import numpy as np
import pytest

from logcave import concave_majorant_slopes
from logcave.errors import NonPositiveWeight

from oracles import concave_majorant_slopes_minmax, concave_majorant_slopes_pooling


def test_feasible_input_is_fixed_point():
    out = concave_majorant_slopes([1.0, 1.0, 1.0], [3.0, 2.0, 1.0])
    assert np.array_equal(out, [3.0, 2.0, 1.0])


def test_simple_pool():
    out = concave_majorant_slopes([1.0, 1.0], [0.0, 1.0])
    assert np.allclose(out, [0.5, 0.5])
    assert np.allclose(concave_majorant_slopes_minmax([1.0, 1.0], [0.0, 1.0]),
                       [0.5, 0.5])


def test_weighted_pool():
    # targets (0, 1) with weights (1, 3): pooled mean 3/4
    out = concave_majorant_slopes([1.0, 3.0], [0.0, 3.0])
    assert np.allclose(out, [0.75, 0.75])
    assert np.allclose(concave_majorant_slopes_minmax([1.0, 3.0], [0.0, 3.0]),
                       [0.75, 0.75])


def test_output_always_nonincreasing():
    rng = np.random.default_rng(31)
    for _ in range(100):
        m = int(rng.integers(1, 40))
        d = rng.uniform(1e-3, 10.0, m)
        v = d * rng.normal(0, 5, m)
        out = concave_majorant_slopes(d, v)
        assert np.all(out[:-1] >= out[1:])


def test_matches_minmax_on_random_instances():
    rng = np.random.default_rng(32)
    for _ in range(500):
        m = int(rng.integers(1, 13))
        d = rng.uniform(0.05, 8.0, m)
        v = d * rng.normal(0, 3, m)
        fast = concave_majorant_slopes(d, v)
        slow = concave_majorant_slopes_minmax(d, v)
        assert np.max(np.abs(fast - slow)) < 1e-10


def test_projection_optimality():
    # pooled output minimizes the weighted squared distance to v/d over the
    # cone: perturbing towards any feasible point cannot reduce it
    rng = np.random.default_rng(33)
    for _ in range(50):
        m = int(rng.integers(2, 10))
        d = rng.uniform(0.1, 5.0, m)
        y = rng.normal(0, 2, m)
        mu = concave_majorant_slopes(d, d * y)
        objective = float(np.sum(d * (y - mu) ** 2))
        for _ in range(20):
            other = np.sort(rng.normal(0, 2, m))[::-1]
            assert float(np.sum(d * (y - other) ** 2)) >= objective - 1e-12


def test_rejects_nonpositive_weights():
    with pytest.raises(NonPositiveWeight):
        concave_majorant_slopes([1.0, 0.0], [0.0, 1.0])
    with pytest.raises(NonPositiveWeight):
        concave_majorant_slopes([1.0, -2.0], [0.0, 1.0])
    with pytest.raises(NonPositiveWeight):
        concave_majorant_slopes_minmax([1.0, -2.0], [0.0, 1.0])


def test_single_element_is_unconstrained():
    out = concave_majorant_slopes([2.0], [5.0])
    assert np.array_equal(out, [2.5])


def _assert_matches_pooling(d, v):
    fast = concave_majorant_slopes(d, v)
    slow = concave_majorant_slopes_pooling(d, v)
    scale = max(1.0, float(np.max(np.abs(v / d))))
    assert fast.shape == slow.shape
    assert np.max(np.abs(fast - slow)) <= 1e-12 * scale


def test_matches_pooling_loop_at_large_sizes():
    # weights spread over the range the curvature floor allows
    rng = np.random.default_rng(34)
    for m in (1, 2, 17, 1000, 10000):
        for _ in range(3):
            d = 10.0 ** rng.uniform(-12.0, 0.0, m)
            v = d * rng.normal(0.0, 3.0, m)
            _assert_matches_pooling(d, v)


def test_matches_pooling_loop_with_ties():
    # equal ratios v/d in runs, some increasing across runs so they pool
    rng = np.random.default_rng(35)
    for m in (10, 1000, 10000):
        d = 10.0 ** rng.uniform(-12.0, 0.0, m)
        levels = np.round(rng.normal(0.0, 1.0, m // 10 + 1), 1)
        ratios = np.repeat(levels, 10)[:m]
        _assert_matches_pooling(d, d * ratios)


def test_nonincreasing_input_returns_ratios_at_large_sizes():
    # power-of-two weights make d * ratios / d exact.  Strictly decreasing
    # ratios come back unchanged; runs of equal ratios may be pooled, which
    # moves them by rounding only
    rng = np.random.default_rng(36)
    for m in (1, 10000):
        d = 2.0 ** -rng.integers(0, 40, m)
        ratios = np.sort(rng.normal(0.0, 2.0, m))[::-1]
        assert np.all(ratios[:-1] > ratios[1:])
        v = d * ratios
        assert np.array_equal(v / d, ratios)
        assert np.array_equal(concave_majorant_slopes(d, v), ratios)
        assert np.array_equal(concave_majorant_slopes_pooling(d, v), ratios)

        tied = np.sort(np.round(rng.normal(0.0, 2.0, m), 2))[::-1]
        out = concave_majorant_slopes(d, d * tied)
        assert np.all(out[:-1] >= out[1:])
        assert np.max(np.abs(out - tied)) <= 1e-15 * np.max(np.abs(tied))
        _assert_matches_pooling(d, d * tied)


def test_single_element_matches_pooling_loop():
    for d, v in ((1e-12, 3.0), (1.0, -2.5), (0.3, 0.0)):
        _assert_matches_pooling(np.array([d]), np.array([v]))
