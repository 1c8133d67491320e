"""Sample container, log-density parametrizations and the fitted density.

The estimator works on the log scale: theta_i is the log-density at knot
x_i, and the density is the exponential of the piecewise-linear
interpolation of theta, identically zero outside [x_1, x_n].  The
equivalent slope parametrization (intercept omega_1 = theta_1 and segment
slopes omega_j) is what the ICM solver optimizes over, because
log-concavity is then the simple ordering omega_2 >= ... >= omega_n.
"""

from dataclasses import dataclass, field

import numpy as np

from ._rho import SERIES_THRESHOLD, exp_weighted_rho, weighted_rho_parts
from .errors import (
    LengthMismatch,
    NonFinite,
    OutOfRange,
    Ties,
    TooFewPoints,
)

MASS_TOLERANCE = 1e-10

# Relative spread applied to duplicated values when jittering is enabled.
JITTER_RELATIVE = 1e-9


@dataclass
class SortedSample:
    """Strictly increasing observation knots with precomputed gaps.

    Treat instances as immutable; they are shared freely between fits and
    concurrent readers.
    """

    knots: np.ndarray
    gaps: np.ndarray = field(init=False)

    def __post_init__(self):
        self.knots = np.asarray(self.knots, dtype=float)
        if self.knots.size < 2:
            raise TooFewPoints(f"need at least 2 points, got {self.knots.size}")
        self.gaps = np.diff(self.knots)
        if not np.all(self.gaps > 0):
            raise Ties(self.knots[np.argmin(self.gaps)],
                       "knots must be strictly increasing")

    @property
    def n(self):
        return self.knots.size


def validate_sample(raw, jitter_ties=False):
    """Sort and check raw observations, returning a SortedSample.

    Parameters
    ----------
    raw : array-like
        At least two finite observations.
    jitter_ties : bool
        When True, duplicated values are spread deterministically by
        k * (1e-9 * sample range) for occurrence index k instead of being
        rejected.

    Raises
    ------
    TooFewPoints, NonFinite, Ties
    """
    arr = np.asarray(raw, dtype=float).ravel()
    if arr.size < 2:
        raise TooFewPoints(f"need at least 2 points, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        bad = arr[~np.isfinite(arr)][0]
        raise NonFinite(f"sample contains a non-finite value: {bad!r}")

    knots = np.sort(arr)
    tied = np.diff(knots) == 0.0
    if tied.any():
        if not jitter_ties:
            raise Ties(knots[np.flatnonzero(tied)[0]])
        spread = JITTER_RELATIVE * (knots[-1] - knots[0])
        if spread == 0.0:
            raise Ties(knots[0], "all values identical; jitter cannot separate them")
        n = knots.size
        run_start = np.maximum.accumulate(
            np.where(np.r_[True, ~tied], np.arange(n), 0))
        occurrence = np.arange(n) - run_start
        knots = knots + occurrence * spread
        if not np.all(np.diff(knots) > 0):
            raise Ties(knots[0], "jitter failed to separate duplicated values")
    return SortedSample(knots)


@dataclass
class OmegaVector:
    """Intercept omega_1 = theta_1 plus the n-1 segment slopes.

    Feasible vectors have nonincreasing slopes (log-concavity).
    """

    intercept: float
    slopes: np.ndarray

    def __post_init__(self):
        self.slopes = np.asarray(self.slopes, dtype=float)

    @property
    def as_array(self):
        """Length-n array [omega_1, omega_2, ..., omega_n]."""
        return np.concatenate(([self.intercept], self.slopes))

    def is_monotone(self):
        return bool(np.all(self.slopes[:-1] >= self.slopes[1:]))


def theta_from_omega(omega, sample):
    """Knot log-densities from the slope parametrization.

    theta_j = omega_1 + sum_{i<=j} gap_i * slope_i (empty sum for j = 1).
    """
    if omega.slopes.size != sample.n - 1:
        raise LengthMismatch(
            f"expected {sample.n - 1} slopes, got {omega.slopes.size}")
    theta = np.empty(sample.n)
    theta[0] = omega.intercept
    np.cumsum(sample.gaps * omega.slopes, out=theta[1:])
    theta[1:] += omega.intercept
    return theta


def omega_from_theta(theta, sample):
    """Inverse of theta_from_omega: difference quotients over the gaps."""
    theta = np.asarray(theta, dtype=float)
    if theta.size != sample.n:
        raise LengthMismatch(f"expected {sample.n} theta values, got {theta.size}")
    return OmegaVector(float(theta[0]), np.diff(theta) / sample.gaps)


def normalization_mass(theta, sample, series_threshold=SERIES_THRESHOLD):
    """Total mass of the piecewise exp-linear density with knot values theta.

    Each segment contributes e^{theta_{j-1}} * rho(theta_j - theta_{j-1})
    * gap_j, which is the closed-form integral of the exponential chord and
    is stable when adjacent theta values coincide.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.size != sample.n:
        raise LengthMismatch(f"expected {sample.n} theta values, got {theta.size}")
    return float(np.sum(exp_weighted_rho(theta, sample.gaps, series_threshold)))


class LogConcaveFit:
    """Normalized piecewise log-linear density on [x_1, x_n].

    Immutable once constructed; evaluation methods are safe to call
    concurrently.
    """

    def __init__(self, sample, theta, log_likelihood=None, slopes=None):
        self.sample = sample
        self.theta = np.asarray(theta, dtype=float)
        if self.theta.size != sample.n:
            raise LengthMismatch(
                f"expected {sample.n} theta values, got {self.theta.size}")
        if slopes is None:
            slopes = np.diff(self.theta) / sample.gaps
        self.slopes = np.asarray(slopes, dtype=float)
        self._segment_mass = exp_weighted_rho(self.theta, sample.gaps)
        self._cum_mass = np.concatenate(([0.0], np.cumsum(self._segment_mass)))
        self.mass = float(self._cum_mass[-1])
        self.normalized = abs(self.mass - 1.0) <= MASS_TOLERANCE
        if log_likelihood is None:
            log_likelihood = float(np.sum(self.theta))
        self.log_likelihood = float(log_likelihood)

    @property
    def support(self):
        return float(self.sample.knots[0]), float(self.sample.knots[-1])

    def log_pdf(self, x):
        """Log-density: linear interpolation of theta inside the support,
        -inf outside."""
        x_arr = np.asarray(x, dtype=float)
        out = np.interp(x_arr, self.sample.knots, self.theta)
        out = np.where(
            (x_arr < self.sample.knots[0]) | (x_arr > self.sample.knots[-1]),
            -np.inf, out)
        return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out

    def pdf(self, x):
        with np.errstate(over="ignore"):
            return np.exp(self.log_pdf(x))

    def cdf(self, x):
        """Distribution function, exact per segment, clipped to [0, 1]."""
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        knots = self.sample.knots
        idx = np.clip(np.searchsorted(knots, x_arr, side="right") - 1,
                      0, self.sample.n - 2)
        u = np.clip(x_arr - knots[idx], 0.0, self.sample.gaps[idx])
        theta_left = self.theta[idx]
        t = self.slopes[idx] * u
        partial = weighted_rho_parts(t, theta_left, theta_left + t) * u
        out = np.clip(self._cum_mass[idx] + partial, 0.0, 1.0)
        out[x_arr >= knots[-1]] = min(self.mass, 1.0)
        out[x_arr < knots[0]] = 0.0
        return float(out[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else out

    def quantile(self, p):
        """Inverse distribution function on [0, 1].

        Within a segment the exponential chord is inverted analytically;
        a short series is used when the scaled slope is negligibly small.
        """
        p_arr = np.atleast_1d(np.asarray(p, dtype=float))
        if np.any((p_arr < 0.0) | (p_arr > 1.0)) or not np.all(np.isfinite(p_arr)):
            raise OutOfRange("probabilities must lie in [0, 1]")
        target = p_arr * self.mass
        idx = np.clip(np.searchsorted(self._cum_mass, target, side="left") - 1,
                      0, self.sample.n - 2)
        r = np.clip(target - self._cum_mass[idx], 0.0, None)
        with np.errstate(divide="ignore"):
            # c solves e^{theta_left} * u = r for a flat segment.
            c = np.where(r > 0.0, np.exp(np.log(r, where=r > 0.0,
                                                out=np.full_like(r, -np.inf))
                                         - self.theta[idx]), 0.0)
        z = self.slopes[idx] * c
        small = np.abs(z) < SERIES_THRESHOLD
        u = np.where(small, c * (1.0 - z / 2.0 + z * z / 3.0), 0.0)
        if np.any(~small):
            zc = np.maximum(z[~small], np.nextafter(-1.0, 0.0))
            u[~small] = np.log1p(zc) / self.slopes[idx][~small]
        u = np.clip(u, 0.0, self.sample.gaps[idx])
        out = self.sample.knots[idx] + u
        out[p_arr >= 1.0] = self.sample.knots[-1]
        out[p_arr <= 0.0] = self.sample.knots[0]
        return float(out[0]) if np.isscalar(p) or np.asarray(p).ndim == 0 else out

    def sample_points(self, m, seed):
        """m i.i.d. draws by inverse-CDF sampling; deterministic per seed."""
        if m < 0:
            raise OutOfRange(f"draw count must be nonnegative, got {m}")
        rng = np.random.default_rng(seed)
        if m == 0:
            return np.empty(0)
        return self.quantile(rng.random(m))

    def mode(self):
        """Knot with the largest log-density; ties go to the leftmost knot."""
        return float(self.sample.knots[int(np.argmax(self.theta))])
