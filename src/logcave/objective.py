"""Lagrangian objective in the slope parametrization.

phi(omega) = n*omega_1 + sum_{i=2}^n (n-i+1)*gap_i*omega_i
             - n * sum_{j=2}^n e^{theta_{j-1}} rho(gap_j*omega_j) gap_j

is the penalized log-likelihood with the multiplier fixed at n, which is
the value forced by the unit-mass constraint.  On the manifold where the
intercept satisfies the side condition (mass exactly one),
phi = log-likelihood - n.

All operations are pure functions of their arguments and safe to call
concurrently; only a workspace's evaluation count is shared state.
"""

from dataclasses import dataclass

import numpy as np

from ._rho import (  # noqa: F401  (rho_family is re-exported here)
    SERIES_THRESHOLD,
    rho_family,
    segment_masses,
    segment_triples,
)
from .errors import StepFailure
from .model import theta_from_omega

# theta values above this would overflow exp(); phi returns -inf instead so
# the line search backs off, and derivative evaluations refuse the point.
THETA_CAP = 700.0

CURVATURE_FLOOR = 1e-12


@dataclass
class ObjectiveWorkspace:
    """Evaluation context for one sample.

    Precomputes the sample-dependent constants; everything that depends on
    omega is recomputed on each call, so instances stay valid across
    arbitrary call sequences.  The only state that changes is the count of
    objective evaluations, ``phi_evaluations``.
    """

    sample: object
    series_threshold: float = SERIES_THRESHOLD
    curvature_floor: float = CURVATURE_FLOOR

    def __post_init__(self):
        self.n = self.sample.n
        self.dx = self.sample.gaps
        # coefficient of slope_i in sum(theta): (n-i+1) * gap_i, i = 2..n
        self.linear_weights = np.arange(self.n - 1, 0, -1) * self.dx
        # extended-precision copies for line-search comparisons, whose
        # resolvable objective difference sets the solver's accuracy floor
        self._dx_hi = self.dx.astype(np.longdouble)
        self._lin_hi = self.linear_weights.astype(np.longdouble)
        self.phi_evaluations = 0

    def theta(self, omega):
        return theta_from_omega(omega, self.sample)

    def phi(self, omega):
        """Objective value; -inf when the point overflows the exp scale."""
        theta = self.theta(omega)
        if np.max(theta) > THETA_CAP:
            return -np.inf
        mass = float(np.sum(segment_masses(theta, self.dx,
                                           self.series_threshold)))
        return (self.n * omega.intercept
                + float(self.linear_weights @ omega.slopes)
                - self.n * mass)

    def _grad_curv(self, omega, with_curvature=True):
        theta = self.theta(omega)
        if np.max(theta) > THETA_CAP:
            raise StepFailure("theta exceeds the exp overflow cap")
        # m0/m1/m2: e^{theta_{k-1}} rho^(j)(t_k) dx_k for one shared pass
        m0, m1, m2 = segment_triples(theta, self.dx, self.series_threshold)
        mass = float(np.sum(m0))
        tail = mass - np.cumsum(m0)  # sum over segments j > k
        grad = np.empty(self.n)
        grad[0] = self.n * (1.0 - mass)
        grad[1:] = (self.linear_weights
                    - self.n * self.dx * (tail + m1))
        if not with_curvature:
            return grad, None
        return grad, self.n * self.dx ** 2 * (tail + m2)

    def gradient(self, omega):
        """Length-n gradient; entry 0 is d(phi)/d(omega_1)."""
        return self._grad_curv(omega, with_curvature=False)[0]

    def curvature(self, omega, floored=True):
        """Positive diagonal d_k = -d^2(phi)/d(omega_k)^2 for k = 2..n."""
        d = self._grad_curv(omega)[1]
        if floored:
            d = np.maximum(d, self.curvature_floor * max(1.0, float(d.max())))
        return d

    def derivatives(self, omega):
        """(gradient, floored curvature) sharing one pass over the segments."""
        grad, d = self._grad_curv(omega)
        d = np.maximum(d, self.curvature_floor * max(1.0, float(d.max())))
        return grad, d

    def manifold_phi(self, slopes, dtype=np.longdouble):
        """(objective, intercept) at the given slopes, with the intercept
        restored from the side condition.

        omega_1 = -log sum_j e^{partial_j} rho(gap_j slope_j) gap_j, where
        partial_j accumulates the slopes; the sum is shifted by its largest
        exponent so arbitrarily steep slopes stay finite.  The objective is
        -inf when the point overflows the exp scale.

        Line-search and stopping decisions compare these values.  With the
        extended-precision dtype the strict-ascent rule can resolve the
        tiny endgame gains that double rounding would otherwise drown; the
        solver uses the fast double path until gains get small.  Every call
        adds one to ``phi_evaluations``.
        """
        self.phi_evaluations += 1
        if dtype is np.longdouble:
            dx, lin = self._dx_hi, self._lin_hi
        else:
            dx, lin = self.dx, self.linear_weights
        s = np.asarray(slopes).astype(dtype, copy=False)
        partial = np.empty(self.n, dtype=dtype)
        partial[0] = 0.0
        np.cumsum(dx * s, out=partial[1:])
        shift = partial.max()
        total = np.sum(segment_masses(partial - shift, dx,
                                      self.series_threshold))
        intercept = -(shift + np.log(total))
        if intercept + shift > THETA_CAP:
            return -np.inf, intercept
        # on the manifold the mass is 1 up to one rounding of exp(log(...))
        mass = np.exp(intercept + shift) * total
        return self.n * intercept + lin @ s - self.n * mass, intercept

    def restore_intercept(self, slopes):
        """Intercept making the density integrate to exactly one."""
        return self.manifold_phi(slopes, float)[1]


def phi(omega, sample, series_threshold=SERIES_THRESHOLD):
    """Objective value at omega (monotonicity of the slopes not required)."""
    return ObjectiveWorkspace(sample, series_threshold).phi(omega)


def grad_phi(omega, sample, series_threshold=SERIES_THRESHOLD):
    """Gradient of phi; entry 0 is the intercept derivative n*(1 - mass)."""
    return ObjectiveWorkspace(sample, series_threshold).gradient(omega)


def diag_curvature(omega, sample, series_threshold=SERIES_THRESHOLD,
                   curvature_floor=CURVATURE_FLOOR, floored=True):
    """Negated second derivatives in each slope coordinate (positive)."""
    return ObjectiveWorkspace(sample, series_threshold,
                              curvature_floor).curvature(omega, floored)


def omega1_from_constraint(slopes, sample, series_threshold=SERIES_THRESHOLD):
    """Intercept solving the unit-mass side condition for given slopes."""
    return ObjectiveWorkspace(sample, series_threshold).restore_intercept(
        np.asarray(slopes, dtype=float))
