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

from ._rho import _segment_moments, segment_masses
from .errors import StepFailure
from .model import theta_from_omega

# theta values above this would overflow exp(); phi returns -inf instead so
# the line search backs off, and derivative evaluations refuse the point.
THETA_CAP = 700.0


@dataclass
class ObjectiveWorkspace:
    """Evaluation context for one sample.

    Precomputes the sample-dependent constants; everything that depends on
    omega is recomputed on each call, so instances stay valid across
    arbitrary call sequences.  The only state that changes is the count of
    objective evaluations, ``phi_evaluations``.
    """

    sample: object

    def __post_init__(self):
        self.n = self.sample.n
        self.dx = self.sample.gaps
        # coefficient of slope_i in sum(theta): (n-i+1) * gap_i, i = 2..n
        self.linear_weights = np.arange(self.n - 1, 0, -1) * self.dx
        # extended-precision (dx, linear_weights) for ICM's line-search
        # comparisons, whose resolvable objective difference sets its
        # accuracy floor; made on the first extended-precision manifold_phi
        self._high = None
        self.phi_evaluations = 0

    def theta(self, omega):
        return theta_from_omega(omega, self.sample)

    def phi(self, omega):
        """Objective value; -inf when the point overflows the exp scale."""
        theta = self.theta(omega)
        if np.max(theta) > THETA_CAP:
            return -np.inf
        mass = float(np.sum(segment_masses(theta, self.dx)))
        return (self.n * omega.intercept
                + float(self.linear_weights @ omega.slopes)
                - self.n * mass)

    def _grad_curv(self, omega, with_curvature=True):
        theta = self.theta(omega)
        if np.max(theta) > THETA_CAP:
            raise StepFailure("theta exceeds the exp overflow cap")
        # rows m0, m1 (and m2): e^{theta_{k-1}} rho^(j)(t_k) dx_k for one
        # shared pass; the gradient alone needs no rho''
        moments = _segment_moments(theta, self.dx, 3 if with_curvature else 2)
        mass = float(np.sum(moments[0]))
        tail = mass - np.cumsum(moments[0])  # sum over segments j > k
        grad = np.empty(self.n)
        grad[0] = self.n * (1.0 - mass)
        grad[1:] = (self.linear_weights
                    - self.n * self.dx * (tail + moments[1]))
        if not with_curvature:
            return grad, None
        return grad, self.n * self.dx ** 2 * (tail + moments[2])

    def gradient(self, omega):
        """Length-n gradient; entry 0 is d(phi)/d(omega_1)."""
        return self._grad_curv(omega, with_curvature=False)[0]

    def derivatives(self, omega):
        """(gradient, curvature) sharing one pass over the segments; the
        curvature is the diagonal d_k = -d^2(phi)/d(omega_k)^2 > 0 for
        k = 2..n, exact (the solver floors it where it uses it)."""
        return self._grad_curv(omega)

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
            if self._high is None:
                self._high = (self.dx.astype(np.longdouble),
                              self.linear_weights.astype(np.longdouble))
            dx, lin = self._high
        else:
            dx, lin = self.dx, self.linear_weights
        s = np.asarray(slopes).astype(dtype, copy=False)
        partial = np.empty(self.n, dtype=dtype)
        partial[0] = 0.0
        np.cumsum(dx * s, out=partial[1:])
        shift = partial.max()
        total = np.sum(segment_masses(partial - shift, dx))
        intercept = -(shift + np.log(total))
        if intercept + shift > THETA_CAP:
            return -np.inf, intercept
        # on the manifold the mass is 1 up to one rounding of exp(log(...))
        mass = np.exp(intercept + shift) * total
        return self.n * intercept + lin @ s - self.n * mass, intercept

    def restore_intercept(self, slopes):
        """Intercept making the density integrate to exactly one."""
        return self.manifold_phi(slopes, float)[1]

