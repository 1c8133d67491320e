"""Iterative concave majorant solver for the log-concave NPMLE.

Each iteration replaces the concave objective by a diagonal quadratic
surrogate at the current point and maximizes it over the cone of
nonincreasing slopes.  That maximizer is the vector of left-hand slopes of
the least concave majorant of the cumulative cloud built from the
curvatures d_k and the values d_k*omega_k + b_k: a weighted isotonic
regression, computed by scipy's pool-adjacent-violators routine.

A line search over the steps 2^-k towards the surrogate maximizer
guarantees strict ascent.  It accepts the largest such step that increases
the objective, as backtracking from step 1 would, but starts at the step
accepted in the previous iteration: it doubles from there while the
objective still increases, and halves otherwise.  The objective is concave
along the segment, so the increasing steps form an interval and both
searches find the same step; only the number of evaluations differs.
Rounding can add isolated increasing steps far below the accepted one,
with gains under an ulp of phi; a search started among them may stop
there, still with strict ascent.

The intercept is restored from the unit-mass side condition at every trial
point, so objective values are always compared on the constraint manifold,
and the accepted trial's intercept becomes the new iterate's.

A fit run is single-threaded and deterministic; independent fits share no
mutable state and may run concurrently.
"""

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (
    DegenerateVariance,
    InfeasiblePoint,
    NoAscent,
    NonPositiveWeight,
    StepFailure,
)
from .model import LogConcaveFit, OmegaVector, theta_from_omega
from .objective import CURVATURE_FLOOR, SERIES_THRESHOLD, ObjectiveWorkspace


@dataclass
class IcmConfig:
    """Solver knobs.  The stopping rule accepts two consecutive objective
    values within phi_tolerance relatively; halvings bound the binary line
    search."""

    phi_tolerance: float = 1e-8
    max_iterations: int = 1000
    max_halvings: int = 60
    series_threshold: float = SERIES_THRESHOLD
    curvature_floor: float = CURVATURE_FLOOR

    def __post_init__(self):
        for name in ("phi_tolerance", "max_iterations", "max_halvings",
                     "series_threshold", "curvature_floor"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class IcmState:
    """Current iterate: feasible omega, its objective value, iteration index."""

    omega: OmegaVector
    phi: float
    iteration: int = 0


@dataclass
class IcmReport:
    """Iteration diagnostics for one solver run."""

    phi_trace: np.ndarray
    step_sizes: np.ndarray
    converged: bool
    iterations: int
    kkt_residual: float
    initializer: str = "normal"
    phi_evaluations: int = 0  # objective evaluations, initializer included


def initialize_normal(sample):
    """Starting point from a moment-matched normal log-density.

    The chord slopes of the normal log-density are automatically
    nonincreasing, and the intercept is restored from the side condition,
    so the result is feasible.
    """
    return _normal_start(ObjectiveWorkspace(sample))


def _normal_start(ws):
    x = ws.sample.knots
    mean = float(np.mean(x))
    var = float(np.var(x, ddof=1))
    if not var > 0.0:
        raise DegenerateVariance("sample variance is zero")
    slopes = (mean - 0.5 * (x[1:] + x[:-1])) / var
    return OmegaVector(ws.restore_intercept(slopes), slopes)


def concave_majorant_slopes(d, v):
    """Left-hand slopes of the least concave majorant of the cumulative
    cloud (sum_{h<=l} d_h, sum_{h<=l} v_h).

    Equivalently the weighted projection of v/d onto nonincreasing
    sequences with weights d, solved by scipy's pool-adjacent-violators
    routine.  Strictly decreasing ratios v/d come back unchanged; runs of
    equal ratios may be pooled, which moves them by rounding only.
    """
    # imported here so that loading the package does not load scipy
    from scipy.optimize import isotonic_regression

    d = np.asarray(d, dtype=float)
    v = np.asarray(v, dtype=float)
    if d.shape != v.shape or d.ndim != 1:
        raise NonPositiveWeight("weights and values must be 1-D and aligned")
    if not np.all(d > 0):
        raise NonPositiveWeight("projection weights must be positive")
    return isotonic_regression(v / d, weights=d, increasing=False).x


def _candidate_slopes(ws, omega):
    grad, curv = ws.derivatives(omega)
    values = curv * omega.slopes + grad[1:]
    return concave_majorant_slopes(curv, values)


def icm_candidate(state, sample, config=None):
    """One surrogate maximization from the current iterate.

    Computes the gradient and negated diagonal curvatures, projects onto
    the cone, and restores the intercept.  The candidate is not yet
    accepted; the line search decides.
    """
    config = config or IcmConfig()
    ws = ObjectiveWorkspace(sample, config.series_threshold,
                            config.curvature_floor)
    slopes = _candidate_slopes(ws, state.omega)
    return OmegaVector(float(ws.restore_intercept(slopes)), slopes)


def _line_search(ws, slopes0, phi0, candidate_slopes, max_halvings,
                 dtype=np.longdouble, start=0):
    """Engine shared by line_search and _run_icm: the largest step 2^-k,
    k <= max_halvings, whose trial point increases phi above phi0.

    Returns (slopes, intercept, phi, k) of the accepted trial; objective
    values are compared on the constraint manifold in the given precision.
    The search starts at k = start.  If that step increases phi it doubles
    while phi still increases; otherwise it halves, and before giving up
    tries the larger steps not yet tried, so that rounding noise at tiny
    steps cannot end a search that backtracking from step 1 would finish.
    """
    direction = candidate_slopes - slopes0

    def ascent(k):
        if k == 0:
            trial = candidate_slopes
        else:
            # the convex combination of two feasible slope vectors can lose
            # monotonicity by one ulp; clamp it back
            trial = np.minimum.accumulate(slopes0 + 0.5 ** k * direction)
        trial_phi, intercept = ws.manifold_phi(trial, dtype)
        return (trial, intercept, trial_phi, k) if trial_phi > phi0 else None

    accepted = ascent(start)
    if accepted is not None:
        for k in range(start - 1, -1, -1):
            larger = ascent(k)
            if larger is None:
                break
            accepted = larger
        return accepted
    for k in chain(range(start + 1, max_halvings + 1), range(start)):
        accepted = ascent(k)
        if accepted is not None:
            return accepted
    raise NoAscent(f"no objective increase within {max_halvings} halvings")


def line_search(state, candidate, config, sample):
    """Backtrack along the segment to the candidate until phi strictly
    increases; returns the accepted point and the step size used.

    The intercept is restored from the side condition at every trial, so
    points are compared on the constraint manifold and every trial keeps
    nonincreasing slopes (the cone is convex)."""
    ws = ObjectiveWorkspace(sample, config.series_threshold,
                            config.curvature_floor)
    slopes, intercept, _, k = _line_search(ws, state.omega.slopes,
                                           np.longdouble(state.phi),
                                           candidate.slopes,
                                           config.max_halvings)
    return OmegaVector(float(intercept), slopes), 0.5 ** k


def _run_icm(ws, omega0, config):
    # run with fast double-precision comparisons until they stall or the
    # stopping rule would fire, then confirm and finish in extended
    # precision so the endgame is not limited by double rounding
    dtype = float
    phi_value, _ = ws.manifold_phi(omega0.slopes, dtype)
    state = IcmState(omega0, float(phi_value), 0)
    trace = [float(phi_value)]
    steps = []
    converged = False
    halvings = 0
    for iteration in range(1, config.max_iterations + 1):
        try:
            candidate = _candidate_slopes(ws, state.omega)
            slopes, intercept, new_phi, halvings = _line_search(
                ws, state.omega.slopes, phi_value, candidate,
                config.max_halvings, dtype, start=halvings)
        except NoAscent:
            if dtype is float:
                dtype = np.longdouble
                phi_value, _ = ws.manifold_phi(state.omega.slopes, dtype)
                continue
            converged = True
            break
        except StepFailure:
            break
        steps.append(0.5 ** halvings)
        trace.append(float(new_phi))
        previous = phi_value
        phi_value = new_phi
        state = IcmState(OmegaVector(float(intercept), slopes),
                         float(new_phi), iteration)
        if abs(new_phi - previous) <= config.phi_tolerance * (1.0 + abs(previous)):
            if dtype is float:
                dtype = np.longdouble
                phi_value, _ = ws.manifold_phi(slopes, dtype)
                continue
            converged = True
            break
    return state, trace, steps, converged


def fit(sample, config=None):
    """Run the iterative concave majorant algorithm on a validated sample.

    Returns (LogConcaveFit, IcmReport).  Failure to converge within
    max_iterations is soft: the best iterate is still returned, with the
    report's converged flag false.
    """
    config = config or IcmConfig()
    ws = ObjectiveWorkspace(sample, config.series_threshold,
                            config.curvature_floor)
    state, trace, steps, converged = _run_icm(ws, _normal_start(ws), config)
    initializer = "normal"
    if not steps:
        # the normal start made no progress at all; retry from the uniform
        # density in case the initial guess sits in a flat saturated region
        zero = np.zeros(sample.n - 1)
        uniform0 = OmegaVector(ws.restore_intercept(zero), zero)
        alt = _run_icm(ws, uniform0, config)
        if alt[0].phi > state.phi:
            state, trace, steps, converged = alt
            initializer = "uniform"

    theta = theta_from_omega(state.omega, sample)
    fit_obj = LogConcaveFit(sample, theta,
                            log_likelihood=state.phi + sample.n,
                            slopes=state.omega.slopes)
    report = IcmReport(
        phi_trace=np.asarray(trace),
        step_sizes=np.asarray(steps),
        converged=converged,
        iterations=len(steps),
        kkt_residual=kkt_residual(state.omega, sample,
                                  series_threshold=config.series_threshold),
        initializer=initializer,
        phi_evaluations=ws.phi_evaluations,
    )
    return fit_obj, report


def kkt_residual(omega, sample, block_tol=None,
                 series_threshold=SERIES_THRESHOLD):
    """First-order optimality violation at a feasible point.

    Zero at the solution.  The residual is the largest of: the intercept
    derivative, the absolute gradient sum over each maximal block of equal
    slopes, and the positive part of the gradient prefix sums within
    blocks (the majorant touching conditions).
    """
    ws = ObjectiveWorkspace(sample, series_threshold)
    slopes = omega.slopes
    if np.any(slopes[:-1] < slopes[1:]):
        raise InfeasiblePoint("slopes are not nonincreasing")
    grad = ws.gradient(omega)
    if abs(grad[0]) > 1e-6 * sample.n:
        raise InfeasiblePoint("the unit-mass side condition does not hold")

    if block_tol is None:
        block_tol = 1e-8 * max(1.0, float(np.max(np.abs(slopes))))
    b = grad[1:]
    starts = np.flatnonzero(slopes[:-1] - slopes[1:] > block_tol) + 1
    starts = np.concatenate(([0], starts))
    ends = np.append(starts[1:], b.size)
    residual = max(abs(float(grad[0])),
                   float(np.max(np.abs(np.add.reduceat(b, starts)))))
    # prefix sums within blocks, from one running sum minus the sum of the
    # blocks before; those block sums vanish at the solution, so little is
    # lost to cancellation where the residual is small
    total = np.cumsum(b)
    offsets = np.concatenate(([0.0], total[starts[1:] - 1]))
    inner = total - np.repeat(offsets, ends - starts)
    inner[ends - 1] = -np.inf  # a block's full sum is checked above
    return max(residual, float(np.max(inner)))
