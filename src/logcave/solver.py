"""Solvers for the log-concave NPMLE: an exact active-set method (``fit``)
and the paper's iterative concave majorant algorithm (``fit_icm``).

``fit`` works on the log-density theta at the knots.  Between kinks theta
is linear, so over a set K of kink indices (always holding both end
knots) the objective depends only on the values eta at K:

    L(eta) = c.eta - sum_l D_l e^{eta_l} rho(eta_{l+1} - eta_l),

with D_l the block lengths and c the weights the observations put on each
kink's hat function.  Its Hessian is tridiagonal, so a Newton step costs
O(|K|): one pass over the segments on Python floats gives the objective,
the gradient and both bands of the Hessian, and a Thomas sweep solves for
the step.  The systems are small (a few kinks on Monte Carlo samples), so
this avoids numpy's per-call overhead.

The active-set iteration (Duembgen, Huesler & Rufibach, "Active set and EM
algorithms for log-concave densities based on complete and censored data",
arXiv:0707.4643) maximizes L over K.  When the maximizer is not concave it
steps towards it as far as concavity allows and drops the kinks that
became tight; otherwise it adds knots with a directional derivative along
-(x - x_j)_+ above the tolerance.  The method adds the one knot with the
largest derivative.  This module's variant adds the best knot of every
block between kinks, which takes fewer iterations, each paying one O(n)
pass of derivatives and one Newton solve.  A fresh kink that the
solution wants convex is dropped at once, and the first add that fails to
raise the objective switches the run to the method's one knot per
iteration.  When no derivative exceeds the tolerance the fit is the MLE to
that tolerance: that is the Duembgen-Rufibach characterization (Bernoulli
15(1), 2009), and the largest derivative relative to the range is reported
as the certificate.  The fit runs on standardized data, so its tolerances
are scale-free and its result is affine-equivariant.

Between Newton solves the kink values, weights and block lengths stay
lists of Python floats, and the drop step works on them; numpy runs only
the O(n) work: interpolating theta, the derivative pass and assembling a
new kink system.  A fit pays one derivative pass per iteration that
reaches its Newton solution, and after the loop only one pass of segment
masses that restores the unit-mass intercept.  The certificate reuses the
loop's last derivative pass, which is at the final theta unless the run
stopped after a drop step (only at max_iterations); such a run makes one
more pass, at its final theta normalized to unit mass.  The report's
``kkt_residual`` takes its slope gradient from the same pass: the gradient
along slope k is n * sd * (D_{k+1} - D_k) in raw units, with sd the
sample standard deviation that standardizes the data.

``fit_icm`` replaces the concave objective at each iteration by a diagonal
quadratic surrogate at the current point and maximizes it over the cone of
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

import math
import numbers
import operator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (
    BadConfig,
    DegenerateVariance,
    InfeasiblePoint,
    NoAscent,
    NonPositiveWeight,
    StepFailure,
)
from ._rho import _segment_moments, segment_masses, segment_triple
from .model import LogConcaveFit, OmegaVector, theta_from_omega
from .objective import ObjectiveWorkspace

# certificate tolerances below this are taken as this: the directional
# derivatives are sums of rounded masses and cannot resolve much less
CERTIFICATE_FLOOR = 1e-12

# Newton over the kink values takes full steps without comparing objective
# values once the decrement g.H^-1.g (objective per observation,
# standardized units) is below _UNCHECKED_DECREMENT: gains that small are
# too small for the values to resolve, and the iteration is well inside the
# region where Newton converges quadratically.  It stops after a step with
# a decrement below _DECREMENT_FLOOR, or when the decrement stops shrinking.
# The decrement about squares per step, so the one after a step below 1e-16
# is rounding noise; at 1e-14 the final certificates of small samples rise
# above their rounding level.
_DECREMENT_FLOOR = 1e-16
_UNCHECKED_DECREMENT = 1e-12
_MAX_NEWTON_STEPS = 100

# a kink whose slope change is above -_CONCAVITY_SLACK * (largest |slope|,
# at least 1) counts as concave.  Smaller violations are rounding of a
# kink that is almost straight; clamping them costs the objective only to
# second order, since the Newton solution is stationary over those kinks.
_CONCAVITY_SLACK = 1e-10

# ICM's surrogate weights are the curvatures raised to at least this
# fraction of the largest one (and of 1), so that a curvature that
# underflows still gives the projection a positive weight
CURVATURE_FLOOR = 1e-12


@dataclass
class IcmConfig:
    """Solver knobs.

    For ``fit``, phi_tolerance is the certificate tolerance (floored at
    1e-12), max_iterations caps the outer add/drop iterations and
    max_halvings the step halvings of each Newton step.  For ``fit_icm``,
    the stopping rule accepts two consecutive objective values within
    phi_tolerance relatively, and halvings bound the binary line search.
    A setting that is not finite and positive, or a count that is not an
    integer, raises BadConfig.
    """

    phi_tolerance: float = 1e-8
    max_iterations: int = 1000
    max_halvings: int = 60

    def __post_init__(self):
        for name, kind, wanted in (
                ("phi_tolerance", numbers.Real, "a finite positive number"),
                ("max_iterations", numbers.Integral, "a positive integer"),
                ("max_halvings", numbers.Integral, "a positive integer")):
            value = getattr(self, name)
            # the chained comparison is false for nan and inf
            if (isinstance(value, bool) or not isinstance(value, kind)
                    or not 0 < value < math.inf):
                raise BadConfig(f"{name} must be {wanted}, got {value!r}")


@dataclass
class IcmReport:
    """Iteration diagnostics for one solver run.

    phi_trace holds the objective at the start and after each iteration
    (log-likelihood - n on the unit-mass manifold).  For ``fit`` an
    iteration is one Newton solve over the current kinks and its step size
    the fraction of the way to that solution taken (1.0 when no kink was
    dropped); for ``fit_icm`` it is one line search.  ``fit`` may add
    several kinks in one iteration, so kinks_added may exceed iterations.
    certificate is the largest directional derivative along -(x - x_j)_+
    relative to the sample range, zero at the MLE, for the returned fit.
    initializer is ICM's starting point ("normal", or "uniform" after a
    restart); the active set's is "linear": it starts from the uniform
    density, and its first iterate is the best log-linear one.

    phi_evaluations counts objective evaluations: for ``fit`` the passes
    over the kinks that evaluate the kink objective (each Newton trial and
    each step towards a solution, the starting point included), for
    ``fit_icm`` the evaluations of the line searches, its starting points
    included.  stop_reason says why the run stopped: "tolerance" (``fit``:
    no directional derivative above the tolerance; ``fit_icm``: the
    relative objective change), "no_ascent" (``fit``: a single add did
    not raise the objective; ``fit_icm``: no step of the line search
    did), "step_failure" (``fit_icm`` only: a point it could not
    differentiate) or "max_iterations".  ``fit`` is converged only when
    it stopped on "tolerance" with a certificate within the tolerance.
    """

    phi_trace: np.ndarray
    step_sizes: np.ndarray
    converged: bool
    iterations: int
    kkt_residual: float
    initializer: str = "normal"
    phi_evaluations: int = 0
    certificate: float = 0.0
    newton_steps: int = 0
    kinks_added: int = 0
    kinks_dropped: int = 0
    stop_reason: str = "max_iterations"


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
    """Slopes maximizing ICM's diagonal quadratic surrogate at omega over
    the cone of nonincreasing slopes; the line search decides how far to
    move towards them."""
    grad, curv = ws.derivatives(omega)
    curv = np.maximum(curv, CURVATURE_FLOOR * max(1.0, float(curv.max())))
    values = curv * omega.slopes + grad[1:]
    return concave_majorant_slopes(curv, values)


def _line_search(ws, slopes0, phi0, candidate_slopes, max_halvings,
                 dtype=np.longdouble, start=0):
    """ICM's line search: the largest step 2^-k, k <= max_halvings, whose
    trial point increases phi above phi0.

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


def _run_icm(ws, omega, config):
    """ICM iterations from omega; returns (last iterate, phi_trace, step
    sizes, stop reason), with the iterate's objective last in
    phi_trace."""
    # run with fast double-precision comparisons until they stall or the
    # stopping rule would fire, then confirm and finish in extended
    # precision so the endgame is not limited by double rounding
    dtype = float
    phi_value, _ = ws.manifold_phi(omega.slopes, dtype)
    trace = [float(phi_value)]
    steps = []
    reason = "max_iterations"
    halvings = 0
    for _ in range(config.max_iterations):
        try:
            candidate = _candidate_slopes(ws, omega)
            slopes, intercept, new_phi, halvings = _line_search(
                ws, omega.slopes, phi_value, candidate,
                config.max_halvings, dtype, start=halvings)
        except NoAscent:
            if dtype is float:
                dtype = np.longdouble
                phi_value, _ = ws.manifold_phi(omega.slopes, dtype)
                continue
            reason = "no_ascent"
            break
        except StepFailure:
            reason = "step_failure"
            break
        steps.append(0.5 ** halvings)
        trace.append(float(new_phi))
        previous = phi_value
        phi_value = new_phi
        omega = OmegaVector(float(intercept), slopes)
        if abs(new_phi - previous) <= config.phi_tolerance * (1.0 + abs(previous)):
            if dtype is float:
                dtype = np.longdouble
                phi_value, _ = ws.manifold_phi(slopes, dtype)
                continue
            reason = "tolerance"
            break
    return omega, trace, steps, reason


def fit_icm(sample, config=None):
    """Run the iterative concave majorant algorithm on a validated sample.

    Returns (LogConcaveFit, IcmReport).  Failure to converge within
    max_iterations is soft: the best iterate is still returned, with the
    report's converged flag false.  Its stopping rule is on the relative
    objective change, so ``converged`` does not mean the fit is near the
    MLE; the report's certificate measures that.
    """
    config = config or IcmConfig()
    ws = ObjectiveWorkspace(sample)
    omega, trace, steps, reason = _run_icm(ws, _normal_start(ws), config)
    initializer = "normal"
    if not steps:
        # the normal start made no progress at all; retry from the uniform
        # density in case the initial guess sits in a flat saturated region
        zero = np.zeros(sample.n - 1)
        uniform0 = OmegaVector(ws.restore_intercept(zero), zero)
        alt = _run_icm(ws, uniform0, config)
        if alt[1][-1] > trace[-1]:
            omega, trace, steps, reason = alt
            initializer = "uniform"

    theta = theta_from_omega(omega, sample)
    fit_obj = LogConcaveFit(sample, theta,
                            log_likelihood=trace[-1] + sample.n,
                            slopes=omega.slopes)
    report = IcmReport(
        phi_trace=np.asarray(trace),
        step_sizes=np.asarray(steps),
        converged=reason in ("tolerance", "no_ascent"),
        iterations=len(steps),
        kkt_residual=kkt_residual(omega, sample),
        initializer=initializer,
        phi_evaluations=ws.phi_evaluations,
        certificate=_certificate(
            _directional_derivatives(theta, sample.gaps),
            sample.gaps, _kinks_of(omega.slopes)),
        stop_reason=reason,
    )
    return fit_obj, report


def _kinks_of(slopes):
    """End knots and the knots where the slope drops by more than 1e-8
    of the largest slope magnitude."""
    drop = slopes[:-1] - slopes[1:] > 1e-8 * float(np.max(np.abs(slopes)))
    return np.concatenate(([0], np.flatnonzero(drop) + 1, [slopes.size]))


def _empirical_terms(gaps):
    """gap_k times the share of observations at or right of knot k+1: the
    part of the directional derivatives that does not depend on theta."""
    n = gaps.size + 1
    return gaps * np.arange(n - 1, 0, -1) / n


def _directional_derivatives(theta, gaps, empirical=None):
    """Derivative of the objective per observation along -(x - x_j)_+ at
    every knot j, for the density with knot log-densities theta.

    D_j = sum_{k>=j} gap_k (m1_k + T_{k+1} - W_{k+1}), with T and W the
    model and empirical mass at or right of knot k+1; ``empirical`` is
    ``_empirical_terms(gaps)``, computed here when not given.  The MLE has
    D_j <= 0 everywhere, with equality at its kinks.
    """
    if empirical is None:
        empirical = _empirical_terms(gaps)
    m0, m1 = _segment_moments(theta, gaps, 2)
    model_tail = np.cumsum(m0[::-1])[::-1]
    model_tail = np.append(model_tail[1:], 0.0)
    terms = gaps * (m1 + model_tail) - empirical
    return np.append(np.cumsum(terms[::-1])[::-1], 0.0)


def _certificate(derivatives, gaps, kinks):
    """Largest violation of the Duembgen-Rufibach conditions relative to
    the range: a positive D_j anywhere, or a nonzero one at a kink (or an
    end knot), where a negative D_j means the kink should shrink."""
    worst = max(float(np.max(derivatives)), float(np.max(-derivatives[kinks])))
    return worst / float(np.sum(gaps))


def _kink_system(u, gaps, kinks):
    """(c, D) of the objective over the values at the kinks, as lists of
    Python floats: the weight each kink's hat function collects from the
    observations, and the block lengths.  u are the knot positions from
    the left end."""
    n = u.size
    lengths = np.diff(kinks)
    blocks = np.add.reduceat(gaps, kinks[:-1])
    block = np.repeat(np.arange(lengths.size), lengths)  # knots 0..n-2
    right = (u[:-1] - np.repeat(u[kinks[:-1]], lengths)) / np.repeat(blocks,
                                                                    lengths)
    c = (np.bincount(block, 1.0 - right, minlength=kinks.size)
         + np.bincount(block + 1, right, minlength=kinks.size))
    c[-1] += 1.0
    return (c / n).tolist(), blocks.tolist()


def _kink_pass(eta, c, blocks):
    """Objective, gradient and the diagonal and off-diagonal of the negated
    Hessian of the kink objective at eta, in one pass over the segments.

    Works on lists of Python floats.  The objective is -inf where it is not
    finite or where an exponential overflows; on overflow the derivatives
    are empty lists, whose Newton step is empty and ends the solve."""
    grad = []
    diag = []
    off = []
    mass = m1 = m2 = 0.0
    try:
        for l, dx in enumerate(blocks):
            left1, left2 = m1, m2
            m0, m1, m2 = segment_triple(eta[l], eta[l + 1], dx)
            mass += m0
            grad.append(c[l] - (m0 - m1) - left1)
            diag.append(m0 - 2.0 * m1 + m2 + left2)
            off.append(m1 - m2)
    except OverflowError:
        return -math.inf, [], [], []
    grad.append(c[-1] - m1)
    diag.append(m2)
    value = sum(map(operator.mul, c, eta)) - mass
    return (value if math.isfinite(value) else -math.inf), grad, diag, off


def _thomas(diag, off, rhs):
    """Solution of the symmetric tridiagonal system by a Thomas sweep, or
    None when a pivot is not positive (the matrix is not positive
    definite)."""
    ratios = []
    ys = []
    ratio = y = 0.0
    for d, e_before, b, e in zip(diag, chain((0.0,), off), rhs,
                                 chain(off, (0.0,))):
        pivot = d - e_before * ratio
        if not pivot > 0.0:
            return None
        y = (b - e_before * y) / pivot
        ratio = e / pivot
        ratios.append(ratio)
        ys.append(y)
    x = 0.0
    out = []
    for ratio, y in zip(reversed(ratios), reversed(ys)):
        x = y - ratio * x
        out.append(x)
    out.reverse()
    return out


def _floats(values):
    """A list of Python floats from an array; lists are taken as they are.

    On numpy scalars an overflowing exp warns instead of raising the
    OverflowError that ``_kink_pass`` catches."""
    return values.tolist() if isinstance(values, np.ndarray) else values


def _newton(eta, c, blocks, config):
    """Maximizer of the kink objective by Newton's method with step
    halving, from eta; returns (maximizer, objective, Newton steps,
    objective evaluations), the maximizer as a list.

    Each trial point costs one ``_kink_pass``, and an accepted trial's pass
    gives the next step's derivatives.  Steps are accepted on a strict
    increase only: accepting an equal value lets rounding noise keep the
    iteration going without progress."""
    eta, c, blocks = _floats(eta), _floats(c), _floats(blocks)
    value, grad, diag, off = _kink_pass(eta, c, blocks)
    steps = 0
    passes = 1
    last = math.inf
    while steps < _MAX_NEWTON_STEPS:
        delta = _thomas(diag, off, grad)
        if delta is None:
            break
        decrement = sum(map(operator.mul, grad, delta))
        if not decrement > 0.0:
            break
        if decrement < _UNCHECKED_DECREMENT:
            if decrement >= last:
                break
            eta = [e + d for e, d in zip(eta, delta)]
            value, grad, diag, off = _kink_pass(eta, c, blocks)
            passes += 1
        else:
            for k in range(config.max_halvings + 1):
                h = 0.5 ** k
                trial = [e + h * d for e, d in zip(eta, delta)]
                point = _kink_pass(trial, c, blocks)
                passes += 1
                if point[0] > value:
                    break
            else:
                break
            eta = trial
            value, grad, diag, off = point
        last = decrement
        steps += 1
        if decrement < _DECREMENT_FLOOR:
            break  # the next decrement would be about its square
    return eta, value, steps, passes


def _slope_changes(eta, blocks):
    """Slope decrease at each interior kink, concave where all are >= 0,
    and the slopes; lists of Python floats."""
    slopes = [(right - left) / dx
              for left, right, dx in zip(eta, eta[1:], blocks)]
    return [a - b for a, b in zip(slopes, slopes[1:])], slopes


def _active_set(u, gaps, config):
    """Active-set iteration on standardized knots.

    Returns the final kinks, the values there and the block lengths, the
    directional derivatives at the final theta, and the report fields of
    the run, with phi_trace per observation in standardized units."""
    n = u.size
    span = float(u[-1])
    relative_tolerance = max(config.phi_tolerance, CERTIFICATE_FLOOR)
    tolerance = relative_tolerance * span
    empirical = _empirical_terms(gaps)
    kinks = np.array([0, n - 1])
    eta = [-float(np.log(span))] * 2  # the uniform density
    c, blocks = _kink_system(u, gaps, kinks)
    trace = [_kink_pass(eta, c, blocks)[0]]
    passes = 1
    steps = []
    newton_steps = added = dropped = 0
    added_at = -math.inf  # objective when kinks were last added
    batch = True  # add the best knot of every block, not only the best one
    reason = "max_iterations"
    derivatives = None  # the derivative pass while it is at the current theta
    while len(steps) < config.max_iterations:
        psi, value, count, evaluations = _newton(eta, c, blocks, config)
        newton_steps += count
        passes += evaluations
        now, _ = _slope_changes(eta, blocks)
        target, slopes = _slope_changes(psi, blocks)
        slack = _CONCAVITY_SLACK * max(1.0, max(map(abs, slopes)))
        violated = [k for k, change in enumerate(target) if change < -slack]
        if violated:
            # the path eta -> psi leaves the cone first where the slope
            # change of a violated kink reaches zero.  A kink within the
            # slack of straight, as a freshly added one is, is tight at
            # step 0: its ratio would be rounding noise.
            ratios = [0.0 if now[k] <= slack
                      else now[k] / (now[k] - target[k]) for k in violated]
            step = min(max(min(ratios), 0.0), 1.0)
            eta = [e + step * (p - e) for e, p in zip(eta, psi)]
            # a kink the solution wants concave is not tight, even where
            # its slope change is still zero, as a fresh one's is at step 0
            tight = [change <= 0.0 and wanted < 0.0 for change, wanted
                     in zip(_slope_changes(eta, blocks)[0], target)]
            for k, ratio in zip(violated, ratios):
                if ratio <= step:
                    tight[k] = True
            dropped += sum(tight)
            if step > 0.0:
                steps.append(step)
                trace.append(_kink_pass(eta, c, blocks)[0])
                passes += 1
            keep = [True, *(not t for t in tight), True]
            kinks = kinks[keep]
            eta = [e for e, kept in zip(eta, keep) if kept]
            c, blocks = _kink_system(u, gaps, kinks)
            continue
        eta = psi
        steps.append(1.0)
        trace.append(value)
        theta = np.interp(u, u[kinks], eta)
        derivatives = _directional_derivatives(theta, gaps, empirical)
        candidates = derivatives.copy()
        candidates[kinks] = -np.inf
        best = int(np.argmax(candidates))
        if not candidates[best] > tolerance:
            reason = "tolerance"
            break
        # anti-cycling: in exact arithmetic every add raises the objective
        # strictly.  The first add that did not falls back to one knot per
        # iteration; once a single add does not either, the derivatives
        # that select kinks are below what rounding resolves.
        if not value > added_at:
            if not batch:
                reason = "no_ascent"
                break
            batch = False
        if len(steps) >= config.max_iterations:
            break
        added_at = value
        add = np.zeros(n, dtype=bool)
        if batch:
            # the best knot of every block between kinks, where above the
            # tolerance: this repo's variant of the method, which adds
            # only the best knot overall
            maxima = np.maximum.reduceat(candidates[:-1], kinks[:-1])
            add[:-1] = candidates[:-1] == np.repeat(maxima, np.diff(kinks))
            add &= candidates > tolerance
        else:
            add[best] = True
        added += int(np.count_nonzero(add))
        add[kinks] = True
        kinks = np.flatnonzero(add)
        eta = theta[kinks].tolist()
        c, blocks = _kink_system(u, gaps, kinks)
        derivatives = None  # the next Newton solve moves theta
    if derivatives is None:
        # the run stopped after a drop step, at kink values whose mass is
        # not one; the pass is at the density they normalize to
        theta = np.interp(u, u[kinks], eta)
        theta -= np.log(np.sum(segment_masses(theta, gaps)))
        derivatives = _directional_derivatives(theta, gaps, empirical)
    certificate = _certificate(derivatives, gaps, kinks)
    # the certificate also holds the derivatives at the kinks, which only
    # the Newton solution makes vanish
    converged = reason == "tolerance" and certificate <= relative_tolerance
    return kinks, eta, blocks, derivatives, {
        "phi_trace": np.asarray(trace), "step_sizes": np.asarray(steps),
        "converged": converged, "iterations": len(steps),
        "certificate": certificate, "newton_steps": newton_steps,
        "kinks_added": added, "kinks_dropped": dropped,
        "phi_evaluations": passes, "stop_reason": reason}


def fit(sample, config=None):
    """Exact log-concave MLE of a validated sample by the active-set method.

    Returns (LogConcaveFit, IcmReport).  ``converged`` means the
    certificate is within max(phi_tolerance, 1e-12).  A run that stops
    short, at max_iterations outer iterations or when adding a single kink
    no longer raises the objective, returns its last iterate with
    ``converged`` false; the report's stop_reason says which.
    """
    config = config or IcmConfig()
    # standardized positions, measured from the left end: the objective is
    # shift-invariant, and sums of gaps do not cancel.  The standard
    # deviation is taken relative to the range, so that squaring neither
    # overflows nor underflows at extreme scales.
    positions = np.concatenate(([0.0], np.cumsum(sample.gaps)))
    span = positions[-1]
    sd = span * float(np.std(positions / span, ddof=1))
    if not (np.isfinite(sd) and sd > 0.0):
        raise DegenerateVariance(f"sample standard deviation is {sd}")
    gaps = sample.gaps / sd
    u = positions / sd
    kinks, eta, blocks, derivatives, run = _active_set(u, gaps, config)

    n = sample.n
    with np.errstate(over="ignore", invalid="ignore"):
        slopes = np.minimum.accumulate(
            np.repeat(np.diff(eta) / blocks / sd, np.diff(kinks)))
        # the unit-mass intercept, computed as
        # ObjectiveWorkspace.restore_intercept computes it; theta is the
        # partial sums of the slopes plus the intercept, as
        # theta_from_omega adds them
        partial = np.empty(n)
        partial[0] = 0.0
        np.cumsum(sample.gaps * slopes, out=partial[1:])
        shift = partial.max()
        total = np.sum(segment_masses(partial - shift, sample.gaps))
        intercept = -(shift + np.log(total))
        mass = np.exp(intercept + shift) * total
        theta = partial + intercept
    if not np.all(np.isfinite(theta)):
        raise StepFailure("the fitted log-density is not finite in double "
                          "precision at this data scale")
    fit_obj = LogConcaveFit(sample, theta,
                            log_likelihood=float(np.sum(theta)),
                            slopes=slopes)
    # the gradient of the raw objective: along the intercept from the
    # restored mass, along slope k from the derivatives (per observation,
    # standardized) at the kinks' theta
    grad = np.empty(n)
    grad[0] = n * (1.0 - mass)
    grad[1:] = n * sd * np.diff(derivatives)
    # per observation and standardized -> log-likelihood - n in raw units
    run["phi_trace"] = n * (run["phi_trace"] - np.log(sd))
    report = IcmReport(
        kkt_residual=_kkt_from_gradient(grad, slopes),
        initializer="linear",
        **run,
    )
    return fit_obj, report


def kkt_residual(omega, sample, block_tol=None):
    """First-order optimality violation at a feasible point.

    Zero at the solution.  The residual is the largest of: the intercept
    derivative, the absolute gradient sum over each maximal block of equal
    slopes, and the positive part of the gradient prefix sums within
    blocks (the majorant touching conditions).
    """
    ws = ObjectiveWorkspace(sample)
    slopes = omega.slopes
    if np.any(slopes[:-1] < slopes[1:]):
        raise InfeasiblePoint("slopes are not nonincreasing")
    grad = ws.gradient(omega)
    if abs(grad[0]) > 1e-6 * sample.n:
        raise InfeasiblePoint("the unit-mass side condition does not hold")
    return _kkt_from_gradient(grad, slopes, block_tol)


def _kkt_from_gradient(grad, slopes, block_tol=None):
    """``kkt_residual`` from the length-n gradient at nonincreasing
    slopes."""
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
