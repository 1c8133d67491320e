"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written from the defining formulas with
its own arithmetic (mostly extended precision), separate from the library
code paths it is used to verify.
"""

import math

import numpy as np

from logcave._rho import (_C0, _C1, _C2, _SERIES_CUT, SERIES_THRESHOLD,
                          _horner, segment_masses, segment_triples)
from logcave.errors import NoAscent, NonPositiveWeight
from logcave.solver import (_DECREMENT_FLOOR, _MAX_NEWTON_STEPS,
                            _UNCHECKED_DECREMENT)


def rho_of(t):
    """(e^t - 1)/t, elementwise, exact limit 1 at t = 0."""
    t = np.asarray(t)
    out = np.ones_like(t)
    nz = t != 0
    out[nz] = np.expm1(t[nz]) / t[nz]
    return out


def rho_triple_per_order(t):
    """(rho, rho', rho'') on a 1-D float array with one Horner pass per
    order and regime, the same arithmetic per element as the library's
    stacked pass."""
    r0 = np.empty_like(t)
    r1 = np.empty_like(t)
    r2 = np.empty_like(t)
    a = np.abs(t)
    tiny = a < SERIES_THRESHOLD
    big = a >= _SERIES_CUT
    mid = ~(tiny | big)
    for mask, terms in ((tiny, 4), (mid, None)):
        x = t[mask]
        r0[mask] = _horner(_C0[:terms], x)
        r1[mask] = _horner(_C1[:terms], x)
        r2[mask] = _horner(_C2[:terms], x)
    x = t[big]
    with np.errstate(over="ignore"):
        em = np.expm1(x)
        xx = x * x
        r0[big] = em / x
        r1[big] = (em * (x - 1.0) + x) / xx
        r2[big] = (em * (xx - 2.0 * x + 2.0) + x * (x - 2.0)) / (xx * x)
    return r0, r1, r2


def rho0_masked(t):
    """rho with the series and closed-form entries gathered and scattered
    separately: the cubic Taylor polynomial for |t| < SERIES_THRESHOLD,
    expm1(t)/t elsewhere."""
    out = np.empty_like(t)
    tiny = np.abs(t) < SERIES_THRESHOLD
    if tiny.any():
        x = t[tiny]
        out[tiny] = 1.0 + x * (1.0 / 2 + x * (1.0 / 6 + x * (1.0 / 24)))
    rest = ~tiny
    if rest.any():
        x = t[rest]
        with np.errstate(over="ignore"):
            out[rest] = np.expm1(x) / x
    return out


def phi_reference(intercept, slopes, knots):
    """Objective value straight from its defining display, in extended
    precision: n*w1 + sum (n-i+1) dx_i w_i - n * sum e^{theta} rho dx."""
    knots = np.asarray(knots, np.longdouble)
    s = np.asarray(slopes, np.longdouble)
    w1 = np.longdouble(intercept)
    dx = np.diff(knots)
    n = knots.size
    theta_left = w1 + np.concatenate(([np.longdouble(0)], np.cumsum(dx * s)))[:-1]
    mass = np.sum(np.exp(theta_left) * rho_of(dx * s) * dx)
    linear = np.sum(np.arange(n - 1, 0, -1) * dx * s)
    return n * w1 + linear - n * mass


def grad_reference(intercept, slopes, knots, h=1e-6):
    """Central differences of phi_reference in every coordinate
    (intercept first)."""
    s = np.asarray(slopes, float)
    out = np.empty(s.size + 1)
    step = h * (1.0 + abs(intercept))
    out[0] = float((phi_reference(intercept + step, s, knots)
                    - phi_reference(intercept - step, s, knots)) / (2 * step))
    for k in range(s.size):
        step = h * (1.0 + abs(s[k]))
        up, dn = s.copy(), s.copy()
        up[k] += step
        dn[k] -= step
        out[k + 1] = float((phi_reference(intercept, up, knots)
                            - phi_reference(intercept, dn, knots)) / (2 * step))
    return out


def curvature_reference(intercept, slopes, knots, h=1e-4):
    """Negated second central differences of phi_reference per slope."""
    s = np.asarray(slopes, float)
    out = np.empty(s.size)
    base = phi_reference(intercept, s, knots)
    for k in range(s.size):
        step = h * (1.0 + abs(s[k]))
        up, dn = s.copy(), s.copy()
        up[k] += step
        dn[k] -= step
        out[k] = float(-(phi_reference(intercept, up, knots) - 2 * base
                         + phi_reference(intercept, dn, knots)) / step ** 2)
    return out


def loglik_profile(slopes_grid, knots):
    """Log-likelihood over a grid of slope vectors with the intercept
    eliminated by the unit-mass condition.

    ``slopes_grid`` has shape (..., n-1); returns an array of shape (...).
    Infeasible (non-monotone) points are NOT masked here.
    """
    knots = np.asarray(knots, float)
    dx = np.diff(knots)
    n = knots.size
    grid = np.asarray(slopes_grid, float)
    t = grid * dx  # (..., n-1)
    partial = np.concatenate((np.zeros(grid.shape[:-1] + (1,)),
                              np.cumsum(t, axis=-1)), axis=-1)  # (..., n)
    mass0 = np.sum(np.exp(partial[..., :-1]) * rho_of(t) * dx, axis=-1)
    w1 = -np.log(mass0)
    return n * w1 + np.sum(partial[..., 1:], axis=-1)


def grid_search_loglik(knots, lo=-30.0, length=60.0, coarse=121, spacing=0.005):
    """Two-stage dense grid maximization of the n = 3 log-likelihood over
    the feasible slope half-plane; returns the best log-likelihood."""
    assert len(knots) == 3
    best = None
    center = None
    # stage 1: coarse sweep
    axis = np.linspace(lo, lo + length, coarse)
    s2, s3 = np.meshgrid(axis, axis, indexing="ij")
    feas = s2 >= s3
    ll = loglik_profile(np.stack((s2, s3), axis=-1), knots)
    ll[~feas] = -np.inf
    k = np.unravel_index(np.argmax(ll), ll.shape)
    center = (s2[k], s3[k])
    # stage 2: fine sweep around the coarse winner, wide enough to be sure
    # it brackets the continuum maximizer
    half = (axis[1] - axis[0]) * 2.4
    m = int(2 * half / spacing) + 1
    a2 = np.linspace(center[0] - half, center[0] + half, m)
    a3 = np.linspace(center[1] - half, center[1] + half, m)
    s2, s3 = np.meshgrid(a2, a3, indexing="ij")
    feas = s2 >= s3
    ll = loglik_profile(np.stack((s2, s3), axis=-1), knots)
    ll[~feas] = -np.inf
    best = float(np.max(ll))
    return best


def concave_majorant_slopes_pooling(d, v):
    """Weighted projection of v/d onto nonincreasing sequences with weights
    d, by a single pass of pool-adjacent-violators in plain Python."""
    d = np.asarray(d, dtype=float)
    v = np.asarray(v, dtype=float)
    if not np.all(d > 0):
        raise NonPositiveWeight("projection weights must be positive")
    sum_d = []
    sum_v = []
    mean = []
    count = []
    for di, vi in zip(d.tolist(), v.tolist()):
        sum_d.append(di)
        sum_v.append(vi)
        mean.append(vi / di)
        count.append(1)
        while len(mean) >= 2 and mean[-1] > mean[-2]:
            dv = sum_v.pop()
            dd = sum_d.pop()
            c = count.pop()
            mean.pop()
            sum_v[-1] += dv
            sum_d[-1] += dd
            count[-1] += c
            mean[-1] = sum_v[-1] / sum_d[-1]
    return np.repeat(mean, count)


def project_nonincreasing(values):
    """Euclidean projection onto nonincreasing sequences (plain pooling)."""
    values = np.asarray(values, float)
    return concave_majorant_slopes_pooling(np.ones_like(values), values)


def concave_majorant_slopes_minmax(d, v):
    """Quadratic-time min-max form of the same projection:

        out_i = min_{j<=i} max_{k>=i} (sum_{h=j}^{k} v_h) / (sum_{h=j}^{k} d_h)
    """
    d = np.asarray(d, dtype=float)
    v = np.asarray(v, dtype=float)
    if not np.all(d > 0):
        raise NonPositiveWeight("projection weights must be positive")
    cd = np.concatenate(([0.0], np.cumsum(d)))
    cv = np.concatenate(([0.0], np.cumsum(v)))
    m = d.size
    out = np.empty(m)
    for i in range(m):
        best = np.inf
        for j in range(i + 1):
            block = (cv[i + 1:] - cv[j]) / (cd[i + 1:] - cd[j])
            best = min(best, float(np.max(block)))
        out[i] = best
    return out


def kkt_residual_blocks(grad, slopes, block_tol):
    """KKT residual from the gradient (intercept first) at a feasible point,
    one block of equal slopes at a time: the largest of the intercept
    derivative, each block's absolute gradient sum, and the positive part
    of the gradient prefix sums within each block."""
    b = grad[1:]
    residual = abs(float(grad[0]))
    start = 0
    for end in range(1, slopes.size + 1):
        boundary = (end == slopes.size
                    or slopes[end - 1] - slopes[end] > block_tol)
        if boundary:
            block = b[start:end]
            residual = max(residual, abs(float(np.sum(block))))
            if end - start > 1:
                inner = np.cumsum(block[:-1])
                residual = max(residual, float(np.max(inner)), 0.0)
            start = end
    return residual


def projected_gradient_loglik(knots, start, iterations=20000, step0=0.05):
    """Long-run projected-gradient ascent of the reduced log-likelihood.

    Gradient by central differences of loglik_profile; projection onto the
    monotone cone after every step; backtracking keeps ascent.  Returns the
    best log-likelihood found.
    """
    knots = np.asarray(knots, float)
    s = project_nonincreasing(np.asarray(start, float))
    value = float(loglik_profile(s, knots))
    eta = step0
    h = 1e-7
    for _ in range(iterations):
        grad = np.empty(s.size)
        for k in range(s.size):
            up, dn = s.copy(), s.copy()
            hk = h * (1.0 + abs(s[k]))
            up[k] += hk
            dn[k] -= hk
            grad[k] = (loglik_profile(up, knots)
                       - loglik_profile(dn, knots)) / (2 * hk)
        moved = False
        while eta > 1e-16:
            trial = project_nonincreasing(s + eta * grad)
            trial_value = float(loglik_profile(trial, knots))
            if trial_value > value:
                s, value = trial, trial_value
                eta = min(eta * 1.5, 10.0)
                moved = True
                break
            eta *= 0.5
        if not moved:
            break
    return value


def step_trial(slopes0, candidate_slopes, k):
    """Trial point at step 2^-k towards the candidate: the candidate itself
    at step 1, otherwise the convex combination clamped back onto the
    monotone cone."""
    if k == 0:
        return candidate_slopes
    return np.minimum.accumulate(
        slopes0 + 0.5 ** k * (candidate_slopes - slopes0))


def backtracking_line_search(ws, slopes0, phi0, candidate_slopes,
                             max_halvings, dtype=np.longdouble):
    """Line search from step 1: the first of the steps 1, 1/2, 1/4, ...
    (at most max_halvings halvings) whose trial point increases the
    workspace's manifold objective above phi0.

    Returns (slopes, intercept, phi, halvings)."""
    for k in range(max_halvings + 1):
        trial = step_trial(slopes0, candidate_slopes, k)
        trial_phi, intercept = ws.manifold_phi(trial, dtype)
        if trial_phi > phi0:
            return trial, intercept, trial_phi, k
    raise NoAscent(f"no objective increase within {max_halvings} halvings")


def fit_moments(knots, theta, nodes=20):
    """(mass, mean, variance) of the density exp(chord of theta) by
    Gauss-Legendre quadrature on every segment."""
    u, w = np.polynomial.legendre.leggauss(nodes)
    u, w = 0.5 * (u + 1.0), 0.5 * w
    h = np.diff(knots)[:, None]
    x = knots[:-1, None] + h * u
    f = h * w * np.exp(theta[:-1, None] + np.diff(theta)[:, None] * u)
    mass = float(np.sum(f))
    mean = float(np.sum(x * f)) / mass
    return mass, mean, float(np.sum((x - mean) ** 2 * f)) / mass


def quad_pdf(fit, lo, hi):
    """Adaptive quadrature of the fitted density (independent of the
    closed-form segment integrals used by the library)."""
    from scipy.integrate import quad

    value, _ = quad(lambda x: float(fit.pdf(x)), lo, hi,
                    points=list(fit.sample.knots[
                        (fit.sample.knots > lo) & (fit.sample.knots < hi)])[:80],
                    limit=300, epsabs=1e-11)
    return value


def kink_objective_dense(eta, c, blocks):
    """The kink objective c.eta - sum of segment masses, -inf where it is
    not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = c @ eta - np.sum(segment_masses(eta, blocks))
    return value if np.isfinite(value) else -np.inf


def newton_dense(eta, c, blocks, config):
    """Newton's method with step halving on the kink objective, with the
    tridiagonal Hessian assembled as a dense matrix and solved by LAPACK;
    the same step rules as ``solver._newton``.  Returns (maximizer,
    objective, Newton steps)."""
    value = kink_objective_dense(eta, c, blocks)
    steps = 0
    last = np.inf
    while steps < _MAX_NEWTON_STEPS:
        m0, m1, m2 = segment_triples(eta, blocks)
        grad = c.copy()
        grad[:-1] -= m0 - m1
        grad[1:] -= m1
        diag = np.zeros(eta.size)
        diag[:-1] += m0 - 2.0 * m1 + m2
        diag[1:] += m2
        off = m1 - m2
        hessian = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        try:
            delta = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:
            break
        decrement = float(grad @ delta)
        if not decrement > 0.0:
            break
        if decrement < _UNCHECKED_DECREMENT:
            if decrement >= last:
                break
            eta = eta + delta
            value = kink_objective_dense(eta, c, blocks)
        else:
            for k in range(config.max_halvings + 1):
                trial = eta + 0.5 ** k * delta
                trial_value = kink_objective_dense(trial, c, blocks)
                if trial_value > value:
                    break
            else:
                break
            eta, value = trial, trial_value
        last = decrement
        steps += 1
        if decrement < _DECREMENT_FLOOR:
            break
    return eta, value, steps


def adaptive_simpson(func, lo, hi, tol, max_depth=48):
    """Batched adaptive Simpson over the intervals [lo_i, hi_i].

    Each interval gets a share of ``tol`` proportional to its width and is
    bisected until the local Richardson error estimate is below its share.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    keep = hi > lo
    a, b = lo[keep], hi[keep]
    if a.size == 0:
        return 0.0
    mid = 0.5 * (a + b)
    fa, fm, fb = func(a), func(mid), func(b)
    coarse = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    budget = tol * (b - a) / float(np.sum(b - a))

    total = 0.0
    for _ in range(max_depth):
        if a.size == 0:
            break
        lmid = 0.5 * (a + mid)
        rmid = 0.5 * (mid + b)
        flm = func(lmid)
        frm = func(rmid)
        left = (mid - a) * (fa + 4.0 * flm + fm) / 6.0
        right = (b - mid) * (fm + 4.0 * frm + fb) / 6.0
        refined = left + right
        err = (refined - coarse) / 15.0
        done = (np.abs(err) <= budget) | ((b - a) <= 1e-14 * np.abs(a + b))
        total += float(np.sum(refined[done] + err[done]))
        live = ~done
        a = np.concatenate((a[live], mid[live]))
        b = np.concatenate((mid[live], b[live]))
        fa = np.concatenate((fa[live], fm[live]))
        fb = np.concatenate((fm[live], fb[live]))
        mid = np.concatenate((lmid[live], rmid[live]))
        fm = np.concatenate((flm[live], frm[live]))
        coarse = np.concatenate((left[live], right[live]))
        budget = np.concatenate((budget[live] / 2.0, budget[live] / 2.0))
    else:
        total += float(np.sum(coarse))
    return total


def hellinger_unique_cuts(fit_obj, density, tol=1e-9):
    """Hellinger distance by adaptive Simpson, with the cuts built as the
    sorted distinct values of the knots clipped to the common support, plus
    its ends where no clipped knot reaches them."""
    from logcave.simulation import SQRT2

    lo = max(float(fit_obj.sample.knots[0]), float(density.support[0]))
    hi = min(float(fit_obj.sample.knots[-1]), float(density.support[1]))
    if not hi > lo:
        return SQRT2
    cuts = np.unique(np.clip(fit_obj.sample.knots, lo, hi))
    if cuts[0] > lo:
        cuts = np.concatenate(([lo], cuts))
    if cuts[-1] < hi:
        cuts = np.concatenate((cuts, [hi]))

    def integrand(x):
        with np.errstate(over="ignore"):
            return np.exp(0.5 * (fit_obj.log_pdf(x) + density.log_pdf(x)))

    overlap = adaptive_simpson(integrand, cuts[:-1], cuts[1:], tol)
    return math.sqrt(min(max(2.0 * (1.0 - overlap), 0.0), 2.0))


def hellinger_quad(fit_obj, density):
    """Hellinger distance by scipy's quad on every piece between the knots
    and the density's kinks, within the common support."""
    from scipy.integrate import quad
    from logcave.simulation import SQRT2

    lo = max(float(fit_obj.sample.knots[0]), float(density.support[0]))
    hi = min(float(fit_obj.sample.knots[-1]), float(density.support[1]))
    if not hi > lo:
        return SQRT2
    cuts = np.unique(np.clip(np.concatenate((fit_obj.sample.knots,
                                             density.kinks)), lo, hi))
    knots, theta = fit_obj.sample.knots, fit_obj.theta

    def integrand(x):
        return math.exp(0.5 * (float(np.interp(x, knots, theta))
                               + float(density.log_pdf(x))))

    overlap = math.fsum(quad(integrand, a, b, epsabs=1e-14, epsrel=1e-13,
                             limit=200)[0]
                        for a, b in zip(cuts[:-1], cuts[1:]))
    return math.sqrt(min(max(2.0 * (1.0 - overlap), 0.0), 2.0))
