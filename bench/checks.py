"""Reference computations and output checks for the benchmark.

Nothing in this module imports logcave.  Every figure an output is compared
with comes from a closed form or a Gauss-Legendre quadrature written out
here, or from a property that any log-concave maximum-likelihood estimate
must have (Duembgen & Rufibach, Bernoulli 15(1), 2009): unit mass, a
concave log-density, a variance no larger than the sample variance, and a
log-likelihood at least that of the fitted Gaussian.
"""

import math

import numpy as np

MASS_TOL = 1e-9          # |integral of exp(theta chord) - 1|
LOGLIK_TOL = 1e-10       # |reported log-likelihood - sum(theta)| / n
CONCAVITY_TOL = 1e-9     # relative slack in the chord-slope ordering
VARIANCE_TOL = 1e-9      # relative slack in var(fit) <= var(sample)
HELLINGER_TOL = 1e-6     # |program hellinger - quadrature hellinger|
CDF_TOL = 1e-9           # |program cdf - closed-form cdf|
KS_SCALE = 3.0           # KS distance must stay below KS_SCALE / sqrt(m)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_U = 0.5 * (_GL_NODES + 1.0)          # nodes mapped to [0, 1]
_W = 0.5 * _GL_WEIGHTS                # weights for [0, 1]


class CheckFailed(Exception):
    """An output of the program disagrees with the reference computation."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


# --------------------------------------------------------------------------
# reference densities, written out independently of logcave.simulation

def _log_normal(x):
    return -0.5 * x * x - 0.5 * math.log(2.0 * math.pi)


def _log_laplace(x):
    return -np.abs(x) - math.log(2.0)


def _log_gamma3(x):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x > 0, 2.0 * np.log(x) - x - math.log(2.0), -np.inf)


def _log_beta32(x):
    inside = (x > 0) & (x < 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(inside,
                        math.log(12.0) + 2.0 * np.log(x) + np.log1p(-x),
                        -np.inf)


def _log_weibull3(x):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x > 0, math.log(3.0) + 2.0 * np.log(x) - x ** 3,
                        -np.inf)


# name -> (log-density, support, points where the log-density has a kink)
TRUE_DENSITIES = {
    "normal": (_log_normal, (-math.inf, math.inf), ()),
    "double_exponential": (_log_laplace, (-math.inf, math.inf), (0.0,)),
    "gamma": (_log_gamma3, (0.0, math.inf), ()),
    "beta": (_log_beta32, (0.0, 1.0), ()),
    "weibull": (_log_weibull3, (0.0, math.inf), ()),
}


# --------------------------------------------------------------------------
# closed forms for a piecewise exp-linear density

def chord_mass(width, left, right):
    """Integral of exp of the straight line from ``left`` to ``right`` over
    an interval of the given width: width * (e^right - e^left)/(right - left),
    written as e^max * (1 - e^-d)/d so that it neither overflows nor
    cancels."""
    width = np.asarray(width, dtype=float)
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    top = np.maximum(left, right)
    d = np.abs(right - left)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(d > 1e-8, -np.expm1(-d) / np.where(d > 0, d, 1.0),
                         1.0 - 0.5 * d)
    return width * np.exp(top) * ratio


def cdf_at(knots, theta, x):
    """Distribution function of exp(chord of theta) at points x."""
    x = np.asarray(x, dtype=float)
    masses = chord_mass(np.diff(knots), theta[:-1], theta[1:])
    cum = np.concatenate(([0.0], np.cumsum(masses)))
    idx = np.clip(np.searchsorted(knots, x, side="right") - 1,
                  0, knots.size - 2)
    u = np.clip(x - knots[idx], 0.0, knots[idx + 1] - knots[idx])
    slope = (theta[idx + 1] - theta[idx]) / (knots[idx + 1] - knots[idx])
    out = cum[idx] + chord_mass(u, theta[idx], theta[idx] + slope * u)
    out = np.where(x < knots[0], 0.0, out)
    return np.where(x >= knots[-1], cum[-1], out)


def _segment_nodes(knots, theta):
    """Quadrature nodes and weighted density values on every segment:
    (x, w * f(x)), each of shape (segments, nodes)."""
    h = np.diff(knots)[:, None]
    x = knots[:-1, None] + h * _U
    log_f = theta[:-1, None] + (theta[1:] - theta[:-1])[:, None] * _U
    return x, h * _W * np.exp(log_f), h


def fit_properties(knots, theta):
    """Mass, mean and variance of the fitted density, and the largest
    Duembgen-Rufibach violation max_k integral_{x_1}^{x_k} (F - F_n) over
    the range (<= 0 at the maximum-likelihood estimate)."""
    n = knots.size
    mass = float(math.fsum(chord_mass(np.diff(knots), theta[:-1], theta[1:])))
    x, wf, h = _segment_nodes(knots, theta)
    centre = float(np.mean(knots))
    m0 = float(np.sum(wf))
    mean = centre + float(np.sum((x - centre) * wf)) / m0
    var = float(np.sum((x - mean) ** 2 * wf)) / m0
    # integral of F over each segment: F(left) * h + int_0^h (h - v) f dv
    seg_mass = np.sum(wf, axis=1)
    f_left = np.concatenate(([0.0], np.cumsum(seg_mass)[:-1])) / m0
    int_f = f_left * h[:, 0] + np.sum((h - (x - knots[:-1, None])) * wf,
                                      axis=1) / m0
    int_fn = np.arange(1, n) / n * h[:, 0]
    dr = np.cumsum(int_f - int_fn)
    return {"mass": mass, "mean": mean, "var": var,
            "dr_violation": float(np.max(dr)) / float(knots[-1] - knots[0])}


def gaussian_loglik(raw):
    """Log-likelihood of the Gaussian MLE (mean, ddof=0 sd) of a sample."""
    raw = np.asarray(raw, dtype=float)
    var = float(np.var(raw))
    return -0.5 * raw.size * (math.log(2.0 * math.pi * var) + 1.0)


def check_fit(raw, knots, theta, log_likelihood):
    """Check one fit against the sample it was made from.

    Returns the figures the benchmark reports: the log-likelihood gain over
    the Gaussian MLE, the variance ratio, the Duembgen-Rufibach violation
    and the mean shift in sample standard deviations.
    """
    raw = np.asarray(raw, dtype=float)
    knots = np.asarray(knots, dtype=float)
    theta = np.asarray(theta, dtype=float)
    n = raw.size
    _require(knots.shape == (n,) and np.array_equal(knots, np.sort(raw)),
             "knots differ from the sorted sample")
    _require(theta.shape == (n,) and bool(np.all(np.isfinite(theta))),
             "theta is not a finite vector over the knots")

    props = fit_properties(knots, theta)
    _require(abs(props["mass"] - 1.0) <= MASS_TOL,
             f"fitted density has mass {props['mass']!r}, not 1")

    # concavity: chord slopes nonincreasing, cross-multiplied so that tiny
    # gaps cannot amplify rounding
    dt, dx = np.diff(theta), np.diff(knots)
    lhs = dt[1:] * dx[:-1]
    rhs = dt[:-1] * dx[1:]
    scale = np.max(np.abs(theta)) * (dx[:-1] + dx[1:]) + np.abs(lhs)
    worst = float(np.max((lhs - rhs) - CONCAVITY_TOL * scale, initial=-1.0))
    _require(worst <= 0.0, f"theta has a convex kink (excess {worst!r})")

    total = math.fsum(theta)
    _require(abs(log_likelihood - total) <= LOGLIK_TOL * n,
             f"reported log-likelihood {log_likelihood!r} differs from "
             f"sum(theta) = {total!r}")

    gain = total - gaussian_loglik(raw)
    _require(gain >= 0.0, f"fit is {-gain!r} nats below the Gaussian MLE")

    sample_var = float(np.var(raw))
    ratio = props["var"] / sample_var
    _require(ratio <= 1.0 + VARIANCE_TOL,
             f"fitted variance exceeds the sample variance (ratio {ratio!r})")
    return {"gain": gain, "var_ratio": ratio,
            "dr_violation": props["dr_violation"],
            "mean_shift_sd": abs(props["mean"] - float(np.mean(raw)))
            / math.sqrt(sample_var)}


def hellinger_reference(knots, theta, density_name):
    """Hellinger distance between exp(chord of theta) and a reference
    density, by 20-point Gauss-Legendre quadrature on every piece between
    the knots, the support ends and the density's kinks."""
    log_true, (lo_s, hi_s), kinks = TRUE_DENSITIES[density_name]
    lo = max(float(knots[0]), lo_s)
    hi = min(float(knots[-1]), hi_s)
    if not hi > lo:
        return math.sqrt(2.0)
    cuts = np.concatenate((knots, [lo, hi], kinks))
    cuts = np.unique(cuts[(cuts >= lo) & (cuts <= hi)])
    h = np.diff(cuts)[:, None]
    x = cuts[:-1, None] + h * _U
    log_fit = np.interp(x, knots, theta)
    overlap = float(np.sum(h * _W * np.exp(0.5 * (log_fit + log_true(x)))))
    return math.sqrt(min(max(2.0 * (1.0 - overlap), 0.0), 2.0))


def check_hellinger(value, knots, theta, density_name):
    reference = hellinger_reference(knots, theta, density_name)
    _require(abs(value - reference) <= HELLINGER_TOL,
             f"hellinger {value!r} differs from quadrature {reference!r}")


def check_hellinger_trend(distances):
    """Mean Hellinger distance must fall from the smaller sample size to the
    larger one for every density; ``distances`` maps (density, n) to a list."""
    for name in sorted({d for d, _ in distances}):
        sizes = sorted(n for d, n in distances if d == name)
        means = [float(np.mean(distances[(name, n)])) for n in sizes]
        _require(all(b < a for a, b in zip(means, means[1:])),
                 f"mean hellinger for {name} does not fall with n: "
                 f"{dict(zip(sizes, means))}")


def check_eval(knots, theta, grid, table):
    """``table`` holds the columns x, pdf, log_pdf, cdf of ``logcave eval``."""
    _require(table.shape == (grid.size, 4), "eval output has the wrong shape")
    x, pdf, log_pdf, cdf = table.T
    _require(bool(np.all(np.abs(x - grid) <= 1e-12 * np.max(np.abs(grid)))),
             "eval grid differs from the requested grid")
    with np.errstate(over="ignore"):
        _require(bool(np.allclose(pdf, np.exp(log_pdf), rtol=1e-15, atol=0)),
                 "eval pdf differs from exp(log_pdf)")
    _require(bool(np.all((cdf >= 0) & (cdf <= 1)))
             and bool(np.all(np.diff(cdf) >= 0)),
             "eval cdf is not a nondecreasing function into [0, 1]")
    err = float(np.max(np.abs(cdf - cdf_at(knots, theta, x))))
    _require(err <= CDF_TOL, f"eval cdf is off the closed form by {err!r}")


def check_draws(knots, theta, draws, count):
    _require(draws.size == count,
             f"sample wrote {draws.size} draws, {count} requested")
    _require(bool(np.all((draws >= knots[0]) & (draws <= knots[-1]))),
             "a draw lies outside the support of the fit")
    f = cdf_at(knots, theta, np.sort(draws))
    i = np.arange(1, count + 1)
    ks = float(max(np.max(i / count - f), np.max(f - (i - 1) / count)))
    _require(ks <= KS_SCALE / math.sqrt(count),
             f"draws are {ks!r} in KS distance from the fitted cdf")
    return ks
