"""Reference densities, seeded samplers and the Monte Carlo harness.

The harness draws replicated samples from known log-concave densities,
fits each sample, and summarizes the Hellinger distance between the fit
and the truth per (density, sample size) cell.  Child seeds are derived
from (master seed, density index, size, replication) through
numpy's SeedSequence spawn keys, so tables are reproducible no matter how
replications are scheduled.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import LogcaveError
from .model import validate_sample
from .solver import IcmConfig, fit

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

SQRT2 = math.sqrt(2.0)

_HALF_PI = 0.5 * math.pi


@dataclass(frozen=True)
class ReferenceDensity:
    """A known density with closed-form log-pdf, support and sampler.

    ``log_pdf`` must be vectorized and return -inf outside the support;
    ``sampler(rng, n)`` must be deterministic given the generator state.
    ``kinks`` lists the finite points inside the support where the density
    is not smooth; quadrature cuts there.
    """

    name: str
    log_pdf: object
    support: tuple
    sampler: object = None
    kinks: tuple = ()

    def __post_init__(self):
        try:
            kinks = tuple(self.kinks)
        except TypeError:
            kinks = (None,)
        if not all(isinstance(k, numbers.Real) and math.isfinite(k)
                   for k in kinks):
            raise LogcaveError(
                f"density kinks must be finite numbers, got {self.kinks!r}")
        object.__setattr__(self, "kinks", tuple(float(k) for k in kinks))

    def pdf(self, x):
        with np.errstate(over="ignore"):
            return np.exp(self.log_pdf(x))


def _normal_log_pdf(x):
    x = np.asarray(x, dtype=float)
    return -0.5 * x * x - _LOG_SQRT_2PI


def _laplace_log_pdf(x):
    x = np.asarray(x, dtype=float)
    return -np.abs(x) - math.log(2.0)


def _positive_log(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x > 0.0, np.log(np.where(x > 0.0, x, 1.0)), -np.inf)


def _gamma3_log_pdf(x):
    # shape 3, scale 1: x^2 e^{-x} / 2
    x = np.asarray(x, dtype=float)
    return np.where(x > 0.0, 2.0 * _positive_log(x) - x - math.log(2.0), -np.inf)


def _beta32_log_pdf(x):
    # shapes (3, 2): 12 x^2 (1 - x)
    x = np.asarray(x, dtype=float)
    inside = (x > 0.0) & (x < 1.0)
    return np.where(inside,
                    math.log(12.0) + 2.0 * _positive_log(x) + _positive_log(1.0 - x),
                    -np.inf)


def _weibull3_log_pdf(x):
    # shape 3, scale 1: 3 x^2 e^{-x^3}
    x = np.asarray(x, dtype=float)
    return np.where(x > 0.0, math.log(3.0) + 2.0 * _positive_log(x) - x ** 3,
                    -np.inf)


def _sample_normal(rng, n):
    return rng.standard_normal(n)


def _sample_laplace(rng, n):
    magnitude = rng.standard_exponential(n)
    sign = 2.0 * rng.integers(0, 2, n) - 1.0
    return sign * magnitude


def _sample_gamma3(rng, n):
    return rng.standard_exponential((n, 3)).sum(axis=1)


def _sample_beta32(rng, n):
    g1 = rng.standard_exponential((n, 3)).sum(axis=1)
    g2 = rng.standard_exponential((n, 2)).sum(axis=1)
    return g1 / (g1 + g2)


def _sample_weibull3(rng, n):
    return (-np.log1p(-rng.random(n))) ** (1.0 / 3.0)


NORMAL = ReferenceDensity("normal", _normal_log_pdf, (-np.inf, np.inf),
                          _sample_normal)
DOUBLE_EXPONENTIAL = ReferenceDensity("double_exponential", _laplace_log_pdf,
                                      (-np.inf, np.inf), _sample_laplace,
                                      kinks=(0.0,))
GAMMA = ReferenceDensity("gamma", _gamma3_log_pdf, (0.0, np.inf), _sample_gamma3)
BETA = ReferenceDensity("beta", _beta32_log_pdf, (0.0, 1.0), _sample_beta32)
WEIBULL = ReferenceDensity("weibull", _weibull3_log_pdf, (0.0, np.inf),
                           _sample_weibull3)

REFERENCE_DENSITIES = {
    d.name: d for d in (NORMAL, DOUBLE_EXPONENTIAL, GAMMA, BETA, WEIBULL)
}

# canonical indices used in child-seed derivation; adding densities later
# must not renumber existing ones
_DENSITY_INDEX = {name: i for i, name in enumerate(REFERENCE_DENSITIES)}


def sample_true(density, seed, n):
    """n i.i.d. draws from a reference density, deterministic per seed."""
    rng = np.random.default_rng(seed)
    if n == 0:
        return np.empty(0)
    return density.sampler(rng, n)


# The 15-point Gauss-Kronrod rule on [-1, 1] (QUADPACK's qk15): the
# Kronrod nodes and weights from the outermost node in, and the weights of
# the 7-point Gauss rule on every other node.
_KRONROD_NODES = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0])
_KRONROD_WEIGHTS = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_GAUSS_WEIGHTS = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327])

_GK_NODES = np.concatenate((-_KRONROD_NODES[:-1], _KRONROD_NODES[::-1]))
_GK_WEIGHTS = np.concatenate((_KRONROD_WEIGHTS[:-1], _KRONROD_WEIGHTS[::-1]))
# Kronrod minus Gauss weights: f @ these is the difference of the two
# rules on [-1, 1]
_GK_MINUS_G7 = _GK_WEIGHTS.copy()
_GK_MINUS_G7[1::2] -= np.concatenate((_GAUSS_WEIGHTS, _GAUSS_WEIGHTS[-2::-1]))

_EPS = np.finfo(float).eps


def _gauss_kronrod(func, lo, hi, tol, max_depth=48):
    """Batched adaptive Gauss-Kronrod (G7-K15) over the intervals [lo_i, hi_i].

    Each interval gets a share of ``tol`` proportional to its width and is
    bisected until QUADPACK's error estimate for it is below its share.
    ``func`` is called once per level, on the 15 nodes of every interval
    still open.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    keep = hi > lo
    a, b = lo[keep], hi[keep]
    if a.size == 0:
        return 0.0
    budget = tol * (b - a) / float(np.sum(b - a))

    total = 0.0
    for _ in range(max_depth):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        f = func((mid[:, None] + half[:, None] * _GK_NODES).ravel())
        f = f.reshape(a.size, 15)
        kronrod = f @ _GK_WEIGHTS
        value = half * kronrod
        # QUADPACK's estimate: the Gauss-Kronrod difference, scaled against
        # the integral of |f - mean|, and never below 50 ulps of |f|'s
        resasc = half * (np.abs(f - 0.5 * kronrod[:, None]) @ _GK_WEIGHTS)
        err = half * np.abs(f @ _GK_MINUS_G7)
        with np.errstate(divide="ignore", invalid="ignore"):
            err = np.where(resasc > 0.0, resasc * np.minimum(
                1.0, (200.0 * err / resasc) ** 1.5), err)
        err = np.maximum(err, 50.0 * _EPS * half * (np.abs(f) @ _GK_WEIGHTS))
        done = (err <= budget) | ((b - a) <= 1e-14 * np.abs(a + b))
        total += float(np.sum(value[done]))
        live = ~done
        if not live.any():
            return total
        a, mid, b = a[live], mid[live], b[live]
        a = np.concatenate((a, mid))
        b = np.concatenate((mid, b))
        budget = np.concatenate((budget[live], budget[live])) / 2.0
    return total + float(np.sum(value[live]))


def hellinger(fit_obj, density, tol=1e-9):
    """Hellinger distance between a fitted density and a reference density.

    h^2 = 2 (1 - integral of sqrt(g_hat * f)); the integrand vanishes
    outside the intersection of the supports.  The integral is cut at the
    ends of that intersection, at the knots where the fit's slope changes,
    and at the density's declared ``kinks``; between cuts the integrand is
    smooth, and each piece is integrated by adaptive Gauss-Kronrod.
    """
    lo = max(float(fit_obj.sample.knots[0]), float(density.support[0]))
    hi = min(float(fit_obj.sample.knots[-1]), float(density.support[1]))
    if not hi > lo:
        return SQRT2

    # a fit built from theta alone has slopes that differ by rounding at
    # almost every knot, and is then cut at almost every knot.  Clipping
    # keeps the cuts sorted; cuts that coincide make empty pieces, which
    # the quadrature skips
    knots, slopes = fit_obj.sample.knots, fit_obj.slopes
    bends = knots[1:-1][slopes[:-1] != slopes[1:]]
    inner = np.clip(np.sort(np.concatenate((bends, density.kinks))), lo, hi)
    cuts = np.concatenate(([lo], inner, [hi]))

    def integrand(x):
        with np.errstate(over="ignore"):
            return np.exp(0.5 * (fit_obj.log_pdf(x) + density.log_pdf(x)))

    overlap = _gauss_kronrod(integrand, cuts[:-1], cuts[1:], tol)
    return math.sqrt(min(max(2.0 * (1.0 - overlap), 0.0), 2.0))


def _integrate(func, lo, hi, tol=1e-12):
    """Integral of the vectorized ``func`` over [lo, hi], either end of
    which may be infinite, by ``_gauss_kronrod``.

    Infinite ends are mapped onto a finite interval: x = tan(u) when both
    are infinite, x = lo + tan(u) or x = hi - tan(u) when one is, with u
    from 0 (or -pi/2) to pi/2.  Integrand values that are not finite, as
    at u = +-pi/2, count as 0.
    """
    if not (math.isinf(lo) or math.isinf(hi)):
        return _gauss_kronrod(func, [lo], [hi], tol)
    if math.isinf(lo) and math.isinf(hi):
        to_x, u_lo = np.tan, -_HALF_PI
    elif math.isinf(hi):
        to_x, u_lo = (lambda u: lo + np.tan(u)), 0.0
    else:
        to_x, u_lo = (lambda u: hi - np.tan(u)), 0.0

    def mapped(u):
        cos = np.cos(u)
        with np.errstate(over="ignore", invalid="ignore"):
            value = func(to_x(u)) / (cos * cos)
        return np.where(np.isfinite(value), value, 0.0)

    return _gauss_kronrod(mapped, [u_lo], [_HALF_PI], tol)


def hellinger_pdfs(f, g):
    """Hellinger distance between two reference densities, by quadrature."""
    lo = max(float(f.support[0]), float(g.support[0]))
    hi = min(float(f.support[1]), float(g.support[1]))
    if not hi > lo:
        return SQRT2

    def integrand(x):
        return np.exp(0.5 * (f.log_pdf(x) + g.log_pdf(x)))

    overlap = _integrate(integrand, lo, hi)
    return math.sqrt(min(max(2.0 * (1.0 - overlap), 0.0), 2.0))


def pdf_mass(density):
    """Quadrature check that a reference pdf integrates to one."""
    return _integrate(density.pdf, float(density.support[0]),
                      float(density.support[1]))


@dataclass
class SimulationSpec:
    """One Monte Carlo experiment: densities x sizes x replications."""

    densities: list
    sizes: list
    replications: int
    master_seed: int = 0
    config: IcmConfig = field(default_factory=IcmConfig)

    def __post_init__(self):
        if self.replications < 1:
            raise LogcaveError("replications must be >= 1")
        if any(n < 2 for n in self.sizes):
            raise LogcaveError("sample sizes must be >= 2")


@dataclass
class SimulationRow:
    density: str
    n: int
    replications: int
    mean_hellinger: float
    sd_hellinger: float
    failures: int


@dataclass
class SimulationTable:
    rows: list


def _child_rng(master_seed, density_name, n, replication):
    key = (_DENSITY_INDEX[density_name], n, replication)
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(master_seed, spawn_key=key)))


def run_monte_carlo(spec):
    """Run the replicated experiment and aggregate Hellinger distances.

    Non-converged fits are counted as failures but their (well-defined)
    Hellinger distances still enter the aggregates.  Aggregation uses
    compensated summation, so results do not depend on scheduling.
    """
    for density in spec.densities:
        total = pdf_mass(density)
        if abs(total - 1.0) > 1e-8:
            raise LogcaveError(
                f"reference pdf {density.name!r} integrates to {total}, not 1")

    rows = []
    for density in spec.densities:
        for n in sorted(spec.sizes):
            distances = []
            failures = 0
            for m in range(spec.replications):
                rng = _child_rng(spec.master_seed, density.name, n, m)
                draws = density.sampler(rng, n)
                sample = validate_sample(draws, jitter_ties=True)
                fit_obj, report = fit(sample, spec.config)
                if not report.converged:
                    failures += 1
                distances.append(hellinger(fit_obj, density))
            mean = math.fsum(distances) / spec.replications
            if spec.replications > 1:
                var = math.fsum((h - mean) ** 2 for h in distances)
                sd = math.sqrt(var / (spec.replications - 1))
            else:
                sd = 0.0
            rows.append(SimulationRow(density.name, int(n), spec.replications,
                                      mean, sd, failures))
    return SimulationTable(rows)
