"""Stable evaluation of rho(t) = (e^t - 1)/t and its first two derivatives.

These three functions are the exact integrals of exp(linear) over a unit
interval, weighted by 1, s and s^2:

    rho(t)   = (e^t - 1)/t                 = integral of e^{ts} ds
    rho'(t)  = ((t-1)e^t + 1)/t^2          = integral of s e^{ts} ds
    rho''(t) = ((t^2-2t+2)e^t - 2)/t^3     = integral of s^2 e^{ts} ds

The closed forms cancel catastrophically near t = 0, so evaluation is
split into three regimes:

* |t| <  SERIES_THRESHOLD : cubic Taylor polynomials (exact to ~1e-18
  relative),
* |t| <  0.25             : the full Taylor series truncated once terms
  drop below double rounding (rho alone uses expm1(t)/t, which is
  well-conditioned there),
* |t| >= 0.25             : closed forms via expm1, where the worst
  cancellation is ~0.25-deep and costs under two digits.
"""

import math

import numpy as np

SERIES_THRESHOLD = 1e-4

_SERIES_CUT = 0.25

# Taylor coefficients: rho = sum t^k/(k+1)!, rho' = sum (k+1) t^k/(k+2)!,
# rho'' = sum (k+2)(k+1) t^k/(k+3)!.  14 terms keep the |t| < 0.25 tail
# below 1e-17 relative.
_NTERMS = 14


def _coefficients():
    fact = [1.0]
    for k in range(1, _NTERMS + 4):
        fact.append(fact[-1] * k)
    c0 = np.array([1.0 / fact[k + 1] for k in range(_NTERMS)])
    c1 = np.array([(k + 1) / fact[k + 2] for k in range(_NTERMS)])
    c2 = np.array([(k + 2) * (k + 1) / fact[k + 3] for k in range(_NTERMS)])
    return c0, c1, c2


_C0, _C1, _C2 = _coefficients()

# the same coefficients as (3, 1) columns (c0_k, c1_k, c2_k) from the
# highest k down, for ``_horner3``
_COLUMNS = np.stack((_C0, _C1, _C2))[:, ::-1].T[:, :, None]
_CUBIC_COLUMNS = _COLUMNS[-4:]

# Positive arguments above this would overflow e^t inside the weighted
# forms; the segment helpers switch to expressions in e^{theta_right}.
_BIG_T = 690.0


def _horner(coeff, t):
    out = np.full_like(t, coeff[-1])
    for c in coeff[-2::-1]:
        out = out * t + c
    return out


def _horner3(columns, t):
    """Up to three series on one Horner pass over t: ``columns`` holds
    (orders, 1) coefficient columns from the highest power down, and the
    result is (orders, t.size).  Every element gets the same multiply,
    then add, as in ``_horner``."""
    out = np.empty((columns.shape[1], t.size), dtype=t.dtype)
    out[:] = columns[0]
    for c in columns[1:]:
        out *= t
        out += c
    return out


def _rho_triple(t, orders=3):
    """(rho, rho', rho'') elementwise on a 1-D float array, as the rows of
    one (3, t.size) array; with orders=2, only the first two rows.

    The full series runs over the whole array, which costs less than
    selecting its regime first; the cubic and the closed-form regimes then
    overwrite their entries, where the series may have overflowed.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        r = _horner3(_COLUMNS[:, :orders], t)
    a = np.abs(t)
    tiny = a < SERIES_THRESHOLD
    if tiny.any():
        r[:, tiny] = _horner3(_CUBIC_COLUMNS[:, :orders], t[tiny])
    big = a >= _SERIES_CUT
    if big.any():
        x = t[big]
        with np.errstate(over="ignore"):
            em = np.expm1(x)
            xx = x * x
            r[0, big] = em / x
            r[1, big] = (em * (x - 1.0) + x) / xx
            if orders > 2:
                r[2, big] = ((em * (xx - 2.0 * x + 2.0) + x * (x - 2.0))
                             / (xx * x))
    return r


def _steep(t, el, er):
    """e^{theta_left} * (rho, rho', rho'')(t) for t >= _BIG_T, given
    el = e^{theta_left} and er = e^{theta_right}; arrays or Python floats.

    Written in e^{theta_right}, so that a steep segment rising from a
    deeply negative left end, where el underflows and e^t overflows, does
    not hit 0*inf.
    """
    tt = t * t
    return ((er - el) / t,
            ((t - 1.0) * er + el) / tt,
            ((tt - 2.0 * t + 2.0) * er - 2.0 * el) / (tt * t))


# the Taylor coefficients as rows (c0_k, c1_k, c2_k) from the highest k
# down, for one Horner pass over all three orders on Python floats
_ROWS = tuple(zip(_C0[::-1].tolist(), _C1[::-1].tolist(), _C2[::-1].tolist()))
_CUBIC_ROWS = _ROWS[-4:]


def segment_triple(left, right, dx):
    """(m0, m1, m2) of one segment on Python floats: ``segment_triples``
    for a single segment, with the same regimes and large-t rewrite.

    It makes no numpy call: the Newton over the kink values solves
    systems of a few segments, where numpy's per-call overhead would
    dominate.  Where numpy's exp would overflow to inf, math.exp raises
    OverflowError instead.
    """
    t = right - left
    if t >= _BIG_T:
        return tuple(m * dx for m in _steep(t, math.exp(left),
                                             math.exp(right)))
    a = abs(t)
    if a < _SERIES_CUT:
        rows = _CUBIC_ROWS if a < SERIES_THRESHOLD else _ROWS
        r0, r1, r2 = rows[0]
        for c0, c1, c2 in rows[1:]:
            r0 = r0 * t + c0
            r1 = r1 * t + c1
            r2 = r2 * t + c2
    else:
        em = math.expm1(t)
        tt = t * t
        r0 = em / t
        r1 = (em * (t - 1.0) + t) / tt
        r2 = (em * (tt - 2.0 * t + 2.0) + t * (t - 2.0)) / (tt * t)
    w = math.exp(left) * dx
    return r0 * w, r1 * w, r2 * w


def _rho0(t):
    """rho alone; expm1/t is well-conditioned outside the series branch.

    The closed form runs over the whole array (t = 0 gives nan there), and
    only the series entries are then overwritten.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = np.expm1(t) / t
    tiny = np.abs(t) < SERIES_THRESHOLD
    if tiny.any():
        out[tiny] = _horner(_C0[:4], t[tiny])
    return out


def _as_float_array(t):
    t = np.asarray(t)
    if not np.issubdtype(t.dtype, np.floating):
        t = t.astype(float)
    return t


def rho_family(t):
    """Evaluate (rho, rho', rho'') elementwise.

    Parameters
    ----------
    t : float or array-like
        Finite argument(s).

    Returns
    -------
    (rho, rho_prime, rho_double) : floats or ndarrays matching ``t``.
    """
    t_arr = _as_float_array(t)
    scalar = t_arr.ndim == 0
    r0, r1, r2 = _rho_triple(np.atleast_1d(t_arr))
    if scalar:
        return float(r0[0]), float(r1[0]), float(r2[0])
    return r0, r1, r2


def segment_masses(theta, dx):
    """Per-segment masses e^{theta_left} * rho(t) * dx for the piecewise
    exp-linear function with knot values theta (t = successive theta
    differences).  This is the exact integral of the exponential of the
    chord over each segment.
    """
    t = np.diff(theta)
    r0 = _rho0(t)
    big = t >= _BIG_T
    if not big.any():
        return np.exp(theta[:-1]) * r0 * dx
    with np.errstate(invalid="ignore", over="ignore"):
        masses = np.exp(theta[:-1]) * r0 * dx
    masses[big] = _steep(t[big], np.exp(theta[:-1][big]),
                         np.exp(theta[1:][big]))[0] * dx[big]
    return masses


def segment_triples(theta, dx):
    """(m0, m1, m2) with m_k = e^{theta_left} * rho^(k)(t) * dx, sharing one
    exponential and one branch classification across the three orders."""
    return _segment_moments(theta, dx, 3)


def _segment_moments(theta, dx, orders):
    """The first ``orders`` of ``segment_triples``'s (m0, m1, m2), as the
    rows of one array."""
    t = np.diff(theta)
    w = np.exp(theta[:-1]) * dx
    big = t >= _BIG_T
    if not big.any():
        return _rho_triple(t, orders) * w
    with np.errstate(invalid="ignore", over="ignore"):
        parts = _rho_triple(t, orders) * w
    steep = _steep(t[big], np.exp(theta[:-1][big]), np.exp(theta[1:][big]))
    parts[:, big] = np.stack(steep[:orders]) * dx[big]
    return parts


def weighted_rho_parts(t, theta_left, theta_right):
    """Elementwise e^{theta_left} * rho(t), assuming
    t = theta_right - theta_left (used by partial-segment integrals)."""
    t = _as_float_array(t)
    theta_left = np.asarray(theta_left)
    big = t >= _BIG_T
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(theta_left) * _rho0(t)
    if big.any():
        out[big] = _steep(t[big], np.exp(theta_left[big]),
                          np.exp(np.asarray(theta_right)[big]))[0]
    return out
