"""Generalized Pareto modelling of high-threshold exceedances.

Excesses Y = V - u of a variable V over a threshold u are modelled by the
two-parameter GPD with scale sigma > 0 and shape xi:

    H(y) = 1 - (1 + xi * y / sigma) ** (-1 / xi)

on y >= 0 with 1 + xi * y / sigma > 0; xi = 0 is the exponential limit
1 - exp(-y / sigma). Parameters are estimated by maximum likelihood: the
likelihood is maximised in closed form for fixed theta = xi / sigma
(Grimshaw 1993), and one bracketed search over theta, confined to xi >= -1,
finishes the fit: Newton steps on the profile's analytic derivatives from the
method-of-moments estimate, and bisection where a step cannot be trusted, so
that the same search finds the xi = -1 edge. It is written in plain floats,
with its sums in one fixed order (``np.einsum``) at any OpenBLAS thread count.
Standard errors come from the analytic observed information, computed from
the fitted excesses the first time a fit's SEs are read.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import NumericalError

# |xi| below this uses the exponential-limit formulas; avoids catastrophic
# cancellation in (1 + xi*y/sigma)**(-1/xi).
XI_ZERO_GUARD = 1e-6

# Fits on fewer exceedances than this are refused.
MIN_FIT_SIZE = 30

# Profile search over s = log1p(theta * max(y)), theta = xi / sigma.
_S_FLOOR = -40.0  # past s = -37.4, below which expm1(s) rounds to -1
_S_CEIL = 700.0  # expm1 overflows past 709
_S_TINY = 1e-200  # |s| below this is the exponential limit theta -> 0
_S_XTOL = 1e-12
_S_RTOL = 4.0 * np.finfo(float).eps
# Newton steps on the profile in t = expm1(s) = theta * max(y).
_T_START_FLOOR = -0.9  # the moment start is clamped to at least this
_T_NEAR_ZERO = 1e-3  # the profile score cancels near the exponential limit t = 0
_NEWTON_RTOL = 1e-9


@dataclass(frozen=True)
class GpdParams:
    """Scale (MW) and shape of a generalized Pareto excess distribution."""

    sigma: float
    xi: float

    def __post_init__(self):
        if not (self.sigma > 0.0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class GpdFit:
    """A GPD fit to the exceedances of u within a sample of ``n_total`` values.

    ``fit_gpd`` fits excesses on their own: u = 0 and ``n_total`` is the
    number of excesses. ``iterations`` counts its profile evaluations, the one
    at the estimate among them. ``se_sigma`` and ``se_xi`` are computed from
    the fitted excesses and weights the first time they are read, so a fit
    whose SEs nobody reads (a bootstrap replication) never computes them; the
    warnings of ``_standard_errors`` fire at that read. A fit without excesses
    (the xi = -1 edge, or one assembled by hand) has NaN standard errors. The
    arrays take no part in ``==`` or ``repr``.
    """

    threshold_u: float
    params: GpdParams
    n_exceedances: int
    n_total: int
    log_likelihood: float
    iterations: int
    excesses: np.ndarray | None = field(default=None, compare=False, repr=False)
    weights: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def exceedance_prob(self) -> float:
        return self.n_exceedances / self.n_total

    @property
    def sigma_star(self) -> float:
        """Threshold-invariant modified scale sigma - u * xi."""
        return self.params.sigma - self.threshold_u * self.params.xi

    @cached_property
    def _se(self) -> tuple[float, float]:
        if self.excesses is None:
            return np.nan, np.nan
        return _standard_errors(self.excesses, self.params.sigma, self.params.xi, self.weights)

    @property
    def se_sigma(self) -> float:
        return self._se[0]

    @property
    def se_xi(self) -> float:
        return self._se[1]


def gpd_survivor(params: GpdParams, y):
    """1 - H(y) = P(Y > y) for excess y >= 0, computed directly so that tail
    masses far below 1e-16 keep their relative precision. Accepts scalars or
    arrays."""
    y_arr = np.asarray(y, dtype=float)
    if np.any(y_arr < 0.0):
        raise ValueError("excess values must be non-negative")
    if abs(params.xi) < XI_ZERO_GUARD:
        out = np.exp(-y_arr / params.sigma)
    else:
        z = params.xi * y_arr / params.sigma
        # beyond the finite endpoint (xi < 0) nothing survives
        inside = z > -1.0
        out = np.where(inside, np.exp(np.log1p(np.where(inside, z, 0.0)) / -params.xi), 0.0)
    return float(out) if np.isscalar(y) or y_arr.ndim == 0 else out


def gpd_quantile(params: GpdParams, p):
    """Inverse of the excess cdf H. p in [0, 1); p = 1 allowed only for xi < 0."""
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr < 0.0) or np.any(p_arr > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    if params.xi >= 0.0 and np.any(p_arr >= 1.0):
        raise ValueError("quantile at p = 1 is infinite for xi >= 0")
    if abs(params.xi) < XI_ZERO_GUARD:
        out = -params.sigma * np.log1p(-p_arr)
    else:
        out = params.sigma / params.xi * (np.power(1.0 - p_arr, -params.xi) - 1.0)
    return float(out) if np.isscalar(p) or p_arr.ndim == 0 else out


def fit_gpd(excesses, weights=None) -> GpdFit:
    """Fit GPD parameters to a sample of positive excesses by maximum likelihood.

    For fixed theta = xi / sigma the likelihood is maximised in closed form by
    xi(theta) = mean(log1p(theta * y)), sigma = xi / theta (Grimshaw 1993,
    Technometrics 35(2)). One search (``_profile_minimum``) minimises the
    negative profile likelihood over s = log1p(theta * max(y)) with xi >= -1,
    below which the likelihood is unbounded; where no point beats that edge,
    the fit is its uniform limit xi = -1, sigma = max(y). ``iterations``
    counts profile evaluations, the one at the estimate among them. Standard
    errors come from the inverse analytic observed information at the optimum
    (NaN at the edge); they assume i.i.d. excesses and are approximations.
    The fit keeps a copy of its excesses and weights, and computes
    ``se_sigma`` and ``se_xi`` the first time either is read.

    ``weights`` are positive integer counts, one per excess: the fit is that of
    the sample with excess i repeated weights[i] times, so every mean and sum
    is weighted and the sample size is k = sum(weights). All-ones weights are
    the unweighted fit, bit for bit. A NaN, infinite or non-positive excess
    raises ValueError whatever k is; k below MIN_FIT_SIZE raises NumericalError.
    """
    y = np.array(excesses, dtype=float)  # copies: the fit reads them again for its SEs
    w = np.ones(y.size) if weights is None else np.array(weights, dtype=float)
    k = float(w.sum())  # plain floats: no numpy scalar overhead or overflow warnings
    if w.shape != y.shape or not ((w >= 1.0).all() and (np.floor(w) == w).all() and k < math.inf):
        raise ValueError("weights must be positive integer counts, one per excess")
    if y.size and not 0.0 < y.min() <= y.max() < math.inf:  # NaN fails this too
        raise ValueError("excesses must be finite and strictly positive")
    if k < MIN_FIT_SIZE:
        raise NumericalError(f"need at least {MIN_FIT_SIZE} exceedances to fit, got {int(k)}")
    y_min, y_max = y.min(), y.max()
    if y_min == y_max:
        raise NumericalError("degenerate sample: all excesses identical")

    below = y < y_max
    rest, w_rest = y[below] / y_max, w[below]
    n_top = k - float(w_rest.sum())
    # The search interval. Below _S_FLOOR theta is -1/max(y) to machine
    # precision and the profile falls as s grows, so the optimum is not there.
    # Past log(max(y)/min(y)) + 10 the profile rises with s.
    # plain floats: a ratio past the float range is inf, without numpy's overflow warning
    s_hi = min(float(np.log(float(y_max) / float(y_min))) + 10.0, _S_CEIL)
    s_hat, evaluations = _profile_minimum(rest, w_rest, n_top, k, _S_FLOOR, s_hi)
    if abs(s_hat) < _S_TINY:
        xi_hat, sigma_hat = 0.0, float((w * y).sum() / k)  # the exponential limit theta -> 0
    else:
        t_hat = math.expm1(s_hat)
        xi_hat = _profile(rest, w_rest, n_top, k, s_hat, t_hat)[0]
        sigma_hat = xi_hat * y_max / t_hat
    # past the edge the best shape is -1, at sigma = -1/theta
    f_hat = k * (np.log(-sigma_hat / xi_hat) if xi_hat < -1.0 else np.log(sigma_hat) + xi_hat + 1.0)
    if f_hat >= k * np.log(y_max):
        sigma_hat, xi_hat, log_lik = float(y_max), -1.0, -k * float(np.log(y_max))
        y = w = None  # the information is infinite at the edge: no SEs
    else:
        xi_hat, sigma_hat, log_lik = float(xi_hat), float(sigma_hat), -float(f_hat)
        if not sigma_hat > 0.0:  # xi(s) rounded to 0 away from s = 0
            raise NumericalError(f"GPD fit gave scale {sigma_hat!r} at s = {s_hat!r}")
        if abs(xi_hat) < XI_ZERO_GUARD:
            xi_hat = 0.0
    return GpdFit(
        threshold_u=0.0,
        params=GpdParams(sigma_hat, xi_hat),
        n_exceedances=int(k),
        n_total=int(k),
        log_likelihood=log_lik,
        iterations=evaluations + 1,
        excesses=y,
        weights=w,
    )


def _profile(rest, w_rest, n_top, k, s, t):
    """xi(t) = sum(w log1p(t r)) / k at t = expm1(s), and its first two t-derivatives.

    r = y / max(y) runs over the excesses below the largest (``rest``, with
    counts ``w_rest``) and the ``n_top`` excesses equal to it, for which
    log1p(t r) is s and r / (1 + t r) is exp(-s). So t = -1, where expm1
    rounds below s = -37.4, is harmless: every other 1 + t r is positive.
    The sums over ``rest`` are one ``np.einsum``, in one fixed order.
    """
    a = t * rest
    terms = np.empty((3, rest.size))
    np.log1p(a, out=terms[0])
    np.divide(rest, 1.0 + a, out=terms[1])
    np.multiply(terms[1], terms[1], out=terms[2])
    log_sum, d1_sum, d2_sum = np.einsum("ji,i->j", terms, w_rest).tolist()
    e = math.exp(-s)
    return (n_top * s + log_sum) / k, (n_top * e + d1_sum) / k, -(n_top * e * e + d2_sum) / k


def _profile_minimum(rest, w_rest, n_top, k, lo, hi):
    """The minimum of the profile over s in [lo, hi], by safeguarded Newton steps.

    With xi and its t-derivatives from ``_profile``, the profile negative
    log-likelihood is k (log(xi / t) + xi + 1) plus a constant, in
    t = expm1(s). The search keeps a bracket in s, and every evaluation moves
    one end of it to the point (rtsafe: Press et al., Numerical Recipes, 3rd
    ed., 9.4): the lower end where the slope is not positive or xi <= -1
    (xi increases with s, so the edge and the optimum lie above), else the
    upper end. The first point is the weighted method-of-moments estimate,
    clamped to at least _T_START_FLOOR. Each next one is a Newton step, halved
    until it lands inside the bracket, or, where the step cannot be trusted
    (non-positive curvature, xi <= -1, |t| below _T_NEAR_ZERO, a step that is
    not finite or is longer than the last move), the bracket's midpoint in s.
    The search stops at a full step of less than _NEWTON_RTOL relative to
    min(|t|, 1 + t), which no step to t = -1 is, or once the bracket is at
    most _S_XTOL + _S_RTOL |s| wide, s its midpoint. Returns (s, evaluations).
    """
    mean = (n_top + float(np.einsum("i,i", w_rest, rest))) / k
    d = rest - mean
    variance = (n_top * (1.0 - mean) ** 2 + float(np.einsum("i,i", w_rest, d * d))) / k
    ratio = mean * mean / variance  # 1 - 2 xi for the GPD
    t_lo, t_hi = math.expm1(lo), math.expm1(hi)
    t = max((1.0 - ratio) / (mean * (1.0 + ratio)), _T_START_FLOOR)
    s = math.log1p(t)
    if not t_lo < t < t_hi:  # a point on the bracket's end would close it
        s, t = _bisection_point(lo, hi)
    last = math.inf
    evaluations = 0
    while True:
        evaluations += 1
        xi, d1, d2 = _profile(rest, w_rest, n_top, k, s, t)
        if t == 0.0:  # the exponential limit of the slope
            slope, curvature = d1 + 0.5 * d2 / d1, 0.0
        else:
            c, g = 1.0 + 1.0 / xi, d1 / xi
            slope = d1 * c - 1.0 / t
            curvature = d2 * c - g * g + 1.0 / (t * t)
        if slope > 0.0 and xi > -1.0:
            hi, t_hi = s, t
        else:
            lo, t_lo = s, t
        mid = 0.5 * (lo + hi)
        if hi - lo <= _S_XTOL + _S_RTOL * abs(mid):
            return mid, evaluations
        dt = -slope / curvature if curvature > 0.0 else math.inf
        t_new = t + dt
        newton = xi > -1.0 and abs(t) >= _T_NEAR_ZERO and abs(dt) < last
        if newton:
            if abs(dt) < _NEWTON_RTOL * min(abs(t_new), 1.0 + t_new) and t_lo <= t_new <= t_hi:
                return math.log1p(t_new), evaluations  # a full step: a halved one proves nothing
            while t_new != t and not t_lo < t_new < t_hi:  # halve back into the bracket
                dt *= 0.5
                t_new = t + dt
        if newton and t_new != t:
            s = math.log1p(t_new)
        else:
            s, t_new = _bisection_point(lo, hi)
        last = abs(t_new - t)
        t = t_new


def _bisection_point(lo, hi):
    """The bracket's midpoint s and its t = expm1(s)."""
    s = 0.5 * (lo + hi)
    return s, math.expm1(s)


# Taylor coefficients, highest power first, of
# (-2 log1p(t) + 2t/(1+t) + t^2/(1+t)^2) / t^3 = sum_m (-1)^(m+1) (m+1)(m+2)/(m+3) t^m
_CUBIC_SERIES = np.array([(-1) ** (m + 1) * (m + 1) * (m + 2) / (m + 3) for m in range(12)])[::-1]
_SERIES_RADIUS = 0.05  # |t| below this uses the series: truncation < 1e-14


def _cubic_remainder(t: np.ndarray) -> np.ndarray:
    """(-2 log1p(t) + 2t/(1+t) + t^2/(1+t)^2) / t^3, finite through t = 0."""
    near = np.abs(t) < _SERIES_RADIUS
    out = np.empty_like(t)
    out[near] = np.polyval(_CUBIC_SERIES, t[near])
    tf = t[~near]
    u = tf / (1.0 + tf)
    out[~near] = (-2.0 * np.log1p(tf) + 2.0 * u + u * u) / (tf * tf * tf)
    return out


def _standard_errors(y: np.ndarray, sigma: float, xi: float, n=None) -> tuple[float, float]:
    """Inverse analytic observed information of the GPD at (sigma, xi).

    With z = y/sigma, t = xi z and w = 1 + t, the second derivatives of the
    log-likelihood of excesses y with counts n are
      l_ss = (k - (1 + xi) sum(n (z/w + z/w^2))) / sigma^2,
      l_sx = (sum(n z/w) - (1 + xi) sum(n z^2/w^2)) / sigma,
      l_xx = sum(n z^3 c(t)) + sum(n z^2/w^2),
    with k = sum(n) and c from ``_cubic_remainder``; at xi = 0 l_xx is
    sum(n z^2) - 2/3 sum(n z^3). Counts default to 1.
    """
    n = np.ones(y.size) if n is None else n
    with np.errstate(all="ignore"):  # past the float range z**3 overflows; det is then not finite
        z = y / sigma
        t = xi * z
        zw = z / (1.0 + t)
        zw2 = zw * zw
        l_ss = (n.sum() - (1.0 + xi) * ((n * zw).sum() + (n * zw / (1.0 + t)).sum())) / sigma**2
        l_sx = ((n * zw).sum() - (1.0 + xi) * (n * zw2).sum()) / sigma
        l_xx = (n * z**3 * _cubic_remainder(t)).sum() + (n * zw2).sum()
        # observed information [[a, b], [b, d]] = minus the Hessian
        a, b, d = -l_ss, -l_sx, -l_xx
        det = a * d - b * b
    if det == 0.0 or not np.isfinite(det):
        warnings.warn("observed information is singular; standard errors unavailable")
        return np.nan, np.nan
    if not (a > 0.0 and det > 0.0):
        warnings.warn("observed information is not positive definite at the optimum")
        return np.nan, np.nan
    return float(np.sqrt(d / det)), float(np.sqrt(a / det))


def select_threshold(values, quantile_level: float) -> float:
    """Empirical quantile (linear interpolation) used as the GPD threshold."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("empty sample")
    if not 0.0 < quantile_level < 1.0:
        raise ValueError("quantile level must lie strictly between 0 and 1")
    return float(np.quantile(v, quantile_level))


def fit_threshold_excesses(values, threshold_u: float) -> GpdFit:
    """Fit the GPD to strict exceedances of ``threshold_u`` within ``values``.

    The excesses are fitted in ascending order, as ``risk.SeasonSample`` fits
    them, so one season's fit does not depend on the command that makes it:
    the order of the fit's float sums moves its optimum.
    """
    return _fit_sorted(np.sort(np.asarray(values, dtype=float)), float(threshold_u))


def _excesses(v: np.ndarray, u: float) -> np.ndarray:
    """v's values strictly above u, less u, v ascending; a NaN sorts last, so it is among them."""
    return v[np.searchsorted(v, u, side="right"):] - u


def _fit_sorted(v: np.ndarray, u: float) -> GpdFit:
    """Fit v's excesses over u, v ascending; a NaN among them raises ValueError."""
    return replace(fit_gpd(_excesses(v, u)), threshold_u=u, n_total=v.size)


def threshold_scan(values, thresholds) -> tuple[GpdFit, ...]:
    """``fit_threshold_excesses`` at each of the increasing thresholds, in order, on values
    sorted once; a threshold whose fit raises NumericalError is left out."""
    thr = np.asarray(thresholds, dtype=float)
    if thr.size == 0:
        raise ValueError("empty threshold list")
    if np.any(np.diff(thr) <= 0.0):
        raise ValueError("thresholds must be strictly increasing")
    v = np.sort(np.asarray(values, dtype=float))
    fits = []
    for u in thr.tolist():
        try:
            fits.append(_fit_sorted(v, u))
        except NumericalError:
            pass
    return tuple(fits)


def qq_points(fit: GpdFit, excesses) -> np.ndarray:
    """Model-vs-empirical quantile pairs for the fitted exceedance distribution.

    Order statistic i of the excesses is paired with the model quantile at
    plotting position i/(k+1); both coordinates are returned on the original
    scale (threshold + excess), as an array of shape (k, 2).
    """
    y = np.sort(np.asarray(excesses, dtype=float))
    if y.size == 0:
        raise ValueError("empty excess sample")
    k = y.size
    positions = np.arange(1, k + 1) / (k + 1.0)
    model = gpd_quantile(fit.params, positions)
    return np.column_stack([fit.threshold_u + model, fit.threshold_u + y])
