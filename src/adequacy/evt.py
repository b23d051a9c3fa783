"""Generalized Pareto modelling of high-threshold exceedances.

Excesses Y = V - u of a variable V over a threshold u are modelled by the
two-parameter GPD with scale sigma > 0 and shape xi:

    H(y) = 1 - (1 + xi * y / sigma) ** (-1 / xi)

on y >= 0 with 1 + xi * y / sigma > 0; xi = 0 is the exponential limit
1 - exp(-y / sigma). Parameters are estimated by maximum likelihood: the
likelihood is maximised in closed form for fixed theta = xi / sigma
(Grimshaw 1993), and a bounded one-dimensional search over theta finishes the
fit, confined to xi >= -1. Standard errors come from the analytic observed
information.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .errors import NumericalError

# |xi| below this uses the exponential-limit formulas; avoids catastrophic
# cancellation in (1 + xi*y/sigma)**(-1/xi).
XI_ZERO_GUARD = 1e-6

# Fits on fewer exceedances than this are refused.
MIN_FIT_SIZE = 30

# Profile search over s = log1p(theta * max(y)), theta = xi / sigma.
_S_FLOOR = -40.0  # expm1(s) rounds to -1 below this
_S_CEIL = 700.0  # expm1 overflows past 709
_S_TINY = 1e-200  # |s| below this is the exponential limit theta -> 0
_S_XTOL = 1e-12
_MAX_EVALUATIONS = 500


@dataclass(frozen=True)
class GpdParams:
    """Scale (MW) and shape of a generalized Pareto excess distribution."""

    sigma: float
    xi: float

    def __post_init__(self):
        if not (self.sigma > 0.0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    @property
    def upper_endpoint(self) -> float:
        """Supremum of the excess support: -sigma/xi for xi < 0, else +inf."""
        return -self.sigma / self.xi if self.xi < 0.0 else np.inf


@dataclass(frozen=True)
class GpdMle:
    """Maximum-likelihood fit of a GPD to a sample of excesses."""

    params: GpdParams
    se_sigma: float
    se_xi: float
    log_likelihood: float
    n_excesses: int
    iterations: int


@dataclass(frozen=True)
class GpdFit:
    """A GPD fit in threshold context: exceedances of u within a larger sample."""

    threshold_u: float
    params: GpdParams
    n_exceedances: int
    n_total: int
    se_sigma: float
    se_xi: float
    log_likelihood: float

    @property
    def exceedance_prob(self) -> float:
        return self.n_exceedances / self.n_total

    @property
    def sigma_star(self) -> float:
        """Threshold-invariant modified scale sigma - u * xi."""
        return self.params.sigma - self.threshold_u * self.params.xi


@dataclass(frozen=True)
class ScanEntry:
    threshold_u: float
    fit: GpdFit | None
    error: str | None = None


@dataclass(frozen=True)
class ThresholdScan:
    entries: tuple[ScanEntry, ...]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


def gpd_cdf(params: GpdParams, y):
    """H(y) = P(Y <= y) for excess y >= 0. Accepts scalars or arrays."""
    y_arr = np.asarray(y, dtype=float)
    if np.any(y_arr < 0.0):
        raise ValueError("excess values must be non-negative")
    if abs(params.xi) < XI_ZERO_GUARD:
        out = -np.expm1(-y_arr / params.sigma)
    else:
        t = 1.0 + params.xi * y_arr / params.sigma
        # beyond the finite endpoint (xi < 0) the cdf saturates at 1
        out = np.where(t > 0.0, 1.0 - np.power(np.clip(t, 1e-300, None), -1.0 / params.xi), 1.0)
    return float(out) if np.isscalar(y) or y_arr.ndim == 0 else out


def gpd_quantile(params: GpdParams, p):
    """Inverse of gpd_cdf. p in [0, 1); p = 1 allowed only for xi < 0."""
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


def gpd_loglik(params: GpdParams, excesses) -> float:
    """GPD log-likelihood; -inf when the support constraint is violated."""
    y = np.asarray(excesses, dtype=float)
    if y.size == 0:
        raise ValueError("empty excess sample")
    if np.any(y <= 0.0):
        raise ValueError("excesses must be strictly positive")
    sigma, xi = params.sigma, params.xi
    if abs(xi) < XI_ZERO_GUARD:
        return -y.size * np.log(sigma) - y.sum() / sigma
    z = xi * y / sigma
    if z.min() <= -1.0:
        return -np.inf
    return -y.size * np.log(sigma) - (1.0 + 1.0 / xi) * np.log1p(z).sum()


def fit_gpd(excesses) -> GpdMle:
    """Fit GPD parameters to a sample of positive excesses by maximum likelihood.

    For fixed theta = xi / sigma the likelihood is maximised in closed form by
    xi(theta) = mean(log1p(theta * y)), sigma = xi / theta (Grimshaw 1993,
    Technometrics 35(2)), which leaves a one-dimensional profile likelihood.
    A bounded Brent search minimises its negative over s = log1p(theta *
    max(y)), confined to xi >= -1: below that the likelihood is unbounded.
    When no point of the profile beats the xi = -1 edge, the fit is its
    uniform limit xi = -1, sigma = max(y). ``iterations`` counts profile
    evaluations. Standard errors come from the inverse analytic observed
    information at the optimum (NaN at the xi = -1 edge); they assume i.i.d.
    excesses and should be read as approximations.
    """
    y = np.asarray(excesses, dtype=float)
    if y.size < MIN_FIT_SIZE:
        raise NumericalError(
            f"need at least {MIN_FIT_SIZE} exceedances to fit, got {y.size}"
        )
    if np.any(y <= 0.0):
        raise ValueError("excesses must be strictly positive")
    if np.ptp(y) == 0.0:
        raise NumericalError("degenerate sample: all excesses identical")

    k = y.size
    y_max = y.max()
    r = y / y_max
    rest = r[r < 1.0]  # log1p(theta * max(y)) is s itself: never log1p(-1)
    n_top = k - rest.size
    evaluations = 0

    def profile(s):
        """(xi, sigma) maximising the likelihood at theta = expm1(s) / max(y)."""
        nonlocal evaluations
        evaluations += 1
        if abs(s) < _S_TINY:
            return 0.0, float(y.mean())  # the exponential limit theta -> 0
        e = np.expm1(s)
        xi = (n_top * s + np.log1p(e * rest).sum()) / k
        return xi, xi * y_max / e

    def nll(s):
        xi, sigma = profile(s)
        if xi < -1.0:  # past the edge the best shape is -1, at sigma = -1/theta
            return k * np.log(-sigma / xi)
        return k * (np.log(sigma) + xi + 1.0)

    # The search interval. Below _S_FLOOR theta is -1/max(y) to machine
    # precision and the profile falls as s grows, so the optimum is not there.
    # xi(s) increases with s and xi(0) = 0, so if xi(_S_FLOOR) < -1 the edge
    # xi = -1 is the one root in (_S_FLOOR, 0). Past log(max(y)/min(y)) + 10
    # the profile rises with s.
    s_lo = _S_FLOOR
    if profile(_S_FLOOR)[0] < -1.0:
        s_lo = optimize.brentq(lambda s: profile(s)[0] + 1.0, _S_FLOOR, 0.0, xtol=_S_XTOL)
    s_hi = min(np.log(y_max / y.min()) + 10.0, _S_CEIL)
    s_hat, f_hat, ierr, _ = optimize.fminbound(
        nll, s_lo, s_hi, xtol=_S_XTOL, maxfun=_MAX_EVALUATIONS, full_output=True
    )
    if ierr != 0:
        raise NumericalError(
            f"GPD profile search did not converge after {evaluations} evaluations"
        )

    if f_hat >= k * np.log(y_max):
        sigma_hat, xi_hat, log_lik = float(y_max), -1.0, -k * float(np.log(y_max))
        se_sigma = se_xi = np.nan  # the information is infinite at the edge
    else:
        xi_hat, sigma_hat = profile(s_hat)
        xi_hat, sigma_hat, log_lik = float(xi_hat), float(sigma_hat), -float(f_hat)
        if abs(xi_hat) < XI_ZERO_GUARD:
            xi_hat = 0.0
        se_sigma, se_xi = _standard_errors(y, sigma_hat, xi_hat)
    return GpdMle(
        params=GpdParams(sigma_hat, xi_hat),
        se_sigma=se_sigma,
        se_xi=se_xi,
        log_likelihood=log_lik,
        n_excesses=int(k),
        iterations=int(evaluations),
    )


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


def _standard_errors(y: np.ndarray, sigma: float, xi: float) -> tuple[float, float]:
    """Inverse analytic observed information of the GPD at (sigma, xi).

    With z = y/sigma, t = xi z and w = 1 + t, the second derivatives of the
    log-likelihood are
      l_ss = (k - (1 + xi) sum(z/w + z/w^2)) / sigma^2,
      l_sx = (sum(z/w) - (1 + xi) sum(z^2/w^2)) / sigma,
      l_xx = sum(z^3 c(t)) + sum(z^2/w^2),
    with c from ``_cubic_remainder``; at xi = 0 l_xx is sum(z^2) - 2/3 sum(z^3).
    """
    z = y / sigma
    t = xi * z
    zw = z / (1.0 + t)
    zw2 = zw * zw
    l_ss = (y.size - (1.0 + xi) * (zw.sum() + (zw / (1.0 + t)).sum())) / sigma**2
    l_sx = (zw.sum() - (1.0 + xi) * zw2.sum()) / sigma
    l_xx = (z**3 * _cubic_remainder(t)).sum() + zw2.sum()
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
    """Fit the GPD to strict exceedances of ``threshold_u`` within ``values``."""
    v = np.asarray(values, dtype=float)
    excesses = v[v > threshold_u] - threshold_u
    mle = fit_gpd(excesses)
    return GpdFit(
        threshold_u=float(threshold_u),
        params=mle.params,
        n_exceedances=mle.n_excesses,
        n_total=int(v.size),
        se_sigma=mle.se_sigma,
        se_xi=mle.se_xi,
        log_likelihood=mle.log_likelihood,
    )


def threshold_scan(values, thresholds) -> ThresholdScan:
    """Fit the GPD at each threshold, recording failures without aborting."""
    thr = np.asarray(thresholds, dtype=float)
    if thr.size == 0:
        raise ValueError("empty threshold list")
    if np.any(np.diff(thr) <= 0.0):
        raise ValueError("thresholds must be strictly increasing")
    v = np.asarray(values, dtype=float)
    entries = []
    for u in thr:
        n_exc = int(np.count_nonzero(v > u))
        if n_exc < MIN_FIT_SIZE:
            entries.append(ScanEntry(float(u), None, f"only {n_exc} exceedances"))
            continue
        try:
            entries.append(ScanEntry(float(u), fit_threshold_excesses(v, float(u))))
        except NumericalError as exc:
            entries.append(ScanEntry(float(u), None, str(exc)))
    return ThresholdScan(tuple(entries))


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
