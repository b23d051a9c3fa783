"""Test oracles: the definitions the production path is checked against.

The model of the concatenated seasons (``build_model``) on the 1 MW grid
(``discretize``), convolved with the fleet (``balance_distribution``,
``compute_metrics``), defines every LoLE/EEU ``risk.SeasonSample`` reads;
``shortfall_metrics`` reads the same pmf through ``ShortfallFunctionals``.
``resample_indices`` draws the bootstrap index matrix one numpy generator per
row, the stream ``uncertainty.resample_indices`` reproduces.
``convolve_fleet_full`` updates every bin for every unit, the loop
``genmodel.convolve_fleet`` reproduces bit for bit on its live window, and
``fft_convolve`` is the product of padded real FFTs ``pmf.convolve_each``
reproduces bit for bit. ``threshold_scan`` masks, counts and sorts the
exceedances of every threshold afresh, the scan ``evt.threshold_scan``
reproduces on values sorted once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import fft as scipy_fft

from adequacy import evt
from adequacy.dnw import EVT, HINDCAST, INDEPENDENCE
from adequacy.errors import NumericalError
from adequacy.genmodel import TRIM_THRESHOLD
from adequacy.ingest import SeasonTrace
from adequacy.pmf import DiscretePmf, convolve, pmf_from_samples, reflect
from adequacy.risk import RiskMetrics

# default discretization headroom around the observed sample
LO_MARGIN_MW = 1_000.0
HI_MARGIN_MW = 20_000.0

# mass allowed outside the discretization window
TRUNCATION_TOL = 1e-12

# hard cap on auto-widened supports; heavier tails need explicit bounds
_MAX_SUPPORT_BINS = 1_000_000


@dataclass(frozen=True)
class TailModel:
    """A fitted distribution of demand-net-of-wind."""

    kind: str
    body: np.ndarray | None = None  # sorted sample; None for independence
    fit: evt.GpdFit | None = None  # GPD tail; evt kind only
    pmf: DiscretePmf | None = None  # as-built pmf; independence kind only


def build_evt_model(values, threshold_quantile: float = 0.95,
                    fit: evt.GpdFit | None = None) -> TailModel:
    """Empirical body below the chosen quantile threshold, GPD tail above.

    ``fit`` is a tail fit already made of these values at this quantile; the
    model then uses it instead of fitting again.
    """
    v = np.asarray(values, dtype=float)
    if fit is None:
        fit = evt.fit_threshold_excesses(v, evt.select_threshold(v, threshold_quantile))
    return TailModel(kind=EVT, body=np.sort(v), fit=fit)


def build_hindcast_model(values) -> TailModel:
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("empty sample")
    return TailModel(kind=HINDCAST, body=np.sort(v))


def build_independence_model(demand, wind) -> TailModel:
    """Distribution of demand minus wind with the two treated as independent."""
    d = np.asarray(demand, dtype=float)
    w = np.asarray(wind, dtype=float)
    if d.size == 0 or w.size == 0:
        raise ValueError("empty demand or wind sample")
    pmf = convolve(pmf_from_samples(d), reflect(pmf_from_samples(w)))
    return TailModel(kind=INDEPENDENCE, pmf=pmf)


def build_model(seasons, kind: str, threshold_quantile: float = 0.95,
                fit: evt.GpdFit | None = None) -> TailModel:
    """The demand-net-of-wind model of one season trace, or of a list of them pooled.

    ``fit`` is an evt tail fit already made of these values at this quantile.
    """
    seasons = [seasons] if isinstance(seasons, SeasonTrace) else list(seasons)

    def pooled(name: str) -> np.ndarray:
        return np.concatenate([getattr(s, name) for s in seasons])

    if kind == EVT:
        return build_evt_model(pooled("net_demand_mw"), threshold_quantile, fit)
    if kind == HINDCAST:
        return build_hindcast_model(pooled("net_demand_mw"))
    if kind == INDEPENDENCE:
        return build_independence_model(pooled("demand_mw"), pooled("wind_mw"))
    raise ValueError(f"unknown model kind {kind!r}")


def _survivor_geq(model: TailModel, v: np.ndarray) -> np.ndarray:
    """P(D - W >= v); the left-limit survivor used for bin differencing."""
    if model.kind == INDEPENDENCE:
        # atoms sit on integers; P(V >= v) = P(V > v - 1) at integer v
        return np.atleast_1d(model.pmf.survivor(v - 0.5))
    out = (model.body.size - np.searchsorted(model.body, v, side="left")) / model.body.size
    if model.kind == EVT:
        fit = model.fit
        tail = v > fit.threshold_u
        out[tail] = fit.exceedance_prob * evt.gpd_survivor(fit.params, v[tail] - fit.threshold_u)
    return out


def default_bounds(model: TailModel) -> tuple[float, float]:
    """Discretization window: sample range plus headroom for tail extrapolation."""
    if model.kind == INDEPENDENCE:
        return float(model.pmf.origin_mw), float(model.pmf.last_mw + 1)
    lo = float(model.body[0]) - LO_MARGIN_MW
    hi = float(model.body[-1]) + HI_MARGIN_MW
    if model.kind == EVT:
        fit = model.fit
        # widen until the truncated tail mass is negligible, and never past the
        # endpoint of a bounded tail
        p_cut = TRUNCATION_TOL / fit.exceedance_prob
        if p_cut < 1.0:
            excess = min(evt.gpd_quantile(fit.params, 1.0 - p_cut), upper_endpoint(fit.params))
            hi = max(hi, fit.threshold_u + excess + 1.0)
        if hi - lo > _MAX_SUPPORT_BINS:
            raise NumericalError(
                f"tail too heavy to discretize automatically (support would span "
                f"{hi - lo:.3g} MW); pass explicit bounds"
            )
    return lo, hi


def discretize(model: TailModel, lo: float | None = None, hi: float | None = None) -> DiscretePmf:
    """Project the model onto 1 MW bins covering [lo, hi).

    Bin k holds the probability mass on [lo + k, lo + k + 1): the survivor
    function is differenced at integer bin edges, which reproduces exact
    floor-binning for the empirical parts. Raises if more than a negligible
    amount of mass falls outside the window.
    """
    if lo is None or hi is None:
        auto_lo, auto_hi = default_bounds(model)
        lo = auto_lo if lo is None else lo
        hi = auto_hi if hi is None else hi
    lo, hi = float(lo), float(hi)
    if lo >= hi:
        raise ValueError("lo must be below hi")
    if model.kind == INDEPENDENCE:
        return rebin(model.pmf, lo, hi, max_outside_mass=TRUNCATION_TOL)
    origin = int(np.floor(lo))
    edges = np.arange(origin, int(np.ceil(hi)) + 1, dtype=float)
    s = _survivor_geq(model, edges)
    below_mass = 1.0 - s[0]
    above_mass = s[-1]
    if below_mass > TRUNCATION_TOL or above_mass > TRUNCATION_TOL:
        raise NumericalError(
            f"support [{lo}, {hi}) not covered: mass {below_mass:.3e} below, "
            f"{above_mass:.3e} above"
        )
    probs = np.clip(s[:-1] - s[1:], 0.0, None)
    return DiscretePmf(origin, probs / probs.sum())


def rebin(pmf: DiscretePmf, lo: float, hi: float, max_outside_mass: float = 1e-12) -> DiscretePmf:
    """Re-window an integer-atom pmf onto bins covering [lo, hi).

    Raises NumericalError if more than ``max_outside_mass`` falls outside.
    """
    origin = int(np.floor(lo))
    n_bins = int(np.ceil(hi)) - origin
    if n_bins <= 0:
        raise ValueError("lo must be below hi")
    out = np.zeros(n_bins)
    k = pmf.origin_mw - origin
    src = pmf.probabilities
    lo_clip = max(0, -k)
    hi_clip = min(src.size, n_bins - k)
    if hi_clip > lo_clip:
        out[k + lo_clip : k + hi_clip] = src[lo_clip:hi_clip]
    outside = 1.0 - out.sum()
    if outside > max_outside_mass:
        raise NumericalError(
            f"support [{lo}, {hi}) drops {outside:.3e} probability mass "
            f"(limit {max_outside_mass:.1e})"
        )
    return DiscretePmf(origin, out / out.sum())


def fft_convolve(a: DiscretePmf, b: DiscretePmf) -> DiscretePmf:
    """A + B as one product of the two padded real FFTs, both taken in the
    product's own expression: the bits ``pmf.convolve`` must give."""
    a_nz, b_nz = np.flatnonzero(a.probabilities), np.flatnonzero(b.probabilities)
    a_probs = a.probabilities[a_nz[0] : a_nz[-1] + 1]
    b_probs = b.probabilities[b_nz[0] : b_nz[-1] + 1]
    size = a_probs.size + b_probs.size - 1
    n_fft = scipy_fft.next_fast_len(size, True)
    spectrum = np.fft.rfft(a_probs, n_fft) * np.fft.rfft(b_probs, n_fft)
    raw = np.clip(np.fft.irfft(spectrum, n_fft)[:size], 0.0, None)
    return DiscretePmf(a.origin_mw + int(a_nz[0]) + b.origin_mw + int(b_nz[0]), raw / raw.sum())


def balance_distribution(fleet: DiscretePmf, dnw_pmf: DiscretePmf) -> DiscretePmf:
    """Distribution of Z = available capacity minus demand-net-of-wind."""
    return convolve(fleet, reflect(dnw_pmf))


def compute_metrics(z: DiscretePmf, n_hours: int) -> RiskMetrics:
    """LoLE and EEU from the balance distribution; shortfall is Z < 0 strictly."""
    if n_hours <= 0:
        raise ValueError("n_hours must be positive")
    values = z.values_mw
    neg = values < 0
    p_shortfall = float(z.probabilities[neg].sum())
    return RiskMetrics.from_hourly(p_shortfall, float(z.probabilities[neg] @ -values[neg]), n_hours)


def shortfall_metrics(functionals, dnw_pmf: DiscretePmf, n_hours: int) -> RiskMetrics:
    """LoLE/EEU of a demand-net-of-wind pmf through ``ShortfallFunctionals``."""
    return RiskMetrics.from_hourly(*functionals.expect(dnw_pmf.origin_mw, dnw_pmf.probabilities),
                                   n_hours)


def from_lole_eeu(lole_hours: float, eeu_mwh: float, n_hours: int) -> RiskMetrics:
    return RiskMetrics(lole_hours, eeu_mwh, int(n_hours))


def pmf_mean(pmf: DiscretePmf) -> float:
    """E[V] for V ~ pmf."""
    return float(pmf.origin_mw + np.dot(np.arange(pmf.probabilities.size), pmf.probabilities))


def upper_endpoint(params: evt.GpdParams) -> float:
    """Supremum of the excess support: -sigma/xi for xi < 0, else +inf."""
    return -params.sigma / params.xi if params.xi < 0.0 else np.inf


def convolve_fleet_full(units, trim_threshold: float = TRIM_THRESHOLD) -> DiscretePmf:
    """The fleet pmf with every bin up to the running total capacity updated
    and trim-checked for every unit."""
    units = list(units)
    p = np.zeros(sum(u.capacity_mw for u in units) + 1)
    p[0] = 1.0
    top = 0
    for unit in units:
        cap, a = unit.capacity_mw, unit.availability
        shifted = p[: top + 1] * a
        p[: top + 1] *= 1.0 - a
        p[cap : top + cap + 1] += shifted
        top += cap
        if trim_threshold > 0.0:
            live = p[: top + 1]
            live[(live > 0.0) & (live < trim_threshold)] = 0.0
    return DiscretePmf(0, p / p.sum())


def gpd_cdf(params: evt.GpdParams, y):
    """H(y) = P(Y <= y) for excess y >= 0. Accepts scalars or arrays."""
    return 1.0 - evt.gpd_survivor(params, y)


def gpd_loglik(params: evt.GpdParams, excesses) -> float:
    """GPD log-likelihood; -inf when the support constraint is violated."""
    y = np.asarray(excesses, dtype=float)
    if y.size == 0:
        raise ValueError("empty excess sample")
    if np.any(y <= 0.0):
        raise ValueError("excesses must be strictly positive")
    sigma, xi = params.sigma, params.xi
    if abs(xi) < evt.XI_ZERO_GUARD:
        return -y.size * np.log(sigma) - y.sum() / sigma
    z = xi * y / sigma
    if z.min() <= -1.0:
        return -np.inf
    return -y.size * np.log(sigma) - (1.0 + 1.0 / xi) * np.log1p(z).sum()


def threshold_scan(values, thresholds) -> tuple[evt.GpdFit, ...]:
    """The GPD fits at each threshold with at least MIN_FIT_SIZE exceedances
    whose fit succeeds, each on the sorted values strictly above it."""
    v = np.asarray(values, dtype=float)
    fits = []
    for u in np.asarray(thresholds, dtype=float).tolist():
        exceedances = v[v > u]
        if exceedances.size < evt.MIN_FIT_SIZE:
            continue
        try:
            fits.append(replace(evt.fit_gpd(np.sort(exceedances) - u), threshold_u=u, n_total=v.size))
        except NumericalError:
            continue
    return tuple(fits)


def resample_indices(n: int, replications: int, seed) -> np.ndarray:
    """Row r is numpy's Generator(PCG64(SeedSequence((*seed, r)))).integers(0, n, n)."""
    base = tuple(seed) if isinstance(seed, (tuple, list)) else (int(seed),)
    out = np.empty((replications, n), dtype=np.int64)
    for r in range(replications):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(base + (r,))))
        out[r] = rng.integers(0, n, size=n)
    return out
