"""Distribution models for demand-net-of-wind.

Three interchangeable models of the same quantity:

* ``evt``          -- empirical distribution below a high threshold, fitted
                      generalized Pareto tail above it;
* ``hindcast``     -- empirical distribution everywhere;
* ``independence`` -- convolution of the demand and (negated) wind empirical
                      distributions, i.e. demand and wind treated as independent.

All models expose a survivor function, which the survivor curves read.
``discretize`` projects a model onto the 1 MW grid of the risk convolution;
it is the definition the production path is tested against, not a step of
it. ``risk.SeasonSample`` reads every model's LoLE/EEU from the season values
without building a model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import evt
from .errors import NumericalError
from .pmf import DiscretePmf, convolve, pmf_from_samples, rebin, reflect

EVT = "evt"
HINDCAST = "hindcast"
INDEPENDENCE = "independence"
MODEL_KINDS = (EVT, HINDCAST, INDEPENDENCE)

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

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == INDEPENDENCE:
            if self.pmf is None:
                raise ValueError("independence model requires a pmf")
        else:
            if self.body is None or len(self.body) == 0:
                raise ValueError(f"{self.kind} model requires a non-empty body sample")
        if self.kind == EVT and self.fit is None:
            raise ValueError("evt model requires a GPD fit")

    @property
    def threshold_u(self) -> float:
        if self.fit is None:
            raise AttributeError("only evt models carry a threshold")
        return self.fit.threshold_u


def _empirical_survivor(body: np.ndarray, v: np.ndarray) -> np.ndarray:
    """P(V > v) from a sorted sample; shared by the evt body and hindcast."""
    return (body.size - np.searchsorted(body, v, side="right")) / body.size


def _empirical_survivor_geq(body: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (body.size - np.searchsorted(body, v, side="left")) / body.size


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


def survivor(model: TailModel, v):
    """P(D - W > v) under the model. Accepts scalars or arrays."""
    scalar = np.isscalar(v) or np.asarray(v).ndim == 0
    v_arr = np.atleast_1d(np.asarray(v, dtype=float))
    if model.kind == HINDCAST:
        out = _empirical_survivor(model.body, v_arr)
    elif model.kind == INDEPENDENCE:
        out = np.atleast_1d(model.pmf.survivor(v_arr))
    else:
        fit = model.fit
        out = np.empty_like(v_arr)
        below = v_arr < fit.threshold_u
        out[below] = _empirical_survivor(model.body, v_arr[below])
        excess = v_arr[~below] - fit.threshold_u
        out[~below] = fit.exceedance_prob * evt.gpd_survivor(fit.params, excess)
    return float(out[0]) if scalar else out


def _survivor_geq(model: TailModel, v: np.ndarray) -> np.ndarray:
    """P(D - W >= v); the left-limit survivor used for bin differencing."""
    if model.kind == HINDCAST:
        return _empirical_survivor_geq(model.body, v)
    if model.kind == INDEPENDENCE:
        # atoms sit on integers; P(V >= v) = P(V > v - 1) at integer v
        return np.atleast_1d(model.pmf.survivor(v - 0.5))
    fit = model.fit
    out = np.empty_like(v)
    below = v <= fit.threshold_u
    out[below] = _empirical_survivor_geq(model.body, v[below])
    excess = v[~below] - fit.threshold_u
    out[~below] = fit.exceedance_prob * evt.gpd_survivor(fit.params, excess)
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
            excess = min(evt.gpd_quantile(fit.params, 1.0 - p_cut), fit.params.upper_endpoint)
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
