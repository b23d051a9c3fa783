"""Models of demand-net-of-wind: their kind names and survivor curves.

Three interchangeable models of the same quantity:

* ``evt``          -- empirical distribution below a high threshold, fitted
                      generalized Pareto tail above it;
* ``hindcast``     -- empirical distribution everywhere;
* ``independence`` -- convolution of the demand and (negated) wind empirical
                      distributions, i.e. demand and wind treated as independent.

``survivor`` reads a model's survivor curve from the season values.
``risk.SeasonSample`` reads every model's LoLE/EEU from them.
"""

from __future__ import annotations

import numpy as np

from . import evt
from .ingest import SeasonTrace
from .pmf import convolve, pmf_from_samples, reflect

EVT = "evt"
HINDCAST = "hindcast"
INDEPENDENCE = "independence"
MODEL_KINDS = (EVT, HINDCAST, INDEPENDENCE)


def survivor(seasons, kind: str, v, fit: evt.GpdFit | None = None):
    """P(D - W > v) under the ``kind`` model of one season trace, or of a list
    of them pooled. Accepts scalars or arrays.

    hindcast is the empirical survivor of the net demand; evt is the same below
    ``fit.threshold_u`` and the fitted GPD tail from there up; ind reads the
    pmf of floor-binned demand minus floor-binned wind, the two independent.
    ``fit`` is the evt tail fit of these values, and only evt reads it.
    """
    seasons = [seasons] if isinstance(seasons, SeasonTrace) else list(seasons)

    def pooled(name: str) -> np.ndarray:
        return np.concatenate([getattr(s, name) for s in seasons])

    scalar = np.isscalar(v) or np.asarray(v).ndim == 0
    v_arr = np.atleast_1d(np.asarray(v, dtype=float))
    if kind == INDEPENDENCE:
        wind = reflect(pmf_from_samples(pooled("wind_mw")))
        out = convolve(pmf_from_samples(pooled("demand_mw")), wind).survivor(v_arr)
    elif kind in (EVT, HINDCAST):
        body = np.sort(pooled("net_demand_mw"))
        out = (body.size - np.searchsorted(body, v_arr, side="right")) / body.size
        if kind == EVT:
            if fit is None:
                raise ValueError("the evt survivor needs a tail fit")
            tail = v_arr >= fit.threshold_u
            excess = v_arr[tail] - fit.threshold_u
            out[tail] = fit.exceedance_prob * evt.gpd_survivor(fit.params, excess)
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    return float(out[0]) if scalar else out
