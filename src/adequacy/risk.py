"""Supply-demand balance and the LoLE / EEU risk metrics.

The balance Z is available conventional capacity X minus demand-net-of-wind
V, the two independent. LoLE is n * P(Z < 0) hours per season and EEU is
n * E[max(-Z, 0)] MWh per season, where n is the number of hours in the
season under study. Mass exactly at Z = 0 counts as adequate.

The definition is the balance pmf, the convolution of the fleet pmf with the
reflected V pmf (``balance_distribution`` + ``compute_metrics``). Every
production path instead uses ``ShortfallFunctionals``: P(Z < 0) and
E[max(-Z, 0)] are the V-expectations of the fleet's cdf P(X < v) and partial
moment E[(v - X)+], read in one pass over each V pmf. The convolution stays
as the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dnw
from .ingest import SeasonTrace
from .pmf import DiscretePmf, convolve, reflect


@dataclass(frozen=True)
class RiskMetrics:
    lole_hours: float
    eeu_mwh: float
    n_hours: int
    p_shortfall: float

    def __post_init__(self):
        if self.n_hours <= 0:
            raise ValueError("n_hours must be positive")
        if self.lole_hours < 0.0 or self.eeu_mwh < 0.0:
            raise ValueError("risk metrics cannot be negative")
        if abs(self.lole_hours - self.n_hours * self.p_shortfall) > 1e-9 * max(
            1.0, self.lole_hours
        ):
            raise ValueError("lole_hours must equal n_hours * p_shortfall")

    @classmethod
    def from_lole_eeu(cls, lole_hours: float, eeu_mwh: float, n_hours: int) -> "RiskMetrics":
        return cls(lole_hours, eeu_mwh, int(n_hours), lole_hours / n_hours)

    @property
    def eeu_gwh(self) -> float:
        return self.eeu_mwh / 1000.0


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
    eeu = float(n_hours * np.dot(z.probabilities[neg], -values[neg]))
    return RiskMetrics(
        lole_hours=n_hours * p_shortfall,
        eeu_mwh=eeu,
        n_hours=int(n_hours),
        p_shortfall=p_shortfall,
    )


class ShortfallFunctionals:
    """LoLE/EEU against a fixed fleet, in one pass over each pmf.

    With X the available capacity, P(X < v) and E[(v - X)+] are precomputed
    on the fleet's integer grid: for v = origin + j + 1 they are cdf[j] and
    G[j] = v * cdf[j] - E[X ; X <= origin + j]. A demand-net-of-wind pmf's
    atoms are one contiguous integer range, so its metrics are two dot
    products over the slice inside the fleet's support plus closed forms
    above it (P = 1, E = v - E[X]); atoms at or below the fleet's origin
    contribute nothing. Results match balance_distribution + compute_metrics,
    the definition, to floating-point reordering.
    """

    def __init__(self, fleet: DiscretePmf):
        self.fleet = fleet
        self._origin = fleet.origin_mw
        p = fleet.probabilities
        x = fleet.values_mw.astype(float)
        first_moment = np.cumsum(x * p)  # E[X ; X <= origin + j]
        self._cdf = np.cumsum(p)  # P(X <= origin + j)
        self._gap = (x + 1.0) * self._cdf - first_moment  # E[(origin + j + 1 - X)+]
        self._mean = float(first_moment[-1])

    def metrics(self, dnw_pmf: DiscretePmf, n_hours: int) -> RiskMetrics:
        pv = dnw_pmf.probabilities
        # atom i sits at v = dnw origin + i and reads fleet index k0 + i = v - origin - 1
        k0 = dnw_pmf.origin_mw - self._origin - 1
        lo = min(max(-k0, 0), pv.size)
        hi = min(max(self._cdf.size - k0, lo), pv.size)
        inside = pv[lo:hi]
        above = pv[hi:]
        excess = dnw_pmf.origin_mw + np.arange(hi, pv.size) - self._mean  # v - E[X]
        p_shortfall = float(inside @ self._cdf[k0 + lo : k0 + hi] + above.sum())
        energy = float(inside @ self._gap[k0 + lo : k0 + hi] + above @ excess)
        return RiskMetrics(
            lole_hours=n_hours * p_shortfall,
            eeu_mwh=n_hours * energy,
            n_hours=int(n_hours),
            p_shortfall=p_shortfall,
        )


def build_model(seasons, kind: str, threshold_quantile: float = 0.95) -> dnw.TailModel:
    """The demand-net-of-wind model of one season trace, or of a list of them pooled."""
    seasons = [seasons] if isinstance(seasons, SeasonTrace) else list(seasons)

    def pooled(name: str) -> np.ndarray:
        return np.concatenate([getattr(s, name) for s in seasons])

    if kind == dnw.EVT:
        return dnw.build_evt_model(pooled("net_demand_mw"), threshold_quantile)
    if kind == dnw.HINDCAST:
        return dnw.build_hindcast_model(pooled("net_demand_mw"))
    if kind == dnw.INDEPENDENCE:
        return dnw.build_independence_model(pooled("demand_mw"), pooled("wind_mw"))
    raise ValueError(f"unknown model kind {kind!r}")


def long_run_mean(per_season: list[RiskMetrics]) -> RiskMetrics:
    """Arithmetic mean of per-season estimates; the long-run LoLE and EEU."""
    if not per_season:
        raise ValueError("no season metrics to average")
    n_hours = per_season[0].n_hours
    lole = float(np.mean([m.lole_hours for m in per_season]))
    eeu = float(np.mean([m.eeu_mwh for m in per_season]))
    return RiskMetrics(
        lole_hours=lole,
        eeu_mwh=eeu,
        n_hours=n_hours,
        p_shortfall=lole / n_hours,
    )
