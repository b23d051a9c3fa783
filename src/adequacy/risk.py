"""Supply-demand balance and the LoLE / EEU risk metrics.

The balance Z is available conventional capacity X minus demand-net-of-wind
V, the two independent. LoLE is n * P(Z < 0) hours per season and EEU is
n * E[max(-Z, 0)] MWh per season, where n is the number of hours in the
season under study. Mass exactly at Z = 0 counts as adequate.

The definition is the balance pmf, the convolution of the fleet pmf with the
reflected V pmf; it lives on as the test oracle (``tests/oracles.py``).
Production reads ``ShortfallFunctionals`` instead: P(Z < 0) and E[max(-Z, 0)]
are the V-expectations of the fleet's cdf P(X < v) and partial moment
E[(v - X)+]. ``SeasonSample`` reads those functionals for every model of any
season multiset, a season on its own and the pooled sample included, without
building a demand-net-of-wind pmf.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import dnw, evt
from .errors import NumericalError
from .pmf import DiscretePmf, convolve_each, pmf_from_samples


def _dot(a: np.ndarray, b: np.ndarray) -> np.float64:
    """a @ b summed in one fixed order: ``@`` splits a long dot across OpenBLAS
    threads, which makes its last bits depend on the thread count."""
    return np.einsum("i,i", a, b)


def _invalid_rows(lole_hours, eeu_mwh) -> dict[int, str]:
    """The message of each row whose LoLE (h) or EEU (MWh) is not finite and
    non-negative, by row; the arguments are scalars or (D,) arrays."""
    lole, eeu = np.atleast_1d(lole_hours, eeu_mwh)
    bad = ~((0.0 <= lole) & (lole < np.inf) & (0.0 <= eeu) & (eeu < np.inf))
    return {i: f"risk metrics must be finite and non-negative, got LoLE {float(lole[i])!r} "
               f"h and EEU {float(eeu[i])!r} MWh" for i in np.flatnonzero(bad).tolist()}


@dataclass(frozen=True)
class RiskMetrics:
    """LoLE (h) and EEU (MWh) of an n_hours-hour season; p_shortfall is LoLE / n_hours."""

    lole_hours: float
    eeu_mwh: float
    n_hours: int

    def __post_init__(self):
        if self.n_hours <= 0:
            raise ValueError("n_hours must be positive")
        if invalid := _invalid_rows(self.lole_hours, self.eeu_mwh):
            raise NumericalError(invalid[0])

    @classmethod
    def from_hourly(cls, p_shortfall: float, shortfall_mw: float, n_hours: int) -> "RiskMetrics":
        """From P(Z < 0) and E[max(-Z, 0)] in one hour of an n-hour season."""
        return cls(n_hours * p_shortfall, n_hours * shortfall_mw, int(n_hours))

    @property
    def p_shortfall(self) -> float:
        return self.lole_hours / self.n_hours

    @property
    def eeu_gwh(self) -> float:
        return self.eeu_mwh / 1000.0


class ShortfallFunctionals:
    """The fleet's P(X < v) and E[(v - X)+], read at values or over a pmf.

    With X the available capacity, both are precomputed on the fleet's
    integer grid: for v = origin + j + 1 they are cdf[j] and
    G[j] = v * cdf[j] - E[X ; X <= origin + j]. The tables are padded with
    a slot below the support (both 0) and a slot above it (P = 1; E is
    v - E[X] there), so ``at`` reads any value through one clipped index. A
    demand-net-of-wind pmf's atoms are one contiguous integer range, so its
    expectations are two dot products over the slice inside the fleet's
    support plus closed forms above it; atoms at or below the fleet's origin
    contribute nothing. Results match the balance-pmf oracle in
    ``tests/oracles.py``, the definition, to floating-point reordering.
    """

    def __init__(self, fleet: DiscretePmf):
        self.fleet = fleet
        self._origin = fleet.origin_mw
        p = fleet.probabilities
        x = fleet.values_mw.astype(float)
        first_moment = np.cumsum(x * p)  # E[X ; X <= origin + j]
        self._cdf = np.zeros(p.size + 2)  # [1 + j]: P(X <= origin + j)
        self._cdf[-1] = 1.0
        cdf = np.cumsum(p, out=self._cdf[1:-1])
        self._gap = np.zeros(p.size + 2)  # [1 + j]: E[(origin + j + 1 - X)+]
        np.subtract((x + 1.0) * cdf, first_moment, out=self._gap[1:-1])
        self.mean_mw = float(first_moment[-1])

    def at(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """P(X < v) and E[(v - X)+] at integer values v, read as ``expect``
        reads them: v reads slot v - origin of the tables, clipped to them."""
        v = np.asarray(v, dtype=float)
        if np.isnan(v).any():
            raise ValueError("a NaN value has no grid bin")
        top = self._cdf.size - 1
        k = np.clip(v - self._origin, 0, top).astype(np.intp)
        gap = self._gap[k]
        np.subtract(v, self.mean_mw, out=gap, where=k == top)
        return self._cdf[k], gap

    def expect(self, origin: int, probs: np.ndarray) -> tuple[float, float]:
        """P(X < V) and E[(V - X)+] for V with mass probs[i] at v = origin + i."""
        # atom i reads padded slot k0 + i = v - origin
        k0 = origin - self._origin
        size = self._cdf.size - 2
        lo = min(max(1 - k0, 0), probs.size)
        hi = min(max(size + 1 - k0, lo), probs.size)
        inside = probs[lo:hi]
        above = probs[hi:]
        excess = origin + np.arange(hi, probs.size) - self.mean_mw  # v - E[X]
        return (float(_dot(inside, self._cdf[k0 + lo : k0 + hi]) + above.sum()),
                float(_dot(inside, self._gap[k0 + lo : k0 + hi]) + _dot(above, excess)))


def _floors(arrays) -> tuple[np.ndarray, np.ndarray]:
    """The arrays' values floored and concatenated, and where each array ends but the last."""
    return np.floor(np.concatenate(arrays)), np.cumsum([a.size for a in arrays])[:-1]


def _season_sums(functionals: ShortfallFunctionals, floors: np.ndarray, ends: np.ndarray
                 ) -> np.ndarray:
    """[s, m]: sums over season s of P(X < v) (m = 0) and E[(v - X)+] (m = 1),
    read in one gather at ``_floors``' values and summed season by season."""
    cdf, gap = functionals.at(floors)
    return np.array([(c.sum(), g.sum()) for c, g in zip(np.split(cdf, ends), np.split(gap, ends))])


class SeasonSample:
    """Every season read against the fleet once, for any season multiset and model.

    ``metrics(counts, kind, threshold_quantile)``, where counts[s] is how often
    season s is drawn, gives the LoLE/EEU of the concatenated draw: one count
    is a season on its own, all ones the pooled sample; ``replicate`` reads
    every row of a count matrix at once. Each kind equals
    the oracle in ``tests/oracles.py``: its model of the concatenation,
    projected onto the 1 MW grid and read through ``ShortfallFunctionals``,
    over the fleet's support only:

    * the fleet functionals are gathered at each value's floor, so a
      floor-binned empirical part is a weighted sum of them;
    * hindcast is all empirical, so it needs only each season's sums of the
      gathered functionals: the metrics are their count-weighted mean;
    * ind bins demand and wind at their floors, and P(X < D - W) =
      P(X + W < D). Its pooled pmfs are hours-weighted mixes of the seasons'
      pmfs, so the metrics mix pairs[a, b], season a's demand sums against
      the functionals of the fleet plus season b's wind. All S columns are
      filled on the first ind call: one fleet + wind convolution each, with
      the fleet transformed once per FFT length and the convolutions run on
      one background thread (``convolve_each``), and one gather of every
      season's floored demand each;
    * evt sorts all seasons' values together once, on its first call, with
      each season's running sums of the gathered functionals in sorted
      order, so a multiset reads only its exceedances and O(S) sums. The
      threshold is numpy's linear quantile of the drawn values, bit for bit,
      found by a reverse cumulative sum of the counts of the largest values
      only (``_threshold``), and the GPD is fitted to the exceedances of
      positive count. The fit's standard errors are computed only if they
      are read. Values at or below the threshold are one sum over the
      seasons of count times running sum at the season's number of values
      below it (``_body_sums``);
    * the tail's bins from floor(u) up to the fleet's top difference the GPD
      survivor; the tail mass P at or above the top needs no bins: it adds P
      to P(Z < 0) and P (top + e(y) - 1/2 - E[X]) to E[(V - X)+], with the
      GPD mean excess e(y) = (sigma + xi y) / (1 - xi) (Davison & Smith 1990,
      JRSS B 52(3)) and 1/2 for the floor binning. With xi >= 1 that mean is
      infinite, which raises NumericalError.

    Ties in the sort are broken by season label, and the season sums run in
    label order, so the order of ``seasons`` does not change any sum.
    """

    def __init__(self, functionals: ShortfallFunctionals, seasons, n_hours: int):
        self.functionals = functionals
        self.seasons = list(seasons)
        self.n_hours = n_hours
        self.hours = np.array([s.n_hours for s in self.seasons], dtype=float)  # observed
        self._by_label = np.argsort([s.season_label for s in self.seasons], kind="stable")
        self._sums = _season_sums(functionals, *_floors([s.net_demand_mw for s in self.seasons]))

    @cached_property
    def _sorted(self) -> tuple[np.ndarray, ...]:
        """All values sorted, their season ids, ``prefix`` and each season's
        number of values; evt only.

        prefix[s, j, m] is the sum of functional m (P(X < v), E[(v - X)+])
        at the floors of season s's j smallest values, in sorted order.
        """
        values = [s.net_demand_mw for s in self.seasons]
        label_rank = np.argsort(self._by_label)
        pooled = np.concatenate(values)
        sizes = np.array([v.size for v in values])
        owner = np.repeat(np.arange(len(values)), sizes)
        order = np.lexsort((label_rank[owner], pooled))
        u, owner = pooled[order], owner[order]
        grouped = np.stack(self.functionals.at(np.floor(u)), axis=1)[np.argsort(owner, kind="stable")]
        prefix = np.zeros((len(values), sizes.max() + 1, 2))
        for s, part in enumerate(np.split(grouped, np.cumsum(sizes)[:-1])):
            np.cumsum(part, axis=0, out=prefix[s, 1 : part.shape[0] + 1])
        return u, owner, prefix, sizes

    def metrics(self, counts, kind: str, threshold_quantile: float | None = None
                ) -> tuple[RiskMetrics, evt.GpdFit | None]:
        """LoLE/EEU of the drawn multiset under ``kind``, and its evt tail fit (None otherwise)."""
        c = np.asarray(counts, dtype=float)[None]
        fit = None
        if kind == dnw.EVT:
            p_shortfall, energy, fit = self._evt(self._counts(c)[0], threshold_quantile)
        else:
            [(p_shortfall, energy)] = self._closed_form(c, kind)
        return RiskMetrics.from_hourly(float(p_shortfall), float(energy), self.n_hours), fit

    def replicate(self, rows, kind: str, q: float | None = None
                  ) -> tuple[dict[str, np.ndarray], dict[int, str]]:
        """``metrics`` of each row of the (D, S) count matrix ``rows`` at once.

        Returns each row's LoLE (h) and EEU (MWh), keyed "lole_hours" and
        "eeu_mwh", and the message of each row that failed, by row: its
        model raised NumericalError, or its metrics are not finite and
        non-negative. A failed row reads NaN. evt fits each row in turn.
        """
        c = np.asarray(rows, dtype=float)
        failed = {}
        if kind == dnw.EVT:
            hourly = np.full((len(c), 2), np.nan)
            for i, row in enumerate(self._counts(c)):
                try:
                    hourly[i] = self._evt(row, q)[:2]
                except NumericalError as exc:
                    failed[i] = str(exc)
        else:
            hourly = self._closed_form(c, kind)
        lole, eeu = self.n_hours * hourly.T
        failed = _invalid_rows(lole, eeu) | failed  # a model's own message first
        lole[list(failed)] = eeu[list(failed)] = np.nan
        return {"lole_hours": lole, "eeu_mwh": eeu}, failed

    def _counts(self, c: np.ndarray) -> np.ndarray:
        """The (D, S) count matrix c, checked in one pass: each row holds a
        finite non-negative integer count per season and draws at least one."""
        n_seasons = len(self.seasons)
        if c.ndim != 2 or c.shape[1] != n_seasons:
            raise ValueError(f"need one count per season, {n_seasons} a row; got shape {c.shape}")
        if not ((0.0 <= c) & (c < np.inf) & (np.floor(c) == c)).all():
            raise ValueError("season counts must be finite non-negative integers")
        if not (c.sum(axis=1) > 0.0).all():
            raise ValueError("a row of season counts draws no season")
        return c

    def _closed_form(self, c: np.ndarray, kind: str) -> np.ndarray:
        """[r, m]: P(Z < 0) (m = 0) and E[max(-Z, 0)] (m = 1) in one hour of
        count row r's draw under hindcast or ind, the one formula ``metrics``
        and ``replicate`` read. einsum sums in a fixed order; a BLAS
        product's last bits depend on the thread count."""
        hours = np.einsum("rs,s->r", self._counts(c), self.hours)[:, None]
        if kind == dnw.HINDCAST:
            return np.einsum("rs,sm->rm", c, self._sums) / hours
        if kind == dnw.INDEPENDENCE:
            against = np.einsum("mab,rb->rma", self._pairs, c * self.hours)  # [r, m, a]
            return np.einsum("rma,ra->rm", against, c) / hours**2
        raise ValueError(f"unknown model kind {kind!r}")

    @cached_property
    def _pairs(self) -> np.ndarray:
        """[m, a, b]: season a's demand sums of metric m against the fleet plus
        season b's wind; ind only. ``convolve_each`` makes the fleet + wind pmfs
        on one background thread while this one builds each wind pmf and reads
        each sum, in season order, at every season's demand in one gather."""
        winds = (pmf_from_samples(s.wind_mw) for s in self.seasons)
        demand = _floors([s.demand_mw for s in self.seasons])
        pairs = np.zeros((2, len(self.seasons), len(self.seasons)))
        for b, total in enumerate(convolve_each(self.functionals.fleet, winds)):
            pairs[:, :, b] = _season_sums(ShortfallFunctionals(total), *demand).T
        return pairs

    def _evt(self, c: np.ndarray, q: float) -> tuple[float, float, evt.GpdFit]:
        u_sorted, owner, _, sizes = self._sorted
        n = int(c @ sizes)
        u = self._threshold(c, n, q)

        cut = int(np.searchsorted(u_sorted, u, side="right"))
        w = c[owner[cut:]]
        keep = w > 0.0
        fit = replace(evt.fit_gpd(u_sorted[cut:][keep] - u, w[keep]), threshold_u=u, n_total=n)

        functionals = self.functionals
        top = functionals.fleet.last_mw + 2  # the first v that ``at`` reads in closed form
        first = int(np.floor(u))
        # excesses of u and of the integer edges up to the top; the last is where
        # the closed-form tail begins, u itself when u is past the top
        y = np.arange(first, max(top, first) + 1.0)
        y -= u
        y[0] = 0.0
        start = float(top) if y.size > 1 else u
        survive = evt.gpd_survivor(fit.params, y)
        bins = survive[:-1]
        np.subtract(bins, survive[1:], out=bins)
        tail_cdf, tail_gap = functionals.expect(first, np.clip(bins, 0.0, None, out=bins))
        p_above = survive[-1]
        energy_above = 0.0
        if p_above > 0.0:
            sigma, xi = fit.params.sigma, fit.params.xi
            if xi >= 1.0:
                raise NumericalError(f"GPD shape {xi:.3g} >= 1: the tail has infinite mean")
            mean_excess = (sigma + xi * (start - u)) / (1.0 - xi)
            energy_above = p_above * (start + mean_excess - 0.5 - functionals.mean_mw)
        p_tail = fit.exceedance_prob
        body_cdf, body_gap = self._body_sums(c, cut)
        p_shortfall = body_cdf / n + p_tail * (tail_cdf + p_above)
        energy = body_gap / n + p_tail * (tail_gap + energy_above)
        return p_shortfall, energy, fit

    def _body_sums(self, c: np.ndarray, cut: int) -> np.ndarray:
        """[m]: the sum over the sorted values below ``cut`` of their season's
        count times functional m at their floor, from each season's ``prefix``
        at its number of values below the cut, summed in season-label order."""
        _, owner, prefix, sizes = self._sorted
        below = sizes - np.bincount(owner[cut:], minlength=sizes.size)
        s = self._by_label
        return np.einsum("s,sm->m", c[s], prefix[s, below[s]])

    def _threshold(self, c: np.ndarray, n: int, q: float) -> float:
        """np.quantile(method="linear") at q of the n draws of the seasons drawn
        c[s] times each.

        The order statistics it interpolates are those at the indices
        ``searchsorted(cumsum(w), positions, "right")``, w[i] the count of
        sorted value i's season, found from the top: the index of position p
        is the last whose weight from there up is at least n - p. A reverse
        cumulative sum of the weights of a slice of the largest values finds
        both once the slice holds weight n - p for the lower position; only
        that slice's weights are gathered. The largest values can belong to
        seasons drawn 0 times, so the slice doubles until it does. Every
        count is an integer held exactly in float64, so the comparisons are
        exact.
        """
        u_sorted, owner = self._sorted[:2]
        virtual = (n - 1) * q
        below = np.floor(virtual)
        gamma = virtual - below
        positions = np.minimum([below, below + 1.0], n - 1)
        need = n - positions[0]
        size = min(int(need), owner.size)
        while True:
            above = np.cumsum(c[owner[owner.size - size:]][::-1])  # weight of the top 1, 2, ... values
            if above[-1] >= need or size == owner.size:
                break
            size = min(2 * size, owner.size)
        lo, hi = u_sorted[owner.size - 1 - np.searchsorted(above, n - positions, side="left")]
        diff = hi - lo
        return float(hi - diff * (1.0 - gamma) if gamma >= 0.5 else lo + diff * gamma)


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
    )
