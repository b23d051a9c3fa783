"""Deterministic GB-scale synthetic dataset for demos and golden tests.

Seven winter seasons of hourly demand and wind generation, a ~59 GW
conventional fleet, and a 23-season quantile history for the demand
rescaling step. Everything derives from a single seed, so repeated
generation is byte-identical.

Demand is a diurnal/weekly/seasonal profile driven by a persistent
weather process whose upper tail is spliced to a bounded generalized
Pareto shape; wind is a 14 GW installed capacity times a logistic-
transformed persistent process, mildly suppressed in cold spells.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy import signal, stats

from .evt import GpdParams, gpd_quantile
from .genmodel import GeneratingUnit
from .ingest import SeasonTrace, SeasonWindow, make_output_dir, write_csv, write_traces_csv

DEMO_SEED = 74205
FLEET_SEED = 918273
HISTORY_SEED = 555001

SEASON_LABELS = tuple(f"{y}-{str(y + 1)[2:]}" for y in range(2007, 2014))
REFERENCE_SEASON = SEASON_LABELS[-1]
WIND_CAPACITY_MW = 14_000.0

# weather-noise marginal: standard normal body, bounded GPD tail above the
# 90% point with density-continuous splice
_P0 = 0.90
_TAIL_SHAPE = -0.22
_Q0 = float(stats.norm.ppf(_P0))
_TAIL_SCALE = (1.0 - _P0) / float(stats.norm.pdf(_Q0))

_HOURLY_PROFILE = np.array(
    [0.80, 0.77, 0.75, 0.74, 0.74, 0.76, 0.82, 0.89, 0.94, 0.96, 0.96, 0.95,
     0.94, 0.93, 0.92, 0.93, 0.97, 1.00, 0.99, 0.96, 0.92, 0.88, 0.85, 0.82]
)
_WEEKLY_PROFILE = np.array([0.91, 1.0, 1.0, 1.0, 1.0, 1.0, 0.94])  # Sunday start

_NOISE_SCALE_MW = 3_100.0
_COLD_CALM = 0.35  # logit-units of wind suppression per sd of cold stress


def _demand_level(year: int) -> float:
    return 47_000.0 - 380.0 * (year - 2007)


def _spliced_ppf(p: np.ndarray) -> np.ndarray:
    body = stats.norm.ppf(np.clip(p, 1e-12, _P0))
    tail_p = np.clip((p - _P0) / (1.0 - _P0), 0.0, 1.0)
    tail = _Q0 + gpd_quantile(GpdParams(_TAIL_SCALE, _TAIL_SHAPE), tail_p)
    return np.where(p <= _P0, body, tail)


def _ar1(rng: np.random.Generator, n: int, phi: float) -> np.ndarray:
    innovations = rng.normal(0.0, np.sqrt(1.0 - phi * phi), n)
    innovations[0] = rng.normal()
    return signal.lfilter([1.0], [1.0, -phi], innovations)


def _season_arrays(rng: np.random.Generator, level: float, n: int):
    t = np.arange(n)
    day = t // 24
    base = (
        level
        * _HOURLY_PROFILE[t % 24]
        * _WEEKLY_PROFILE[day % 7]
        * (1.0 + 0.05 * np.exp(-0.5 * ((day - 63) / 28.0) ** 2))
    )
    cold = _ar1(rng, n, 0.99)
    demand = base + _NOISE_SCALE_MW * _spliced_ppf(stats.norm.cdf(cold))
    breeze = _ar1(rng, n, 0.97)
    logit = -0.45 + 1.5 * breeze - _COLD_CALM * np.clip(cold, 0.0, None)
    capacity_factor = 0.03 + 0.92 / (1.0 + np.exp(-logit))
    return demand, WIND_CAPACITY_MW * capacity_factor


def demo_traces(seed: int = DEMO_SEED, window: SeasonWindow | None = None) -> list[SeasonTrace]:
    """The seven synthetic seasons, unrescaled."""
    window = window or SeasonWindow()
    rng = np.random.default_rng(seed)
    traces = []
    for label in SEASON_LABELS:
        year = int(label[:4])
        demand, wind = _season_arrays(rng, _demand_level(year), window.expected_hours)
        start, _ = window.bounds(label)
        timestamps = np.datetime64(start, "s") + np.arange(window.expected_hours) * np.timedelta64(
            3600, "s"
        )
        traces.append(
            SeasonTrace(
                season_label=label,
                timestamps=timestamps,
                demand_mw=demand,
                wind_mw=wind,
            )
        )
    return traces


def demo_fleet(seed: int = FLEET_SEED) -> list[GeneratingUnit]:
    """A 100-unit two-state fleet sized for a few loss-of-load hours per season."""
    rng = np.random.default_rng(seed)
    scale = 1.13
    units = []
    for i in range(4):
        units.append(GeneratingUnit(f"nuclear{i}", int(scale * rng.integers(1100, 1250)),
                                    float(rng.uniform(0.82, 0.88))))
    for i in range(58):
        units.append(GeneratingUnit(f"ccgt{i}", int(scale * rng.integers(350, 880)),
                                    float(rng.uniform(0.86, 0.94))))
    for i in range(12):
        units.append(GeneratingUnit(f"coal{i}", int(scale * rng.integers(460, 540)),
                                    float(rng.uniform(0.85, 0.91))))
    for i in range(16):
        units.append(GeneratingUnit(f"peaker{i}", int(scale * rng.integers(120, 220)),
                                    float(rng.uniform(0.92, 0.97))))
    for i in range(10):
        units.append(GeneratingUnit(f"hydro{i}", int(scale * rng.integers(60, 140)),
                                    float(rng.uniform(0.93, 0.98))))
    return units


def demo_quantile_history(seed: int = HISTORY_SEED, traces: list[SeasonTrace] | None = None):
    """23 seasons of 90% daily-peak-demand quantiles, 1991-92 onward.

    Seasons covered by the traces use their actual quantiles; earlier seasons
    extrapolate the same underlying trend with mild noise.
    """
    from .ingest import daily_peak_quantile

    traces = traces if traces is not None else demo_traces()
    by_label = {t.season_label: t for t in traces}
    rng = np.random.default_rng(seed)
    rows = []
    for year in range(1991, 2014):
        label = f"{year}-{str(year + 1)[2:]}"
        if label in by_label:
            value = daily_peak_quantile(by_label[label], 0.90)
        else:
            # observed seasons run ~7.5% above the level trend at the 90% point
            value = 1.075 * _demand_level(year) + rng.normal(0.0, 250.0)
        rows.append((label, float(value)))
    return rows


def write_demo_dataset(outdir, seed: int | None = None) -> dict[str, Path]:
    """Materialize traces.csv, fleet.csv and quantile_history.csv under outdir.

    The traces are drawn with ``seed``, or with DEMO_SEED when it is None.
    """
    outdir = make_output_dir(outdir)
    traces = demo_traces(DEMO_SEED if seed is None else seed)
    traces_path = write_traces_csv(traces, outdir / "traces.csv")

    fleet_path = write_csv(outdir / "fleet.csv", ("name", "capacity_mw", "availability"),
                           ((u.name, u.capacity_mw, u.availability) for u in demo_fleet()))
    history_path = write_csv(outdir / "quantile_history.csv", ("season", "quantile_mw"),
                             demo_quantile_history(traces=traces))
    return {"traces": traces_path, "fleet": fleet_path, "quantiles": history_path}
