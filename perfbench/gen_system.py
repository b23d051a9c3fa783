"""Seeded many-season power system for the ``risk-many-seasons`` workload.

Writes ``traces.csv`` (``season,timestamp,demand_mw,wind_mw``, one row per
hour of each season's 21-week window from the last Sunday in October) and
``fleet.csv`` (``name,capacity_mw,availability``) in the formats the
``adequacy`` CLI reads. The system is ``scale`` times the size of the bundled
demo: demand level, weather noise and installed wind all scale with it, and
the fleet has ``100 * scale`` units. Unit sizes are random, but the fleet's
total capacity is fixed per unit of scale and calibrated so that LoLE is a
few hours per season, as in the demo.

Only numpy, scipy and the standard library are used, so the inputs do not
change when the package under test changes.
"""

from __future__ import annotations

import calendar
from datetime import datetime
from pathlib import Path

import numpy as np
from scipy import signal

HOURS = 21 * 168
LAST_SEASON_YEAR = 2013

_HOURLY = np.array(
    [0.80, 0.77, 0.75, 0.74, 0.74, 0.76, 0.82, 0.89, 0.94, 0.96, 0.96, 0.95,
     0.94, 0.93, 0.92, 0.93, 0.97, 1.00, 0.99, 0.96, 0.92, 0.88, 0.85, 0.82]
)
_WEEKLY = np.array([0.91, 1.0, 1.0, 1.0, 1.0, 1.0, 0.94])  # window starts on a Sunday

# per unit of scale
_DEMAND_LEVEL_MW = 45_000.0
_NOISE_MW = 3_000.0
_WIND_MW = 14_000.0
FLEET_CAPACITY_MW = 57_000.0


def _window_start(year: int) -> datetime:
    sundays = [week[calendar.SUNDAY] for week in calendar.monthcalendar(year, 10)]
    return datetime(year, 10, [d for d in sundays if d][-1])


def _ar1(rng: np.random.Generator, n: int, phi: float) -> np.ndarray:
    shocks = rng.normal(0.0, np.sqrt(1.0 - phi * phi), n)
    shocks[0] = rng.normal()
    return signal.lfilter([1.0], [1.0, -phi], shocks)


def season_arrays(rng: np.random.Generator, scale: float) -> tuple[np.ndarray, np.ndarray]:
    t = np.arange(HOURS)
    day = t // 24
    base = (
        scale * _DEMAND_LEVEL_MW * _HOURLY[t % 24] * _WEEKLY[day % 7]
        * (1.0 + 0.05 * np.exp(-0.5 * ((day - 63) / 28.0) ** 2))
    )
    cold = _ar1(rng, HOURS, 0.99)
    demand = base + scale * _NOISE_MW * cold
    logit = -0.45 + 1.5 * _ar1(rng, HOURS, 0.97) - 0.35 * np.clip(cold, 0.0, None)
    wind = scale * _WIND_MW * (0.03 + 0.92 / (1.0 + np.exp(-logit)))
    return demand, wind


def fleet_units(rng: np.random.Generator, scale: float) -> list[tuple[str, int, float]]:
    groups = (  # name, units per scale, capacity range (MW), availability range
        ("nuclear", 4, (1100, 1250), (0.82, 0.88)),
        ("ccgt", 58, (350, 880), (0.86, 0.94)),
        ("coal", 12, (460, 540), (0.85, 0.91)),
        ("peaker", 16, (120, 220), (0.92, 0.97)),
        ("hydro", 10, (60, 140), (0.93, 0.98)),
    )
    raw = [
        (f"{name}{i}", int(rng.integers(lo, hi)), float(rng.uniform(a_lo, a_hi)))
        for name, count, (lo, hi), (a_lo, a_hi) in groups
        for i in range(int(round(count * scale)))
    ]
    ratio = scale * FLEET_CAPACITY_MW / sum(cap for _, cap, _ in raw)
    return [(name, int(round(cap * ratio)), a) for name, cap, a in raw]


def write_system(outdir, seed: int, n_seasons: int, scale: float) -> dict[str, Path]:
    """Write traces.csv and fleet.csv under ``outdir``; same seed, same bytes."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 7031])
    traces_path = outdir / "traces.csv"
    hour = np.timedelta64(3600, "s")
    with open(traces_path, "w", encoding="utf-8") as fh:
        fh.write("season,timestamp,demand_mw,wind_mw\n")
        for year in range(LAST_SEASON_YEAR - n_seasons + 1, LAST_SEASON_YEAR + 1):
            label = f"{year}-{str(year + 1)[2:]}"
            demand, wind = season_arrays(rng, scale)
            stamps = np.datetime64(_window_start(year), "s") + np.arange(HOURS) * hour
            fh.writelines(
                f"{label},{ts},{d!r},{w!r}\n"
                for ts, d, w in zip(stamps.astype(str), demand.tolist(), wind.tolist())
            )
    fleet_path = outdir / "fleet.csv"
    with open(fleet_path, "w", encoding="utf-8") as fh:
        fh.write("name,capacity_mw,availability\n")
        fh.writelines(f"{n},{c},{a!r}\n" for n, c, a in fleet_units(rng, scale))
    return {"traces": traces_path, "fleet": fleet_path}
