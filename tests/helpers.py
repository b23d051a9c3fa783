"""Shared builders for synthetic traces and fleets used across the test suite."""

from datetime import timedelta

import numpy as np

from adequacy.ingest import SeasonTrace, SeasonWindow
from adequacy.pmf import DiscretePmf


def hourly_timestamps(window: SeasonWindow, season_label: str, n_hours: int | None = None):
    start, _ = window.bounds(season_label)
    n = n_hours if n_hours is not None else window.expected_hours
    return np.array([start + timedelta(hours=h) for h in range(n)], dtype="datetime64[s]")


def make_trace(
    season_label: str,
    demand,
    wind,
    window: SeasonWindow | None = None,
) -> SeasonTrace:
    window = window or SeasonWindow()
    demand = np.asarray(demand, dtype=float)
    return SeasonTrace(
        season_label=season_label,
        timestamps=hourly_timestamps(window, season_label, demand.size),
        demand_mw=demand,
        wind_mw=np.asarray(wind, dtype=float),
    )


def point_mass(value_mw: float) -> DiscretePmf:
    return DiscretePmf(int(np.floor(value_mw)), np.array([1.0]))


def random_season(
    season_label: str,
    rng,
    window: SeasonWindow | None = None,
    demand_level: float = 45_000.0,
    wind_capacity: float = 14_000.0,
) -> SeasonTrace:
    """A rough GB-scale season: diurnal demand plus noise, bounded wind."""
    window = window or SeasonWindow()
    n = window.expected_hours
    hod = np.arange(n) % 24
    shape = 0.85 + 0.15 * np.sin((hod - 4.0) / 24.0 * 2.0 * np.pi)
    demand = demand_level * shape + rng.normal(0.0, 2_000.0, n)
    demand = np.clip(demand, 1_000.0, None)
    wind = wind_capacity / (1.0 + np.exp(-rng.normal(-0.3, 1.2, n)))
    return make_trace(season_label, demand, wind, window)


def write_trace_csv(path, traces):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("season,timestamp,demand_mw,wind_mw\n")
        for trace in traces:
            for ts, d, w in zip(
                trace.timestamps.astype(object), trace.demand_mw, trace.wind_mw
            ):
                fh.write(f"{trace.season_label},{ts.isoformat()},{float(d)!r},{float(w)!r}\n")
    return path


def write_fleet_csv(path, units):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name,capacity_mw,availability\n")
        for name, cap, avail in units:
            fh.write(f"{name},{cap},{avail}\n")
    return path


# ---------------------------------------------------------------------------
# row-by-row trace loader: the reference the column-wise load_traces must match


def legacy_load_traces(path, window=None, installed_wind_mw=None, allow_gaps=False):
    """Parse a traces CSV one csv.DictReader row at a time, as load_traces once did."""
    import csv
    import warnings
    from datetime import datetime, timezone
    from pathlib import Path

    from adequacy.errors import DataError
    from adequacy.ingest import TRACE_COLUMNS

    def parse_timestamp(raw, line):
        try:
            dt = datetime.fromisoformat(raw.strip().replace("Z", "+00:00"))
        except ValueError:
            raise DataError(f"line {line}: bad timestamp {raw!r}") from None
        if dt.tzinfo is not None:
            dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
        return dt

    def parse_float(raw, what, line):
        try:
            value = float(raw)
        except (TypeError, ValueError):
            raise DataError(f"line {line}: bad {what} {raw!r}") from None
        if not np.isfinite(value):
            raise DataError(f"line {line}: non-finite {what}")
        return value

    window = window or SeasonWindow()
    path = Path(path)
    if not path.exists():
        raise DataError(f"trace file not found: {path}")
    per_season = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        missing = set(TRACE_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise DataError(f"{path}: missing required columns {sorted(missing)}")
        for row in reader:
            line = reader.line_num
            season = (row.get("season") or "").strip()
            if not season:
                raise DataError(f"line {line}: empty season label")
            ts = parse_timestamp(row.get("timestamp") or "", line)
            demand = parse_float(row.get("demand_mw"), "demand_mw", line)
            wind = parse_float(row.get("wind_mw"), "wind_mw", line)
            if demand < 0.0 or wind < 0.0:
                raise DataError(f"line {line}: negative demand or wind")
            per_season.setdefault(season, []).append((ts, demand, wind))
    for season in per_season:
        if any(char in season for char in ',"\r\n'):
            raise DataError(f"season label {season!r} holds a comma, quote or line break, "
                            f"which the CSV tables cannot hold")

    traces = []
    wind_violations = 0
    for season in sorted(per_season):
        lo, hi = window.bounds(season)
        rows = sorted((r for r in per_season[season] if lo <= r[0] < hi), key=lambda r: r[0])
        if not rows:
            continue
        for (t1, *_), (t2, *_) in zip(rows, rows[1:]):
            if t1 == t2:
                raise DataError(f"season {season}: duplicate timestamp {t1.isoformat()}")
        if allow_gaps:
            by_day = {}
            for r in rows:
                by_day.setdefault(r[0].date(), []).append(r)
            rows = [r for day in sorted(by_day) if len(by_day[day]) == 24 for r in by_day[day]]
            if not rows:
                raise DataError(f"season {season}: no complete days inside the window")
        else:
            expected = int((hi - lo).total_seconds() // 3600)
            if rows[0][0] != lo:
                raise DataError(
                    f"season {season}: window starts {lo.isoformat()} but first "
                    f"observation is {rows[0][0].isoformat()} (use allow_gaps to tolerate)"
                )
            for (t1, *_), (t2, *_) in zip(rows, rows[1:]):
                if t2 - t1 != timedelta(hours=1):
                    raise DataError(
                        f"season {season}: non-hourly gap between {t1.isoformat()} "
                        f"and {t2.isoformat()} (use allow_gaps to tolerate)"
                    )
            if len(rows) != expected:
                raise DataError(
                    f"season {season}: {len(rows)} hours inside the window, expected {expected}"
                )
        ts, demand, wind = zip(*rows)
        if installed_wind_mw is not None:
            wind_violations += sum(w > installed_wind_mw for w in wind)
        traces.append(
            SeasonTrace(
                season_label=season,
                timestamps=np.array(ts, dtype="datetime64[s]"),
                demand_mw=np.array(demand),
                wind_mw=np.array(wind),
            )
        )
    if wind_violations:
        warnings.warn(
            f"{wind_violations} wind observations exceed the configured "
            f"installed capacity of {installed_wind_mw} MW"
        )
    return traces
