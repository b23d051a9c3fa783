"""Loading, windowing, and forward-mapping of hourly demand/wind traces.

The study works on one peak season per historical year (for GB-like systems,
21 weeks from the last Sunday in October). Historical demand is mapped to the
study season by a multiplicative factor derived from a Lowess fit to a
long-run series of high-demand quantiles.
"""

from __future__ import annotations

import calendar
import csv
import re
import warnings
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from math import ceil
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DataError

HOURS_PER_WEEK = 168

_WEEKDAYS = {name: i for i, name in enumerate(calendar.day_name)}
_MONTHS = {name: i for i, name in enumerate(calendar.month_name) if i}
_ANCHOR_RE = re.compile(r"^(first|last)\s+(\w+)\s+in\s+(\w+)$", re.IGNORECASE)

TRACE_COLUMNS = ("season", "timestamp", "demand_mw", "wind_mw")
QUANTILE_COLUMNS = ("season", "quantile_mw")


class HourlyObservation(NamedTuple):
    timestamp: datetime
    demand_mw: float
    wind_mw: float


@dataclass(frozen=True)
class SeasonWindow:
    """Peak-season definition: a weekly span anchored to a calendar rule."""

    weeks: int = 21
    anchor_rule: str = "last Sunday in October"

    def __post_init__(self):
        if self.weeks < 1:
            raise ValueError("weeks must be a positive integer")
        self._parse_anchor()  # fail fast on unparseable rules

    @property
    def expected_hours(self) -> int:
        return self.weeks * HOURS_PER_WEEK

    def _parse_anchor(self) -> tuple[str, int, int]:
        m = _ANCHOR_RE.match(self.anchor_rule.strip())
        if not m:
            raise ValueError(
                f"anchor rule {self.anchor_rule!r} not understood; expected "
                "'first <weekday> in <month>' or 'last <weekday> in <month>'"
            )
        which, weekday, month = m.groups()
        try:
            wd = _WEEKDAYS[weekday.capitalize()]
            mo = _MONTHS[month.capitalize()]
        except KeyError as exc:
            raise ValueError(f"anchor rule {self.anchor_rule!r}: unknown {exc}") from None
        return which.lower(), wd, mo

    def start(self, season_label: str) -> datetime:
        """Window start (00:00 UTC) for a season labelled like '2007-08'."""
        m = re.match(r"^(\d{4})", season_label.strip())
        if not m:
            raise ValueError(f"cannot read an anchor year from season label {season_label!r}")
        year = int(m.group(1))
        which, wd, mo = self._parse_anchor()
        days = [
            day
            for week in calendar.monthcalendar(year, mo)
            if (day := week[wd]) != 0
        ]
        anchor = days[0] if which == "first" else days[-1]
        return datetime(year, mo, anchor)

    def bounds(self, season_label: str) -> tuple[datetime, datetime]:
        start = self.start(season_label)
        return start, start + timedelta(hours=self.expected_hours)


@dataclass(frozen=True)
class SeasonTrace:
    """One historical season of paired hourly (demand, wind) observations."""

    season_label: str
    timestamps: np.ndarray = field(repr=False)
    demand_mw: np.ndarray = field(repr=False)
    wind_mw: np.ndarray = field(repr=False)
    rescale_factor: float = 1.0

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype="datetime64[s]")
        d = np.asarray(self.demand_mw, dtype=float)
        w = np.asarray(self.wind_mw, dtype=float)
        if not (ts.size == d.size == w.size):
            raise ValueError("timestamps, demand and wind must have equal length")
        if ts.size == 0:
            raise ValueError("empty season trace")
        if np.any(np.diff(ts).astype("timedelta64[s]").astype(np.int64) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        if np.any(d < 0.0) or np.any(w < 0.0):
            raise ValueError("demand and wind must be non-negative")
        if not self.rescale_factor > 0.0:
            raise ValueError("rescale_factor must be positive")
        for name, arr in (("timestamps", ts), ("demand_mw", d), ("wind_mw", w)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.timestamps.size

    @property
    def n_hours(self) -> int:
        return self.timestamps.size

    @property
    def net_demand_mw(self) -> np.ndarray:
        """Demand net of wind, the tail-modelled quantity."""
        return self.demand_mw - self.wind_mw

    def hours(self):
        """Iterate observations as (timestamp, demand, wind) tuples."""
        for ts, d, w in zip(self.timestamps.astype(object), self.demand_mw, self.wind_mw):
            yield HourlyObservation(ts, float(d), float(w))


def _parse_timestamp(raw: str, line_num: int) -> datetime:
    try:
        dt = datetime.fromisoformat(raw.strip().replace("Z", "+00:00"))
    except ValueError:
        raise DataError(f"line {line_num}: bad timestamp {raw!r}") from None
    if dt.tzinfo is not None:
        dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
    return dt


def _parse_float(raw: str, what: str, line_num: int) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise DataError(f"line {line_num}: bad {what} {raw!r}") from None
    if not np.isfinite(value):
        raise DataError(f"line {line_num}: non-finite {what}")
    return value


def _require_columns(fieldnames, required, path):
    missing = set(required) - set(fieldnames or ())
    if missing:
        raise DataError(f"{path}: missing required columns {sorted(missing)}")


def load_traces(
    path,
    window: SeasonWindow | None = None,
    installed_wind_mw: float | None = None,
    allow_gaps: bool = False,
) -> list[SeasonTrace]:
    """Read a traces CSV and return one windowed SeasonTrace per season.

    Rows outside the season window are dropped. Within the window the hourly
    grid must be complete; with ``allow_gaps`` incomplete calendar days are
    dropped instead. Duplicate timestamps are always an error.
    """
    window = window or SeasonWindow()
    path = Path(path)
    if not path.exists():
        raise DataError(f"trace file not found: {path}")

    per_season: dict[str, list[tuple[datetime, float, float]]] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        _require_columns(reader.fieldnames, TRACE_COLUMNS, path)
        for row in reader:
            line = reader.line_num
            season = (row.get("season") or "").strip()
            if not season:
                raise DataError(f"line {line}: empty season label")
            ts = _parse_timestamp(row.get("timestamp") or "", line)
            demand = _parse_float(row.get("demand_mw"), "demand_mw", line)
            wind = _parse_float(row.get("wind_mw"), "wind_mw", line)
            if demand < 0.0 or wind < 0.0:
                raise DataError(f"line {line}: negative demand or wind")
            per_season.setdefault(season, []).append((ts, demand, wind))

    traces = []
    wind_violations = 0
    for season in sorted(per_season):
        lo, hi = window.bounds(season)
        rows = sorted((r for r in per_season[season] if lo <= r[0] < hi), key=lambda r: r[0])
        if not rows:
            continue  # season present in the file but entirely outside the window
        for (t1, *_), (t2, *_) in zip(rows, rows[1:]):
            if t1 == t2:
                raise DataError(f"season {season}: duplicate timestamp {t1.isoformat()}")
        if allow_gaps:
            rows = _drop_incomplete_days(rows)
            if not rows:
                raise DataError(f"season {season}: no complete days inside the window")
        else:
            _check_complete(rows, season, lo, hi)
        ts, demand, wind = zip(*rows)
        if installed_wind_mw is not None:
            wind_violations += sum(w > installed_wind_mw for w in wind)
        traces.append(
            SeasonTrace(
                season_label=season,
                timestamps=np.array(ts, dtype="datetime64[s]"),
                demand_mw=np.array(demand),
                wind_mw=np.array(wind),
                rescale_factor=1.0,
            )
        )
    if wind_violations:
        warnings.warn(
            f"{wind_violations} wind observations exceed the configured "
            f"installed capacity of {installed_wind_mw} MW"
        )
    return traces


def _check_complete(rows, season, lo, hi):
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


def _drop_incomplete_days(rows):
    by_day: dict = {}
    for r in rows:
        by_day.setdefault(r[0].date(), []).append(r)
    return [r for day in sorted(by_day) if len(by_day[day]) == 24 for r in by_day[day]]


def clip_to_window(trace: SeasonTrace, window: SeasonWindow) -> SeasonTrace:
    """Drop observations outside the window; idempotent on loaded traces."""
    lo, hi = window.bounds(trace.season_label)
    ts = trace.timestamps.astype(object)
    keep = np.array([(lo <= t < hi) for t in ts], dtype=bool)
    if not keep.any():
        raise DataError(f"season {trace.season_label}: nothing left inside the window")
    return SeasonTrace(
        season_label=trace.season_label,
        timestamps=trace.timestamps[keep],
        demand_mw=trace.demand_mw[keep],
        wind_mw=trace.wind_mw[keep],
        rescale_factor=trace.rescale_factor,
    )


def daily_peak_quantile(trace: SeasonTrace, q: float) -> float:
    """Quantile (linear interpolation) of the per-calendar-day demand maxima."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    days = trace.timestamps.astype("datetime64[D]")
    # timestamps are sorted, so day boundaries are contiguous runs
    _, starts = np.unique(days, return_index=True)
    maxima = np.maximum.reduceat(trace.demand_mw, starts)
    return float(np.quantile(maxima, q))


def lowess_fit(points, span: float = 2.0 / 3.0, iterations: int = 1) -> np.ndarray:
    """Robust locally weighted linear regression (tricube kernel).

    ``points`` is a sequence of (x, value) pairs; the fitted value at each x
    is returned in input order. ``iterations`` counts the robustness passes
    applied after the initial fit, each reweighting by the bisquare function
    of the scaled residuals.
    """
    pts = list(points)
    if len(pts) < 3:
        raise ValueError("lowess needs at least 3 points")
    if not 0.0 < span <= 1.0:
        raise ValueError("span must lie in (0, 1]")
    x = np.array([float(p[0]) for p in pts])
    y = np.array([float(p[1]) for p in pts])
    n = x.size
    neighborhood = int(ceil(span * n))
    if neighborhood < 3:
        raise ValueError(f"span {span} leaves fewer than 2 usable points per neighborhood")
    r = min(n - 1, neighborhood)

    dist = np.abs(x[:, None] - x[None, :])
    h = np.sort(dist, axis=1)[:, r]
    h = np.where(h > 0.0, h, 1.0)  # degenerate x spread: flat weights
    w = np.clip(dist / h[:, None], 0.0, 1.0)
    w = (1.0 - w**3) ** 3

    fitted = np.zeros(n)
    delta = np.ones(n)
    for _ in range(iterations + 1):
        for i in range(n):
            wi = delta * w[i]
            sw = wi.sum()
            swx = np.dot(wi, x)
            swxx = np.dot(wi, x * x)
            swy = np.dot(wi, y)
            swxy = np.dot(wi, x * y)
            det = sw * swxx - swx * swx
            if det <= 1e-12 * max(sw * swxx, 1e-300):
                fitted[i] = swy / sw if sw > 0 else y[i]
            else:
                beta = (sw * swxy - swx * swy) / det
                alpha = (swy - beta * swx) / sw
                fitted[i] = alpha + beta * x[i]
        residuals = y - fitted
        s = np.median(np.abs(residuals))
        if s <= 0.0:
            break
        delta = np.clip(residuals / (6.0 * s), -1.0, 1.0)
        delta = (1.0 - delta**2) ** 2
    return fitted


def compute_rescale_factors(
    quantiles,
    reference_label: str,
    span: float = 2.0 / 3.0,
    iterations: int = 1,
) -> dict[str, float]:
    """Map each season to fitted(reference) / fitted(season).

    ``quantiles`` is an ordered sequence of (season_label, value) pairs, one
    per historical season; the Lowess fit runs over their positions.
    """
    labels = [str(lab) for lab, _ in quantiles]
    values = [float(v) for _, v in quantiles]
    if reference_label not in labels:
        raise DataError(f"reference season {reference_label!r} not in quantile history")
    fitted = lowess_fit(list(enumerate(values)), span=span, iterations=iterations)
    if np.any(fitted <= 0.0):
        bad = labels[int(np.argmax(fitted <= 0.0))]
        raise DataError(f"non-positive Lowess fitted value for season {bad!r}")
    ref = fitted[labels.index(reference_label)]
    return {lab: float(ref / f) for lab, f in zip(labels, fitted)}


def apply_rescaling(trace: SeasonTrace, factor: float) -> SeasonTrace:
    """Multiply demand by ``factor``; wind is already forward-mapped."""
    if not factor > 0.0:
        raise ValueError("rescale factor must be positive")
    return replace(
        trace,
        demand_mw=trace.demand_mw * factor,
        rescale_factor=trace.rescale_factor * factor,
    )


def load_quantile_history(path) -> list[tuple[str, float]]:
    """Read the optional per-season quantile history CSV, in file order."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"quantile history file not found: {path}")
    out = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        _require_columns(reader.fieldnames, QUANTILE_COLUMNS, path)
        for row in reader:
            line = reader.line_num
            season = (row.get("season") or "").strip()
            if not season:
                raise DataError(f"line {line}: empty season label")
            out.append((season, _parse_float(row.get("quantile_mw"), "quantile_mw", line)))
    if not out:
        raise DataError(f"{path}: no quantile rows")
    return out
