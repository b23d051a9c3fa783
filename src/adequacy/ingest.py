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
from itertools import compress
from math import ceil
from operator import itemgetter
from pathlib import Path

import numpy as np
import numpy.ma  # noqa: F401  np.median loads it: at import, not inside a run

from .errors import ConfigError, DataError

HOURS_PER_WEEK = 168

_WEEKDAYS = {name: i for i, name in enumerate(calendar.day_name)}
_MONTHS = {name: i for i, name in enumerate(calendar.month_name) if i}
_ANCHOR_RE = re.compile(r"^(first|last)\s+(\w+)\s+in\s+(\w+)$", re.IGNORECASE)

TRACE_COLUMNS = ("season", "timestamp", "demand_mw", "wind_mw")
QUANTILE_COLUMNS = ("season", "quantile_mw")


@dataclass(frozen=True)
class SeasonWindow:
    """Peak-season definition: a weekly span anchored to a calendar rule."""

    weeks: int = 21
    anchor_rule: str = "last Sunday in October"

    def __post_init__(self):
        if self.weeks < 1:
            raise ConfigError(f"window weeks must be a positive integer, got {self.weeks}")
        self._parse_anchor()  # fail fast on unparseable rules

    @property
    def expected_hours(self) -> int:
        return self.weeks * HOURS_PER_WEEK

    def _parse_anchor(self) -> tuple[str, int, int]:
        m = _ANCHOR_RE.match(self.anchor_rule.strip())
        if not m:
            raise ConfigError(
                f"anchor rule {self.anchor_rule!r} not understood; expected "
                "'first <weekday> in <month>' or 'last <weekday> in <month>'"
            )
        which, weekday, month = m.groups()
        try:
            wd = _WEEKDAYS[weekday.capitalize()]
            mo = _MONTHS[month.capitalize()]
        except KeyError as exc:
            raise ConfigError(f"anchor rule {self.anchor_rule!r}: unknown {exc}") from None
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


# rows parsed per batch: column-wise parsing holds a batch's strings in memory,
# and the whole file's would cost tens of MB on long histories
_CHUNK_ROWS = 1 << 14
_HOUR_US = 3_600_000_000
_DAY_US = 24 * _HOUR_US
# the one timestamp form numpy parses exactly as datetime.fromisoformat does:
# a digit wherever the template has a 0, and not year 0000; anything else
# (offsets, Z, a space separator, fractions) takes the slow path
_PLAIN_ISO = np.array("0000-00-00T00:00:00").reshape(1).view(np.uint32)
_PLAIN_DIGIT = _PLAIN_ISO == ord("0")


def _field(row: list[str], index: int) -> str | None:
    """A row's field as csv.DictReader gives it: None when the row is short."""
    return row[index] if index < len(row) else None


def _check_row(row: list[str], line: int, index: dict[str, int]) -> None:
    """Raise the DataError a faulty row earns, checking its fields in order."""
    season = (_field(row, index["season"]) or "").strip()
    if not season:
        raise DataError(f"line {line}: empty season label")
    _parse_timestamp(_field(row, index["timestamp"]) or "", line)
    demand = _parse_float(_field(row, index["demand_mw"]), "demand_mw", line)
    wind = _parse_float(_field(row, index["wind_mw"]), "wind_mw", line)
    if demand < 0.0 or wind < 0.0:
        raise DataError(f"line {line}: negative demand or wind")


def _parse_timestamps(texts: list[str]) -> np.ndarray | None:
    """Stripped ISO timestamps as naive-UTC datetime64[us]; None if one is bad.

    Plain ``YYYY-MM-DDTHH:MM:SS`` text goes through numpy's parser and is kept
    where it formats back to the same text. Every other entry is parsed by
    ``datetime.fromisoformat`` (via _parse_timestamp), which also converts
    offsets to UTC; no text with an offset reaches numpy.
    """
    out = np.empty(len(texts), dtype="datetime64[us]")
    # only texts of the plain length become a fixed-width array: one long
    # field must not widen the whole batch's
    sized = [len(t) == _PLAIN_ISO.size for t in texts]
    where = np.flatnonzero(sized)
    candidates = np.array(list(compress(texts, sized)), dtype=f"U{_PLAIN_ISO.size}")
    chars = candidates.view(np.uint32).reshape(-1, _PLAIN_ISO.size)
    plain = np.where(_PLAIN_DIGIT, chars - ord("0") <= 9, chars == _PLAIN_ISO).all(axis=1)
    plain &= (chars[:, :4] != ord("0")).any(axis=1)
    where, candidates = where[plain], candidates[plain]
    try:
        parsed = candidates.astype("datetime64[s]")
    except ValueError:  # e.g. hour 24 or 31 November: leave them all to the slow path
        where = where[:0]
    else:
        same = np.datetime_as_string(parsed, unit="s") == candidates
        where = where[same]
        out[where] = parsed[same]
    slow = np.ones(len(texts), dtype=bool)
    slow[where] = False
    for i in np.flatnonzero(slow):
        try:
            out[i] = _parse_timestamp(texts[i], 0)
        except DataError:
            return None
    return out


def _parse_floats(texts: list[str | None]) -> np.ndarray | None:
    """Finite floats with Python's float() grammar; None if one is bad."""
    try:
        values = np.array(list(map(float, texts)))
    except (TypeError, ValueError):
        return None
    return values if np.isfinite(values).all() else None


def _parse_chunk(rows, lines, index, codes_of):
    """One batch of rows as (season code, timestamp, demand, wind) arrays.

    Each column is parsed as a whole. If any row is faulty, the batch is
    walked row by row to raise the first fault in file order.
    """
    try:
        columns = [list(map(itemgetter(index[name]), rows)) for name in TRACE_COLUMNS]
    except IndexError:  # a short row: its missing fields read as None
        columns = [[_field(r, index[name]) for r in rows] for name in TRACE_COLUMNS]
    try:
        labels = list(map(str.strip, columns[0]))
        stamps = list(map(str.strip, columns[1]))
    except TypeError:  # a short row lacks one
        labels = None
    ts = demand = wind = None
    if labels is not None and all(labels):
        ts = _parse_timestamps(stamps)
        demand = _parse_floats(columns[2])
        wind = _parse_floats(columns[3])
    if ts is None or demand is None or wind is None or (demand < 0.0).any() or (wind < 0.0).any():
        for row, line in zip(rows, lines):
            _check_row(row, line, index)
        raise AssertionError("a faulty batch without a faulty row")
    for label in dict.fromkeys(labels):
        codes_of.setdefault(label, len(codes_of))
    codes = np.fromiter(map(codes_of.__getitem__, labels), np.int64, len(labels))
    return codes, ts, demand, wind


def _read_columns(path: Path):
    """All rows of a traces CSV as (label -> code, code, timestamp, demand, wind)."""
    codes_of: dict[str, int] = {}
    parts = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        _require_columns(header, TRACE_COLUMNS, path)
        # a repeated column name reads its last occurrence, as csv.DictReader does
        index = {name: i for i, name in enumerate(header)}
        rows, lines = [], []
        for row in reader:
            if not row:
                continue  # blank line
            rows.append(row)
            lines.append(reader.line_num)
            if len(rows) == _CHUNK_ROWS:
                parts.append(_parse_chunk(rows, lines, index, codes_of))
                rows, lines = [], []
        if rows:
            parts.append(_parse_chunk(rows, lines, index, codes_of))
    if not parts:
        return codes_of, *(np.empty(0, dtype=d) for d in ("int64", "datetime64[us]", float, float))
    return codes_of, *(np.concatenate(column) for column in zip(*parts))


def _iso(t: np.datetime64) -> str:
    return t.astype(object).isoformat()


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
    codes_of, codes, ts, demand, wind = _read_columns(path)

    traces = []
    wind_violations = 0
    for season in sorted(codes_of):
        lo, hi = (np.datetime64(b, "us") for b in window.bounds(season))
        rows = np.flatnonzero((codes == codes_of[season]) & (ts >= lo) & (ts < hi))
        if not rows.size:
            continue  # season present in the file but entirely outside the window
        rows = rows[np.argsort(ts[rows], kind="stable")]
        steps = np.diff(ts[rows]).astype(np.int64)
        repeated = np.flatnonzero(steps == 0)
        if repeated.size:
            raise DataError(
                f"season {season}: duplicate timestamp {_iso(ts[rows[repeated[0]]])}"
            )
        if allow_gaps:
            days = ts[rows].astype(np.int64) // _DAY_US
            _, day_of, day_hours = np.unique(days, return_inverse=True, return_counts=True)
            rows = rows[day_hours[day_of] == 24]
            if not rows.size:
                raise DataError(f"season {season}: no complete days inside the window")
        else:
            _check_complete(ts[rows], steps, season, lo, hi)
        if installed_wind_mw is not None:
            wind_violations += int(np.count_nonzero(wind[rows] > installed_wind_mw))
        traces.append(
            SeasonTrace(
                season_label=season,
                timestamps=ts[rows].astype("datetime64[s]"),
                demand_mw=demand[rows],
                wind_mw=wind[rows],
                rescale_factor=1.0,
            )
        )
    if wind_violations:
        warnings.warn(
            f"{wind_violations} wind observations exceed the configured "
            f"installed capacity of {installed_wind_mw} MW"
        )
    return traces


def _check_complete(ts, steps, season, lo, hi):
    expected = int((hi - lo) // np.timedelta64(1, "h"))
    if ts[0] != lo:
        raise DataError(
            f"season {season}: window starts {_iso(lo)} but first "
            f"observation is {_iso(ts[0])} (use allow_gaps to tolerate)"
        )
    gaps = np.flatnonzero(steps != _HOUR_US)
    if gaps.size:
        t1, t2 = ts[gaps[0]], ts[gaps[0] + 1]
        raise DataError(
            f"season {season}: non-hourly gap between {_iso(t1)} "
            f"and {_iso(t2)} (use allow_gaps to tolerate)"
        )
    if ts.size != expected:
        raise DataError(
            f"season {season}: {ts.size} hours inside the window, expected {expected}"
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
