"""Loading, windowing, and forward-mapping of hourly demand/wind traces.

The study works on one peak season per historical year (for GB-like systems,
21 weeks from the last Sunday in October). Historical demand is mapped to the
study season by a multiplicative factor derived from a Lowess fit to a
long-run series of high-demand quantiles.

A traces CSV in the layout ``write_traces_csv`` writes (the exact header,
ASCII, LF line endings, three commas a line, unpadded labels and plain
``YYYY-MM-DDTHH:MM:SS`` timestamps) is read by one ``np.loadtxt`` call, labels
and timestamps as fixed-width byte strings and numbers as float64. Any other
file, one that holds a faulty field, or one with a number numpy's reader
refuses, is read one ``csv.DictReader`` row at a time, to the same arrays, and
the first faulty row is reported by its line number. The fleet and quantile
history CSVs are read by that row loop too (``_csv_rows``).
Every input file is read through ``_read_input``, every output directory made
by ``make_output_dir`` and every output CSV written by ``write_csv``.
"""

from __future__ import annotations

import calendar
import csv
import io
import re
import warnings
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from itertools import chain, islice
from math import ceil
from pathlib import Path

import numpy as np
import numpy.ma  # noqa: F401  at import, not inside a run: np.median loads it, and so do
# np.unique (its _unique1d calls np.ma.is_masked) and np.quantile, which calls np.unique

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
        try:
            return start, start + timedelta(hours=self.expected_hours)
        except OverflowError:
            raise DataError(f"season {season_label}: the {self.weeks}-week window from "
                            f"{start.date()} ends after the year 9999") from None


@dataclass(frozen=True)
class SeasonTrace:
    """One historical season of paired hourly (demand, wind) observations."""

    season_label: str
    timestamps: np.ndarray = field(repr=False)
    demand_mw: np.ndarray = field(repr=False)
    wind_mw: np.ndarray = field(repr=False)

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


def _read_input(path, what: str) -> bytes:
    """The bytes of the ``what`` input file ("trace", "fleet", ...); any OSError
    (missing, a directory, no permission) is a DataError naming the file."""
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        raise DataError(f"{what} file not found: {path}") from None
    except OSError as exc:
        raise DataError(f"{what} file {path}: {exc.strerror or exc}") from None


def make_output_dir(path) -> Path:
    """``path`` as a directory, made with its parents; ConfigError if it cannot be."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {path}: {exc.strerror or exc}") from None
    return path


def write_traces_csv(traces, path: Path) -> Path:
    """Write ``traces`` as a traces CSV, one row per hour."""
    return write_csv(path, TRACE_COLUMNS, (
        row for t in traces
        for row in zip([t.season_label] * t.n_hours, np.datetime_as_string(t.timestamps).tolist(),
                       t.demand_mw.tolist(), t.wind_mw.tolist())
    ))


def write_csv(path, header, rows) -> Path:
    """Write ``header`` and each of ``rows`` as a comma-joined line, 256 lines to a write.
    A field is written as ``str`` gives it: a Python float as its shortest
    repr, which reads back as the same float."""
    path = Path(path)
    lines = chain([header], rows)
    with path.open("w", encoding="utf-8") as out:
        while chunk := list(islice(lines, 256)):
            out.write("".join(",".join(map(str, row)) + "\n" for row in chunk))
    return path


def _csv_rows(path, columns, what: str):
    """(line number, row) for each row of the ``what`` CSV file, by csv.DictReader.

    The file is UTF-8 with an optional byte order mark, and its header must
    name every one of ``columns``. A byte that is not UTF-8 is a DataError
    naming the file, the line (lines end at LF, CR LF or a lone CR, as
    csv.reader counts them) and the byte; a missing column is one showing the
    header as read. A row's missing fields read as None, and line numbers are
    those of the row's last line.
    """
    data = _read_input(path, what)
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise DataError(
            f"{path}: line {line}: byte {data[exc.start]:#04x} is not UTF-8"
        ) from None
    reader = csv.DictReader(io.StringIO(text, newline=""))
    header = reader.fieldnames or []
    missing = set(columns) - set(header)
    if missing:
        raise DataError(
            f"{path}: missing required columns {sorted(missing)}; header has {header}"
        )
    for row in reader:
        yield reader.line_num, row


_HOUR_US = 3_600_000_000
_DAY_US = 24 * _HOUR_US
_HEADER = ",".join(TRACE_COLUMNS).encode() + b"\n"
# bytes the byte pass declines: NUL, CR and the quote, which csv reads in its own
# way, and 0x1c-0x1f, which numpy's number reader skips and float() refuses
_DECLINED_BYTES = (b"\0", b"\r", b'"', b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# the one timestamp form the byte pass reads: a digit wherever the template
# has a 0, then the zero byte that pads it in its field; any other (offsets,
# Z, a space separator, fractions) is the row loop's
_PLAIN_ISO = np.frombuffer(b"0000-00-00T00:00:00\0", dtype=np.uint8)
# a character minus the template's, in unsigned arithmetic, is at most this
# where it fits: a digit 0-9 at a 0, the template's own character elsewhere
_PLAIN_SLACK = np.where(_PLAIN_ISO == ord("0"), 9, 0).astype(np.uint8)
# loadtxt cuts a value longer than its S field short without an error, so each
# field is one byte wider than the widest label (64 bytes) or stamp the byte
# pass reads; a value that fills its field may have been cut, and is declined
_FIELDS = [("season", "S65"), ("timestamp", f"S{_PLAIN_ISO.size}"),
           ("demand_mw", float), ("wind_mw", float)]
# numpy 2.4's cast of more than 500 byte strings to datetime64 crashes the
# interpreter on an invalid stamp; cast 500 at a time, it raises ValueError
_CAST_ROWS = 500


def _read_csv(path: Path):
    """_read_columns one csv.DictReader row at a time.

    Each row's fields are checked in column order, and the first fault raises
    its DataError with the row's line number.
    """
    codes_of: dict[str, int] = {}
    codes, stamps, demand, wind = [], [], [], []
    for line, row in _csv_rows(path, TRACE_COLUMNS, "trace"):
        season = (row["season"] or "").strip()
        if not season:
            raise DataError(f"line {line}: empty season label")
        stamps.append(_parse_timestamp(row["timestamp"] or "", line))
        demand.append(_parse_float(row["demand_mw"], "demand_mw", line))
        wind.append(_parse_float(row["wind_mw"], "wind_mw", line))
        if demand[-1] < 0.0 or wind[-1] < 0.0:
            raise DataError(f"line {line}: negative demand or wind")
        codes.append(codes_of.setdefault(season, len(codes_of)))
    return (codes_of, np.array(codes, dtype=np.int64), np.array(stamps, dtype="datetime64[us]"),
            np.array(demand, dtype=float), np.array(wind, dtype=float))


def _scan_bytes(data: bytes):
    """_read_columns by one np.loadtxt call over the file's bytes; None to decline.

    The pass reads the one layout write_traces_csv writes: the header line
    ``season,timestamp,demand_mw,wind_mw``, then ASCII lines of four fields
    ending in LF, with unpadded labels and plain timestamps. Any other file, or
    one with a faulty field or a number numpy's reader refuses (``40_000``), is
    declined; the row loop (_read_csv) then reads it and reports any fault.
    """
    if not (data.startswith(_HEADER) and data.endswith(b"\n") and data.isascii()):
        return None
    if any(byte in data for byte in _DECLINED_BYTES):
        return None
    if data == _HEADER:  # loadtxt warns on a file with no rows
        return {}, *(np.empty(0, dtype=d) for d in ("int64", "datetime64[us]", float, float))
    try:
        rows = np.loadtxt(io.BytesIO(data), dtype=_FIELDS, delimiter=",", comments=None,
                          skiprows=1, ndmin=1)
    except ValueError:  # a short or long line, or a field that is not a number
        return None
    if rows.size != data.count(b"\n") - 1:
        return None  # loadtxt skipped a blank line
    labels = rows["season"]
    # a file holds each season's rows together: np.unique sorts one label per run
    starts = np.flatnonzero(np.concatenate(([True], labels[1:] != labels[:-1])))
    raw, first, inverse = np.unique(labels[starts], return_index=True, return_inverse=True)
    names = [label.decode() for label in raw]
    if any(not name or name != name.strip() or len(name) == labels.itemsize for name in names):
        return None  # an empty or padded label, or one that fills its field
    stamps = np.ascontiguousarray(rows["timestamp"])
    if not (stamps.view(np.uint8).reshape(-1, _PLAIN_ISO.size) - _PLAIN_ISO <= _PLAIN_SLACK).all():
        return None
    try:
        us = np.concatenate([stamps[i : i + _CAST_ROWS].astype("datetime64[us]")
                             for i in range(0, stamps.size, _CAST_ROWS)])
    except ValueError:  # no such day, hour, minute or second
        return None
    if us.min() < np.datetime64("0001-01-01"):
        return None  # numpy reads the year 0, fromisoformat does not
    demand, wind = rows["demand_mw"], rows["wind_mw"]
    if not ((demand >= 0.0) & (demand < np.inf) & (wind >= 0.0) & (wind < np.inf)).all():
        return None  # a negative, infinite or NaN number
    order = np.argsort(first)  # codes in order of first appearance
    codes = np.repeat(np.argsort(order)[inverse], np.diff(starts, append=labels.size))
    return {names[i]: code for code, i in enumerate(order)}, codes, us, demand, wind


def _read_columns(path: Path):
    """All rows of a traces CSV as (label -> code, code, timestamp, demand, wind).

    One np.loadtxt call over the file's bytes reads it (_scan_bytes), or
    declines it. A declined file is read one csv.DictReader row at a time
    (_read_csv), which raises the first faulty row's DataError with its line
    number, so every message comes from that loop. Both give codes in order
    of first appearance, timestamps as naive-UTC datetime64[us] and float64
    demand and wind.
    """
    columns = _scan_bytes(_read_input(path, "trace"))
    return _read_csv(path) if columns is None else columns


def _iso(t: np.datetime64) -> str:
    return t.astype(object).isoformat()


def load_traces(
    path,
    window: SeasonWindow | None = None,
    installed_wind_mw: float | None = None,
    allow_gaps: bool = False,
) -> list[SeasonTrace]:
    """Read a traces CSV and return one windowed SeasonTrace per season.

    Every season label starts with a four-digit year and holds no ``/``,
    ``\\``, comma, quote or line break. Rows outside the season window are
    dropped. Within the window the hourly grid must be complete; with
    ``allow_gaps`` incomplete calendar days are dropped instead. Duplicate
    timestamps are always an error.
    """
    window = window or SeasonWindow()
    codes_of, codes, ts, demand, wind = _read_columns(path)
    # a label's year places its window, and the label names the season's output
    # files and rows
    for season in codes_of:
        if not re.match(r"\d{4}", season):
            raise DataError(f"season label {season!r} does not start with a four-digit year")
        if int(season[:4]) == 0:
            raise DataError(f"season label {season!r} starts with the year 0; the calendar starts at 1")
        if "/" in season or "\\" in season:
            raise DataError(f"season label {season!r} holds a path separator")
        if re.search(r'[,"\r\n]', season):
            raise DataError(f"season label {season!r} holds a comma, quote or line break, "
                            f"which the CSV tables cannot hold")

    # each season's row numbers in file order, from one stable sort of the codes
    by_code = np.argsort(codes, kind="stable")
    groups = np.split(by_code, np.cumsum(np.bincount(codes, minlength=len(codes_of)))[:-1])
    traces = []
    wind_violations = 0
    for season in sorted(codes_of):
        lo, hi = (np.datetime64(b, "us") for b in window.bounds(season))
        rows = groups[codes_of[season]]
        stamps = ts[rows]
        rows = rows[(stamps >= lo) & (stamps < hi)]
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
    if not 0.0 < span <= 1.0:
        raise ValueError("span must lie in (0, 1]")
    x = np.array([float(p[0]) for p in pts])
    y = np.array([float(p[1]) for p in pts])
    n = x.size
    neighborhood = int(ceil(span * n))
    if neighborhood < 3:  # so also fewer than 3 points, as span <= 1
        raise ValueError(
            f"span {span} puts ceil(span * n) = {neighborhood} of the n = {n} points "
            f"in each neighbourhood, and the fit needs 3"
        )
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
    reference_label: str | None,
    span: float = 2.0 / 3.0,
    iterations: int = 1,
) -> dict[str, float]:
    """Map each season to fitted(reference) / fitted(season).

    ``quantiles`` is an ordered sequence of (season_label, value) pairs, one
    per historical season; the Lowess fit runs over their positions. A
    ``reference_label`` of None is the last season of the history.
    """
    labels = [str(lab) for lab, _ in quantiles]
    values = [float(v) for _, v in quantiles]
    n = len(values)
    if n < 3:
        raise DataError(
            f"the Lowess fit of the demand rescaling needs at least 3 seasons, got {n}; "
            f"give a longer history with --quantiles"
        )
    reference_label = reference_label or labels[-1]
    if reference_label not in labels:
        raise DataError(f"reference season {reference_label!r} not in quantile history")
    try:
        fitted = lowess_fit(list(enumerate(values)), span=span, iterations=iterations)
    except ValueError as exc:  # the span leaves too few seasons in a neighbourhood
        raise ConfigError(
            f"lowess {exc}; the smallest usable span is 3/n = {3 / n:.4g}, "
            f"or give a longer history with --quantiles"
        ) from None
    if np.any(fitted <= 0.0):
        bad = labels[int(np.argmax(fitted <= 0.0))]
        raise DataError(f"non-positive Lowess fitted value for season {bad!r}")
    ref = fitted[labels.index(reference_label)]
    return {lab: float(ref / f) for lab, f in zip(labels, fitted)}


def apply_rescaling(trace: SeasonTrace, factor: float) -> SeasonTrace:
    """Multiply demand by ``factor``; wind is already forward-mapped."""
    if not factor > 0.0:
        raise ValueError("rescale factor must be positive")
    return replace(trace, demand_mw=trace.demand_mw * factor)


def load_quantile_history(path) -> list[tuple[str, float]]:
    """Read the optional per-season quantile history CSV, in file order.

    A season may appear once: a repeat would count twice in the Lowess fit.
    """
    out, first_line = [], {}
    for line, row in _csv_rows(path, QUANTILE_COLUMNS, "quantile history"):
        season = (row["season"] or "").strip()
        if not season:
            raise DataError(f"line {line}: empty season label")
        if season in first_line:
            raise DataError(f"{path}: season {season} on line {first_line[season]} and again on line {line}")
        first_line[season] = line
        out.append((season, _parse_float(row["quantile_mw"], "quantile_mw", line)))
    if not out:
        raise DataError(f"{path}: no quantile rows")
    return out
