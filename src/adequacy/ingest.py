"""Loading, windowing, and forward-mapping of hourly demand/wind traces.

The study works on one peak season per historical year (for GB-like systems,
21 weeks from the last Sunday in October). Historical demand is mapped to the
study season by a multiplicative factor derived from a Lowess fit to a
long-run series of high-demand quantiles.

A traces CSV in the layout ``write_traces_csv`` writes (the exact header,
ASCII, LF line endings, three commas a line, unpadded labels and plain
``YYYY-MM-DDTHH:MM:SS`` timestamps) is read in one numpy pass over its bytes:
newline and comma positions give every field's byte range, labels are decoded
once per distinct value, timestamps are converted by integer arithmetic and
numbers are parsed as one fixed-width byte array. Any other file, or one that
holds a faulty field, is read one ``csv.DictReader`` row at a time, to the
same arrays, and the first faulty row is reported by its line number. The
fleet and quantile history CSVs are read by that row loop too (``_csv_rows``).
Every input file is read through ``_read_input``, every output directory made
by ``make_output_dir``.
"""

from __future__ import annotations

import calendar
import csv
import io
import re
import warnings
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from math import ceil
from pathlib import Path

import numpy as np
import numpy.ma  # noqa: F401  np.median loads it: at import, not inside a run
from numpy.lib.stride_tricks import sliding_window_view

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
    """Write ``traces`` as a traces CSV, one row per hour, each number to full precision."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for trace in traces:
            for ts, d, w in zip(trace.timestamps.astype(object), trace.demand_mw, trace.wind_mw):
                fh.write(f"{trace.season_label},{ts.isoformat()},{float(d)!r},{float(w)!r}\n")
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
# the one timestamp form the byte pass reads: a digit wherever the template
# has a 0; any other (offsets, Z, a space separator, fractions) is the row loop's
_PLAIN_ISO = np.frombuffer(b"0000-00-00T00:00:00", dtype=np.uint8)
# a character minus the template's, in unsigned arithmetic, is at most this
# where it fits: a digit 0-9 at a 0, the template's own character elsewhere
_PLAIN_SLACK = np.where(_PLAIN_ISO == ord("0"), 9, 0).astype(np.uint8)
_MONTH_DAYS = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
_HEADER = ",".join(TRACE_COLUMNS).encode() + b"\n"
# widest label or number field the byte pass copies into a matrix: one long
# field would otherwise widen every row's copy
_MAX_FIELD_BYTES = 64


def _plain_stamps(chars: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of 19 character codes as microseconds since 1970, and which are valid.

    A valid row is a ``YYYY-MM-DDTHH:MM:SS`` stamp that datetime.fromisoformat
    reads: year at least 1, a day that exists in its month (leap years
    included), hour below 24, minute and second below 60. The days are counted
    by the proleptic Gregorian civil-to-days formula (Hinnant's
    ``days_from_civil``); an invalid row's value is meaningless.
    """
    ok = (chars - _PLAIN_ISO <= _PLAIN_SLACK).all(axis=1)

    def number(lo, hi):
        value = np.zeros(len(chars), dtype=np.int64)
        for i in range(lo, hi):
            value = value * 10 + chars[:, i] - ord("0")
        return value

    year, month, day = number(0, 4), number(5, 7), number(8, 10)
    hour, minute, second = number(11, 13), number(14, 16), number(17, 19)
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.clip(month, 1, 12) - 1] + (leap & (month == 2))
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
    ok &= (hour < 24) & (minute < 60) & (second < 60)
    y = year - (month <= 2)  # count years from March: a leap day ends its year
    era = y // 400
    year_of_era = y - era * 400
    day_of_year = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = (era * 146_097 + year_of_era * 365 + year_of_era // 4 - year_of_era // 100
            + day_of_year - 719_468)
    return (((days * 24 + hour) * 60 + minute) * 60 + second) * 1_000_000, ok


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


def _gather(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray | None:
    """Fields buf[lo:hi] as the rows of a zero-padded uint8 matrix.

    None if a field is empty or wider than _MAX_FIELD_BYTES.
    """
    lengths = hi - lo
    width = int(lengths.max())
    if width > _MAX_FIELD_BYTES or not lengths.all():
        return None
    last = buf.size - width  # a field starting after it has fewer than width bytes left
    rows = sliding_window_view(buf, width)[np.minimum(lo, last)]
    for i in np.flatnonzero(lo > last):
        rows[i, : lengths[i]] = buf[lo[i] : hi[i]]
    rows *= np.arange(width) < lengths[:, None]
    return rows


def _scan_labels(buf, lo, hi):
    """Season labels as (label -> code, code per row), codes in order of first
    appearance; None if a label is empty or padded."""
    rows = _gather(buf, lo, hi)
    if rows is None:
        return None
    keys = rows.view(f"S{rows.shape[1]}").ravel()  # an S value drops the zero padding
    raw, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    names = [label.decode() for label in raw]
    if any(name != name.strip() for name in names):
        return None
    order = np.argsort(first)
    return {names[i]: code for code, i in enumerate(order)}, np.argsort(order)[inverse]


def _scan_floats(buf, lo, hi):
    """Non-negative finite floats by Python's float() grammar; None if one is not."""
    rows = _gather(buf, lo, hi)
    if rows is None:
        return None
    try:
        values = rows.view(f"S{rows.shape[1]}").ravel().astype(float)
    except ValueError:
        return None
    if not np.isfinite(values).all() or (values < 0.0).any():
        return None
    return values


def _scan_bytes(data: bytes):
    """_read_columns in one numpy pass over the file's bytes; None to decline.

    The pass reads the one layout write_traces_csv writes: the header line
    ``season,timestamp,demand_mw,wind_mw``, then ASCII lines of three commas
    each, every line ending in LF, with unpadded labels and plain timestamps.
    The commas give each field's byte range; labels and numbers are copied
    into fixed-width byte matrices (_gather) and timestamps are converted by
    integer arithmetic (_plain_stamps). Any other file, or one with a faulty
    field or a field wider than _MAX_FIELD_BYTES, is declined; the row loop
    (_read_csv) then reads it and reports any fault.
    """
    if not (data.startswith(_HEADER) and data.endswith(b"\n") and data.isascii()):
        return None
    if any(byte in data for byte in (b"\0", b"\r", b'"')):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    newlines = np.flatnonzero(buf == ord("\n"))
    commas = np.flatnonzero(buf == ord(","))
    if (np.diff(np.searchsorted(commas, newlines), prepend=0) != 3).any():
        return None  # a blank, short or long line
    if newlines.size == 1:  # a header and no rows
        return {}, *(np.empty(0, dtype=d) for d in ("int64", "datetime64[us]", float, float))
    cuts = commas.reshape(-1, 3)[1:]
    labels = _scan_labels(buf, newlines[:-1] + 1, cuts[:, 0])
    if labels is None:
        return None
    lo = cuts[:, 0] + 1
    if (cuts[:, 1] - lo != _PLAIN_ISO.size).any():
        return None
    us, ok = _plain_stamps(sliding_window_view(buf, _PLAIN_ISO.size)[lo])
    if not ok.all():
        return None
    demand = _scan_floats(buf, cuts[:, 1] + 1, cuts[:, 2])
    wind = None if demand is None else _scan_floats(buf, cuts[:, 2] + 1, newlines[1:])
    if wind is None:
        return None
    return *labels, us.view("datetime64[us]"), demand, wind


def _read_columns(path: Path):
    """All rows of a traces CSV as (label -> code, code, timestamp, demand, wind).

    One vectorised pass over the file's bytes reads it (_scan_bytes), or
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
        if "/" in season or "\\" in season:
            raise DataError(f"season label {season!r} holds a path separator")
        if re.search(r'[,"\r\n]', season):
            raise DataError(f"season label {season!r} holds a comma, quote or line break, "
                            f"which the CSV tables cannot hold")

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
