import warnings
from datetime import timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adequacy import ingest
from adequacy.errors import DataError
from adequacy.ingest import (
    SeasonTrace,
    SeasonWindow,
    apply_rescaling,
    clip_to_window,
    compute_rescale_factors,
    daily_peak_quantile,
    load_quantile_history,
    load_traces,
    lowess_fit,
)
from helpers import legacy_load_traces, make_trace, write_trace_csv


@pytest.fixture
def window():
    return SeasonWindow()


@pytest.fixture
def small_window():
    return SeasonWindow(weeks=1)


class TestSeasonWindow:
    def test_default_anchor(self, window):
        start = window.start("2007-08")
        assert start.isoformat() == "2007-10-28T00:00:00"
        assert start.weekday() == 6  # Sunday
        assert window.expected_hours == 3528

    def test_first_variant(self):
        w = SeasonWindow(weeks=2, anchor_rule="first Monday in June")
        assert w.start("2010").isoformat() == "2010-06-07T00:00:00"

    def test_bad_rules_rejected(self):
        with pytest.raises(ValueError):
            SeasonWindow(anchor_rule="whenever it gets cold")
        with pytest.raises(ValueError):
            SeasonWindow(anchor_rule="last Caturday in October")
        with pytest.raises(ValueError):
            SeasonWindow(weeks=0)


class TestLoadTraces:
    def test_single_full_season(self, tmp_path, window):
        rng = np.random.default_rng(1)
        trace = make_trace("2007-08", rng.uniform(30e3, 50e3, 3528), rng.uniform(0, 10e3, 3528))
        path = write_trace_csv(tmp_path / "traces.csv", [trace])
        loaded = load_traces(path, window)
        assert len(loaded) == 1
        assert loaded[0].n_hours == 3528
        assert loaded[0].rescale_factor == 1.0
        np.testing.assert_array_equal(loaded[0].demand_mw, trace.demand_mw)

    def test_seven_seasons(self, tmp_path, small_window):
        rng = np.random.default_rng(2)
        labels = [f"{y}-{str(y + 1)[2:]}" for y in range(2007, 2014)]
        traces = [
            make_trace(lab, rng.uniform(30e3, 50e3, 168), rng.uniform(0, 10e3, 168), small_window)
            for lab in labels
        ]
        path = write_trace_csv(tmp_path / "traces.csv", traces)
        loaded = load_traces(path, small_window)
        assert [t.season_label for t in loaded] == labels

    def test_duplicate_timestamp_named(self, tmp_path, small_window):
        trace = make_trace("2007-08", np.full(168, 40e3), np.zeros(168), small_window)
        path = write_trace_csv(tmp_path / "traces.csv", [trace])
        with open(path, "a", encoding="utf-8") as fh:
            dup = trace.timestamps[5].astype(object)
            fh.write(f"2007-08,{dup.isoformat()},41000.0,0.0\n")
        with pytest.raises(DataError, match=dup.isoformat()):
            load_traces(path, small_window)

    def test_gap_reported_with_location(self, tmp_path, small_window):
        trace = make_trace("2007-08", np.full(168, 40e3), np.zeros(168), small_window)
        rows = list(zip(trace.timestamps.astype(object), trace.demand_mw, trace.wind_mw))
        del rows[30]
        gap_trace = SeasonTrace(
            "2007-08",
            np.array([r[0] for r in rows], dtype="datetime64[s]"),
            np.array([r[1] for r in rows]),
            np.array([r[2] for r in rows]),
        )
        path = write_trace_csv(tmp_path / "traces.csv", [gap_trace])
        with pytest.raises(DataError, match="gap"):
            load_traces(path, small_window)

    def test_allow_gaps_drops_incomplete_days(self, tmp_path, small_window):
        trace = make_trace("2007-08", np.full(168, 40e3), np.zeros(168), small_window)
        rows = list(zip(trace.timestamps.astype(object), trace.demand_mw, trace.wind_mw))
        del rows[30]  # day 2 now has 23 hours
        gap_trace = SeasonTrace(
            "2007-08",
            np.array([r[0] for r in rows], dtype="datetime64[s]"),
            np.array([r[1] for r in rows]),
            np.array([r[2] for r in rows]),
        )
        path = write_trace_csv(tmp_path / "traces.csv", [gap_trace])
        loaded = load_traces(path, small_window, allow_gaps=True)
        assert loaded[0].n_hours == 168 - 24

    def test_rows_outside_window_dropped(self, tmp_path, small_window):
        trace = make_trace("2007-08", np.full(168, 40e3), np.zeros(168), small_window)
        path = write_trace_csv(tmp_path / "traces.csv", [trace])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("2007-08,2007-06-01T00:00:00,39000.0,0.0\n")
        loaded = load_traces(path, small_window)
        assert loaded[0].n_hours == 168

    def test_malformed_row_reports_line(self, tmp_path, small_window):
        path = tmp_path / "traces.csv"
        path.write_text(
            "season,timestamp,demand_mw,wind_mw\n"
            "2007-08,2007-10-28T00:00:00,40000.0,0.0\n"
            "2007-08,2007-10-28T01:00:00,not-a-number,0.0\n"
        )
        with pytest.raises(DataError, match="line 3"):
            load_traces(path, small_window)

    def test_missing_column_rejected(self, tmp_path, small_window):
        path = tmp_path / "traces.csv"
        path.write_text("season,timestamp,demand_mw\n2007-08,2007-10-28T00:00:00,1.0\n")
        with pytest.raises(DataError, match="wind_mw"):
            load_traces(path, small_window)

    def test_missing_file(self, small_window, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_traces(tmp_path / "nope.csv", small_window)

    @pytest.mark.parametrize(
        "encoding, newline", [("utf-8-sig", "\n"), ("utf-8", "\r\n")], ids=["bom", "crlf"]
    )
    def test_byte_order_mark_and_crlf(self, tmp_path, small_window, encoding, newline):
        rng = np.random.default_rng(4)
        trace = make_trace("2007-08", rng.uniform(30e3, 50e3, 168), rng.uniform(0, 10e3, 168),
                           small_window)
        path = write_trace_csv(tmp_path / "traces.csv", [trace])
        text = path.read_text(encoding="utf-8")
        path.write_bytes(text.replace("\n", newline).encode(encoding))
        loaded = load_traces(path, small_window)
        assert [t.season_label for t in loaded] == ["2007-08"]
        np.testing.assert_array_equal(loaded[0].demand_mw, trace.demand_mw)
        np.testing.assert_array_equal(loaded[0].wind_mw, trace.wind_mw)

    def test_wind_capacity_warning(self, tmp_path, small_window):
        wind = np.zeros(168)
        wind[10] = 15_000.0
        trace = make_trace("2007-08", np.full(168, 40e3), wind, small_window)
        path = write_trace_csv(tmp_path / "traces.csv", [trace])
        with pytest.warns(UserWarning, match="installed"):
            load_traces(path, small_window, installed_wind_mw=14_000.0)

    def test_windowing_idempotent(self, tmp_path, small_window):
        rng = np.random.default_rng(3)
        trace = make_trace("2007-08", rng.uniform(30e3, 50e3, 168), np.zeros(168), small_window)
        path = write_trace_csv(tmp_path / "traces.csv", [trace])
        loaded = load_traces(path, small_window)[0]
        clipped = clip_to_window(loaded, small_window)
        np.testing.assert_array_equal(clipped.timestamps, loaded.timestamps)
        np.testing.assert_array_equal(clipped.demand_mw, loaded.demand_mw)


SEASONS = ("2007-08", "2008-09", "2009-10")
HEADER = "season,timestamp,demand_mw,wind_mw"


def trace_rows(window, labels=SEASONS, margin=3, seed=0):
    """[label, timestamp, demand, wind] text fields, a few hours either side of each window."""
    rng = np.random.default_rng(seed)
    rows = []
    for label in labels:
        start = window.start(label)
        for h in range(-margin, window.expected_hours + margin):
            ts = start + timedelta(hours=h)
            rows.append([label, ts.isoformat(), repr(float(rng.uniform(20e3, 50e3))),
                         repr(float(rng.uniform(0.0, 12e3)))])
    return rows


def load_outcome(loader, path, window, **kwargs):
    """What a loader returns or raises, with every warning it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            traces = loader(path, window, **kwargs)
        except (DataError, ValueError) as exc:
            result = (type(exc).__name__, str(exc))
        else:
            result = [
                (t.season_label, t.timestamps.dtype, t.timestamps.tolist(), t.demand_mw.dtype,
                 t.demand_mw.tolist(), t.wind_mw.dtype, t.wind_mw.tolist())
                for t in traces
            ]
    return result, [(w.category, str(w.message)) for w in caught]


# text edits on one row; each maps the row's fields to the line(s) written for it
ROW_EDITS = {
    "delete": lambda f: [],
    "duplicate": lambda f: [",".join(f)] * 2,
    "blank_before": lambda f: ["", ",".join(f)],
    "extra_field": lambda f: [",".join(f + ["note"])],
    "short": lambda f: [",".join(f[:3])],
    "zulu": lambda f: [",".join([f[0], f[1] + "Z", *f[2:]])],
    "offset": lambda f: [",".join([f[0], (np.datetime64(f[1]) + np.timedelta64(1, "h")).item()
                                   .isoformat() + "+01:00", *f[2:]])],
    "space": lambda f: [",".join([f[0], f[1].replace("T", " "), *f[2:]])],
    "fraction": lambda f: [",".join([f[0], f[1] + ".25", *f[2:]])],
    "padded": lambda f: [",".join([f" {f[0]} ", f" {f[1]} ", f" {f[2]} ", f[3]])],
    "hour_24": lambda f: [",".join([f[0], f[1][:11] + "24:00:00", *f[2:]])],
    "year_0": lambda f: [",".join([f[0], "0000" + f[1][4:], *f[2:]])],
    "garbage_ts": lambda f: [",".join([f[0], "garbage", *f[2:]])],
    "underscore": lambda f: [",".join([f[0], f[1], "40_000.0", f[3]])],
    "nan": lambda f: [",".join([f[0], f[1], "nan", f[3]])],
    "inf_wind": lambda f: [",".join([*f[:3], "inf"])],
    "bad_float": lambda f: [",".join([f[0], f[1], "much", f[3]])],
    "negative": lambda f: [",".join([*f[:3], "-1"])],
    "empty_label": lambda f: [",".join([" ", *f[1:]])],
    "quoted_newline": lambda f: ['"' + f[0][:5] + '\n' + f[0][5:] + '",' + ",".join(f[1:])],
    "big_wind": lambda f: [",".join([*f[:3], "20000.0"])],
    "wind_at_capacity": lambda f: [",".join([*f[:3], "14000.0"])],
}


def write_lines(path, rows, edits=()):
    """Write rows as CSV text, applying {row index: edit name} first."""
    edits = dict(edits)
    lines = [HEADER]
    for i, fields in enumerate(rows):
        lines.extend(ROW_EDITS[edits[i]](fields) if i in edits else [",".join(fields)])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestColumnarLoaderMatchesRowByRow:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_seasons=st.integers(1, 3),
        shuffle=st.sampled_from(["none", "interleave", "all"]),
        edits=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(sorted(ROW_EDITS))),
                       max_size=4),
        chunk_rows=st.integers(1, 200),
        allow_gaps=st.booleans(),
        installed_wind_mw=st.sampled_from([None, 14_000.0]),
    )
    def test_same_traces_errors_and_warnings(self, tmp_path_factory, seed, n_seasons, shuffle,
                                             edits, chunk_rows, allow_gaps, installed_wind_mw):
        window = SeasonWindow(weeks=1)
        rows = trace_rows(window, SEASONS[:n_seasons], seed=seed)
        rng = np.random.default_rng(seed)
        if shuffle == "all":
            rng.shuffle(rows)
        elif shuffle == "interleave":  # seasons alternate, each still in time order
            per = len(rows) // n_seasons
            seasons = (rows[s * per : (s + 1) * per] for s in range(n_seasons))
            rows = [r for group in zip(*seasons) for r in group]
        path = write_lines(tmp_path_factory.mktemp("traces") / "traces.csv", rows,
                           [(i % len(rows), name) for i, name in edits])
        kwargs = {"allow_gaps": allow_gaps, "installed_wind_mw": installed_wind_mw}
        with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
            new = load_outcome(load_traces, path, window, **kwargs)
        assert new == load_outcome(legacy_load_traces, path, window, **kwargs)

    @pytest.mark.parametrize("allow_gaps", [False, True])
    def test_demo_dataset(self, demo_dataset_dir, allow_gaps):
        path, window = demo_dataset_dir["traces"], SeasonWindow()
        new = load_outcome(load_traces, path, window, allow_gaps=allow_gaps)
        assert new == load_outcome(legacy_load_traces, path, window, allow_gaps=allow_gaps)


class TestLoaderEdgeCases:
    """Behaviour pinned row by row; each case also agrees with the row-by-row loader."""

    @pytest.fixture
    def week(self):
        return SeasonWindow(weeks=1)

    def outcome(self, tmp_path, week, edits, **kwargs):
        path = write_lines(tmp_path / "traces.csv", trace_rows(week, SEASONS[:1], margin=0), edits)
        new = load_outcome(load_traces, path, week, **kwargs)
        assert new == load_outcome(legacy_load_traces, path, week, **kwargs)
        result, caught = new
        assert caught == []  # no timezone or other warning from either loader
        return result

    @pytest.mark.parametrize("edit, message", [
        ("short", "line 7: bad wind_mw None"),
        ("nan", "line 7: non-finite demand_mw"),
        ("inf_wind", "line 7: non-finite wind_mw"),
        ("negative", "line 7: negative demand or wind"),
        ("empty_label", "line 7: empty season label"),
        ("bad_float", "line 7: bad demand_mw 'much'"),
        ("garbage_ts", "line 7: bad timestamp 'garbage'"),
        ("hour_24", "line 7: bad timestamp '2007-10-28T24:00:00'"),
        ("year_0", "line 7: bad timestamp '0000-10-28T05:00:00'"),
    ])
    def test_faulty_row_message(self, tmp_path, week, edit, message):
        assert self.outcome(tmp_path, week, {5: edit}) == ("DataError", message)

    @pytest.mark.parametrize("line, message", [
        (" ,garbage,much,-1", "empty season label"),
        ("2007-08,garbage,much,-1", "bad timestamp 'garbage'"),
        ("2007-08,2007-10-28T05:00:00,much,nan", "bad demand_mw 'much'"),
        ("2007-08,2007-10-28T05:00:00,-1,nan", "non-finite wind_mw"),
        ("2007-08,2007-10-28T05:00:00,-1,much", "bad wind_mw 'much'"),
    ])
    def test_fields_checked_in_order(self, tmp_path, week, line, message):
        path = write_lines(tmp_path / "traces.csv", trace_rows(week, SEASONS[:1], margin=0))
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[6] = line
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for loader in (load_traces, legacy_load_traces):
            with pytest.raises(DataError) as excinfo:
                loader(path, week)
            assert str(excinfo.value) == f"line 7: {message}"

    def test_first_gap_reported(self, tmp_path, week):
        assert self.outcome(tmp_path, week, {10: "delete", 20: "delete"}) == (
            "DataError",
            "season 2007-08: non-hourly gap between 2007-10-28T09:00:00 and "
            "2007-10-28T11:00:00 (use allow_gaps to tolerate)",
        )

    def test_wind_at_capacity_not_counted(self, tmp_path, week):
        path = write_lines(tmp_path / "traces.csv", trace_rows(week, SEASONS[:1], margin=0),
                           {3: "wind_at_capacity", 4: "big_wind"})
        with pytest.warns(UserWarning, match="^1 wind observations exceed"):
            load_traces(path, week, installed_wind_mw=14_000.0)

    def test_first_fault_in_file_order_and_row_order(self, tmp_path, week):
        # row 6 has a bad timestamp and a bad float: the timestamp is reported;
        # a later fault, in another batch, is not
        path = write_lines(tmp_path / "traces.csv", trace_rows(week, SEASONS[:1], margin=0),
                           {40: "nan"})
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[6] = "2007-08,garbage,much,0.0"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with mock.patch.object(ingest, "_CHUNK_ROWS", 4):
            with pytest.raises(DataError) as excinfo:
                load_traces(path, week)
        assert str(excinfo.value) == "line 7: bad timestamp 'garbage'"

    @pytest.mark.parametrize("edit", ["extra_field", "blank_before", "zulu", "space", "padded"])
    def test_accepted_unchanged(self, tmp_path, week, edit):
        assert self.outcome(tmp_path, week, {5: edit}) == self.outcome(tmp_path, week, {})

    def test_offset_converted_to_utc(self, tmp_path, week):
        # 06:00+01:00 is the 05:00 UTC row the edit replaced
        assert self.outcome(tmp_path, week, {5: "offset"}) == self.outcome(tmp_path, week, {})

    def test_underscore_value_read_as_python_float(self, tmp_path, week):
        result = self.outcome(tmp_path, week, {5: "underscore"})
        assert result[0][4][5] == 40_000.0

    def test_quoted_newline_in_label_shifts_line_numbers(self, tmp_path, week):
        path = write_lines(tmp_path / "traces.csv", trace_rows(week, SEASONS[:1], margin=0),
                           {2: "quoted_newline", 5: "nan"})
        with pytest.raises(DataError, match="^line 8: non-finite demand_mw$"):
            load_traces(path, week)
        with pytest.raises(DataError, match="^line 8: non-finite demand_mw$"):
            legacy_load_traces(path, week)

    def test_quoted_newline_in_label_accepted(self, tmp_path, week):
        rows = trace_rows(week, SEASONS[:1], margin=0)
        result = self.outcome(tmp_path, week, {i: "quoted_newline" for i in range(len(rows))})
        assert [season[0] for season in result] == ["2007-\n08"]
        assert result[0][1:] == self.outcome(tmp_path, week, {})[0][1:]


class TestDailyPeakQuantile:
    def test_ten_day_median(self, small_window):
        # maxima 1..10 GW, one per day; type-7 median is 5.5 GW
        demand = np.zeros(240)
        for day in range(10):
            demand[day * 24 : (day + 1) * 24] = 100.0
            demand[day * 24 + 18] = (day + 1) * 1000.0
        trace = make_trace("2007-08", demand, np.zeros(240), SeasonWindow(weeks=2))
        assert daily_peak_quantile(trace, 0.5) == pytest.approx(5500.0)

    def test_constant_demand(self, small_window):
        trace = make_trace("2007-08", np.full(72, 4_200.0), np.zeros(72), small_window)
        for q in (0.1, 0.5, 0.9):
            assert daily_peak_quantile(trace, q) == 4_200.0

    def test_single_day(self, small_window):
        demand = np.linspace(100.0, 900.0, 24)
        trace = make_trace("2007-08", demand, np.zeros(24), small_window)
        for q in (0.05, 0.5, 0.95):
            assert daily_peak_quantile(trace, q) == 900.0

    def test_bad_quantile_rejected(self, small_window):
        trace = make_trace("2007-08", np.full(24, 1.0), np.zeros(24), small_window)
        with pytest.raises(ValueError):
            daily_peak_quantile(trace, 1.0)

    def test_empty_trace_unconstructable(self):
        with pytest.raises(ValueError):
            make_trace("2007-08", np.array([]), np.array([]))


class TestLowess:
    def test_exact_on_linear(self):
        x = np.arange(23.0)
        y = 3.0 + 0.5 * x
        np.testing.assert_allclose(lowess_fit(list(zip(x, y))), y, rtol=1e-9)

    def test_constant(self):
        fit = lowess_fit([(i, 4.2) for i in range(10)])
        np.testing.assert_allclose(fit, 4.2, rtol=1e-12)

    def test_smooths_noisy_sine(self):
        rng = np.random.default_rng(2024)
        x = np.arange(23.0)
        y = np.sin(x / 4.0) + rng.normal(0.0, 0.3, 23)
        fit = lowess_fit(list(zip(x, y)), span=2.0 / 3.0, iterations=1)
        assert np.var(y - fit) < np.var(y - y.mean())
        # frozen from the seeded run above
        assert np.var(y - fit) == pytest.approx(0.1301364512622688, rel=1e-9)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(8)
        x = np.arange(15.0)
        y = rng.normal(0.0, 1.0, 15)
        a, b = 7.0, -2.5
        f1 = lowess_fit(list(zip(x, a + b * y)))
        f2 = a + b * lowess_fit(list(zip(x, y)))
        np.testing.assert_allclose(f1, f2, rtol=1e-9, atol=1e-9)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            lowess_fit([(0, 1.0), (1, 2.0)])

    def test_span_too_small(self):
        pts = [(float(i), float(i)) for i in range(20)]
        with pytest.raises(ValueError):
            lowess_fit(pts, span=0.05)


class TestRescaleFactors:
    def test_constant_quantiles(self):
        qs = [(f"s{i}", 50_000.0) for i in range(8)]
        factors = compute_rescale_factors(qs, "s7")
        assert factors["s7"] == 1.0
        for f in factors.values():
            assert f == pytest.approx(1.0, abs=1e-12)

    def test_linear_history_ratio(self):
        # values rise linearly 50 -> 60 GW; lowess is exact on linear data,
        # so the oldest season gets factor 60/50 = 1.2
        labels = [f"s{i}" for i in range(11)]
        values = np.linspace(50_000.0, 60_000.0, 11)
        factors = compute_rescale_factors(list(zip(labels, values)), "s10")
        assert factors["s0"] == pytest.approx(1.2, rel=1e-9)
        ordered = [factors[lab] for lab in labels]
        assert all(a > b for a, b in zip(ordered, ordered[1:]))  # older gets larger

    def test_missing_reference(self):
        with pytest.raises(DataError, match="reference"):
            compute_rescale_factors([("a", 1.0), ("b", 2.0), ("c", 3.0)], "zz")

    def test_scale_invariance(self):
        rng = np.random.default_rng(17)
        labels = [f"s{i}" for i in range(9)]
        values = rng.uniform(40_000.0, 60_000.0, 9)
        base = compute_rescale_factors(list(zip(labels, values)), "s8")
        scaled = compute_rescale_factors(list(zip(labels, 3.7 * values)), "s8")
        for lab in labels:
            assert scaled[lab] == pytest.approx(base[lab], rel=1e-12)


class TestApplyRescaling:
    def test_identity(self):
        trace = make_trace("2007-08", np.full(24, 50_000.0), np.zeros(24), SeasonWindow(weeks=1))
        out = apply_rescaling(trace, 1.0)
        np.testing.assert_array_equal(out.demand_mw, trace.demand_mw)
        assert out.rescale_factor == 1.0

    def test_arithmetic(self):
        trace = make_trace("2007-08", np.full(24, 50_000.0), np.zeros(24), SeasonWindow(weeks=1))
        out = apply_rescaling(trace, 1.05)
        assert out.demand_mw[0] == pytest.approx(52_500.0)
        assert out.wind_mw[0] == 0.0
        assert out.rescale_factor == 1.05

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(4)
        demand = rng.uniform(30e3, 50e3, 48)
        trace = make_trace("2007-08", demand, np.zeros(48), SeasonWindow(weeks=1))
        back = apply_rescaling(apply_rescaling(trace, 1.37), 1.0 / 1.37)
        np.testing.assert_allclose(back.demand_mw, demand, rtol=1e-9)

    def test_preserves_ordering(self):
        rng = np.random.default_rng(5)
        demand = rng.uniform(30e3, 50e3, 96)
        trace = make_trace("2007-08", demand, np.zeros(96), SeasonWindow(weeks=1))
        out = apply_rescaling(trace, 1.21)
        np.testing.assert_array_equal(np.argsort(out.demand_mw), np.argsort(demand))

    def test_nonpositive_factor_rejected(self):
        trace = make_trace("2007-08", np.full(24, 1.0), np.zeros(24), SeasonWindow(weeks=1))
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                apply_rescaling(trace, bad)

    @settings(max_examples=25, deadline=None)
    @given(factor=st.floats(0.01, 100.0))
    def test_wind_untouched(self, factor):
        rng = np.random.default_rng(6)
        wind = rng.uniform(0, 10e3, 24)
        trace = make_trace("2007-08", np.full(24, 40e3), wind, SeasonWindow(weeks=1))
        np.testing.assert_array_equal(apply_rescaling(trace, factor).wind_mw, wind)


class TestQuantileHistory:
    def test_byte_order_mark(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_bytes("season,quantile_mw\n2007-08,51000.5\n".encode("utf-8-sig"))
        assert load_quantile_history(path) == [("2007-08", 51000.5)]

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "hist.csv"
        path.write_text("season,quantile_mw\n1991-92,52000\n1992-93,52500.5\n")
        assert load_quantile_history(path) == [("1991-92", 52000.0), ("1992-93", 52500.5)]

    def test_bad_value(self, tmp_path):
        path = tmp_path / "hist.csv"
        path.write_text("season,quantile_mw\n1991-92,much\n")
        with pytest.raises(DataError, match="line 2"):
            load_quantile_history(path)
