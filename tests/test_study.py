import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adequacy import dnw, evt, risk, study
from adequacy.errors import ConfigError, DataError, NumericalError
from adequacy.study import (
    Column,
    RunConfig,
    config_digest,
    pooled_column,
    rescale_traces,
    run_full_study,
    write_season_tables,
)
from adequacy.pmf import convolve_each
from adequacy.risk import SeasonSample, ShortfallFunctionals
from adequacy.uncertainty import (
    MAX_DROP_RATE,
    ConfidenceInterval,
    resample_counts,
    resample_indices,
    season_bootstrap,
)
from helpers import make_trace
from oracles import build_model, discretize, shortfall_metrics


def drawn_metrics(sample, drawn, kind, q=None):
    """{"lole", "eeu"} of ``sample`` on a drawn list of its traces: each of
    its seasons counts as often as its label is drawn."""
    labels = [t.season_label for t in drawn]
    metrics, _ = sample.metrics([labels.count(t.season_label) for t in sample.seasons], kind, q)
    return {"lole": metrics.lole_hours, "eeu": metrics.eeu_mwh}


def tiny_config(**overrides):
    base = dict(
        traces_path="traces.csv",
        fleet_path="fleet.csv",
        seed=1,
        output_dir="out",
    )
    base.update(overrides)
    return RunConfig(**base)


class TestRunConfig:
    def test_rejects_no_models(self):
        with pytest.raises(ConfigError, match="model kind"):
            tiny_config(model_kinds=())

    def test_rejects_unknown_model(self):
        with pytest.raises(ConfigError, match="unknown"):
            tiny_config(model_kinds=("astrology",))

    def test_rejects_bad_threshold_quantile(self):
        with pytest.raises(ConfigError, match="quantile"):
            tiny_config(threshold_quantiles=(0.4,))

    def test_columns_order(self):
        cfg = tiny_config()
        assert [c[0] for c in cfg.columns()] == ["evt_90", "evt_95", "evt_98", "hindcast", "ind"]

    def test_evt_labels_are_the_exact_percent(self):
        cfg = tiny_config(model_kinds=(dnw.EVT,), threshold_quantiles=(0.9, 0.995))
        assert [c[0] for c in cfg.columns()] == ["evt_90", "evt_99.5"]

    def test_digest_tracks_numeric_flags_not_output_dir(self):
        a = config_digest(tiny_config())
        assert config_digest(tiny_config(output_dir="elsewhere")) == a
        assert config_digest(tiny_config(seed=2)) != a
        assert config_digest(tiny_config(threshold_quantiles=(0.95,))) != a


class TestEmitTable:
    @staticmethod
    def columns(first_value=2.82):
        def column(label, lole, ci):
            seasons = [risk.RiskMetrics(v, 0.0, 3528) for v in lole]
            return Column(label, dnw.HINDCAST, None, seasons, [None] * len(lole),
                          {"lole_hours": ci, "eeu_gwh": ci}, None, None, None)

        return [
            column("evt_95", [first_value, 2.22], ConfidenceInterval(1.92, 9.37, 0.95)),
            column("hindcast", [3.07, 2.29], ConfidenceInterval(1.97, 9.79, 0.95)),
        ]

    @staticmethod
    def write(columns, stem):
        return write_season_tables(columns, ["2007-08", "2008-09"], "lole_hours", stem)

    def test_text_layout(self, tmp_path):
        self.write(self.columns(), tmp_path / "t")
        lines = (tmp_path / "t.txt").read_text().splitlines()
        # 2 seasons + Mean + CI + header
        assert len(lines) == 5
        assert lines[0].startswith("season")
        assert lines[-2].startswith("Mean")
        assert lines[-1].startswith("CI")
        assert "(1.92,9.37)" in lines[-1]

    def test_csv_roundtrip_full_precision(self, tmp_path):
        columns = self.columns(first_value=2.0 / 3.0)  # not representable in 2 decimals
        self.write(columns, tmp_path / "t")
        rows = [line.split(",") for line in (tmp_path / "t.csv").read_text().splitlines()]
        assert float(rows[1][1]) == 2.0 / 3.0
        assert rows[0] == ["season", "evt_95", "hindcast"]
        assert [r[0] for r in rows[1:]] == ["2007-08", "2008-09", "mean", "ci_lower", "ci_upper"]

    def test_json_structure(self, tmp_path):
        self.write(self.columns(), tmp_path / "t")
        payload = json.loads((tmp_path / "t.json").read_text())
        assert payload["columns"] == ["evt_95", "hindcast"]
        assert payload["ci"]["evt_95"]["lower"] == 1.92


class TestRescaleTraces:
    def test_missing_season_in_history(self, demo_system):
        traces = demo_system["traces"]
        history = [(f"{1999 + i}-{i:02d}", 50_000.0 + 250.0 * i) for i in range(6)]
        with pytest.raises(DataError, match="missing"):
            rescale_traces(traces, history, None, 2.0 / 3.0, 1)

    def test_reference_factor_is_unity(self, demo_system):
        assert demo_system["factors"]["2013-14"] == 1.0


class TestHindcastBootstrapIdentity:
    def test_block_equals_season_for_hindcast(self, demo_system):
        # pooling is linear for the hindcast model, so at matched seeds the
        # block bootstrap must reproduce the season bootstrap
        fleet = demo_system["fleet"]
        traces = demo_system["traces"]
        n_hours = traces[0].n_hours
        sample = SeasonSample(ShortfallFunctionals(fleet), traces, n_hours)
        per_season = [drawn_metrics(sample, [t], "hindcast")["lole"] for t in traces]
        counts = resample_counts(len(traces), 500, 404)
        _, _, block = pooled_column(sample, "hindcast", None, counts, 0.95)
        block_ci = block.intervals["lole_hours"]
        season_ci = season_bootstrap(per_season, counts, 0.95)
        assert block.replications_dropped == 0  # hindcast has no fit step to fail
        assert block_ci.lower == pytest.approx(season_ci.lower, rel=0.02)
        assert block_ci.upper == pytest.approx(season_ci.upper, rel=0.02)
        # the agreement is float-reordering tight, not merely within 2%
        assert block_ci.lower == pytest.approx(season_ci.lower, rel=1e-9)
        assert block_ci.upper == pytest.approx(season_ci.upper, rel=1e-9)


class TestPooledClosedForms:
    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from([dnw.HINDCAST, dnw.INDEPENDENCE]),
        drawn=st.lists(st.integers(0, 6), min_size=1, max_size=10),
    )
    def test_matches_generic_rebuild(self, demo_system, kind, drawn):
        # hindcast and ind replications mix cached per-season pieces; they must
        # equal rebuilding the pooled model from the concatenated seasons
        traces = demo_system["traces"]
        n_hours = traces[0].n_hours
        functionals = ShortfallFunctionals(demo_system["fleet"])
        # the sample holds the seasons in another order than drawn
        sample = SeasonSample(functionals, traces[::-1], n_hours)
        seasons = [traces[i] for i in drawn]
        got = drawn_metrics(sample, seasons, kind)
        model = build_model(seasons, kind, None)
        want = shortfall_metrics(functionals, discretize(model), n_hours)
        rel = 1e-12 if kind == dnw.HINDCAST else 1e-9
        assert got["lole"] == pytest.approx(want.lole_hours, rel=rel)
        assert got["eeu"] == pytest.approx(want.eeu_mwh, rel=rel)


def count_convolutions(monkeypatch) -> tuple[list, list]:
    """Record each pmf that ``convolve_each`` yields, through every adequacy
    module that binds it, and the input and length of each numpy rfft."""
    made, transforms = [], []
    rfft = np.fft.rfft

    def counting_each(a, bs):
        for total in convolve_each(a, bs):
            made.append(total)
            yield total

    def counting_rfft(x, n=None, *args, **kwargs):
        transforms.append((x, n))
        return rfft(x, n, *args, **kwargs)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("adequacy.") and getattr(module, "convolve_each", None) is convolve_each:
            monkeypatch.setattr(module, "convolve_each", counting_each)
    monkeypatch.setattr(np.fft, "rfft", counting_rfft)
    return made, transforms


def fleet_transform_lengths(fleet, transforms) -> tuple[list, list]:
    """The FFT lengths the fleet's probabilities were transformed at, and
    every distinct length any input was transformed at."""
    fleet_lengths = [n for x, n in transforms if np.shares_memory(x, fleet.probabilities)]
    return fleet_lengths, sorted({n for _, n in transforms})


class TestOneSamplePerStudy:
    def test_ind_convolves_once_per_wind_season(self, demo_system, monkeypatch):
        made, transforms = count_convolutions(monkeypatch)
        traces = demo_system["traces"]
        sample = SeasonSample(ShortfallFunctionals(demo_system["fleet"]), traces, 3528)
        _, _, result = pooled_column(sample, dnw.INDEPENDENCE, None,
                                     resample_counts(len(traces), 1000, 1), 0.95)
        assert result.replications_dropped == 0
        assert len(made) == len(traces)
        # the fleet is transformed once per FFT length, each wind once; the
        # demo's seven seasons need two lengths
        fleet_lengths, lengths = fleet_transform_lengths(demo_system["fleet"], transforms)
        assert sorted(fleet_lengths) == lengths and len(lengths) == 2
        assert len(transforms) == len(traces) + len(fleet_lengths)

    def test_evt_replications_compute_no_standard_errors(self, demo_system, monkeypatch):
        # a replication keeps only LoLE and EEU; its fit's SEs wait to be read
        calls = []
        original = evt._standard_errors

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(evt, "_standard_errors", counting)
        traces = demo_system["traces"]
        sample = SeasonSample(ShortfallFunctionals(demo_system["fleet"]), traces, 3528)
        _, _, result = pooled_column(sample, dnw.EVT, 0.90, resample_counts(len(traces), 100, 1), 0.95)
        assert result.replications_used == 100
        assert calls == []
        fit = sample.metrics(np.ones(len(traces)), dnw.EVT, 0.90)[1]
        assert np.isfinite(fit.se_sigma) and np.isfinite(fit.se_xi)
        assert len(calls) == 1  # computed on the first read, then kept

    @staticmethod
    def config(demo_dataset_dir, tmp_path, **overrides):
        return RunConfig(
            traces_path=str(demo_dataset_dir["traces"]), fleet_path=str(demo_dataset_dir["fleet"]),
            quantiles_path=str(demo_dataset_dir["quantiles"]), seed=3,
            output_dir=str(tmp_path / "unused"), replications=100, **overrides,
        )

    def test_study_builds_one_sample(self, demo_dataset_dir, tmp_path, monkeypatch):
        built = []

        class Counted(SeasonSample):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(study, "SeasonSample", Counted)
        study.run_study_computation(self.config(demo_dataset_dir, tmp_path))
        assert len(built) == 1

    def test_per_season_tables_build_no_models(self, demo_dataset_dir, tmp_path, monkeypatch):
        # risk's computation: every value is read from the sample, and the
        # survivor curves, the one place that models a season, are not drawn
        built = []
        original = dnw.survivor
        monkeypatch.setattr(dnw, "survivor", lambda *a, **k: built.append(a) or original(*a, **k))
        cfg = self.config(demo_dataset_dir, tmp_path, include_pooled=False,
                          model_kinds=(dnw.HINDCAST, dnw.INDEPENDENCE))
        study.run_study_computation(cfg)
        assert built == []

    def test_ind_study_convolves_once_per_wind_season(self, demo_dataset_dir, tmp_path, monkeypatch):
        # per-season values, the pooled point and the block bootstrap share one
        # fleet + wind convolution per season, and one fleet transform per FFT length
        made, transforms = count_convolutions(monkeypatch)
        result = study.run_study_computation(
            self.config(demo_dataset_dir, tmp_path, model_kinds=(dnw.INDEPENDENCE,)))
        assert result.columns[0].bootstrap.replications_dropped == 0
        assert len(made) == len(result.sample.seasons) == 7
        fleet_lengths, lengths = fleet_transform_lengths(result.sample.functionals.fleet, transforms)
        assert sorted(fleet_lengths) == lengths
        assert len(transforms) == len(made) + len(fleet_lengths)


class TestEvtPipeline:
    """The evt block-bootstrap replication: one SeasonSample.metrics call per count row."""

    @staticmethod
    def sample(demo_system, seasons=None):
        seasons = demo_system["traces"] if seasons is None else seasons
        return SeasonSample(ShortfallFunctionals(demo_system["fleet"]), seasons, 3528)

    @classmethod
    def pipeline(cls, demo_system, seasons=None, q=0.95):
        sample = cls.sample(demo_system, seasons)
        return lambda drawn: drawn_metrics(sample, drawn, dnw.EVT, q)

    def test_order_of_the_traces_changes_nothing(self, demo_system):
        traces = demo_system["traces"]
        drawn = [traces[i] for i in (0, 2, 2, 3, 5, 6, 6)]
        forward = self.pipeline(demo_system)
        assert forward(drawn) == self.pipeline(demo_system)(drawn[::-1])
        # a pipeline on every season, in another order, agrees too
        backward = self.pipeline(demo_system, traces[::-1])
        assert backward(drawn) == forward(drawn)
        assert backward(traces) == forward(traces)

    def test_matches_study_pooled_and_per_season(self, demo_system):
        traces = demo_system["traces"]
        sample = SeasonSample(ShortfallFunctionals(demo_system["fleet"]), traces, traces[0].n_hours)
        run = self.pipeline(demo_system)
        for trace, one in zip(traces, np.identity(len(traces))):
            metrics, fit = sample.metrics(one, dnw.EVT, 0.95)
            model = build_model(trace, dnw.EVT, 0.95, fit)
            assert run([trace]) == {"lole": metrics.lole_hours, "eeu": metrics.eeu_mwh}
            assert model.fit.n_total == trace.n_hours
            assert np.array_equal(model.body, np.sort(trace.net_demand_mw))

    def test_constant_season_is_dropped_not_aborted(self, demo_system):
        # a season with one value has no exceedances of its own quantile: the
        # multisets drawing only it fail numerically and are dropped
        flat = make_trace("2014-15", np.full(3528, 20_000.0), np.zeros(3528))
        seasons = demo_system["traces"][:3] + [flat]
        sample = self.sample(demo_system, seasons)
        with pytest.raises(NumericalError, match="exceedances"):
            drawn_metrics(sample, [flat], dnw.EVT, 0.95)
        failing = np.flatnonzero((resample_indices(4, 1000, 1) == 3).all(axis=1))
        assert 0 < failing.size <= MAX_DROP_RATE * 1000
        _, _, result = pooled_column(sample, dnw.EVT, 0.95, resample_counts(4, 1000, 1), 0.95)
        assert result.replications_dropped == failing.size
        assert result.first_error.startswith(f"replication {failing[0]}: need at least")


class TestManifestOnFailure:
    def test_failed_stage_recorded(self, tmp_path, demo_dataset_dir):
        cfg = RunConfig(
            traces_path=str(demo_dataset_dir["traces"]),
            fleet_path=str(tmp_path / "missing_fleet.csv"),
            seed=3,
            output_dir=str(tmp_path / "out"),
            replications=100,
        )
        with pytest.raises(DataError):
            run_full_study(cfg)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["failed_stage"] == "compute"
        assert "fleet" in manifest["error"]


class TestFullStudyWithoutPooled:
    def test_writes_the_pooled_fits_but_no_pooled_table(self, tmp_path, demo_dataset_dir):
        files = {}
        for include_pooled in (True, False):
            outdir = tmp_path / str(include_pooled)
            run_full_study(RunConfig(
                traces_path=str(demo_dataset_dir["traces"]), fleet_path=str(demo_dataset_dir["fleet"]),
                quantiles_path=str(demo_dataset_dir["quantiles"]), seed=1, output_dir=str(outdir),
                replications=100, include_pooled=include_pooled,
            ))
            files[include_pooled] = {p.name: p.read_bytes() for p in outdir.iterdir()}
        pooled, unpooled = files[True], files[False]
        assert pooled.keys() - unpooled.keys() == {f"pooled_metrics.{s}" for s in ("csv", "json", "txt")}
        assert unpooled.keys() < pooled.keys()
        # the pooled row of each evt column's parameters is refit without the pooled column
        for q in (90, 95, 98):
            name = f"gpd_parameters_q{q}.csv"
            assert unpooled[name] == pooled[name], name
            assert b"\npooled," in unpooled[name]
        assert json.loads(unpooled["manifest.json"])["bootstrap"] == {}
