import json

import numpy as np
import pytest

from adequacy.cli import main
from adequacy.study import RunConfig, run_study_computation


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDemoCommand:
    def test_writes_dataset(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "demo", "--out", str(tmp_path))
        assert code == 0
        for name in ("traces.csv", "fleet.csv", "quantile_history.csv"):
            assert (tmp_path / name).exists()


class TestFleetCommand:
    def test_summary(self, demo_dataset_dir, capsys):
        code, out, _ = run_cli(capsys, "fleet", "--fleet", str(demo_dataset_dir["fleet"]), "--summary")
        assert code == 0
        assert "units: 100" in out
        assert "total capacity" in out

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "fleet", "--fleet", str(tmp_path / "nope.csv"))
        assert code == 3
        assert "data error" in err


class TestIngestCommand:
    def test_rescale_outputs(self, demo_dataset_dir, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "ingest",
            "--traces", str(demo_dataset_dir["traces"]),
            "--quantiles", str(demo_dataset_dir["quantiles"]),
            "--out", str(tmp_path),
        )
        assert code == 0
        factors = dict(
            line.split(",")
            for line in (tmp_path / "rescale_factors.csv").read_text().splitlines()[1:]
        )
        assert float(factors["2013-14"]) == 1.0
        assert (tmp_path / "rescaled_traces.csv").exists()


class TestFitCommand:
    def test_fit_and_scan(self, demo_dataset_dir, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "fit",
            "--traces", str(demo_dataset_dir["traces"]),
            "--season", "2007-08",
            "--threshold-quantile", "0.95",
            "--scan", "44000:48000:1000",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert "sigma=" in out and "xi=" in out
        qq = (tmp_path / "qq_2007-08.csv").read_text().splitlines()
        assert qq[0] == "model_mw,empirical_mw"
        assert len(qq) == 1 + 177  # 5% strict exceedances of 3528 hours
        scan = (tmp_path / "threshold_scan_2007-08.csv").read_text().splitlines()
        assert scan[0] == "threshold_mw,sigma,xi,sigma_star,se_sigma,se_xi,n_exceed"
        assert len(scan) == 6  # 44000..48000 step 1000

    def test_bad_scan_spec_is_config_error(self, demo_dataset_dir, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "fit",
            "--traces", str(demo_dataset_dir["traces"]),
            "--season", "2007-08",
            "--scan", "nonsense",
            "--out", str(tmp_path),
        )
        assert code == 2
        assert "configuration error" in err

    def test_too_extreme_quantile_is_numerical_failure(self, demo_dataset_dir, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "fit",
            "--traces", str(demo_dataset_dir["traces"]),
            "--season", "2007-08",
            "--threshold-quantile", "0.9995",
            "--out", str(tmp_path),
        )
        assert code == 4
        assert "numerical failure" in err


class TestDnwCommand:
    def test_pooled_survivor_export(self, demo_dataset_dir, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "dnw",
            "--traces", str(demo_dataset_dir["traces"]),
            "--model", "hindcast",
            "--pooled",
            "--out", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "survivor_hindcast_pooled.csv").read_text().splitlines()
        assert lines[0] == "v_mw,prob"
        probs = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert np.all(np.diff(probs) <= 1e-15)

    def test_per_season_evt_export(self, demo_dataset_dir, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys,
            "dnw",
            "--traces", str(demo_dataset_dir["traces"]),
            "--model", "evt",
            "--per-season",
            "--out", str(tmp_path),
        )
        assert code == 0
        files = sorted(p.name for p in tmp_path.iterdir())
        assert len(files) == 7
        assert files[0] == "survivor_evt_2007-08.csv"


class TestRiskCommand:
    def test_tables_emitted(self, demo_dataset_dir, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "risk",
            "--traces", str(demo_dataset_dir["traces"]),
            "--fleet", str(demo_dataset_dir["fleet"]),
            "--quantiles", str(demo_dataset_dir["quantiles"]),
            "--model", "hindcast",
            "--pooled",
            "--reps", "200",
            "--out", str(tmp_path),
            "--quiet",
        )
        assert code == 0
        assert "Mean" in out and "CI" in out
        for stem in ("lole_per_season", "eeu_per_season", "pooled_metrics"):
            for suffix in (".csv", ".json", ".txt"):
                assert (tmp_path / f"{stem}{suffix}").exists()

    def test_per_season_only_without_pooled_flag(self, demo_dataset_dir, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys,
            "risk",
            "--traces", str(demo_dataset_dir["traces"]),
            "--fleet", str(demo_dataset_dir["fleet"]),
            "--model", "hindcast",
            "--reps", "200",
            "--out", str(tmp_path),
            "--quiet",
        )
        assert code == 0
        assert (tmp_path / "lole_per_season.csv").exists()
        assert not (tmp_path / "pooled_metrics.csv").exists()


class TestUncertaintyCommand:
    def test_seed_required(self, demo_dataset_dir, capsys):
        code, _, err = run_cli(
            capsys,
            "uncertainty",
            "--traces", str(demo_dataset_dir["traces"]),
            "--fleet", str(demo_dataset_dir["fleet"]),
            "--metric", "lole", "--mode", "season",
        )
        assert code == 2
        assert "seed" in err

    def test_season_mode_matches_library(self, demo_dataset_dir, capsys):
        code, out, _ = run_cli(
            capsys,
            "uncertainty",
            "--traces", str(demo_dataset_dir["traces"]),
            "--fleet", str(demo_dataset_dir["fleet"]),
            "--quantiles", str(demo_dataset_dir["quantiles"]),
            "--metric", "lole", "--mode", "season", "--model", "hindcast",
            "--reps", "500", "--seed", "9",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["replications"] == 500
        assert payload["ci_lower"] <= payload["point_estimate"] <= payload["ci_upper"]

    def test_block_mode(self, demo_dataset_dir, capsys):
        code, out, _ = run_cli(
            capsys,
            "uncertainty",
            "--traces", str(demo_dataset_dir["traces"]),
            "--fleet", str(demo_dataset_dir["fleet"]),
            "--quantiles", str(demo_dataset_dir["quantiles"]),
            "--metric", "eeu", "--mode", "block", "--model", "hindcast",
            "--reps", "300", "--seed", "9",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "block"
        assert payload["ci_lower"] <= payload["ci_upper"]


class TestGappedSeason:
    """n is the target season's length even when a historical season has gaps."""

    @pytest.fixture(scope="class")
    def gapped_traces(self, demo_dataset_dir, tmp_path_factory):
        header, *rows = demo_dataset_dir["traces"].read_text().splitlines()
        season = rows[0].split(",")[0]
        first = next(i for i, row in enumerate(rows) if row.split(",")[0] == season)
        del rows[first + 1000:first + 1005]  # 5 hours; --allow-gaps drops their day
        path = tmp_path_factory.mktemp("gapped") / "traces.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        return path

    def test_study_uses_target_season_length(self, demo_dataset_dir, gapped_traces, tmp_path, capsys):
        common = ["--traces", str(gapped_traces), "--fleet", str(demo_dataset_dir["fleet"]),
                  "--quantiles", str(demo_dataset_dir["quantiles"]), "--allow-gaps"]
        code, _, err = run_cli(
            capsys, "study", *common, "--models", "hindcast", "--reps", "100",
            "--seed", "5", "--out", str(tmp_path / "out"), "--quiet",
        )
        assert code == 0, err
        table = json.loads((tmp_path / "out" / "lole_per_season.json").read_text())

        cfg = RunConfig(
            traces_path=str(gapped_traces), fleet_path=str(demo_dataset_dir["fleet"]),
            quantiles_path=str(demo_dataset_dir["quantiles"]), seed=5,
            output_dir=str(tmp_path / "unused"), model_kinds=("hindcast",),
            replications=100, allow_gaps=True, include_pooled=False,
        )
        _, extras = run_study_computation(cfg)
        assert sorted({t.n_hours for t in extras["traces"]}) == [3504, 3528]
        assert [m.n_hours for m in extras["per_season"]["hindcast"]] == [3528] * 7

        code, out, err = run_cli(
            capsys, "uncertainty", *common, "--metric", "lole", "--mode", "season",
            "--model", "hindcast", "--reps", "100", "--seed", "5",
        )
        assert code == 0, err
        assert json.loads(out)["point_estimate"] == pytest.approx(table["mean"]["hindcast"], rel=1e-9)


class TestStudyCommand:
    def test_config_file_with_flag_override(self, demo_dataset_dir, tmp_path, capsys):
        config = {
            "traces": str(demo_dataset_dir["traces"]),
            "fleet": str(demo_dataset_dir["fleet"]),
            "quantiles": str(demo_dataset_dir["quantiles"]),
            "models": ["hindcast", "ind"],
            "reps": 200,
            "seed": 77,
        }
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps(config))
        outdir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "study", "--config", str(cfg_path), "--out", str(outdir),
            "--reps", "150", "--quiet",
        )
        assert code == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        assert manifest["config"]["replications"] == 150  # flag beats config file
        assert manifest["config"]["model_kinds"] == ["hindcast", "independence"]
        table = json.loads((outdir / "lole_per_season.json").read_text())
        assert table["columns"] == ["hindcast", "ind"]
        assert len(table["seasons"]) == 7

    def test_manifest_reports_bootstrap_replications(self, demo_dataset_dir, tmp_path, capsys):
        outdir = tmp_path / "out"
        code, _, _ = run_cli(
            capsys, "study",
            "--traces", str(demo_dataset_dir["traces"]),
            "--fleet", str(demo_dataset_dir["fleet"]),
            "--quantiles", str(demo_dataset_dir["quantiles"]),
            "--reps", "100", "--seed", "3", "--out", str(outdir), "--quiet",
        )
        assert code == 0
        counts = json.loads((outdir / "manifest.json").read_text())["bootstrap"]
        assert list(counts) == ["evt_90", "evt_95", "evt_98", "hindcast", "ind"]
        for column in ("hindcast", "ind"):  # closed-form mixes: nothing can fail
            assert counts[column] == {"used": 100, "dropped": 0, "first_error": None}
        for column, c in counts.items():
            assert c["used"] + c["dropped"] == 100, column
            if c["dropped"]:
                assert c["first_error"].startswith("replication "), column
            else:
                assert c["first_error"] is None, column

    def test_missing_seed_is_config_error(self, demo_dataset_dir, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "study",
            "--traces", str(demo_dataset_dir["traces"]),
            "--fleet", str(demo_dataset_dir["fleet"]),
            "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert "seed" in err

    def test_colliding_column_labels_are_config_error(self, demo_dataset_dir, tmp_path, capsys):
        # 0.951 and 0.954 both round to the label evt_95
        code, _, err = run_cli(
            capsys, "study",
            "--traces", str(demo_dataset_dir["traces"]),
            "--fleet", str(demo_dataset_dir["fleet"]),
            "--threshold-quantiles", "0.951", "0.954",
            "--seed", "1", "--out", str(tmp_path / "z"),
        )
        assert code == 2
        assert "evt_95" in err
        assert not (tmp_path / "z").exists()

    def test_unknown_config_key_rejected_before_compute(self, demo_dataset_dir, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"modles": ["evt"], "seed": 1}))
        code, _, err = run_cli(
            capsys, "study", "--config", str(cfg_path),
            "--traces", str(demo_dataset_dir["traces"]),
            "--fleet", str(demo_dataset_dir["fleet"]),
            "--out", str(tmp_path / "y"),
        )
        assert code == 2
        assert "modles" in err
        assert not (tmp_path / "y").exists()

