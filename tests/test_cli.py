import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import adequacy
from adequacy import cli, demo, dnw, study, uncertainty
from adequacy.cli import main
from adequacy.demo import DEMO_SEED
from adequacy.study import RunConfig, load_inputs, run_study_computation
from adequacy.uncertainty import block_bootstrap, resample_counts


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

    def test_default_seed_is_the_demo_seed(self, demo_dataset_dir, tmp_path, capsys):
        for name, argv in (("default", []), ("explicit", ["--seed", str(DEMO_SEED)])):
            assert run_cli(capsys, "demo", "--out", str(tmp_path / name), *argv)[0] == 0
        for path in demo_dataset_dir.values():
            for name in ("default", "explicit"):
                assert (tmp_path / name / path.name).read_bytes() == path.read_bytes(), (name, path.name)
        run_cli(capsys, "demo", "--out", str(tmp_path / "other"), "--seed", str(DEMO_SEED + 1))
        assert (tmp_path / "other" / "traces.csv").read_bytes() != demo_dataset_dir["traces"].read_bytes()


class TestFleetCommand:
    def test_summary(self, demo_dataset_dir, capsys):
        code, out, _ = run_cli(capsys, "fleet", "--fleet", str(demo_dataset_dir["fleet"]))
        assert code == 0
        assert "units: 100" in out
        assert "total capacity" in out

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "fleet", "--fleet", str(tmp_path / "nope.csv"))
        assert code == 3
        assert "data error" in err


class TestNonUtf8Input:
    """A byte that is not UTF-8 in any input is a data error (exit 3), not a traceback."""

    @pytest.fixture
    def latin1_inputs(self, demo_dataset_dir, tmp_path):
        def copy(name, line):
            path = tmp_path / f"{name}.csv"
            lines = demo_dataset_dir[name].read_bytes().split(b"\n")
            lines[line - 1] = lines[line - 1].replace(b",", b"\xe9,", 1)
            path.write_bytes(b"\n".join(lines))
            return path
        return copy

    @pytest.mark.parametrize("name, flag", [("traces", "--traces"), ("fleet", "--fleet"),
                                            ("quantiles", "--quantiles")])
    def test_risk_exits_3(self, demo_dataset_dir, latin1_inputs, tmp_path, capsys, name, flag):
        inputs = {"traces": demo_dataset_dir["traces"], "fleet": demo_dataset_dir["fleet"],
                  "quantiles": demo_dataset_dir["quantiles"]}
        inputs[name] = latin1_inputs(name, 4)
        code, _, err = run_cli(
            capsys, "risk", "--traces", str(inputs["traces"]), "--fleet", str(inputs["fleet"]),
            "--quantiles", str(inputs["quantiles"]), "--model", "hindcast", "--reps", "100",
            "--seed", "1", "--out", str(tmp_path / "out"), "--quiet",
        )
        assert code == 3
        assert err == f"data error: {inputs[name]}: line 4: byte 0xe9 is not UTF-8\n"

    def test_study_manifest_names_the_byte(self, demo_dataset_dir, latin1_inputs, tmp_path, capsys):
        traces = latin1_inputs("traces", 2)
        outdir = tmp_path / "out"
        code, _, _ = run_cli(
            capsys, "study", "--traces", str(traces), "--fleet", str(demo_dataset_dir["fleet"]),
            "--reps", "100", "--seed", "1", "--out", str(outdir), "--quiet",
        )
        assert code == 3
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["error"] == f"{traces}: line 2: byte 0xe9 is not UTF-8"


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

    def test_qq_csvs_hold_numbers(self, demo_dataset_dir, tmp_path, capsys):
        traces = str(demo_dataset_dir["traces"])
        code, _, err = run_cli(
            capsys,
            "study", "--traces", traces, "--fleet", str(demo_dataset_dir["fleet"]),
            "--models", "evt", "--threshold-quantiles", "0.95",
            "--reps", "100", "--seed", "1", "--quiet", "--out", str(tmp_path),
        )
        assert code == 0, err
        code, _, err = run_cli(capsys, "fit", "--traces", traces, "--season", "2007-08",
                               "--out", str(tmp_path / "fit"))
        assert code == 0, err
        paths = sorted(tmp_path.glob("qq_*_q95.csv")) + [tmp_path / "fit" / "qq_2007-08.csv"]
        assert len(paths) == 8
        for path in paths:
            header, *rows = path.read_text().splitlines()
            assert header == "model_mw,empirical_mw"
            assert rows
            for row in rows:
                assert [float(field) for field in row.split(",")], (path.name, row)

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

    @pytest.mark.parametrize("scan", ["nan:1:1", "0:inf:1", "1:2:nan", "0:1e20:1", "1e17:1.000000000000001e17:1"])
    def test_non_finite_scan_is_config_error(self, demo_dataset_dir, tmp_path, capsys, scan):
        outdir = tmp_path / "out"
        code, _, err = run_cli(capsys, "fit", "--traces", str(demo_dataset_dir["traces"]),
                               "--season", "2007-08", "--scan", scan, "--out", str(outdir))
        assert code == 2
        assert err.startswith("configuration error: ") and scan in err
        assert not outdir.exists()

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

    def test_per_season_ind_export_is_the_study_curve(self, demo_dataset_dir, tmp_path, capsys):
        # one grid rule and one fit per season, whatever the command: dnw and fit
        # write the study's curves and QQ pairs for a season the study leaves unscaled
        traces = str(demo_dataset_dir["traces"])
        code, _, err = run_cli(
            capsys,
            "study", "--traces", traces, "--fleet", str(demo_dataset_dir["fleet"]),
            "--models", "evt", "hindcast", "ind", "--threshold-quantiles", "0.95",
            "--reps", "100", "--seed", "1", "--quiet", "--out", str(tmp_path / "study"),
        )
        assert code == 0, err
        for model in ("evt", "hindcast", "ind"):
            code, _, err = run_cli(capsys, "dnw", "--traces", traces, "--model", model,
                                   "--per-season", "--out", str(tmp_path / "dnw"))
            assert code == 0, err
        # the study rescales demand; its reference season keeps factor 1
        factors = (tmp_path / "study" / "rescale_factors.csv").read_text().splitlines()[1:]
        unscaled = [season for season, factor in (line.split(",") for line in factors)
                    if float(factor) == 1.0]
        assert unscaled
        for season in unscaled:
            code, _, err = run_cli(capsys, "fit", "--traces", traces, "--season", season,
                                   "--out", str(tmp_path / "fit"))
            assert code == 0, err
            for got, want in ((f"dnw/survivor_ind_{season}.csv", f"survivor_ind_{season}.csv"),
                              (f"dnw/survivor_evt_{season}.csv", f"survivor_evt_95_{season}.csv"),
                              (f"dnw/survivor_hindcast_{season}.csv", f"survivor_hindcast_{season}.csv"),
                              (f"fit/qq_{season}.csv", f"qq_{season}_q95.csv")):
                assert (tmp_path / got).read_bytes() == (tmp_path / "study" / want).read_bytes(), got


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

    def test_repeated_history_season_exits_3(self, demo_dataset_dir, tmp_path, capsys):
        # a repeated row would count twice in the Lowess fit, and the last
        # copy would become the default reference season
        text = demo_dataset_dir["quantiles"].read_text()
        first = text.splitlines()[1]
        quantiles = tmp_path / "quantiles.csv"
        quantiles.write_text(text + " " + first + "\n")
        code, _, err = run_cli(
            capsys, "risk",
            "--traces", str(demo_dataset_dir["traces"]),
            "--fleet", str(demo_dataset_dir["fleet"]),
            "--quantiles", str(quantiles),
            "--model", "hindcast", "--reps", "100", "--quiet",
            "--out", str(tmp_path / "out"),
        )
        n_lines = len(text.splitlines()) + 1
        assert code == 3
        assert f"season {first.split(',')[0]} on line 2 and again on line {n_lines}" in err

    def test_anchor_rule_reaches_the_loader(self, demo_dataset_dir, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "risk",
            "--traces", str(demo_dataset_dir["traces"]),
            "--fleet", str(demo_dataset_dir["fleet"]),
            "--model", "hindcast", "--reps", "100", "--quiet",
            "--anchor-rule", "first Sunday in November",
            "--out", str(tmp_path),
        )
        assert code == 3
        assert "season 2007-08: 3360 hours inside the window, expected 3528" in err

    def test_installed_wind_reaches_the_loader(self, demo_dataset_dir, tmp_path, capsys):
        with pytest.warns(UserWarning, match="installed capacity of 100.0 MW"):
            code, _, _ = run_cli(
                capsys, "risk",
                "--traces", str(demo_dataset_dir["traces"]),
                "--fleet", str(demo_dataset_dir["fleet"]),
                "--model", "hindcast", "--reps", "100", "--quiet",
                "--installed-wind-mw", "100",
                "--out", str(tmp_path),
            )
        assert code == 0

    def test_same_tables_as_study(self, demo_dataset_dir, tmp_path, capsys):
        common = ["--traces", str(demo_dataset_dir["traces"]), "--fleet", str(demo_dataset_dir["fleet"]),
                  "--quantiles", str(demo_dataset_dir["quantiles"]),
                  "--seed", "4", "--reps", "200", "--quiet"]
        code, _, err = run_cli(capsys, "risk", *common, "--model", "evt", "hindcast", "ind",
                               "--pooled", "--out", str(tmp_path / "risk"))
        assert code == 0, err
        code, _, err = run_cli(capsys, "study", *common, "--out", str(tmp_path / "study"))
        assert code == 0, err
        for stem in ("lole_per_season", "eeu_per_season", "pooled_metrics"):
            for suffix in (".csv", ".json", ".txt"):
                name = stem + suffix
                assert (tmp_path / "risk" / name).read_bytes() == (tmp_path / "study" / name).read_bytes(), name

    def test_outputs_do_not_depend_on_the_openblas_thread_count(self, demo_dataset_dir, tmp_path):
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=str(Path(adequacy.__file__).parents[1]))
            outdir = tmp_path / threads
            proc = subprocess.run(
                [sys.executable, "-m", "adequacy.cli", "risk",
                 "--traces", str(demo_dataset_dir["traces"]), "--fleet", str(demo_dataset_dir["fleet"]),
                 "--model", "evt", "hindcast", "--pooled", "--reps", "100", "--seed", "1",
                 "--out", str(outdir), "--quiet"],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append({path.name: path.read_bytes() for path in outdir.iterdir()})
        assert outputs[0].keys() == outputs[1].keys()
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], f"{name} differs between thread counts"


class TestSettingsTable:
    """Each study setting is declared once, in ``cli._CONFIG_KEYS``."""

    # a valid value of every key, none of them RunConfig's default
    VALUES = {
        "traces": "x.csv", "fleet": "y.csv", "out": "z", "seed": 9, "quantiles": "q.csv",
        "ref_season": "2009-10", "models": ["ind", "evt"], "threshold_quantiles": [0.9, 0.99],
        "window_weeks": 3, "anchor_rule": "first Sunday in November", "span": 0.5, "iterations": 2,
        "reps": 150, "level": 0.9, "rescale_quantile": 0.8, "installed_wind_mw": 5000.5,
        "allow_gaps": True,
    }
    BASE = {"traces": "t.csv", "fleet": "f.csv", "out": "o", "seed": 1}

    def study_config(self, monkeypatch, capsys, argv):
        configs = []
        monkeypatch.setattr(cli, "run_full_study",
                            lambda cfg, progress: configs.append(cfg) or SimpleNamespace(outputs=[]))
        code, _, err = run_cli(capsys, "study", *argv)
        assert code == 0, err
        return configs[0]

    @staticmethod
    def flags(values):
        argv = []
        for key, value in values.items():
            words = value if isinstance(value, list) else [] if value is True else [value]
            argv += ["--" + key.replace("_", "-"), *map(str, words)]
        return argv

    def test_every_key_has_a_value(self):
        assert self.VALUES.keys() == cli._CONFIG_KEYS.keys()

    @pytest.mark.parametrize("key", sorted(VALUES))
    def test_flag_and_config_key_give_one_run_config(self, monkeypatch, capsys, tmp_path, key):
        others = self.flags({k: v for k, v in self.BASE.items() if k != key})
        path = tmp_path / "study.json"
        path.write_text(json.dumps({key: self.VALUES[key]}))
        from_file = self.study_config(monkeypatch, capsys, ["--config", str(path), *others])
        from_flag = self.study_config(monkeypatch, capsys, [*self.flags({key: self.VALUES[key]}), *others])
        assert from_flag == from_file != self.study_config(monkeypatch, capsys, self.flags(self.BASE))

    @pytest.mark.parametrize("command", ["ingest", "fit", "dnw", "fleet", "risk", "uncertainty",
                                         "study", "demo"])
    def test_help_exits_0(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: adequacy {command} ")


class TestInvalidSettings:
    """A setting no run can use exits 2 before anything is computed or written."""

    @pytest.mark.parametrize("command, extra, config", [
        ("study", ["--window-weeks", "0"], None),
        ("study", ["--anchor-rule", "bogus"], None),
        ("study", ["--reps", "50"], None),
        ("study", [], {"reps": "many"}),
        ("risk", ["--level", "1.5"], None),
        ("risk", ["--window-weeks", "0"], None),
        ("uncertainty", ["--window-weeks", "0"], None),
        ("ingest", ["--window-weeks", "0"], None),
        ("fit", ["--window-weeks", "0"], None),
        ("dnw", ["--window-weeks", "0"], None),
        ("ingest", ["--span", "1.5"], None),
        ("fit", ["--threshold-quantile", "1.5"], None),
        ("dnw", ["--model", "evt", "--threshold-quantile", "1.5"], None),
        ("study", ["--seed", "-5"], None),
        ("risk", ["--seed", "-5"], None),
        ("uncertainty", ["--seed", "-5"], None),
        ("study", ["--installed-wind-mw=nan"], None),
        ("study", [], {"installed_wind_mw": float("inf")}),
        ("study", [], {"installed_wind_mw": 10**400}),  # an integer past float range
        ("risk", ["--installed-wind-mw=-5"], None),
        ("ingest", ["--installed-wind-mw=0"], None),
        ("fit", ["--installed-wind-mw=inf"], None),
        ("fit", ["--threshold-quantile", "0.3"], None),  # study's (0.5, 1) rule
        ("dnw", ["--model", "evt", "--threshold-quantile", "0.3"], None),
    ])
    def test_exits_2(self, demo_dataset_dir, tmp_path, capsys, command, extra, config):
        if config is not None:
            path = tmp_path / "study.json"
            path.write_text(json.dumps(config))
            extra = ["--config", str(path)]
        traces, fleet = str(demo_dataset_dir["traces"]), str(demo_dataset_dir["fleet"])
        outdir = tmp_path / "out"
        argv = {
            "study": ["--traces", traces, "--fleet", fleet, "--seed", "1", "--out", str(outdir)],
            "risk": ["--traces", traces, "--fleet", fleet, "--model", "hindcast", "--out", str(outdir)],
            "uncertainty": ["--traces", traces, "--fleet", fleet, "--seed", "1",
                            "--metric", "lole", "--mode", "season"],
            "ingest": ["--traces", traces, "--out", str(outdir)],
            "fit": ["--traces", traces, "--season", "2007-08", "--out", str(outdir)],
            "dnw": ["--traces", traces, "--model", "hindcast", "--out", str(outdir)],
        }[command]
        code, _, err = run_cli(capsys, command, *argv, *extra)
        assert code == 2
        assert err.startswith("configuration error: ")
        assert not outdir.exists()


class TestUnusablePaths:
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
    @pytest.mark.parametrize("command", ["study", "risk", "ingest", "fit", "dnw", "demo"])
    def test_output_dir_that_cannot_be_made_exits_2(self, demo_dataset_dir, tmp_path, capsys,
                                                     monkeypatch, command, under):
        # the check comes before any input is read
        def unreachable(*args, **kwargs):
            raise AssertionError("an input was read before --out was checked")

        for module, name in ((cli, "load_traces"), (study, "load_traces"), (demo, "demo_traces")):
            monkeypatch.setattr(module, name, unreachable)
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / "sub" if under else taken
        traces, fleet = str(demo_dataset_dir["traces"]), str(demo_dataset_dir["fleet"])
        argv = {
            "study": ["--traces", traces, "--fleet", fleet, "--seed", "1"],
            "risk": ["--traces", traces, "--fleet", fleet],
            "ingest": ["--traces", traces],
            "fit": ["--traces", traces, "--season", "2007-08"],
            "dnw": ["--traces", traces, "--model", "hindcast"],
            "demo": [],
        }[command]
        code, _, err = run_cli(capsys, command, *argv, "--out", str(out))
        assert code == 2
        assert err.startswith("configuration error: ") and str(out) in err
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize("command, key", [
        ("study", "traces"), ("study", "fleet"), ("study", "quantiles"), ("fleet", "fleet"),
    ])
    def test_input_that_is_a_directory_exits_3(self, demo_dataset_dir, tmp_path, capsys, command, key):
        inputs = {k: str(path) for k, path in demo_dataset_dir.items()}
        inputs[key] = str(tmp_path)
        if command == "fleet":
            argv = ["--fleet", inputs["fleet"]]
        else:
            argv = [*(f"--{k}={v}" for k, v in inputs.items()), "--reps", "100", "--seed", "1",
                    "--quiet", "--out", str(tmp_path / "out")]
        code, _, err = run_cli(capsys, command, *argv)
        assert code == 3
        assert err.startswith("data error: ") and str(tmp_path) in err


class TestTooFewSeasons:
    """Too few seasons for the bootstrap or the Lowess fit exits 2 or 3, with no traceback."""

    @pytest.fixture(scope="class")
    def first_seasons(self, demo_dataset_dir, tmp_path_factory):
        """Traces files of the demo's first 1, 2 and 3 seasons."""
        header, *rows = demo_dataset_dir["traces"].read_text().splitlines()
        seasons = list(dict.fromkeys(row.split(",")[0] for row in rows))
        root = tmp_path_factory.mktemp("first_seasons")
        paths = {}
        for n in (1, 2, 3):
            paths[n] = root / f"traces_{n}.csv"
            kept = [row for row in rows if row.split(",")[0] in seasons[:n]]
            paths[n].write_text("\n".join([header, *kept]) + "\n")
        return paths

    @pytest.mark.parametrize("command, n, history, extra, code, message", [
        ("study", 1, True, [], 3, "1 season(s) inside the study window"),
        ("uncertainty", 1, True, [], 3, "1 season(s) inside the study window"),
        ("risk", 2, False, [], 3, "at least 3 seasons, got 2"),
        ("risk", 3, False, [], 2, "3/n = 1,"),
        ("study", 3, True, ["--span", "0.01"], 2, "span 0.01"),
        ("ingest", 3, False, ["--span", "0.01"], 2, "span 0.01"),
    ])
    def test_exit_code(self, demo_dataset_dir, first_seasons, tmp_path, capsys,
                       command, n, history, extra, code, message):
        argv = [command, "--traces", str(first_seasons[n]), *extra]
        if history:
            argv += ["--quantiles", str(demo_dataset_dir["quantiles"])]
        if command != "ingest":
            argv += ["--fleet", str(demo_dataset_dir["fleet"]), "--seed", "1", "--reps", "100"]
        if command == "uncertainty":
            argv += ["--metric", "lole", "--mode", "season"]
        else:
            argv += ["--out", str(tmp_path / "out")]
        got, _, err = run_cli(capsys, *argv)
        assert got == code, err
        assert message in err
        if command == "study":  # a failed study leaves its manifest
            assert json.loads((tmp_path / "out" / "manifest.json").read_text())["status"] == "failed"

    def test_ingest_with_no_season_inside_the_window(self, tmp_path, capsys):
        traces = tmp_path / "traces.csv"
        traces.write_text("season,timestamp,demand_mw,wind_mw\n2010-11,2010-06-01T00:00:00,100,10\n")
        code, _, err = run_cli(capsys, "ingest", "--traces", str(traces), "--out", str(tmp_path / "out"))
        assert code == 3
        assert f"{traces}: no season inside the 21-week window from the last Sunday in October" in err

    @pytest.mark.parametrize("command", [["dnw", "--model", "ind", "--pooled"],
                                         ["dnw", "--model", "evt", "--per-season"],
                                         ["fit", "--season", "2007-08"], ["ingest"]],
                             ids=["dnw-pooled", "dnw-per-season", "fit", "ingest"])
    def test_no_season_inside_the_window_is_a_data_error(self, demo_dataset_dir, tmp_path, capsys, command):
        # the demo's seasons run from October to March
        code, out, err = run_cli(capsys, *command, "--traces", str(demo_dataset_dir["traces"]),
                                 "--anchor-rule", "first Monday in April", "--window-weeks", "2",
                                 "--out", str(tmp_path / "out"))
        assert (code, out) == (3, "")
        assert err == (f"data error: {demo_dataset_dir['traces']}: no season inside the 2-week window "
                       "from the first Monday in April\n")


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

    @pytest.fixture(scope="class")
    def study_tables(self, demo_dataset_dir, tmp_path_factory):
        """The JSON tables of ``study --models <model>`` at seed 9 and 100 replications."""
        inputs = [f"--{k}={demo_dataset_dir[k]}" for k in ("traces", "fleet", "quantiles")]
        tables = {}
        for model in ("hindcast", "evt"):
            out = tmp_path_factory.mktemp(f"study_{model}")
            assert main(["study", *inputs, "--models", model, "--threshold-quantiles", "0.95",
                         "--reps", "100", "--seed", "9", "--out", str(out), "--quiet"]) == 0
            tables[model] = {name: json.loads((out / f"{name}.json").read_text())
                             for name in ("lole_per_season", "eeu_per_season", "pooled_metrics")}
        return tables

    @pytest.mark.parametrize("mode", ["season", "block"])
    @pytest.mark.parametrize("metric", ["lole", "eeu"])
    @pytest.mark.parametrize("model", ["hindcast", "evt"])
    def test_prints_the_study_ci(self, demo_dataset_dir, study_tables, capsys, model, metric, mode):
        # the default --threshold-quantile must not turn hindcast into an evt fit
        traces, fleet, quantiles = (str(demo_dataset_dir[k]) for k in ("traces", "fleet", "quantiles"))
        code, out, err = run_cli(
            capsys,
            "uncertainty", "--traces", traces, "--fleet", fleet, "--quantiles", quantiles,
            "--metric", metric, "--mode", mode, "--model", model,
            "--reps", "100", "--seed", "9",
        )
        assert code == 0, err
        printed = json.loads(out)
        label = "evt_95" if model == "evt" else model
        tables = study_tables[model]
        if mode == "season":
            table = tables[f"{metric}_per_season"]
            expected = [table["mean"][label], table["ci"][label]["lower"], table["ci"][label]["upper"]]
        else:
            key = "lole" if metric == "lole" else "eeu_gwh"
            ci_key = "lole_ci" if metric == "lole" else "eeu_ci_gwh"
            expected = [tables["pooled_metrics"][key][label], *tables["pooled_metrics"][ci_key][label]]
        got = [printed[k] for k in ("point_estimate", "ci_lower", "ci_upper")]
        scale = 1.0 if metric == "lole" else 1000.0  # uncertainty prints MWh, the tables hold GWh
        assert got == [scale * x for x in expected]

    @pytest.mark.parametrize("metric", ["lole", "eeu"])
    def test_block_mode_needs_no_single_season_fit(self, demo_dataset_dir, capsys, metric):
        # at q = 0.995 a 21-week demo season holds about 18 exceedances, below
        # evt's 30, and the pooled seasons about 120
        inputs = [f"--{k}={demo_dataset_dir[k]}" for k in ("traces", "fleet", "quantiles")]
        settings = ["--threshold-quantile", "0.995", "--reps", "100", "--seed", "9"]
        code, _, err = run_cli(capsys, "uncertainty", *inputs, "--model", "evt",
                               "--metric", metric, "--mode", "season", *settings)
        assert code == 4 and "exceedances" in err
        code, out, err = run_cli(capsys, "uncertainty", *inputs, "--model", "evt",
                                 "--metric", metric, "--mode", "block", *settings)
        assert code == 0, err
        printed = json.loads(out)

        # the pooled step of the study, on substream key (seed, 101, column 0)
        cfg = RunConfig(traces_path=str(demo_dataset_dir["traces"]),
                        fleet_path=str(demo_dataset_dir["fleet"]),
                        quantiles_path=str(demo_dataset_dir["quantiles"]), seed=9,
                        model_kinds=(dnw.EVT,), threshold_quantiles=(0.995,), replications=100)
        sample, _ = load_inputs(cfg)
        metrics, _ = sample.metrics(np.ones(len(sample.seasons)), dnw.EVT, 0.995)
        matrix = resample_counts(len(sample.seasons), 100, (9, 101, 0))

        def replicate(counts):
            drawn, _ = sample.metrics(counts, dnw.EVT, 0.995)
            return {"lole": drawn.lole_hours, "eeu": drawn.eeu_mwh}

        ci = block_bootstrap(replicate, matrix, 0.95).intervals[metric]
        if metric == "lole":
            expected = [metrics.lole_hours, ci.lower, ci.upper]
        else:  # the pooled table's GWh, printed in MWh
            expected = [1000.0 * x for x in (metrics.eeu_gwh, ci.lower / 1000.0, ci.upper / 1000.0)]
        assert [printed[k] for k in ("point_estimate", "ci_lower", "ci_upper")] == expected


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
        result = run_study_computation(cfg)
        assert sorted({t.n_hours for t in result.sample.seasons}) == [3504, 3528]
        assert [m.n_hours for m in result.columns[0].seasons] == [3528] * 7

        code, out, err = run_cli(
            capsys, "uncertainty", *common, "--metric", "lole", "--mode", "season",
            "--model", "hindcast", "--reps", "100", "--seed", "5",
        )
        assert code == 0, err
        assert json.loads(out)["point_estimate"] == pytest.approx(table["mean"]["hindcast"], rel=1e-9)


class TestModelName:
    def test_ind_is_the_one_name_of_the_independence_model(self, demo_dataset_dir, tmp_path, capsys):
        inputs = {k: str(demo_dataset_dir[k]) for k in ("traces", "fleet", "quantiles")}
        cfg = RunConfig(traces_path=inputs["traces"], fleet_path=inputs["fleet"],
                        quantiles_path=inputs["quantiles"], seed=4, model_kinds=("ind",), replications=100)
        assert [kind for _, kind, _ in cfg.columns()] == ["ind"]
        sample, _ = load_inputs(cfg)
        pooled, fit = sample.metrics(np.ones(len(sample.seasons)), "ind")
        assert fit is None

        config = tmp_path / "study.json"
        config.write_text(json.dumps({**inputs, "models": ["ind"], "reps": 100, "seed": 4}))
        code, _, err = run_cli(capsys, "study", "--config", str(config), "--out", str(tmp_path / "out"),
                               "--quiet")
        assert code == 0, err
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["model_kinds"] == ["ind"]
        table = json.loads((tmp_path / "out" / "pooled_metrics.json").read_text())
        assert table["lole"] == {"ind": pooled.lole_hours}

        config.write_text(json.dumps({**inputs, "models": ["independence"], "reps": 100, "seed": 4}))
        code, _, err = run_cli(capsys, "study", "--config", str(config), "--out", str(tmp_path / "bad"),
                               "--quiet")
        assert code == 2
        assert "'independence'" in err


class TestStudyCommand:
    def test_config_file_with_flag_override(self, demo_dataset_dir, tmp_path, capsys):
        config = {
            "traces": str(demo_dataset_dir["traces"]),
            "fleet": str(demo_dataset_dir["fleet"]),
            "quantiles": str(demo_dataset_dir["quantiles"]),
            "models": ["hindcast", "ind"],
            "reps": 200,
            "seed": 77,
            "span": 1,  # an integer is a number
            "ref_season": None,
            "allow_gaps": False,
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
        assert manifest["config"]["model_kinds"] == ["hindcast", "ind"]
        assert manifest["config"]["lowess_span"] == 1.0
        assert manifest["config"]["allow_gaps"] is False
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

    def test_failed_season_fit_names_column_and_season(self, demo_dataset_dir, tmp_path, capsys):
        # at q = 0.995 a 21-week demo season holds 18 exceedances, below evt's 30;
        # the q = 0.9 column fits every season first
        outdir = tmp_path / "out"
        code, _, err = run_cli(
            capsys, "study",
            "--traces", str(demo_dataset_dir["traces"]),
            "--fleet", str(demo_dataset_dir["fleet"]),
            "--quantiles", str(demo_dataset_dir["quantiles"]),
            "--models", "evt", "--threshold-quantiles", "0.9", "0.995",
            "--reps", "100", "--seed", "3", "--out", str(outdir), "--quiet",
        )
        message = "evt_99.5, season 2007-08: need at least 30 exceedances to fit, got 18"
        assert code == 4
        assert err.strip() == f"numerical failure: {message}"
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["status"] != "complete"
        assert manifest["error"] == message

    def test_failed_season_fit_stops_before_any_bootstrap(self, demo_dataset_dir, tmp_path, capsys,
                                                          monkeypatch):
        # every column's per-season metrics come before the first bootstrap,
        # so the evt_90 column's bootstraps never run
        calls = []
        for name in ("block_bootstrap", "season_bootstrap"):
            original = getattr(uncertainty, name)

            def spy(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            for module in list(sys.modules.values()):  # every adequacy module that binds it
                if module.__name__.startswith("adequacy") and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, spy)
        outdir = tmp_path / "out"
        code, _, err = run_cli(
            capsys, "study",
            "--traces", str(demo_dataset_dir["traces"]),
            "--fleet", str(demo_dataset_dir["fleet"]),
            "--quantiles", str(demo_dataset_dir["quantiles"]),
            "--threshold-quantiles", "0.9", "0.995",
            "--reps", "100", "--seed", "1", "--out", str(outdir), "--quiet",
        )
        assert code == 4
        assert err.strip() == (
            "numerical failure: evt_99.5, season 2007-08: need at least 30 exceedances to fit, got 18"
        )
        assert json.loads((outdir / "manifest.json").read_text())["failed_stage"] == "compute"
        assert calls == []

    @pytest.mark.parametrize("key, value", [
        ("allow_gaps", "false"),
        ("allow_gaps", 1),
        ("seed", 3.7),
        ("seed", True),
        ("seed", "3"),
        ("reps", 100.0),
        ("window_weeks", True),
        ("installed_wind_mw", "abc"),
        ("installed_wind_mw", False),
        ("span", True),
        ("quantiles", 5),
        ("traces", ["traces.csv"]),
        ("anchor_rule", 5),
        ("models", "evt"),
        ("models", [1]),
        ("threshold_quantiles", 0.9),
        ("threshold_quantiles", ["0.9"]),
    ])
    def test_config_value_of_wrong_json_type_is_config_error(self, demo_dataset_dir, tmp_path,
                                                             capsys, key, value):
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps({"seed": 1, key: value}))
        outdir = tmp_path / "out"
        code, _, err = run_cli(
            capsys, "study", "--config", str(cfg_path),
            "--traces", str(demo_dataset_dir["traces"]),
            "--fleet", str(demo_dataset_dir["fleet"]),
            "--reps", "100", "--out", str(outdir), "--quiet",
        )
        assert code == 2
        assert err.startswith(f"configuration error: config file {cfg_path}: {key} must be ")
        assert not outdir.exists()

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
        # 0.95 and 0.9500001 both give the label evt_95: labels keep six significant digits
        code, _, err = run_cli(
            capsys, "study",
            "--traces", str(demo_dataset_dir["traces"]),
            "--fleet", str(demo_dataset_dir["fleet"]),
            "--threshold-quantiles", "0.95", "0.9500001",
            "--seed", "1", "--out", str(tmp_path / "z"),
        )
        assert code == 2
        assert "column labels ['evt_95']" in err and "six significant digits" in err
        assert not (tmp_path / "z").exists()

    @pytest.mark.parametrize("content, message", [
        (b'{"seed": 1, "anchor_rule": "last Sunday in Octobr\xe9"}', "can't decode byte 0xe9"),
        (None, "Is a directory"),
        (b"5", "expected a JSON object, got int"),
        (b'["traces"]', "expected a JSON object, got list"),
    ])
    def test_unreadable_config_file_is_config_error(self, demo_dataset_dir, tmp_path, capsys,
                                                    content, message):
        cfg_path = tmp_path / "study.json"
        if content is None:
            cfg_path.mkdir()
        else:
            cfg_path.write_bytes(content)
        code, _, err = run_cli(
            capsys, "study", "--config", str(cfg_path),
            "--traces", str(demo_dataset_dir["traces"]),
            "--fleet", str(demo_dataset_dir["fleet"]),
            "--seed", "1", "--out", str(tmp_path / "y"),
        )
        assert code == 2
        assert err.startswith(f"configuration error: config file {cfg_path}: ")
        assert message in err
        assert not (tmp_path / "y").exists()

    @pytest.mark.parametrize("label", ["winter", "2007/08"])
    def test_bad_season_label_is_data_error(self, demo_dataset_dir, tmp_path, capsys, label):
        traces = tmp_path / "traces.csv"
        traces.write_text(demo_dataset_dir["traces"].read_text().replace("2008-09,", f"{label},"))
        code, _, err = run_cli(
            capsys, "study", "--traces", str(traces), "--fleet", str(demo_dataset_dir["fleet"]),
            "--reps", "100", "--seed", "1", "--out", str(tmp_path / "out"), "--quiet",
        )
        assert code == 3
        assert err.startswith(f"data error: season label {label!r} ")

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



def set_first_row(column, value):
    """An edit of the demo traces text: ``column`` of the first row, 2007-10-28T00:00, set to ``value``."""
    def edit(text):
        header, first, rest = text.split("\n", 2)
        fields = first.split(",")
        fields[header.split(",").index(column)] = value
        return "\n".join([header, ",".join(fields), rest])
    return edit


class TestInputsPastTheirLimits:
    """Inputs that the CSV tables, the calendar or the 1 MW grid cannot hold exit 3 or 4,
    and a replication count numpy cannot index exits 2, naming the cause, not with a
    traceback."""

    @pytest.mark.parametrize("traces_edit, fleet_edit, argv, code, message", [
        # a comma in a label would split its rows in lole_per_season.csv
        (lambda t: t.replace("2008-09,", '"2008,09",'), None, ["risk", "--model", "hindcast"],
         3, "season label '2008,09' holds a comma, quote or line break"),
        (None, None, ["risk", "--window-weeks", "1000000"],
         3, "season 2007-08: the 1000000-week window from 2007-10-28 ends after the year 9999"),
        (lambda t: t.replace("2008-09,", "9999-00,"), None, ["risk"],
         3, "season 9999-00: the 21-week window from 9999-10-31 ends after the year 9999"),
        (lambda t: t.replace("2008-09,", "0000-01,"), None, ["risk"],
         3, "season label '0000-01' starts with the year 0; the calendar starts at 1"),
        # 1e20 MW is past numpy's largest array, so nothing is allocated
        (None, lambda f: f + "huge,1e20,0.5\n", ["risk", "--model", "hindcast"],
         3, "the fleet's total capacity of 1000000000000000"),
        (set_first_row("wind_mw", "1e300"), None, ["risk", "--model", "ind"],
         4, "ind, season 2007-08: values from 467 to 1e+300 MW do not fit on the 1 MW grid"),
        (set_first_row("wind_mw", "1e300"), None, ["study", "--models", "ind", "--reps", "100"],
         4, "ind, season 2007-08: values from 467 to 1e+300 MW do not fit on the 1 MW grid"),
        (set_first_row("wind_mw", "1e300"), None, ["dnw", "--model", "ind"],
         4, "values from 467 to 1e+300 MW do not fit on the 1 MW grid"),
        (set_first_row("demand_mw", "1e300"), None, ["dnw", "--model", "ind"],
         4, "values from 23620 to 1e+300 MW do not fit on the 1 MW grid"),
    ], ids=["comma_label", "long_window", "year_9999", "year_0", "huge_unit", "huge_wind_risk",
            "huge_wind_study", "huge_wind_dnw", "huge_demand_dnw"])
    def test_exit_code(self, demo_dataset_dir, tmp_path, capsys, traces_edit, fleet_edit, argv,
                       code, message):
        inputs = {}
        for name, edit in (("traces", traces_edit), ("fleet", fleet_edit)):
            inputs[name] = demo_dataset_dir[name]
            if edit:
                inputs[name] = tmp_path / f"{name}.csv"
                inputs[name].write_text(edit(demo_dataset_dir[name].read_text()))
        argv = [*argv, "--traces", str(inputs["traces"]), "--out", str(tmp_path / "out")]
        if argv[0] != "dnw":
            argv += ["--fleet", str(inputs["fleet"]), "--quantiles", str(demo_dataset_dir["quantiles"]),
                     "--seed", "1", "--quiet"]
        got, _, err = run_cli(capsys, *argv)
        assert got == code, err
        assert message in err

    # numpy refuses both counts before it allocates anything
    @pytest.mark.parametrize("reps", [10**20, 2**62])
    @pytest.mark.parametrize("command", ["uncertainty", "study"])
    def test_reps_numpy_cannot_index(self, demo_dataset_dir, tmp_path, capsys, command, reps):
        argv = {"uncertainty": ["--model", "hindcast", "--metric", "lole", "--mode", "block"],
                "study": ["--models", "hindcast", "--out", str(tmp_path / "out"), "--quiet"]}[command]
        code, _, err = run_cli(capsys, command, *argv, "--reps", str(reps), "--seed", "1",
                               "--traces", str(demo_dataset_dir["traces"]),
                               "--fleet", str(demo_dataset_dir["fleet"]))
        message = f"reps: {reps} replications of 7 seasons are too many for one count matrix"
        assert code == 2 and err == f"configuration error: {message}\n"
        if command == "study":
            manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
            assert manifest["failed_stage"] == "compute" and manifest["error"] == message
