"""The CSV contract: every CSV the CLI writes has its documented header, and
each field is a label, an integer count, or a float written as its shortest
repr, so that it reads back as the float that was written."""

import re

import numpy as np
import pytest

from adequacy.cli import main
from adequacy.ingest import write_csv

STUDY_COLUMNS = ["evt_90", "evt_95", "evt_98", "hindcast", "ind"]
# file name pattern -> header, as README's output and input lists give them
HEADERS = {
    r"(lole|eeu)_per_season": ["season", *STUDY_COLUMNS],
    r"pooled_metrics": ["row", *STUDY_COLUMNS],
    r"gpd_parameters_q\d+": "season threshold_mw sigma xi se_sigma se_xi n_exceed".split(),
    r"threshold_scan_\d{4}-\d\d": "threshold_mw sigma xi sigma_star se_sigma se_xi n_exceed".split(),
    r"qq_\d{4}-\d\d(_q\d+)?": ["model_mw", "empirical_mw"],
    r"survivor_(evt_\d+|evt|hindcast|ind)_(\d{4}-\d\d|pooled)": ["v_mw", "prob"],
    r"rescale_factors": ["season", "factor"],
    r"(rescaled_)?traces": ["season", "timestamp", "demand_mw", "wind_mw"],
    r"fleet": ["name", "capacity_mw", "availability"],
    r"quantile_history": ["season", "quantile_mw"],
}
LABELS = {"season", "row", "name", "timestamp"}
COUNTS = {"n_exceed", "capacity_mw"}


def _check_field(column, field):
    if column == "timestamp":
        return re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d", field) is not None
    if column in LABELS:
        return re.fullmatch(r"[A-Za-z0-9_-]+", field) is not None
    if column in COUNTS:
        return field.isdigit() and str(int(field)) == field
    return repr(float(field)) == field


def _check_file(path):
    [header] = [h for pattern, h in HEADERS.items() if re.fullmatch(pattern, path.stem)]
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n") and "\r" not in text, path.name
    first, *rows = text.splitlines()
    assert first.split(",") == header, path.name
    assert rows, path.name
    for row in rows:
        fields = row.split(",")
        assert len(fields) == len(header), (path.name, row)
        for column, field in zip(header, fields):
            assert _check_field(column, field), (path.name, column, field)


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    """Every CSV of a demo dataset, a 100-replication study, fit with a scan,
    dnw for each model (per season and pooled) and ingest."""
    root = tmp_path_factory.mktemp("csv_contract")
    data = root / "data"
    traces = ["--traces", str(data / "traces.csv")]
    calls = [
        ["demo", "--out", str(data)],
        ["study", *traces, "--fleet", str(data / "fleet.csv"),
         "--quantiles", str(data / "quantile_history.csv"),
         "--reps", "100", "--seed", "1", "--quiet", "--out", str(root / "study")],
        ["fit", *traces, "--season", "2007-08", "--scan", "44000:48000:1000", "--out", str(root / "fit")],
        ["ingest", *traces, "--quantiles", str(data / "quantile_history.csv"), "--out", str(root / "ingest")],
    ]
    for model in ("evt", "hindcast", "ind"):
        for flag in ("--pooled", "--per-season"):
            calls.append(["dnw", *traces, "--model", model, flag, "--out", str(root / "dnw")])
    for argv in calls:
        assert main(argv) == 0, argv
    return root


def test_every_cli_csv_keeps_the_contract(cli_outputs):
    paths = sorted(cli_outputs.rglob("*.csv"))
    # 3 demo inputs; study: 2 season tables, pooled table, 3 parameter tables,
    # 7 scans, 21 QQ files, 35 survivors, factors; fit: QQ and scan;
    # ingest: traces and factors; dnw: 3 models x (7 seasons + pooled)
    assert len(paths) == 3 + 70 + 2 + 2 + 24
    for path in paths:
        _check_file(path)


def test_numpy_scalars_write_the_bytes_of_python_scalars(tmp_path):
    rng = np.random.default_rng(2025)
    floats = [0.1, 1.0 / 3.0, -0.0, 1e-5, 1e16, 5e-324, 1.7976931348623157e308, 123456.789,
              float("nan"), float("inf"), -float("inf"),
              *(rng.standard_normal(2000) * 10.0 ** rng.integers(-300, 300, 2000)).tolist()]
    ints = [0, 7, -2**62, *rng.integers(-2**62, 2**62, 2000).tolist()]
    python_rows = [("a", x, n) for x, n in zip(floats, ints)]
    write_csv(tmp_path / "python.csv", ("label", "x", "n"), python_rows)
    write_csv(tmp_path / "numpy.csv", ("label", "x", "n"),
              [("a", np.float64(x), np.int64(n)) for x, n in zip(floats, ints)])
    assert (tmp_path / "numpy.csv").read_bytes() == (tmp_path / "python.csv").read_bytes()
    _, *lines = (tmp_path / "python.csv").read_text().splitlines()
    assert lines == [f"a,{x!r},{n}" for x, n in zip(floats, ints)]
