"""What the CLI imports: no scipy on any path but ``demo``'s, and no numpy
submodule first loaded inside a call, where its import cost would count as
run time.

Each check runs in a fresh interpreter, since this test process has long
since imported scipy and every numpy submodule.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import adequacy

# Imports adequacy.cli, then runs each argv through main() and reports, per
# call, its exit code and the scipy/numpy modules it loaded that were not
# loaded before it.
_CHILD = """
import json, sys

def loaded():
    return {m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")}

import adequacy.cli

report = {"import": sorted(loaded()), "calls": []}
for argv in json.loads(sys.argv[1]):
    before = loaded()
    rc = adequacy.cli.main(argv)
    report["calls"].append({"argv": argv[0], "rc": rc, "new": sorted(loaded() - before)})
print(json.dumps(report))
"""


def _run_child(calls):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(adequacy.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(calls)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _scipy(modules):
    return [m for m in modules if m == "scipy" or m.startswith("scipy.")]


def test_import_loads_no_scipy():
    report = _run_child([])
    assert _scipy(report["import"]) == []
    assert "numpy" in report["import"]


def test_study_and_risk_load_no_new_modules(demo_dataset_dir, tmp_path):
    inputs = [
        "--traces", str(demo_dataset_dir["traces"]),
        "--fleet", str(demo_dataset_dir["fleet"]),
        "--quantiles", str(demo_dataset_dir["quantiles"]),
        "--seed", "3", "--quiet",
    ]
    report = _run_child([
        ["study", *inputs, "--reps", "100", "--out", str(tmp_path / "study")],
        ["risk", *inputs, "--model", "evt", "hindcast", "ind", "--pooled", "--reps", "100",
         "--out", str(tmp_path / "risk")],
    ])
    assert _scipy(report["import"]) == []
    assert [call["argv"] for call in report["calls"]] == ["study", "risk"]
    for call in report["calls"]:
        assert call["rc"] == 0, call
        assert call["new"] == [], f"{call['argv']} loaded {call['new']}"


def test_other_commands_load_no_new_modules(demo_dataset_dir, tmp_path):
    traces = ["--traces", str(demo_dataset_dir["traces"])]
    inputs = [*traces, "--fleet", str(demo_dataset_dir["fleet"]),
              "--quantiles", str(demo_dataset_dir["quantiles"]), "--seed", "3"]
    calls = [
        ["fit", *traces, "--season", "2007-08", "--scan", "44000:48000:1000", "--out", str(tmp_path / "fit")],
        ["dnw", *traces, "--model", "evt", "--out", str(tmp_path / "dnw")],
        ["dnw", *traces, "--model", "ind", "--pooled", "--out", str(tmp_path / "dnw")],
        ["ingest", *traces, "--quantiles", str(demo_dataset_dir["quantiles"]),
         "--out", str(tmp_path / "ingest")],
        ["uncertainty", *inputs, "--metric", "lole", "--mode", "season", "--reps", "100"],
        ["uncertainty", *inputs, "--metric", "eeu", "--mode", "block", "--reps", "100"],
        ["fleet", "--fleet", str(demo_dataset_dir["fleet"])],
    ]
    report = _run_child(calls)
    assert [call["argv"] for call in report["calls"]] == [argv[0] for argv in calls]
    for call in report["calls"]:
        assert call["rc"] == 0, call
        assert call["new"] == [], f"{call['argv']} loaded {call['new']}"
