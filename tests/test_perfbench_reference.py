"""perfbench's correctness gate, run in-process on each workload.

A change that moves a confidence interval beyond the recorded reference
tables' tolerance fails here, not only when the benchmark runs. Each
workload's inputs are built at perfbench's default seed and its argv runs
through ``adequacy.cli.main``; ``perfbench/run.py:check_outputs`` then
compares the tables with ``perfbench/reference/<workload>.json``.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from adequacy import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def run():
    """perfbench/run.py as a module, with perfbench/ on the path for its
    gen_system import; no bytecode is written under perfbench/."""
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]
        sys.modules.pop("gen_system", None)
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = dont_write


@pytest.mark.parametrize("name", ["study-evt", "pooled-empirical", "risk-many-seasons"])
def test_workload_matches_reference(run, name, tmp_path, capsys):
    w = run.WORKLOADS[name]
    paths = run.make_inputs(w, run.DEFAULT_SEED, tmp_path / "inputs")
    out = tmp_path / "out"
    assert cli.main(run.cli_argv(w, paths, run.DEFAULT_SEED, out)) == 0
    capsys.readouterr()
    reference = json.loads((run.REFERENCE / f"{name}.json").read_text(encoding="utf-8"))
    assert run.check_outputs(w, out, reference) == []
