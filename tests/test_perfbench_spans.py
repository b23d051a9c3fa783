"""perfbench's per-layer metrics still find the spans they read.

The tracer names a span after the public function it wraps, so a function
that is moved or renamed turns its metric into a silent 0. This runs one
traced study through ``perfbench/child.py`` and checks that every span
``perfbench/run.py:layer_values`` reads was entered. The tracer keeps one
span stack, so a second check finds every span entered on the main thread
while ``pmf.convolve_each`` runs on worker threads.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
# test oracles (tests/oracles.py), which no production path calls, so their
# metrics read 0: risk.balance_distribution is that of ShortfallFunctionals,
# and the dnw.build_* models, dnw.discretize and ShortfallFunctionals.metrics
# together that of SeasonSample. perfbench/tracer.py times a replication by
# wrapping the closure of study.pooled_pipeline, which the package no longer
# has: a replication is a count row, and SeasonSample.replicate reads all
# distinct rows of a column in one call
NOT_CALLED = {
    "risk.balance_distribution", "dnw.discretize", "risk.ShortfallFunctionals.metrics",
    "dnw.build_evt_model", "dnw.build_hindcast_model", "dnw.build_independence_model",
    "uncertainty.replication",
}


class RecordingDict(dict):
    """An empty mapping that records every key looked up in it."""

    def __init__(self):
        super().__init__()
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return default


def spans_read_by_layer_values() -> set[str]:
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.modules[spec.name] = run  # its dataclasses look their module up
    try:
        spec.loader.exec_module(run)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    spans = RecordingDict()
    rep = {"trace": {"spans": spans, "counters": {}}, "bytes": 0, "wall_s": 1.0}
    run.layer_values(rep, {"cpu_s": 1.0, "wall_s": 1.0})
    return spans.read


def test_every_span_perfbench_reads_is_called(demo_dataset_dir, tmp_path):
    names = spans_read_by_layer_values()
    assert "study.rescale_traces" in names and "dnw.build_evt_model" in names

    report = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [
            sys.executable, str(PERFBENCH / "child.py"), str(report), "trace", "study",
            "--traces", str(demo_dataset_dir["traces"]),
            "--fleet", str(demo_dataset_dir["fleet"]),
            "--quantiles", str(demo_dataset_dir["quantiles"]),
            "--models", "evt", "hindcast", "ind", "--threshold-quantiles", "0.95",
            "--reps", "100", "--seed", "1", "--out", str(tmp_path / "out"), "--quiet",
        ],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(report.read_text())
    assert result.get("rc") == 0, result.get("error")
    spans = result["trace"]["spans"]
    uncalled = sorted(n for n in names - NOT_CALLED if spans.get(n, {}).get("calls", 0) == 0)
    assert not uncalled, f"perfbench reads spans that were never entered: {uncalled}"


# Runs an ind risk call with the tracer installed, pmf's convolutions on their
# background thread, and reports the threads the traced spans ran on.
_THREADS_CHILD = """
import json, sys, threading
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
import adequacy.cli

class ThreadTracer(Tracer):
    threads = {}

    def _record(self, name, fn, args, kwargs):
        self.threads.setdefault(name, set()).add(threading.current_thread().name)
        return super()._record(name, fn, args, kwargs)

ThreadTracer().install()
rc = adequacy.cli.main(sys.argv[2:])
print(json.dumps({"rc": rc, "threads": {k: sorted(v) for k, v in ThreadTracer.threads.items()}}))
"""


def test_spans_run_on_the_main_thread_only(demo_dataset_dir, tmp_path):
    # the tracer keeps one span stack for the process, so convolve_each's
    # background thread must call no traced (public) adequacy function
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [
            sys.executable, "-c", _THREADS_CHILD, str(PERFBENCH), "risk",
            "--traces", str(demo_dataset_dir["traces"]),
            "--fleet", str(demo_dataset_dir["fleet"]),
            "--quantiles", str(demo_dataset_dir["quantiles"]),
            "--model", "hindcast", "ind", "--pooled", "--reps", "100", "--seed", "1",
            "--out", str(tmp_path / "out"), "--quiet",
        ],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rc"] == 0
    assert "pmf.convolve_each" in result["threads"]
    off_main = {name: on for name, on in result["threads"].items() if on != ["MainThread"]}
    assert not off_main, f"spans entered off the main thread: {off_main}"
