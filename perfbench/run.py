"""Benchmark of the ``adequacy`` CLI, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload study-evt --seed 1 --seconds 30 --trace 0

Each sample is a fresh interpreter (``child.py``) that times
``import adequacy.cli`` and then ``adequacy.cli.main(argv)`` for the
workload's subcommand, on inputs generated from ``--seed`` before any timing
starts. With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it makes one untraced sample and at least two traced ones and
prints the per-layer metrics. Every sample's outputs are checked; a sample
that exits non-zero, raises or fails a check counts as failed. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REFERENCE = HERE / "reference"

DEFAULT_SEED = 1  # the seed the reference tables were recorded with
MIN_SAMPLES = 2  # CLI calls per run (traced calls with --trace 1), whatever --seconds says
SETUP_SAMPLES = 5  # imports per run that setup_s is the median of
CHILD_TIMEOUT_S = 150
REFERENCE_REL_TOL = 1e-4  # tables against the recorded reference
IDENTITY_REL_TOL = 1e-9  # means and pooled hindcast against per-season values
CAL_REF_S = 0.17  # child.calibrate() seconds at the reference speed
HOURS_PER_SEASON = 21 * 168
SYSTEM_SCALE = 4.0  # risk-many-seasons system size, in multiples of the demo
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# BLAS threads only spin here: at 2 they cost 8-15% wall time on a 2-core machine
BLAS_THREADS = "1"


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]  # CLI subcommand and its workload flags
    inputs: str  # "demo": the bundled demo dataset; "system": gen_system.write_system(seed)
    seasons: int
    columns: int  # model columns in the per-season tables
    pooled_columns: int  # columns that get a block bootstrap
    replications: int


WORKLOADS = {w.name: w for w in (
    Workload("study-evt", ("study", "--reps", "100"), "demo", 7, 5, 5, 100),
    Workload("pooled-empirical", ("study", "--models", "hindcast", "ind", "--reps", "1000"),
             "demo", 7, 2, 2, 1000),
    Workload("risk-many-seasons", ("risk", "--model", "hindcast", "ind"), "system", 28, 2, 0, 10_000),
)}

END_TO_END = (("study_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (  # name, unit; BENCHMARK.json lists the same metrics
    ("evt.fit_gpd.calls", "count"),
    ("evt.fit_gpd.self_s", "s"),
    ("evt.fit_gpd.iterations", "count"),
    ("evt.fit_gpd.ms_p50", "ms"),
    ("evt.fit_gpd.ms_p99", "ms"),
    ("evt.threshold_scan.s", "s"),
    ("uncertainty.block_bootstrap.replications", "count"),
    ("uncertainty.block_bootstrap.dropped", "count"),
    ("uncertainty.block_bootstrap.distinct_ratio", "ratio"),
    ("uncertainty.block_bootstrap.self_s", "s"),
    ("uncertainty.replication.ms_p50", "ms"),
    ("uncertainty.replication.ms_p99", "ms"),
    ("uncertainty.resample_indices.calls", "count"),
    ("uncertainty.resample_indices.self_s", "s"),
    ("uncertainty.resample_indices.rows", "count"),
    ("uncertainty.season_bootstrap.self_s", "s"),
    ("dnw.build.calls", "count"),
    ("dnw.build.self_s", "s"),
    ("dnw.discretize.calls", "count"),
    ("dnw.discretize.self_s", "s"),
    ("dnw.discretize.bins", "count"),
    ("risk.functionals.calls", "count"),
    ("risk.functionals.self_s", "s"),
    ("risk.balance.self_s", "s"),
    ("pmf.convolve.calls", "count"),
    ("pmf.convolve.self_s", "s"),
    ("pmf.convolve.out_bins", "count"),
    ("ingest.load_traces.s", "s"),
    ("ingest.load_traces.rows", "count"),
    ("ingest.rescale.s", "s"),
    ("genmodel.convolve_fleet.s", "s"),
    ("genmodel.fleet_bins", "count"),
    ("study.compute.s", "s"),
    ("study.emit.s", "s"),
    ("study.bytes_written", "bytes"),
    ("process.cpu_util", "ratio"),
    ("trace.overhead", "ratio"),
)


# ---------------------------------------------------------------------------
# inputs and samples


def make_inputs(w: Workload, seed: int, outdir: Path) -> dict[str, Path]:
    """Input files for one run; the demo workloads' seed reaches only the CLI's --seed."""
    if w.inputs == "demo":
        # the bundled dataset: a seeded demo dataset makes the per-call cost depend on
        # the dataset (page faults 13k to 1.3M per call), not only on the program
        from adequacy.demo import write_demo_dataset

        return write_demo_dataset(outdir)
    from gen_system import write_system

    return write_system(outdir, seed, w.seasons, SYSTEM_SCALE)


def truncate_half(path: Path) -> None:
    """Self-test input: keep the first half of the lines, so a season is incomplete."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[: len(lines) // 2]), encoding="utf-8")


def cli_argv(w: Workload, paths: dict[str, Path], seed: int, out: Path) -> list[str]:
    argv = [w.command[0], "--traces", str(paths["traces"]), "--fleet", str(paths["fleet"])]
    if "quantiles" in paths:
        argv += ["--quantiles", str(paths["quantiles"])]
    return argv + list(w.command[1:]) + ["--seed", str(seed), "--out", str(out), "--quiet"]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("ADEQUACY_THREADS", None)  # unset: the CLI uses one bootstrap worker
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def run_child(mode: str, argv: list[str], sample_dir: Path, env: dict[str, str]) -> dict:
    sample_dir.mkdir(parents=True)
    report = sample_dir / "report.json"
    start = time.perf_counter()
    with open(sample_dir / "stdout.txt", "wb") as out, open(sample_dir / "stderr.txt", "wb") as err:
        try:
            subprocess.run([sys.executable, str(HERE / "child.py"), str(report), mode, *argv],
                           env=env, cwd=ROOT, stdout=out, stderr=err, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
            pass
    wall = time.perf_counter() - start
    data = json.loads(report.read_text()) if report.exists() else {"error": "no report (timed out?)"}
    data["wall_s"] = wall
    data["mode"] = mode
    return data


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(outdir: Path) -> tuple[str, int]:
    """Digest over every output file's name and bytes, and their total size."""
    h = hashlib.sha256()
    size = 0
    for p in sorted(outdir.rglob("*")):
        if p.is_file():
            data = p.read_bytes()
            h.update(p.relative_to(outdir).as_posix().encode() + b"\0" + hashlib.sha256(data).digest())
            size += len(data)
    return h.hexdigest(), size


# ---------------------------------------------------------------------------
# output checks


def table_files(w: Workload) -> list[str]:
    names = ["lole_per_season.json", "eeu_per_season.json"]
    return names + (["pooled_metrics.json"] if w.pooled_columns else [])


def close(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def mismatches(ref, got, where: str = ""):
    """Paths at which ``got`` differs from ``ref`` beyond REFERENCE_REL_TOL."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            yield where or "/"
        else:
            for key in ref:
                yield from mismatches(ref[key], got[key], f"{where}/{key}")
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            yield where
        else:
            for i, (r, g) in enumerate(zip(ref, got)):
                yield from mismatches(r, g, f"{where}/{i}")
    elif isinstance(ref, float) and isinstance(got, (int, float)):
        if not math.isclose(ref, got, rel_tol=REFERENCE_REL_TOL, abs_tol=1e-9):
            yield where
    elif ref != got:
        yield where


def check_outputs(w: Workload, out: Path, reference: dict | None) -> list[str]:
    problems = []
    try:
        if w.command[0] == "study":
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            if manifest.get("status") != "complete":
                problems.append(f"manifest status {manifest.get('status')!r}")
            missing = [n for n in manifest.get("outputs", []) if not (out / n).is_file()]
            if missing or not manifest.get("outputs"):
                problems.append(f"manifest lists missing outputs {missing[:3]}")
        tables = {n: json.loads((out / n).read_text(encoding="utf-8")) for n in table_files(w)}
        for name in table_files(w)[:2]:
            t = tables[name]
            if len(t["seasons"]) != w.seasons or len(t["columns"]) != w.columns:
                problems.append(f"{name}: {len(t['seasons'])} seasons x {len(t['columns'])} columns")
            for c in t["columns"]:
                values = t["values"][c]
                if not all(math.isfinite(v) and v >= 0.0 for v in values):
                    problems.append(f"{name}: {c} has negative or non-finite values")
                elif not close(t["mean"][c], statistics.fmean(values), IDENTITY_REL_TOL):
                    problems.append(f"{name}: {c} mean is not the mean of the seasons")
                if not t["ci"][c]["lower"] <= t["ci"][c]["upper"]:
                    problems.append(f"{name}: {c} CI is inverted")
        if w.pooled_columns:
            # pooling is linear for equal-length seasons: pooled hindcast = mean of per-season
            pooled = tables["pooled_metrics.json"]
            for metric, name in (("lole", "lole_per_season.json"), ("eeu_gwh", "eeu_per_season.json")):
                per_season = statistics.fmean(tables[name]["values"]["hindcast"])
                if not close(pooled[metric]["hindcast"], per_season, IDENTITY_REL_TOL):
                    problems.append(f"pooled hindcast {metric} {pooled[metric]['hindcast']!r} "
                                    f"!= per-season mean {per_season!r}")
        if reference is not None:
            bad = [f"{n}{p}" for n in reference for p in mismatches(reference[n], tables[n])]
            if bad:
                problems.append(f"tables differ from the reference at {bad[:3]}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable outputs: {exc!r}")
    return problems


def sample_problems(rep: dict, w: Workload, out: Path, reference: dict | None) -> list[str]:
    if "error" in rep:
        return [rep["error"].strip().splitlines()[-1]]
    if rep.get("rc") != 0:
        return [f"exit code {rep.get('rc')}"]
    return check_outputs(w, out, reference)


# ---------------------------------------------------------------------------
# per-layer metrics from one traced sample


def percentile_ms(durations: list[float], q: int) -> float:
    if len(durations) < 2:
        return 1000.0 * sum(durations)
    return 1000.0 * statistics.quantiles(durations, n=100, method="inclusive")[q - 1]


def layer_values(rep: dict, plain: dict) -> dict[str, float]:
    spans, counters = rep["trace"]["spans"], rep["trace"]["counters"]

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    def pct(name: str, q: int) -> float:
        return percentile_ms(spans.get(name, {}).get("durations_s", []), q)

    builds = ("dnw.build_evt_model", "dnw.build_hindcast_model", "dnw.build_independence_model")
    reps = counters.get("uncertainty.block_bootstrap.replications", 0)
    compute = span("study.run_study_computation", "total_s")
    return {
        "evt.fit_gpd.calls": span("evt.fit_gpd", "calls"),
        "evt.fit_gpd.self_s": span("evt.fit_gpd", "self_s"),
        "evt.fit_gpd.iterations": counters.get("evt.fit_gpd.iterations", 0),
        "evt.fit_gpd.ms_p50": pct("evt.fit_gpd", 50),
        "evt.fit_gpd.ms_p99": pct("evt.fit_gpd", 99),
        "evt.threshold_scan.s": span("evt.threshold_scan", "total_s"),
        "uncertainty.block_bootstrap.replications": reps,
        "uncertainty.block_bootstrap.dropped": counters.get("uncertainty.block_bootstrap.dropped", 0),
        "uncertainty.block_bootstrap.distinct_ratio":
            counters.get("uncertainty.block_bootstrap.distinct", 0) / reps if reps else 0.0,
        "uncertainty.block_bootstrap.self_s": span("uncertainty.block_bootstrap", "self_s"),
        "uncertainty.replication.ms_p50": pct("uncertainty.replication", 50),
        "uncertainty.replication.ms_p99": pct("uncertainty.replication", 99),
        "uncertainty.resample_indices.calls": span("uncertainty.resample_indices", "calls"),
        "uncertainty.resample_indices.self_s": span("uncertainty.resample_indices", "self_s"),
        "uncertainty.resample_indices.rows": counters.get("uncertainty.resample_indices.rows", 0),
        "uncertainty.season_bootstrap.self_s": span("uncertainty.season_bootstrap", "self_s"),
        "dnw.build.calls": sum(span(b, "calls") for b in builds),
        "dnw.build.self_s": sum(span(b, "self_s") for b in builds),
        "dnw.discretize.calls": span("dnw.discretize", "calls"),
        "dnw.discretize.self_s": span("dnw.discretize", "self_s"),
        "dnw.discretize.bins": counters.get("dnw.discretize.bins", 0),
        "risk.functionals.calls": span("risk.ShortfallFunctionals.metrics", "calls"),
        "risk.functionals.self_s": span("risk.ShortfallFunctionals.metrics", "self_s"),
        "risk.balance.self_s": span("risk.balance_distribution", "self_s"),
        "pmf.convolve.calls": span("pmf.convolve", "calls"),
        "pmf.convolve.self_s": span("pmf.convolve", "self_s"),
        "pmf.convolve.out_bins": counters.get("pmf.convolve.out_bins", 0),
        "ingest.load_traces.s": span("ingest.load_traces", "total_s"),
        "ingest.load_traces.rows": counters.get("ingest.load_traces.rows", 0),
        "ingest.rescale.s": span("study.rescale_traces", "total_s"),
        "genmodel.convolve_fleet.s": span("genmodel.convolve_fleet", "total_s"),
        "genmodel.fleet_bins": counters.get("genmodel.fleet_bins", 0),
        "study.compute.s": compute,
        "study.emit.s": span("cli.main", "total_s") - compute,
        "study.bytes_written": rep["bytes"],
        "process.cpu_util": plain["cpu_s"] / call_s(plain),
        "trace.overhead": call_s(rep) * speed(rep) / (call_s(plain) * speed(plain)),
    }


def call_s(rep: dict) -> float:
    """Seconds of the cli.main call; the whole child's wall time if it never returned."""
    return rep.get("call_s", rep["wall_s"])


def speed(rep: dict) -> float:
    """How fast the machine ran around this call, relative to the reference speed."""
    return CAL_REF_S / statistics.median(rep["cal_s"]) if rep.get("cal_s") else 1.0


def trace_problems(w: Workload, traced: list[dict]) -> list[str]:
    """Integrity of the traced samples: repeatable counts and counts the inputs fix."""
    problems = []
    counts = [
        ({n: s["calls"] for n, s in rep["trace"]["spans"].items()}, rep["trace"]["counters"])
        for rep in traced
    ]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("span counts differ between traced calls")
    spans, counters = counts[0]
    reps = counters.get("uncertainty.block_bootstrap.replications", 0)
    if reps != w.replications * w.pooled_columns:
        problems.append(f"{reps} block-bootstrap replications, expected "
                        f"{w.replications} x {w.pooled_columns} columns")
    pipeline_calls = spans.get("uncertainty.replication", 0)
    if not counters.get("uncertainty.block_bootstrap.distinct", 0) <= pipeline_calls <= reps:
        problems.append(f"{pipeline_calls} pipeline calls outside [distinct multisets, replications]")
    rows = counters.get("ingest.load_traces.rows", 0)
    if rows != w.seasons * HOURS_PER_SEASON:
        problems.append(f"{rows} trace rows loaded, expected {w.seasons} x {HOURS_PER_SEASON}")
    return problems


def machine_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "ADEQUACY_THREADS": None,
        "blas_threads": {var: BLAS_THREADS for var in THREAD_VARS},
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 inject: bool = False, record: bool = False) -> dict:
    run_dir = WORK / f"{w.name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        paths = make_inputs(w, seed, run_dir / "inputs")
        if inject:
            truncate_half(paths["traces"])
        ref_path = REFERENCE / f"{w.name}.json"
        reference = None
        if seed == DEFAULT_SEED and not (record or inject):
            reference = json.loads(ref_path.read_text(encoding="utf-8"))
        env = child_env()
        samples: list[dict] = []

        def take(mode: str) -> None:
            sample_dir = run_dir / f"sample{len(samples)}"
            out = sample_dir / "out"
            rep = run_child(mode, cli_argv(w, paths, seed, out), sample_dir, env)
            rep["problems"] = sample_problems(rep, w, out, reference)
            rep["digest"], rep["bytes"] = tree_digest(out) if out.is_dir() else (None, 0)
            samples.append(rep)

        mode = "trace" if trace else "plain"
        start = time.perf_counter()
        if trace:
            take("plain")
        while True:
            taken = [s for s in samples if s["mode"] == mode]
            mean_wall = statistics.fmean(s["wall_s"] for s in samples) if samples else 0.0
            if len(taken) >= MIN_SAMPLES and time.perf_counter() - start + mean_wall > seconds:
                break
            take(mode)

        for rep in samples[1:]:
            if rep["digest"] != samples[0]["digest"] and not rep["problems"]:
                rep["problems"].append("outputs are not byte-identical to the first call's")
        traced = [s for s in samples if s["mode"] == "trace"]
        if traced and all("trace" in s for s in traced):
            for problem in trace_problems(w, traced):
                for rep in traced:
                    rep["problems"].append(problem)
        failed = sum(1 for s in samples if s["problems"])

        if trace:
            plain = samples[0]
            plain.setdefault("cpu_s", 0.0)
            per_sample = [layer_values(s, plain) for s in traced if "trace" in s]
            values = {name: statistics.median(v[name] for v in per_sample) if per_sample else math.nan
                      for name, _ in PER_LAYER}
            units = dict(PER_LAYER)
            counts = {name: len(per_sample) for name in units}
            raw = {}
        else:
            imports = [s for s in samples if "import_s" in s]
            while len(imports) < SETUP_SAMPLES:
                rep = run_child("import", [], run_dir / f"import{len(imports)}", env)
                if "import_s" not in rep:
                    failed += 1
                    break
                imports.append(rep)
            raw = {
                "study_s": statistics.median(call_s(s) for s in samples),
                "setup_s": statistics.median(s["import_s"] for s in imports) if imports else math.nan,
            }
            values = {
                "study_s": statistics.median(call_s(s) * speed(s) for s in samples),
                "setup_s": statistics.median(s["import_s"] * speed(s) for s in imports) if imports else math.nan,
                "peak_rss_mb": statistics.median(s["maxrss_kb"] / 1024.0 for s in samples if "maxrss_kb" in s),
            }
            units = dict(END_TO_END)
            counts = {"study_s": len(samples), "setup_s": len(imports), "peak_rss_mb": len(samples)}

        if record and failed == 0:
            out = run_dir / "sample0" / "out"
            ref_path.parent.mkdir(exist_ok=True)
            ref_path.write_text(json.dumps(
                {n: json.loads((out / n).read_text(encoding="utf-8")) for n in table_files(w)},
                indent=1, sort_keys=True) + "\n", encoding="utf-8")
            print(f"recorded {ref_path.relative_to(ROOT)}")

        facts = machine_facts()
        facts["inputs_sha256"] = {k: file_sha256(p) for k, p in sorted(paths.items())}
        facts["argv"] = cli_argv(w, {k: p.relative_to(run_dir) for k, p in paths.items()}, seed, Path("OUT"))
        print(f"workload {w.name} seed {seed}: {json.dumps(facts, sort_keys=True)}")
        for i, s in enumerate(samples):
            print(f"  call {i} ({s['mode']}): import {s.get('import_s', math.nan):.3f} s, "
                  f"main {call_s(s):.3f} s, speed {speed(s):.3f}")
            for problem in s["problems"]:
                print(f"  call {i} ({s['mode']}) failed: {problem}")
        for name, value in values.items():
            unadjusted = f"; {raw[name]:.6g} {units[name]} unadjusted" if name in raw else ""
            print(f"  {name} = {value:.6g} {units[name]} (median of {counts[name]}{unadjusted})")
        print(f"  failed_ratio = {failed / len(samples):.6g} ratio ({failed} of {len(samples)} calls)")
        return {
            "correct": failed == 0,
            "attempted": len(samples),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=["truncated-traces"], default=None,
                        help="self-test: truncate the traces file so every call fails")
    parser.add_argument("--record-reference", action="store_true",
                        help=f"write the reference tables (needs --seed {DEFAULT_SEED})")
    args = parser.parse_args(argv)
    if args.record_reference and (args.seed != DEFAULT_SEED or args.inject):
        parser.error(f"--record-reference needs --seed {DEFAULT_SEED} and no --inject")
    if not (SRC / "adequacy" / "cli.py").is_file():
        print(f"no adequacy package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update({var: BLAS_THREADS for var in THREAD_VARS})
    compileall.compile_dir(SRC, quiet=1)  # bytecode is a one-off cost, not set-up
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                              inject=args.inject is not None, record=args.record_reference)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
