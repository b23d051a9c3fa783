"""Run-to-run spread of the end-to-end metrics, as the acceptance rule takes it.

Usage: python3 perfbench/spread.py [--runs 10] [--seconds 30] [--out FILE] WORKLOAD...

Runs ``run.py`` once per seed 1..RUNS for each workload, then prints, per
metric, the median of the runs and the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of that median.
With ``--out`` every run's result is also written as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    results = {}
    for workload in args.workloads:
        runs = []
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=HERE.parent, capture_output=True, text=True, check=True,
            )
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        results[workload] = runs
        print(f"{workload}: correct {sum(r['correct'] for r in runs)}/{len(runs)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            print(f"  {name}: median {median:.4g}, spread {(q3 - q1) / median:.4f}")
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
