"""One measured CLI call in a fresh interpreter.

Usage: child.py REPORT MODE [ARGV...]

MODE is ``import`` (time ``import adequacy.cli`` only), ``plain`` (then time
``adequacy.cli.main(ARGV)``) or ``trace`` (the same call with every layer
traced by ``tracer.Tracer``). The timings, exit code, CPU time, peak RSS and
any span totals are written as JSON to REPORT; a failure is reported there,
not raised, so the caller can count it. A fixed calibration loop is timed
before the import, before the call and after it, so that the caller can
tell how fast the machine ran around the call.
"""

import json
import resource
import sys
import time
import traceback


def calibrate() -> float:
    """Seconds for a fixed piece of pure-interpreter work (no imports, little memory)."""
    start = time.perf_counter()
    data = list(range(20_000))
    for _ in range(20):
        table = {k: k * 3 for k in data}
        sum(table[k] for k in data[::7])
        sorted(data, key=lambda v: (v * 7919) % 10007)
    return time.perf_counter() - start


def main() -> None:
    report_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    report = {"cal_s": [calibrate()]}
    try:
        start = time.perf_counter()
        import adequacy.cli

        report["import_s"] = time.perf_counter() - start
        report["cal_s"].append(calibrate())
        if mode != "import":
            tracer = None
            if mode == "trace":
                from tracer import Tracer

                tracer = Tracer()
                tracer.install()
            cpu = time.process_time()
            start = time.perf_counter()
            try:
                report["rc"] = adequacy.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                report["rc"] = exc.code
            report["call_s"] = time.perf_counter() - start
            report["cpu_s"] = time.process_time() - cpu
            report["cal_s"].append(calibrate())
            if tracer is not None:
                report["trace"] = tracer.report()
    except Exception:
        report["error"] = traceback.format_exc()
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
