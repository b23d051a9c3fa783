"""Command-line interface.

Subcommands: ingest, fit, dnw, fleet, risk, uncertainty, study, demo.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, demo, dnw, evt
from .errors import ConfigError, DataError, NumericalError
from .genmodel import convolve_fleet, fleet_summary, load_fleet
from .ingest import SeasonWindow, load_quantile_history, load_traces
from .risk import ShortfallFunctionals
from .study import (
    RunConfig,
    pooled_pipeline,
    rescale_traces,
    run_full_study,
    run_study_computation,
    write_qq_csv,
    write_scan_csv,
    write_survivor_csv,
)
from .uncertainty import BootstrapConfig, block_bootstrap, season_bootstrap

_STUDY_DEFAULTS = {
    "quantiles": None,
    "ref_season": None,
    "models": ["evt", "hindcast", "ind"],
    "threshold_quantiles": [0.90, 0.95, 0.98],
    "window_weeks": 21,
    "anchor_rule": "last Sunday in October",
    "span": 2.0 / 3.0,
    "iterations": 1,
    "reps": 10_000,
    "level": 0.95,
    "rescale_quantile": 0.90,
    "installed_wind_mw": None,
    "allow_gaps": False,
    "seed": None,
}

_KIND_ALIASES = {"evt": dnw.EVT, "hindcast": dnw.HINDCAST, "ind": dnw.INDEPENDENCE}


def _window(args) -> SeasonWindow:
    return SeasonWindow(
        weeks=getattr(args, "window_weeks", 21) or 21,
        anchor_rule=getattr(args, "anchor_rule", None) or "last Sunday in October",
    )


def _load(args):
    return load_traces(
        args.traces,
        _window(args),
        installed_wind_mw=getattr(args, "installed_wind_mw", None),
        allow_gaps=getattr(args, "allow_gaps", False),
    )


def _pick_season(traces, label):
    for trace in traces:
        if trace.season_label == label:
            return trace
    raise DataError(f"season {label!r} not found; have {[t.season_label for t in traces]}")


def cmd_ingest(args) -> int:
    traces = _load(args)
    history = load_quantile_history(args.quantiles) if args.quantiles else None
    traces, factors = rescale_traces(
        traces, history, args.ref_season, args.span, args.iterations, args.rescale_quantile
    )
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "rescaled_traces.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("season,timestamp,demand_mw,wind_mw\n")
        for trace in traces:
            for ts, d, w in zip(trace.timestamps.astype(object), trace.demand_mw, trace.wind_mw):
                fh.write(f"{trace.season_label},{ts.isoformat()},{float(d)!r},{float(w)!r}\n")
    factors_path = outdir / "rescale_factors.csv"
    factors_path.write_text(
        "season,factor\n" + "".join(f"{s},{f!r}\n" for s, f in factors.items()),
        encoding="utf-8",
    )
    for trace in traces:
        print(f"{trace.season_label}: {trace.n_hours} hours, factor {factors[trace.season_label]:.4f}")
    print(f"wrote {path} and {factors_path}")
    return 0


def cmd_fit(args) -> int:
    traces = _load(args)
    trace = _pick_season(traces, args.season)
    values = trace.net_demand_mw
    u = evt.select_threshold(values, args.threshold_quantile)
    fit = evt.fit_threshold_excesses(values, u)
    print(
        f"season {args.season}: u={u:.1f} MW ({args.threshold_quantile:.0%} quantile), "
        f"sigma={fit.params.sigma:.1f} (se {fit.se_sigma:.1f}), "
        f"xi={fit.params.xi:.3f} (se {fit.se_xi:.3f}), "
        f"k={fit.n_exceedances}, loglik={fit.log_likelihood:.2f}"
    )
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    qq_path = write_qq_csv(fit, values, outdir / f"qq_{args.season}.csv")
    print(f"wrote {qq_path}")
    if args.scan:
        try:
            lo, hi, step = (float(x) for x in args.scan.split(":"))
        except ValueError:
            raise ConfigError(f"--scan expects lo:hi:step, got {args.scan!r}") from None
        if step <= 0 or hi <= lo:
            raise ConfigError("--scan needs lo < hi and step > 0")
        thresholds = np.arange(lo, hi + step / 2, step)
        scan_path = write_scan_csv(values, thresholds, outdir / f"threshold_scan_{args.season}.csv")
        print(f"wrote {scan_path}")
    return 0


def cmd_dnw(args) -> int:
    traces = _load(args)
    kind = _KIND_ALIASES[args.model]
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    def emit(model, label):
        sample = (
            model.body
            if model.body is not None
            else model.pmf.values_mw.astype(float)
        )
        grid = np.linspace(float(np.quantile(sample, 0.10)), float(sample.max()) + 2_000.0, 200)
        path = write_survivor_csv(model, grid, outdir / f"survivor_{args.model}_{label}.csv")
        print(f"wrote {path}")

    if args.pooled:
        from .study import _pooled_model

        emit(_pooled_model(traces, kind, args.threshold_quantile), "pooled")
    else:
        from .risk import build_model

        for trace in traces:
            emit(build_model(trace, kind, args.threshold_quantile), trace.season_label)
    return 0


def cmd_fleet(args) -> int:
    units = load_fleet(args.fleet)
    summary = fleet_summary(units)
    print(f"units: {summary['n_units']}")
    print(f"total capacity: {summary['total_capacity_mw']} MW")
    print(f"mean available capacity: {summary['mean_available_mw']:.1f} MW")
    return 0


def cmd_risk(args) -> int:
    cfg = RunConfig(
        traces_path=args.traces,
        fleet_path=args.fleet,
        seed=args.seed,
        output_dir=args.out,
        quantiles_path=args.quantiles,
        reference_season=args.ref_season,
        model_kinds=tuple(dict.fromkeys(_KIND_ALIASES[m] for m in args.model)),
        threshold_quantiles=tuple(args.threshold_quantile),
        window_weeks=args.window_weeks,
        replications=args.reps,
        ci_level=args.level,
        allow_gaps=args.allow_gaps,
        include_pooled=args.pooled,
    )
    result, extras = run_study_computation(cfg, progress=_progress(args))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    from .study import emit_pooled_table, emit_table

    for table, stem in ((result.lole_table, "lole_per_season"), (result.eeu_table, "eeu_per_season")):
        for fmt, suffix in (("csv", ".csv"), ("json", ".json"), ("text", ".txt")):
            emit_table(table, fmt, outdir / f"{stem}{suffix}")
    if args.pooled:
        for fmt, suffix in (("csv", ".csv"), ("json", ".json"), ("text", ".txt")):
            emit_pooled_table(result.pooled_table, fmt, outdir / f"pooled_metrics{suffix}")
    print((outdir / "lole_per_season.txt").read_text(), end="")
    return 0


def cmd_uncertainty(args) -> int:
    if args.seed is None:
        raise ConfigError("--seed is required for uncertainty")
    traces = _load(args)
    history = load_quantile_history(args.quantiles) if args.quantiles else None
    traces, _ = rescale_traces(traces, history, args.ref_season, 2.0 / 3.0, 1)
    fleet = convolve_fleet(load_fleet(args.fleet))
    functionals = ShortfallFunctionals(fleet)
    kind = _KIND_ALIASES[args.model]
    n_hours = _window(args).expected_hours
    cfg = BootstrapConfig(seed=args.seed, replications=args.reps, ci_level=args.level)
    metric_key = {"lole": "lole", "eeu": "eeu"}[args.metric]

    from .risk import build_model

    per_season = []
    for trace in traces:
        pmf = dnw.discretize(build_model(trace, kind, args.threshold_quantile))
        m = functionals.metrics(pmf, n_hours)
        per_season.append(m.lole_hours if metric_key == "lole" else m.eeu_mwh)

    if args.mode == "season":
        point = float(np.mean(per_season))
        ci = season_bootstrap(per_season, cfg)
    else:
        pipeline = pooled_pipeline(functionals, kind, args.threshold_quantile, n_hours)
        point = pipeline(traces)[metric_key]
        ci = block_bootstrap(traces, pipeline, cfg).intervals[metric_key]

    payload = {
        "metric": args.metric,
        "mode": args.mode,
        "model": args.model,
        "point_estimate": point,
        "ci_lower": ci.lower,
        "ci_upper": ci.upper,
        "level": args.level,
        "replications": args.reps,
        "seed": args.seed,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _progress(args):
    if getattr(args, "quiet", False):
        return lambda msg: None
    return lambda msg: print(f"[adequacy] {msg}", file=sys.stderr)


def cmd_study(args) -> int:
    merged = dict(_STUDY_DEFAULTS)
    if args.config:
        try:
            file_cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {args.config}: {exc}") from None
        unknown = set(file_cfg) - set(_STUDY_DEFAULTS) - {"traces", "fleet", "out"}
        if unknown:
            raise ConfigError(f"config file has unknown keys {sorted(unknown)}")
        merged.update(file_cfg)
    for key in _STUDY_DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    traces_path = args.traces or merged.get("traces")
    fleet_path = args.fleet or merged.get("fleet")
    out_dir = args.out or merged.get("out")
    if not traces_path or not fleet_path or not out_dir:
        raise ConfigError("study requires --traces, --fleet and --out (flags or config file)")
    if merged["seed"] is None:
        raise ConfigError("--seed is required for study (flag or config file)")

    cfg = RunConfig(
        traces_path=str(traces_path),
        fleet_path=str(fleet_path),
        seed=int(merged["seed"]),
        output_dir=str(out_dir),
        quantiles_path=merged["quantiles"],
        reference_season=merged["ref_season"],
        model_kinds=tuple(dict.fromkeys(_KIND_ALIASES[m] for m in merged["models"])),
        threshold_quantiles=tuple(float(q) for q in merged["threshold_quantiles"]),
        window_weeks=int(merged["window_weeks"]),
        anchor_rule=str(merged["anchor_rule"]),
        lowess_span=float(merged["span"]),
        lowess_iterations=int(merged["iterations"]),
        replications=int(merged["reps"]),
        ci_level=float(merged["level"]),
        rescale_quantile=float(merged["rescale_quantile"]),
        installed_wind_mw=merged["installed_wind_mw"],
        allow_gaps=bool(merged["allow_gaps"]),
    )
    result = run_full_study(cfg, progress=_progress(args))
    print(f"study complete: {len(result.outputs)} artifacts in {cfg.output_dir}")
    return 0


def cmd_demo(args) -> int:
    paths = demo.write_demo_dataset(args.out, seed=args.seed)
    for name, path in paths.items():
        print(f"wrote {name}: {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adequacy",
        description="Capacity-adequacy risk metrics (LoLE/EEU) with extreme-value tail modelling",
    )
    parser.add_argument("--version", action="version", version=f"adequacy {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_window_opts(p):
        p.add_argument("--window-weeks", type=int, default=21)
        p.add_argument("--anchor-rule", default="last Sunday in October")
        p.add_argument("--allow-gaps", action="store_true")
        p.add_argument("--installed-wind-mw", type=float, default=None)

    p = sub.add_parser("ingest", help="load, window and rescale traces")
    p.add_argument("--traces", required=True)
    p.add_argument("--quantiles", default=None)
    p.add_argument("--ref-season", default=None)
    p.add_argument("--span", type=float, default=2.0 / 3.0)
    p.add_argument("--iterations", type=int, default=1)
    p.add_argument("--rescale-quantile", type=float, default=0.90)
    p.add_argument("--out", default=".")
    add_window_opts(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("fit", help="fit the GPD tail for one season")
    p.add_argument("--traces", required=True)
    p.add_argument("--season", required=True)
    p.add_argument("--threshold-quantile", type=float, default=0.95)
    p.add_argument("--scan", default=None, help="threshold scan as lo:hi:step (MW)")
    p.add_argument("--out", default=".")
    add_window_opts(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("dnw", help="export survivor curves for a demand-net-of-wind model")
    p.add_argument("--traces", required=True)
    p.add_argument("--model", choices=sorted(_KIND_ALIASES), required=True)
    p.add_argument("--threshold-quantile", type=float, default=0.95)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--pooled", action="store_true")
    group.add_argument("--per-season", dest="pooled", action="store_false")
    p.set_defaults(pooled=False)
    p.add_argument("--out", default=".")
    add_window_opts(p)
    p.set_defaults(func=cmd_dnw)

    p = sub.add_parser("fleet", help="validate a fleet file and print a summary")
    p.add_argument("--fleet", required=True)
    p.add_argument("--summary", action="store_true")
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser("risk", help="per-season and pooled LoLE/EEU tables")
    p.add_argument("--traces", required=True)
    p.add_argument("--fleet", required=True)
    p.add_argument("--quantiles", default=None)
    p.add_argument("--ref-season", default=None)
    p.add_argument("--model", nargs="+", choices=sorted(_KIND_ALIASES),
                   default=["evt", "hindcast", "ind"])
    p.add_argument("--threshold-quantile", type=float, nargs="+", default=[0.90, 0.95, 0.98])
    p.add_argument("--pooled", action="store_true",
                   help="also fit pooled models and emit the pooled table")
    p.add_argument("--reps", type=int, default=10_000)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.add_argument("--quiet", action="store_true")
    add_window_opts(p)
    p.set_defaults(func=cmd_risk)

    p = sub.add_parser("uncertainty", help="bootstrap CI for one metric")
    p.add_argument("--traces", required=True)
    p.add_argument("--fleet", required=True)
    p.add_argument("--quantiles", default=None)
    p.add_argument("--ref-season", default=None)
    p.add_argument("--metric", choices=["lole", "eeu"], required=True)
    p.add_argument("--mode", choices=["season", "block"], required=True)
    p.add_argument("--model", choices=sorted(_KIND_ALIASES), default="evt")
    p.add_argument("--threshold-quantile", type=float, default=0.95)
    p.add_argument("--reps", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--level", type=float, default=0.95)
    add_window_opts(p)
    p.set_defaults(func=cmd_uncertainty)

    p = sub.add_parser("study", help="full study: tables, diagnostics, manifest")
    p.add_argument("--config", default=None, help="JSON config file (flags win)")
    p.add_argument("--traces", default=None)
    p.add_argument("--fleet", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--quantiles", default=None)
    p.add_argument("--ref-season", dest="ref_season", default=None)
    p.add_argument("--models", nargs="+", choices=sorted(_KIND_ALIASES), default=None)
    p.add_argument("--threshold-quantiles", type=float, nargs="+", default=None)
    p.add_argument("--window-weeks", dest="window_weeks", type=int, default=None)
    p.add_argument("--anchor-rule", dest="anchor_rule", default=None)
    p.add_argument("--span", type=float, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--level", type=float, default=None)
    p.add_argument("--rescale-quantile", dest="rescale_quantile", type=float, default=None)
    p.add_argument("--installed-wind-mw", dest="installed_wind_mw", type=float, default=None)
    p.add_argument("--allow-gaps", dest="allow_gaps", action="store_const", const=True, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("demo", help="write the bundled synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=demo.DEMO_SEED)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
