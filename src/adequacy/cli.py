"""Command-line interface.

Subcommands: ingest, fit, dnw, fleet, risk, uncertainty, study, demo.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, dnw, evt
from .errors import ConfigError, DataError, NumericalError
from .genmodel import fleet_summary, load_fleet
from .ingest import SeasonWindow, load_quantile_history, load_traces, make_output_dir, write_traces_csv
from .study import (
    RunConfig,
    check_installed_wind,
    check_rescale_settings,
    check_threshold_quantile,
    emit_tables,
    load_inputs,
    pooled_column,
    quantile_percent,
    rescale_traces,
    run_full_study,
    run_study_computation,
    write_factors_csv,
    write_qq_csv,
    write_scan_csv,
    write_survivor_csv,
)

# study config-file key, which also spells the flag (ref_season -> --ref-season)
# -> (RunConfig field, the JSON type a config file must give it and the flag's
# type, conversion of its value, if any); a key left unset takes RunConfig's default
_CONFIG_KEYS = {
    "traces": ("traces_path", "string", None),
    "fleet": ("fleet_path", "string", None),
    "out": ("output_dir", "string", None),
    "seed": ("seed", "integer", None),
    "quantiles": ("quantiles_path", "string or null", None),
    "ref_season": ("reference_season", "string or null", None),
    "models": ("model_kinds", "list of strings", lambda ms: tuple(dict.fromkeys(ms))),
    "threshold_quantiles": ("threshold_quantiles", "list of numbers", lambda qs: tuple(float(q) for q in qs)),
    "window_weeks": ("window_weeks", "integer", None),
    "anchor_rule": ("anchor_rule", "string", None),
    "span": ("lowess_span", "number", float),
    "iterations": ("lowess_iterations", "integer", None),
    "reps": ("replications", "integer", None),
    "level": ("ci_level", "number", float),
    "rescale_quantile": ("rescale_quantile", "number", float),
    "installed_wind_mw": ("installed_wind_mw", "number or null", lambda w: None if w is None else float(w)),
    "allow_gaps": ("allow_gaps", "boolean", None),
}

# the season window's settings, which every command that reads traces takes
_WINDOW_KEYS = ("window_weeks", "anchor_rule", "allow_gaps", "installed_wind_mw")


def _is_json(value, kind: str) -> bool:
    """Whether a parsed JSON value is of ``kind``: "boolean", "integer" (not a
    boolean), "number" (an integer or a float, not a boolean), "string",
    "null", "list of <kind>s", or alternatives joined by " or "."""
    if " or " in kind:
        return any(_is_json(value, k) for k in kind.split(" or "))
    if kind.startswith("list of "):
        return type(value) is list and all(_is_json(x, kind[len("list of "):-1]) for x in value)
    return type(value) in {"boolean": (bool,), "integer": (int,), "number": (int, float),
                           "string": (str,), "null": (type(None),)}[kind]


def _read_config_file(path) -> dict:
    try:
        values = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, ValueError) as exc:  # a directory, bytes that are not UTF-8, bad JSON
        raise ConfigError(f"config file {path}: {exc}") from None
    if not isinstance(values, dict):
        raise ConfigError(
            f"config file {path}: expected a JSON object, got {type(values).__name__}"
        )
    unknown = set(values) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"config file has unknown keys {sorted(unknown)}")
    for key, value in values.items():
        kind = _CONFIG_KEYS[key][1]
        if not _is_json(value, kind):
            raise ConfigError(f"config file {path}: {key} must be a JSON {kind}, got {json.dumps(value)}")
    return values


def _run_config(args, **fixed) -> RunConfig:
    """The RunConfig of a study, risk or uncertainty call.

    A flag given wins over the study config file, and the file over RunConfig's
    defaults. ``fixed`` holds RunConfig fields the command sets itself.
    """
    values = _read_config_file(args.config) if getattr(args, "config", None) else {}
    for key in _CONFIG_KEYS:
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    study = args.command == "study"
    if study and not all(values.get(k) for k in ("traces", "fleet", "out")):
        raise ConfigError("study requires --traces, --fleet and --out (flags or config file)")
    if values.get("seed") is None:
        source = " (flag or config file)" if study else ""
        raise ConfigError(f"--seed is required for {args.command}{source}")
    fields = {}
    for key, value in values.items():
        name, _, convert = _CONFIG_KEYS[key]
        try:
            fields[name] = convert(value) if convert else value
        except OverflowError:  # a float past 1e308
            raise ConfigError(f"{key}: bad value {value!r}") from None
    return RunConfig(**fields, **fixed)


def _load(args):
    """The traces of ingest, fit or dnw and its output directory, made once
    the command's settings pass RunConfig's checks."""
    check_installed_wind(args.installed_wind_mw)
    if args.command == "ingest":
        check_rescale_settings(args.span, args.iterations, args.rescale_quantile)
    else:
        check_threshold_quantile(args.threshold_quantile)
    window = SeasonWindow(weeks=args.window_weeks, anchor_rule=args.anchor_rule)
    outdir = make_output_dir(args.out)
    traces = load_traces(args.traces, window, installed_wind_mw=args.installed_wind_mw,
                         allow_gaps=args.allow_gaps)
    if not traces:
        raise DataError(f"{args.traces}: no season inside the {window.weeks}-week window "
                        f"from the {window.anchor_rule}")
    return traces, outdir


def _pick_season(traces, label):
    for trace in traces:
        if trace.season_label == label:
            return trace
    raise DataError(f"season {label!r} not found; have {[t.season_label for t in traces]}")


def cmd_ingest(args) -> int:
    traces, outdir = _load(args)
    history = load_quantile_history(args.quantiles) if args.quantiles else None
    traces, factors = rescale_traces(
        traces, history, args.ref_season, args.span, args.iterations, args.rescale_quantile
    )
    path = write_traces_csv(traces, outdir / "rescaled_traces.csv")
    factors_path = write_factors_csv(factors, outdir / "rescale_factors.csv")
    for trace in traces:
        print(f"{trace.season_label}: {trace.n_hours} hours, factor {factors[trace.season_label]:.4f}")
    print(f"wrote {path} and {factors_path}")
    return 0


def cmd_fit(args) -> int:
    if args.scan:
        try:
            lo, hi, step = (float(x) for x in args.scan.split(":"))
        except ValueError:
            raise ConfigError(f"--scan expects lo:hi:step, got {args.scan!r}") from None
        if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi <= lo:
            raise ConfigError(f"--scan needs finite lo < hi and step > 0, got {args.scan!r}")
        try:
            thresholds = np.arange(lo, hi + step / 2, step)
        except (ValueError, MemoryError) as exc:  # numpy cannot make a grid that large
            raise ConfigError(f"--scan grid {args.scan!r} cannot be made: {exc}") from None
        if np.any(np.diff(thresholds) <= 0.0):
            raise ConfigError(
                f"--scan step is below the float spacing of its thresholds, got {args.scan!r}"
            )
    traces, outdir = _load(args)
    trace = _pick_season(traces, args.season)
    values = trace.net_demand_mw
    u = evt.select_threshold(values, args.threshold_quantile)
    fit = evt.fit_threshold_excesses(values, u)
    print(
        f"season {args.season}: u={u:.1f} MW ({quantile_percent(args.threshold_quantile)}% quantile), "
        f"sigma={fit.params.sigma:.1f} (se {fit.se_sigma:.1f}), "
        f"xi={fit.params.xi:.3f} (se {fit.se_xi:.3f}), "
        f"k={fit.n_exceedances}, loglik={fit.log_likelihood:.2f}"
    )
    qq_path = write_qq_csv(fit, values, outdir / f"qq_{args.season}.csv")
    print(f"wrote {qq_path}")
    if args.scan:
        scan_path = write_scan_csv(values, thresholds, outdir / f"threshold_scan_{args.season}.csv")
        print(f"wrote {scan_path}")
    return 0


def cmd_dnw(args) -> int:
    traces, outdir = _load(args)

    def emit(seasons, label):
        fit = None
        if args.model == dnw.EVT:
            values = np.concatenate([t.net_demand_mw for t in seasons])
            fit = evt.fit_threshold_excesses(values, evt.select_threshold(values, args.threshold_quantile))
        path = write_survivor_csv(seasons, args.model, fit, outdir / f"survivor_{args.model}_{label}.csv")
        print(f"wrote {path}")

    if args.pooled:
        emit(traces, "pooled")
    else:
        for trace in traces:
            emit([trace], trace.season_label)
    return 0


def cmd_fleet(args) -> int:
    units = load_fleet(args.fleet)
    summary = fleet_summary(units)
    print(f"units: {summary['n_units']}")
    print(f"total capacity: {summary['total_capacity_mw']} MW")
    print(f"mean available capacity: {summary['mean_available_mw']:.1f} MW")
    return 0


def cmd_risk(args) -> int:
    cfg = _run_config(args, include_pooled=args.pooled)
    outdir = make_output_dir(cfg.output_dir)
    result = run_study_computation(cfg, progress=_progress(args))
    emit_tables(result, outdir)
    print((outdir / "lole_per_season.txt").read_text(), end="")
    return 0


def cmd_uncertainty(args) -> int:
    """The CI of one column, as ``study --models <model>`` writes it.

    Season mode reads a one-column study. Block mode computes only the
    column's pooled estimate and its block bootstrap, as the study does, so a
    season that an evt fit cannot fit on its own does not stop it. Both print
    the tables' value, EEU in MWh as their GWh x 1000.
    """
    cfg = _run_config(args, model_kinds=(args.model,),
                      threshold_quantiles=(args.threshold_quantile,), include_pooled=False)
    if args.mode == "season":
        [column] = run_study_computation(cfg).columns
        metrics, intervals = column.mean, column.ci
    else:
        [(_, kind, q)] = cfg.columns()
        sample, _ = load_inputs(cfg)
        counts = cfg.counts(0, len(sample.seasons))
        metrics, _, pooled = pooled_column(sample, kind, q, counts, cfg.ci_level)
        intervals = pooled.intervals
    metric = "lole_hours" if args.metric == "lole" else "eeu_gwh"
    point, ci = getattr(metrics, metric), intervals[metric]
    scale = 1000.0 if args.metric == "eeu" else 1.0

    payload = {
        "metric": args.metric,
        "mode": args.mode,
        "model": args.model,
        "point_estimate": point * scale,
        "ci_lower": ci.lower * scale,
        "ci_upper": ci.upper * scale,
        "level": cfg.ci_level,
        "replications": cfg.replications,
        "seed": cfg.seed,
    }
    print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
    return 0


def _progress(args):
    if getattr(args, "quiet", False):
        return lambda msg: None
    return lambda msg: print(f"[adequacy] {msg}", file=sys.stderr)


def cmd_study(args) -> int:
    cfg = _run_config(args)
    result = run_full_study(cfg, progress=_progress(args))
    print(f"study complete: {len(result.outputs)} artifacts in {cfg.output_dir}")
    return 0


def cmd_demo(args) -> int:
    from . import demo  # the only command that needs scipy: load it only here

    paths = demo.write_demo_dataset(args.out, seed=args.seed)
    for name, path in paths.items():
        print(f"wrote {name}: {path}")
    return 0


def _add_settings(parser, keys, required=(), defaults=False):
    """Add the flag of each ``_CONFIG_KEYS`` key (``--ref-season`` for
    ref_season), typed by the key's JSON type.

    An unset flag reads None, so that the study config file or RunConfig
    decides; with ``defaults`` it reads RunConfig's default instead.
    """
    for key in keys:
        name, kind, _ = _CONFIG_KEYS[key]
        kind = kind.removesuffix(" or null")
        opts = {"default": getattr(RunConfig, name, None) if defaults else None}
        if kind == "boolean":
            opts.update(action="store_const", const=True)
        elif kind in ("integer", "number", "list of numbers"):
            opts["type"] = int if kind == "integer" else float
        if kind.startswith("list of "):
            opts["nargs"] = "+"
        if key == "models":
            opts["choices"] = dnw.MODEL_KINDS
        parser.add_argument("--" + key.replace("_", "-"), dest=key, required=key in required, **opts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adequacy",
        description="Capacity-adequacy risk metrics (LoLE/EEU) with extreme-value tail modelling",
    )
    parser.add_argument("--version", action="version", version=f"adequacy {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load, window and rescale traces")
    _add_settings(p, ("traces", "quantiles", "ref_season", "span", "iterations", "rescale_quantile",
                      "out", *_WINDOW_KEYS), required=("traces",), defaults=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("fit", help="fit the GPD tail for one season")
    _add_settings(p, ("traces", "out", *_WINDOW_KEYS), required=("traces",), defaults=True)
    p.add_argument("--season", required=True)
    p.add_argument("--threshold-quantile", type=float, default=0.95)
    p.add_argument("--scan", default=None, help="threshold scan as lo:hi:step (MW)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("dnw", help="export survivor curves for a demand-net-of-wind model")
    _add_settings(p, ("traces", "out", *_WINDOW_KEYS), required=("traces",), defaults=True)
    p.add_argument("--model", choices=dnw.MODEL_KINDS, required=True)
    p.add_argument("--threshold-quantile", type=float, default=0.95)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--pooled", action="store_true")
    group.add_argument("--per-season", dest="pooled", action="store_false")
    p.set_defaults(pooled=False, func=cmd_dnw)

    p = sub.add_parser("fleet", help="validate a fleet file and print a summary")
    _add_settings(p, ("fleet",), required=("fleet",))
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser("risk", help="per-season and pooled LoLE/EEU tables")
    _add_settings(p, ("traces", "fleet", "quantiles", "ref_season", "reps", "level", "seed", "out",
                      *_WINDOW_KEYS), required=("traces", "fleet"))
    p.add_argument("--model", dest="models", nargs="+", choices=dnw.MODEL_KINDS)
    p.add_argument("--threshold-quantile", dest="threshold_quantiles", type=float, nargs="+",
                   metavar="THRESHOLD_QUANTILE")
    p.add_argument("--pooled", action="store_true",
                   help="also fit pooled models and emit the pooled table")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(seed=0, func=cmd_risk)

    p = sub.add_parser("uncertainty", help="bootstrap CI for one metric")
    _add_settings(p, ("traces", "fleet", "quantiles", "ref_season", "reps", "seed", "level",
                      *_WINDOW_KEYS), required=("traces", "fleet"))
    p.add_argument("--metric", choices=["lole", "eeu"], required=True)
    p.add_argument("--mode", choices=["season", "block"], required=True)
    p.add_argument("--model", choices=dnw.MODEL_KINDS, default=dnw.EVT)
    p.add_argument("--threshold-quantile", type=float, default=0.95)
    p.set_defaults(func=cmd_uncertainty)

    p = sub.add_parser("study", help="full study: tables, diagnostics, manifest")
    p.add_argument("--config", default=None, help="JSON config file (flags win)")
    _add_settings(p, _CONFIG_KEYS)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("demo", help="write the bundled synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="default: the demo's own seed")
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
