"""End-to-end study orchestration: configuration, pipelines, table emission.

A study loads the traces and fleet, optionally rescales demand from the
quantile history, computes per-season and pooled LoLE/EEU for every requested
model variant, bootstraps confidence intervals, and writes tables plus
plot-data CSVs and a manifest into the output directory. All randomness
derives from the single configured seed; rerunning with identical inputs
produces byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, dnw, evt
from .errors import ConfigError, DataError, NumericalError
from .genmodel import convolve_fleet, load_fleet
from .ingest import (
    SeasonWindow,
    apply_rescaling,
    compute_rescale_factors,
    daily_peak_quantile,
    load_quantile_history,
    load_traces,
)
from .risk import RiskMetrics, SeasonSample, ShortfallFunctionals, long_run_mean
from .uncertainty import (
    BlockBootstrapResult,
    BootstrapConfig,
    ConfidenceInterval,
    block_bootstrap,
    season_bootstrap,
)

SCAN_QUANTILES = np.round(np.arange(0.80, 0.996, 0.01), 3)
SURVIVOR_CURVE_POINTS = 200
TABLE_FORMATS = (("csv", ".csv"), ("json", ".json"), ("text", ".txt"))


def check_rescale_settings(span: float, iterations: int, rescale_quantile: float) -> None:
    """Raise ConfigError unless the demand-rescaling settings are usable."""
    if not 0.0 < span <= 1.0:
        raise ConfigError(f"lowess span {span} outside (0, 1]")
    if iterations < 0:
        raise ConfigError(f"lowess iterations {iterations} is negative")
    if not 0.0 < rescale_quantile < 1.0:
        raise ConfigError(f"rescale quantile {rescale_quantile} outside (0, 1)")


def check_installed_wind(installed_wind_mw: float | None) -> None:
    """Raise ConfigError unless the installed wind capacity is unset, or finite and positive."""
    if installed_wind_mw is not None and not 0.0 < installed_wind_mw < float("inf"):
        raise ConfigError(f"installed_wind_mw {installed_wind_mw} is not a finite positive capacity")


def check_threshold_quantile(q: float) -> None:
    """Raise ConfigError unless the GPD threshold quantile lies in (0.5, 1)."""
    if not 0.5 < q < 1.0:
        raise ConfigError(f"threshold quantile {q} outside (0.5, 1)")


def quantile_percent(q: float) -> str:
    """A threshold quantile in percent, as evt column and file names give it:
    0.9 is "90" and 0.995 is "99.5" (six significant digits)."""
    return f"{q * 100:g}"


@dataclass(frozen=True)
class RunConfig:
    traces_path: str
    fleet_path: str
    seed: int
    output_dir: str = "."
    quantiles_path: str | None = None
    reference_season: str | None = None
    model_kinds: tuple[str, ...] = (dnw.EVT, dnw.HINDCAST, dnw.INDEPENDENCE)
    threshold_quantiles: tuple[float, ...] = (0.90, 0.95, 0.98)
    window_weeks: int = SeasonWindow.weeks
    anchor_rule: str = SeasonWindow.anchor_rule
    lowess_span: float = 2.0 / 3.0
    lowess_iterations: int = 1
    replications: int = 10_000
    ci_level: float = 0.95
    rescale_quantile: float = 0.90
    installed_wind_mw: float | None = None
    allow_gaps: bool = False
    include_pooled: bool = True

    def __post_init__(self):
        self.window()  # raises ConfigError on a bad window
        if self.seed < 0:
            raise ConfigError(f"seed {self.seed} is negative; seeds are non-negative integers")
        try:
            self.bootstrap(0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        check_rescale_settings(self.lowess_span, self.lowess_iterations, self.rescale_quantile)
        check_installed_wind(self.installed_wind_mw)
        if not self.model_kinds:
            raise ConfigError("at least one model kind is required")
        for kind in self.model_kinds:
            if kind not in dnw.MODEL_KINDS:
                raise ConfigError(f"unknown model kind {kind!r}")
        for q in self.threshold_quantiles:
            check_threshold_quantile(q)
        if dnw.EVT in self.model_kinds and not self.threshold_quantiles:
            raise ConfigError("evt models need at least one threshold quantile")
        labels = [label for label, _, _ in self.columns()]
        repeated = sorted({label for label in labels if labels.count(label) > 1})
        if repeated:
            raise ConfigError(
                f"threshold quantiles {list(self.threshold_quantiles)} give repeated "
                f"column labels {repeated}; labels are the quantile in percent, "
                "to six significant digits"
            )

    def window(self) -> SeasonWindow:
        return SeasonWindow(weeks=self.window_weeks, anchor_rule=self.anchor_rule)

    def bootstrap(self, column: int) -> BootstrapConfig:
        """The bootstrap of the column at this position of ``columns()``: its
        replications draw from substreams keyed (seed, 101, column)."""
        return BootstrapConfig(seed=(self.seed, 101, column), replications=self.replications,
                               ci_level=self.ci_level)

    def columns(self) -> list[tuple[str, str, float | None]]:
        """(label, kind, threshold_quantile) per model variant, in fixed order."""
        cols = []
        for kind in self.model_kinds:
            if kind == dnw.EVT:
                for q in self.threshold_quantiles:
                    cols.append((f"evt_{quantile_percent(q)}", dnw.EVT, q))
            else:
                cols.append((kind if kind != dnw.INDEPENDENCE else "ind", kind, None))
        return cols


@dataclass
class MetricTable:
    metric: str  # "lole_hours" or "eeu_gwh"
    columns: list[str]
    season_labels: list[str]
    values: dict[str, list[float]]  # column -> per-season values
    means: dict[str, float]
    cis: dict[str, ConfidenceInterval]


@dataclass
class PooledTable:
    columns: list[str]
    lole: dict[str, float]
    lole_ci: dict[str, ConfidenceInterval]
    eeu_gwh: dict[str, float]
    eeu_ci: dict[str, ConfidenceInterval]  # in GWh


def pooled_pipeline(sample: SeasonSample, kind: str, threshold_quantile: float | None):
    """Season-set -> {'lole', 'eeu'} mapping for the block bootstrap.

    ``kind`` and ``threshold_quantile`` are a column of ``RunConfig.columns()``.
    The drawn traces, each one of ``sample.seasons``, become a count per
    season, and ``sample`` reads that multiset; evt refits the GPD on every
    call, as a fit is not linear.
    """
    slot = {id(t): i for i, t in enumerate(sample.seasons)}

    def run(traces):
        counts = np.bincount([slot[id(t)] for t in traces], minlength=len(slot))
        metrics, _ = sample.metrics(counts, kind, threshold_quantile)
        return {"lole": metrics.lole_hours, "eeu": metrics.eeu_mwh}

    return run


def pooled_column(sample: SeasonSample, kind: str, threshold_quantile: float | None,
                  boot: BootstrapConfig) -> tuple[RiskMetrics, evt.GpdFit | None, BlockBootstrapResult]:
    """The pooled metrics of one column of ``RunConfig.columns()``, its evt fit
    (None for other kinds) and its block bootstrap with ``boot``.

    Nothing is computed per season, so a season that an evt column cannot fit
    on its own does not stop it.
    """
    metrics, fit = sample.metrics(np.ones(len(sample.seasons)), kind, threshold_quantile)
    pipeline = pooled_pipeline(sample, kind, threshold_quantile)
    return metrics, fit, block_bootstrap(sample.seasons, pipeline, boot)


def rescale_traces(traces, history, reference_season, span, iterations,
                   rescale_quantile=0.90):
    """Forward-map demand using Lowess-smoothed quantile-history factors.

    Falls back to the traces' own daily-peak quantiles when no history is
    supplied. Returns the rescaled traces and the factor map.
    """
    if history is None:
        history = [
            (t.season_label, daily_peak_quantile(t, rescale_quantile)) for t in traces
        ]
    factors = compute_rescale_factors(history, reference_season, span=span, iterations=iterations)
    out = []
    for trace in traces:
        if trace.season_label not in factors:
            raise DataError(
                f"season {trace.season_label} missing from the quantile history"
            )
        out.append(apply_rescaling(trace, factors[trace.season_label]))
    return out, {t.season_label: factors[t.season_label] for t in out}


@dataclass
class StudyResult:
    config: RunConfig
    season_labels: list[str]
    lole_table: MetricTable
    eeu_table: MetricTable
    pooled_table: PooledTable
    rescale_factors: dict[str, float]
    # column -> {"used", "dropped", "first_error"} of its block bootstrap
    bootstrap: dict[str, dict] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)


def load_inputs(cfg: RunConfig, progress=lambda msg: None) -> tuple[SeasonSample, dict]:
    """The season sample of cfg's inputs, and the demand rescaling factors.

    The sample holds the traces inside cfg's window, demand rescaled, read
    against the fleet. Its n is the length of the target season, whatever a
    historical season lost to gaps; pooled models weight each season by its
    observed hours.
    """
    progress("loading traces")
    traces = load_traces(
        cfg.traces_path, cfg.window(),
        installed_wind_mw=cfg.installed_wind_mw, allow_gaps=cfg.allow_gaps,
    )
    if len(traces) < 2:
        raise DataError(
            f"{len(traces)} season(s) inside the study window; a bootstrap over seasons needs at least 2"
        )
    history = load_quantile_history(cfg.quantiles_path) if cfg.quantiles_path else None
    progress("rescaling demand")
    traces, factors = rescale_traces(
        traces, history, cfg.reference_season, cfg.lowess_span, cfg.lowess_iterations,
        cfg.rescale_quantile,
    )
    progress("building fleet distribution")
    fleet = convolve_fleet(load_fleet(cfg.fleet_path))
    return SeasonSample(ShortfallFunctionals(fleet), traces, cfg.window().expected_hours), factors


def run_study_computation(cfg: RunConfig, progress=lambda msg: None) -> tuple[StudyResult, dict]:
    """All numerical work for a study; file emission happens separately."""
    sample, factors = load_inputs(cfg, progress)
    traces = sample.seasons
    labels = [t.season_label for t in traces]

    columns = cfg.columns()
    col_labels = [c[0] for c in columns]

    progress("computing per-season metrics")
    per_season: dict[str, list[RiskMetrics]] = {}
    season_fits: dict[str, list[evt.GpdFit | None]] = {}
    for label, kind, q in columns:
        results = []
        # a one-hot count is that season on its own
        for season, one in zip(labels, np.identity(len(traces))):
            try:
                results.append(sample.metrics(one, kind, q))
            except NumericalError as exc:
                raise NumericalError(f"{label}, season {season}: {exc}") from exc
        per_season[label] = [m for m, _ in results]
        season_fits[label] = [fit for _, fit in results]

    progress("season bootstrap")
    lole_values = {c: [m.lole_hours for m in per_season[c]] for c in col_labels}
    eeu_values = {c: [m.eeu_gwh for m in per_season[c]] for c in col_labels}
    # one config per column, so its index matrix is drawn once and shared by
    # both season CIs and the block bootstrap; for hindcast the block bootstrap
    # then reproduces the season bootstrap exactly (pooling is linear)
    boots = {c: cfg.bootstrap(i) for i, c in enumerate(col_labels)}
    lole_table = MetricTable(
        metric="lole_hours",
        columns=col_labels,
        season_labels=labels,
        values=lole_values,
        means={c: long_run_mean(per_season[c]).lole_hours for c in col_labels},
        cis={c: season_bootstrap(lole_values[c], boots[c]) for c in col_labels},
    )
    eeu_table = MetricTable(
        metric="eeu_gwh",
        columns=col_labels,
        season_labels=labels,
        values=eeu_values,
        means={c: long_run_mean(per_season[c]).eeu_gwh for c in col_labels},
        cis={c: season_bootstrap(eeu_values[c], boots[c]) for c in col_labels},
    )

    progress("pooled estimates and block bootstrap")
    pooled_lole, pooled_lole_ci, pooled_eeu, pooled_eeu_ci = {}, {}, {}, {}
    bootstrap_counts = {}
    pooled_fits: dict[str, evt.GpdFit] = {}
    for label, kind, q in columns if cfg.include_pooled else []:
        metrics, fit, result = pooled_column(sample, kind, q, boots[label])
        if fit is not None:
            pooled_fits[label] = fit
        pooled_lole[label] = metrics.lole_hours
        pooled_eeu[label] = metrics.eeu_gwh
        pooled_lole_ci[label] = result.intervals["lole"]
        bootstrap_counts[label] = {
            "used": result.replications_used,
            "dropped": result.replications_dropped,
            "first_error": result.first_error,
        }
        ci = result.intervals["eeu"]
        pooled_eeu_ci[label] = ConfidenceInterval(ci.lower / 1000.0, ci.upper / 1000.0, ci.level)

    pooled_table = PooledTable(
        columns=col_labels if cfg.include_pooled else [],
        lole=pooled_lole,
        lole_ci=pooled_lole_ci,
        eeu_gwh=pooled_eeu,
        eeu_ci=pooled_eeu_ci,
    )

    result = StudyResult(
        config=cfg,
        season_labels=labels,
        lole_table=lole_table,
        eeu_table=eeu_table,
        pooled_table=pooled_table,
        rescale_factors=factors,
        bootstrap=bootstrap_counts,
    )
    extras = {
        "traces": traces,
        "sample": sample,
        "season_fits": season_fits,
        "pooled_fits": pooled_fits,
        "per_season": per_season,
    }
    return result, extras


# ---------------------------------------------------------------------------
# emission


def _write_json(payload, path: Path) -> None:
    """Write ``payload`` as strict JSON: a NaN or an infinity raises ValueError."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8")


def _format_ci(ci: ConfidenceInterval) -> str:
    return f"({ci.lower:.2f},{ci.upper:.2f})"


def emit_table(table: MetricTable, fmt: str, path: Path) -> Path:
    """Write a per-season metric table as csv, json or aligned text."""
    if not table.columns:
        warnings.warn(f"{table.metric}: no model columns; writing header only")
    if fmt == "csv":
        lines = ["season," + ",".join(table.columns)]
        for i, season in enumerate(table.season_labels):
            lines.append(
                season + "," + ",".join(repr(table.values[c][i]) for c in table.columns)
            )
        lines.append("mean," + ",".join(repr(table.means[c]) for c in table.columns))
        lines.append("ci_lower," + ",".join(repr(table.cis[c].lower) for c in table.columns))
        lines.append("ci_upper," + ",".join(repr(table.cis[c].upper) for c in table.columns))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif fmt == "json":
        payload = {
            "metric": table.metric,
            "columns": table.columns,
            "seasons": table.season_labels,
            "values": table.values,
            "mean": table.means,
            "ci": {
                c: {"lower": table.cis[c].lower, "upper": table.cis[c].upper,
                    "level": table.cis[c].level}
                for c in table.columns
            },
        }
        _write_json(payload, path)
    elif fmt == "text":
        width = max(12, *(len(c) + 2 for c in table.columns)) if table.columns else 12
        header = f"{'season':<10}" + "".join(f"{c:>{width}}" for c in table.columns)
        lines = [header]
        for i, season in enumerate(table.season_labels):
            lines.append(
                f"{season:<10}"
                + "".join(f"{table.values[c][i]:>{width}.2f}" for c in table.columns)
            )
        lines.append(
            f"{'Mean':<10}" + "".join(f"{table.means[c]:>{width}.2f}" for c in table.columns)
        )
        lines.append(
            f"{'CI':<10}" + "".join(f"{_format_ci(table.cis[c]):>{width}}" for c in table.columns)
        )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        raise ConfigError(f"unknown table format {fmt!r}")
    return path


def emit_pooled_table(table: PooledTable, fmt: str, path: Path) -> Path:
    if fmt == "csv":
        lines = ["row," + ",".join(table.columns)]
        lines.append("lole," + ",".join(repr(table.lole[c]) for c in table.columns))
        lines.append("lole_ci_lower," + ",".join(repr(table.lole_ci[c].lower) for c in table.columns))
        lines.append("lole_ci_upper," + ",".join(repr(table.lole_ci[c].upper) for c in table.columns))
        lines.append("eeu_gwh," + ",".join(repr(table.eeu_gwh[c]) for c in table.columns))
        lines.append("eeu_ci_lower," + ",".join(repr(table.eeu_ci[c].lower) for c in table.columns))
        lines.append("eeu_ci_upper," + ",".join(repr(table.eeu_ci[c].upper) for c in table.columns))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif fmt == "json":
        payload = {
            "columns": table.columns,
            "lole": table.lole,
            "lole_ci": {c: [table.lole_ci[c].lower, table.lole_ci[c].upper] for c in table.columns},
            "eeu_gwh": table.eeu_gwh,
            "eeu_ci_gwh": {c: [table.eeu_ci[c].lower, table.eeu_ci[c].upper] for c in table.columns},
        }
        _write_json(payload, path)
    elif fmt == "text":
        width = max(14, *(len(c) + 2 for c in table.columns)) if table.columns else 14
        lines = [f"{'':<10}" + "".join(f"{c:>{width}}" for c in table.columns)]
        lines.append(f"{'LoLE':<10}" + "".join(f"{table.lole[c]:>{width}.2f}" for c in table.columns))
        lines.append(f"{'CI':<10}" + "".join(f"{_format_ci(table.lole_ci[c]):>{width}}" for c in table.columns))
        lines.append(f"{'EEU':<10}" + "".join(f"{table.eeu_gwh[c]:>{width}.2f}" for c in table.columns))
        lines.append(f"{'CI':<10}" + "".join(f"{_format_ci(table.eeu_ci[c]):>{width}}" for c in table.columns))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        raise ConfigError(f"unknown table format {fmt!r}")
    return path


def emit_tables(result: StudyResult, outdir: Path) -> list[Path]:
    """Write the per-season LoLE/EEU tables, and the pooled table if computed, in every format."""
    paths = []
    for table, stem in ((result.lole_table, "lole_per_season"), (result.eeu_table, "eeu_per_season")):
        for fmt, suffix in TABLE_FORMATS:
            paths.append(emit_table(table, fmt, outdir / f"{stem}{suffix}"))
    if result.config.include_pooled:
        for fmt, suffix in TABLE_FORMATS:
            paths.append(emit_pooled_table(result.pooled_table, fmt, outdir / f"pooled_metrics{suffix}"))
    return paths


def write_scan_csv(values, thresholds, path: Path) -> Path:
    scan = evt.threshold_scan(values, thresholds)
    lines = ["threshold_mw,sigma,xi,sigma_star,se_sigma,se_xi,n_exceed"]
    for entry in scan:
        if entry.fit is None:
            continue
        f = entry.fit
        lines.append(
            f"{entry.threshold_u!r},{f.params.sigma!r},{f.params.xi!r},"
            f"{f.sigma_star!r},{f.se_sigma!r},{f.se_xi!r},{f.n_exceedances}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_qq_csv(fit: evt.GpdFit, values, path: Path) -> Path:
    excesses = values[values > fit.threshold_u] - fit.threshold_u
    points = evt.qq_points(fit, excesses)
    lines = ["model_mw,empirical_mw"]
    lines.extend(f"{float(m)!r},{float(e)!r}" for m, e in points)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_survivor_csv(seasons, kind: str, fit: evt.GpdFit | None, path: Path) -> Path:
    """The survivor curve of the ``kind`` model of the pooled ``seasons`` (a list
    of traces; ``fit`` is its evt tail fit), on SURVIVOR_CURVE_POINTS from the
    10% quantile of their net demand to 2 GW past its maximum."""
    values = np.concatenate([t.net_demand_mw for t in seasons])
    grid = np.linspace(float(np.quantile(values, 0.10)), float(values.max() + 2_000.0),
                       SURVIVOR_CURVE_POINTS)
    probs = dnw.survivor(seasons, kind, grid, fit)
    lines = ["v_mw,prob"]
    lines.extend(f"{float(v)!r},{float(p)!r}" for v, p in zip(grid, probs))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_factors_csv(factors: dict[str, float], path: Path) -> Path:
    """The demand rescaling factor of each season, in the map's order."""
    lines = ["season,factor"]
    lines.extend(f"{label},{f!r}" for label, f in factors.items())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _config_payload(cfg: RunConfig) -> dict:
    # output_dir is not numerically relevant and would break byte-identity
    # of manifests across runs into different directories
    return {
        k: (list(v) if isinstance(v, tuple) else v)
        for k, v in vars(cfg).items()
        if k != "output_dir"
    }


def config_digest(cfg: RunConfig) -> str:
    return hashlib.sha256(json.dumps(_config_payload(cfg), sort_keys=True).encode()).hexdigest()


def run_full_study(cfg: RunConfig, progress=lambda msg: None) -> StudyResult:
    """Run every stage and write the full set of study artifacts."""
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest_path = outdir / "manifest.json"
    manifest = {
        "config": _config_payload(cfg),
        "config_sha256": config_digest(cfg),
        "seed": cfg.seed,
        "versions": {"adequacy": __version__, "numpy": np.__version__},
        "status": "failed",
        "failed_stage": None,
        "outputs": [],
    }
    stage = "compute"
    try:
        result, extras = run_study_computation(cfg, progress)
        outputs = []

        stage = "metric tables"
        outputs.extend(emit_tables(result, outdir))

        stage = "parameter tables"
        traces, season_fits = extras["traces"], extras["season_fits"]
        evt_columns = [(label, q) for label, kind, q in cfg.columns() if kind == dnw.EVT]
        for label, q in evt_columns:
            # the study's own fits; without a pooled table the pooled fit is made here
            pooled = (extras["pooled_fits"].get(label)
                      or extras["sample"].metrics(np.ones(len(traces)), dnw.EVT, q)[1])
            lines = ["season,threshold_mw,sigma,xi,se_sigma,se_xi,n_exceed"]
            for season, f in [*zip(result.season_labels, season_fits[label]), ("pooled", pooled)]:
                lines.append(
                    f"{season},{f.threshold_u!r},{f.params.sigma!r},{f.params.xi!r},"
                    f"{f.se_sigma!r},{f.se_xi!r},{f.n_exceedances}"
                )
            p = outdir / f"gpd_parameters_q{quantile_percent(q)}.csv"
            p.write_text("\n".join(lines) + "\n", encoding="utf-8")
            outputs.append(p)

        stage = "diagnostics"
        for i, trace in enumerate(traces):
            values = trace.net_demand_mw
            thresholds = np.unique(np.quantile(values, SCAN_QUANTILES))
            outputs.append(
                write_scan_csv(values, thresholds, outdir / f"threshold_scan_{trace.season_label}.csv")
            )
            for label, q in evt_columns:
                outputs.append(write_qq_csv(
                    season_fits[label][i], values,
                    outdir / f"qq_{trace.season_label}_q{quantile_percent(q)}.csv",
                ))

        stage = "survivor curves"
        for label, kind, _ in cfg.columns():
            for trace, fit in zip(traces, season_fits[label]):
                outputs.append(write_survivor_csv(
                    [trace], kind, fit, outdir / f"survivor_{label}_{trace.season_label}.csv",
                ))

        stage = "rescale factors"
        outputs.append(write_factors_csv(result.rescale_factors, outdir / "rescale_factors.csv"))

        result.outputs = sorted(str(p.name) for p in outputs)
        manifest["status"] = "complete"
        manifest["outputs"] = result.outputs
        manifest["bootstrap"] = result.bootstrap
        _write_json(manifest, manifest_path)
        return result
    except Exception as exc:
        manifest["failed_stage"] = stage
        manifest["error"] = str(exc)
        _write_json(manifest, manifest_path)
        raise
