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
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, dnw, evt
from .errors import ConfigError, DataError
from .genmodel import convolve_fleet, load_fleet
from .ingest import (
    SeasonTrace,
    SeasonWindow,
    apply_rescaling,
    compute_rescale_factors,
    daily_peak_quantile,
    load_quantile_history,
    load_traces,
)
from .pmf import convolve, pmf_from_samples
from .risk import (
    RiskMetrics,
    ShortfallFunctionals,
    build_model,
    long_run_mean,
)
from .uncertainty import BootstrapConfig, ConfidenceInterval, block_bootstrap, season_bootstrap

SCAN_QUANTILES = np.round(np.arange(0.80, 0.996, 0.01), 3)
SURVIVOR_CURVE_POINTS = 200


@dataclass(frozen=True)
class RunConfig:
    traces_path: str
    fleet_path: str
    seed: int
    output_dir: str
    quantiles_path: str | None = None
    reference_season: str | None = None
    model_kinds: tuple[str, ...] = (dnw.EVT, dnw.HINDCAST, dnw.INDEPENDENCE)
    threshold_quantiles: tuple[float, ...] = (0.90, 0.95, 0.98)
    window_weeks: int = 21
    anchor_rule: str = "last Sunday in October"
    lowess_span: float = 2.0 / 3.0
    lowess_iterations: int = 1
    replications: int = 10_000
    ci_level: float = 0.95
    rescale_quantile: float = 0.90
    installed_wind_mw: float | None = None
    allow_gaps: bool = False
    include_pooled: bool = True

    def __post_init__(self):
        if not self.model_kinds:
            raise ConfigError("at least one model kind is required")
        for kind in self.model_kinds:
            if kind not in dnw.MODEL_KINDS:
                raise ConfigError(f"unknown model kind {kind!r}")
        for q in self.threshold_quantiles:
            if not 0.5 < q < 1.0:
                raise ConfigError(f"threshold quantile {q} outside (0.5, 1)")
        if dnw.EVT in self.model_kinds and not self.threshold_quantiles:
            raise ConfigError("evt models need at least one threshold quantile")
        labels = [label for label, _, _ in self.columns()]
        repeated = sorted({label for label in labels if labels.count(label) > 1})
        if repeated:
            raise ConfigError(
                f"threshold quantiles {list(self.threshold_quantiles)} give repeated "
                f"column labels {repeated}; labels are the quantile in whole percent"
            )

    def window(self) -> SeasonWindow:
        return SeasonWindow(weeks=self.window_weeks, anchor_rule=self.anchor_rule)

    def bootstrap(self, seed) -> BootstrapConfig:
        return BootstrapConfig(seed=seed, replications=self.replications, ci_level=self.ci_level)

    def columns(self) -> list[tuple[str, str, float | None]]:
        """(label, kind, threshold_quantile) per model variant, in fixed order."""
        cols = []
        for kind in self.model_kinds:
            if kind == dnw.EVT:
                for q in self.threshold_quantiles:
                    cols.append((f"evt_{round(q * 100):g}", dnw.EVT, q))
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


def _pooled_model(traces: list[SeasonTrace], kind: str, threshold_quantile: float | None):
    if kind == dnw.EVT:
        sample = np.concatenate([t.net_demand_mw for t in traces])
        return dnw.build_evt_model(sample, threshold_quantile)
    if kind == dnw.HINDCAST:
        return dnw.build_hindcast_model(np.concatenate([t.net_demand_mw for t in traces]))
    return dnw.build_independence_model(
        np.concatenate([t.demand_mw for t in traces]),
        np.concatenate([t.wind_mw for t in traces]),
    )


def pooled_pipeline(functionals: ShortfallFunctionals, kind: str,
                    threshold_quantile: float | None, n_hours: int):
    """Season-set -> {'lole', 'eeu'} mapping for the block bootstrap.

    evt refits the pooled sample on every call: a GPD fit is not linear. The
    metrics are linear in the demand-net-of-wind pmf, and the pooled hindcast
    pmf is the hours-weighted mix of the per-season pmfs, so a hindcast call
    mixes per-season metrics. For ind the pooled demand and wind pmfs are such
    mixes too, and P(X < D - W) = P(X + W < D), so an ind call mixes the
    metrics of season a's demand against the fleet plus season b's wind over
    the pairs (a, b) it drew. Each season's pmfs are built the first time a
    call contains it, and each pair's metrics once. A wind season's fleet-sized
    functionals serve every season seen so far and are then dropped, so a
    season first seen after others costs one convolution per wind season it
    pairs with; a first call holding every season makes it one per season.
    """
    if kind == dnw.EVT:

        def run(traces):
            model = _pooled_model(list(traces), kind, threshold_quantile)
            metrics = functionals.metrics(dnw.discretize(model), n_hours)
            return {"lole": metrics.lole_hours, "eeu": metrics.eeu_mwh}

        return run

    # traces are unhashable; holding each one keeps its id from being reused
    slots: dict[int, tuple[SeasonTrace, int]] = {}  # id(trace) -> (trace, slot)
    hours: list[int] = []  # per slot
    pieces: list = []  # per slot: hindcast metrics, or ind (demand pmf, wind pmf)
    pairs: dict[tuple[int, int], tuple[float, float]] = {}  # ind metrics per (demand, wind) slot

    def as_tuple(m: RiskMetrics) -> tuple[float, float]:
        return m.lole_hours, m.eeu_mwh

    def slot(trace: SeasonTrace) -> int:
        if id(trace) not in slots:
            slots[id(trace)] = (trace, len(pieces))
            hours.append(trace.n_hours)
            if kind == dnw.HINDCAST:
                pmf = dnw.discretize(build_model(trace, kind))
                pieces.append(as_tuple(functionals.metrics(pmf, n_hours)))
            else:
                pieces.append((pmf_from_samples(trace.demand_mw), pmf_from_samples(trace.wind_mw)))
        return slots[id(trace)][1]

    def fill(b: int) -> None:
        # fleet + wind functionals are fleet-sized: use them for every season seen, then drop
        total = ShortfallFunctionals(convolve(functionals.fleet, pieces[b][1]))
        for a, (demand, _) in enumerate(pieces):
            if (a, b) not in pairs:
                pairs[(a, b)] = as_tuple(total.metrics(demand, n_hours))

    def run(traces):
        counts = Counter(slot(t) for t in traces)
        drawn = list(counts)
        weights = np.array([counts[a] * hours[a] for a in drawn], dtype=float)
        weights /= weights.sum()
        if kind == dnw.HINDCAST:
            lole, eeu = weights @ np.array([pieces[a] for a in drawn])
        else:
            for b in drawn:
                if any((a, b) not in pairs for a in drawn):
                    fill(b)
            mixed = np.array([[pairs[(a, b)] for b in drawn] for a in drawn])
            lole, eeu = np.einsum("a,b,abm->m", weights, weights, mixed)
        return {"lole": float(lole), "eeu": float(eeu)}

    return run


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
    labels = [lab for lab, _ in history]
    reference = reference_season or labels[-1]
    factors = compute_rescale_factors(history, reference, span=span, iterations=iterations)
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
    parameter_fits: dict[float, dict[str, evt.GpdFit]]  # quantile -> label/pooled -> fit
    rescale_factors: dict[str, float]
    # column -> {"used", "dropped", "first_error"} of its block bootstrap
    bootstrap: dict[str, dict] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)


def run_study_computation(cfg: RunConfig, progress=lambda msg: None) -> tuple[StudyResult, dict]:
    """All numerical work for a study; file emission happens separately."""
    progress("loading traces")
    window = cfg.window()
    traces = load_traces(
        cfg.traces_path, window,
        installed_wind_mw=cfg.installed_wind_mw, allow_gaps=cfg.allow_gaps,
    )
    if not traces:
        raise DataError("no seasons found inside the study window")
    history = load_quantile_history(cfg.quantiles_path) if cfg.quantiles_path else None
    progress("rescaling demand")
    traces, factors = rescale_traces(
        traces, history, cfg.reference_season, cfg.lowess_span, cfg.lowess_iterations,
        cfg.rescale_quantile,
    )
    # n is the length of the target season, whatever a historical season lost
    # to gaps; pooled models weight each season by its observed hours
    n_hours = window.expected_hours
    labels = [t.season_label for t in traces]

    progress("building fleet distribution")
    fleet = convolve_fleet(load_fleet(cfg.fleet_path))
    functionals = ShortfallFunctionals(fleet)

    columns = cfg.columns()
    col_labels = [c[0] for c in columns]

    progress("computing per-season metrics")
    per_season: dict[str, list[RiskMetrics]] = {}
    season_models: dict[tuple[str, str], dnw.TailModel] = {}
    for label, kind, q in columns:
        metrics_list = []
        for trace in traces:
            model = build_model(trace, kind, q if q is not None else 0.95)
            season_models[(label, trace.season_label)] = model
            pmf = dnw.discretize(model)
            metrics_list.append(functionals.metrics(pmf, n_hours))
        per_season[label] = metrics_list

    progress("season bootstrap")
    lole_values = {c: [m.lole_hours for m in per_season[c]] for c in col_labels}
    eeu_values = {c: [m.eeu_gwh for m in per_season[c]] for c in col_labels}
    # one config per column, so its index matrix is drawn once and shared by
    # both season CIs and the block bootstrap; for hindcast the block bootstrap
    # then reproduces the season bootstrap exactly (pooling is linear)
    boots = {c: cfg.bootstrap(seed=(cfg.seed, 101, i)) for i, c in enumerate(col_labels)}
    lole_cis, eeu_cis = {}, {}
    for c in col_labels:
        lole_cis[c] = season_bootstrap(lole_values[c], boots[c])
        eeu_cis[c] = season_bootstrap(eeu_values[c], boots[c])

    lole_table = MetricTable(
        metric="lole_hours",
        columns=col_labels,
        season_labels=labels,
        values=lole_values,
        means={c: long_run_mean(per_season[c]).lole_hours for c in col_labels},
        cis=lole_cis,
    )
    eeu_table = MetricTable(
        metric="eeu_gwh",
        columns=col_labels,
        season_labels=labels,
        values=eeu_values,
        means={c: long_run_mean(per_season[c]).eeu_gwh for c in col_labels},
        cis=eeu_cis,
    )

    progress("pooled estimates and block bootstrap")
    pooled_lole, pooled_lole_ci, pooled_eeu, pooled_eeu_ci = {}, {}, {}, {}
    bootstrap_counts = {}
    for label, kind, q in columns if cfg.include_pooled else []:
        model = _pooled_model(traces, kind, q)
        metrics = functionals.metrics(dnw.discretize(model), n_hours)
        pooled_lole[label] = metrics.lole_hours
        pooled_eeu[label] = metrics.eeu_gwh
        result = block_bootstrap(
            traces, pooled_pipeline(functionals, kind, q, n_hours), boots[label]
        )
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

    progress("parameter tables")
    parameter_fits: dict[float, dict[str, evt.GpdFit]] = {}
    if dnw.EVT in cfg.model_kinds:
        pooled_sample = np.concatenate([t.net_demand_mw for t in traces])
        for q in cfg.threshold_quantiles:
            fits = {}
            for trace in traces:
                fits[trace.season_label] = evt.fit_threshold_excesses(
                    trace.net_demand_mw, evt.select_threshold(trace.net_demand_mw, q)
                )
            fits["pooled"] = evt.fit_threshold_excesses(
                pooled_sample, evt.select_threshold(pooled_sample, q)
            )
            parameter_fits[q] = fits

    result = StudyResult(
        config=cfg,
        season_labels=labels,
        lole_table=lole_table,
        eeu_table=eeu_table,
        pooled_table=pooled_table,
        parameter_fits=parameter_fits,
        rescale_factors=factors,
        bootstrap=bootstrap_counts,
    )
    extras = {
        "traces": traces,
        "fleet": fleet,
        "season_models": season_models,
        "per_season": per_season,
        "n_hours": n_hours,
    }
    return result, extras


# ---------------------------------------------------------------------------
# emission


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
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
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
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
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
    lines.extend(f"{m!r},{e!r}" for m, e in points)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_survivor_csv(model: dnw.TailModel, grid, path: Path) -> Path:
    probs = dnw.survivor(model, np.asarray(grid, dtype=float))
    lines = ["v_mw,prob"]
    lines.extend(f"{float(v)!r},{float(p)!r}" for v, p in zip(grid, probs))
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
        for table, stem in ((result.lole_table, "lole_per_season"),
                            (result.eeu_table, "eeu_per_season")):
            for fmt, suffix in (("csv", ".csv"), ("json", ".json"), ("text", ".txt")):
                outputs.append(emit_table(table, fmt, outdir / f"{stem}{suffix}"))

        stage = "pooled table"
        for fmt, suffix in (("csv", ".csv"), ("json", ".json"), ("text", ".txt")):
            outputs.append(emit_pooled_table(result.pooled_table, fmt, outdir / f"pooled_metrics{suffix}"))

        stage = "parameter tables"
        for q, fits in result.parameter_fits.items():
            lines = ["season,threshold_mw,sigma,xi,se_sigma,se_xi,n_exceed"]
            for label in result.season_labels + ["pooled"]:
                f = fits[label]
                lines.append(
                    f"{label},{f.threshold_u!r},{f.params.sigma!r},{f.params.xi!r},"
                    f"{f.se_sigma!r},{f.se_xi!r},{f.n_exceedances}"
                )
            p = outdir / f"gpd_parameters_q{round(q * 100):g}.csv"
            p.write_text("\n".join(lines) + "\n", encoding="utf-8")
            outputs.append(p)

        stage = "diagnostics"
        traces = extras["traces"]
        for trace in traces:
            values = trace.net_demand_mw
            thresholds = np.unique(np.quantile(values, SCAN_QUANTILES))
            outputs.append(
                write_scan_csv(values, thresholds, outdir / f"threshold_scan_{trace.season_label}.csv")
            )
            if dnw.EVT in cfg.model_kinds:
                for q in cfg.threshold_quantiles:
                    fit = result.parameter_fits[q][trace.season_label]
                    outputs.append(
                        write_qq_csv(fit, values,
                                     outdir / f"qq_{trace.season_label}_q{round(q * 100):g}.csv")
                    )

        stage = "survivor curves"
        for (column, season_label), model in extras["season_models"].items():
            trace = next(t for t in traces if t.season_label == season_label)
            values = trace.net_demand_mw
            grid = np.linspace(
                float(np.quantile(values, 0.10)), float(values.max() + 2_000.0),
                SURVIVOR_CURVE_POINTS,
            )
            outputs.append(
                write_survivor_csv(model, grid, outdir / f"survivor_{column}_{season_label}.csv")
            )

        stage = "rescale factors"
        lines = ["season,factor"]
        lines.extend(f"{label},{f!r}" for label, f in result.rescale_factors.items())
        p = outdir / "rescale_factors.csv"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        outputs.append(p)

        result.outputs = sorted(str(p.name) for p in outputs)
        manifest["status"] = "complete"
        manifest["outputs"] = result.outputs
        manifest["bootstrap"] = result.bootstrap
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return result
    except Exception as exc:
        manifest["failed_stage"] = stage
        manifest["error"] = str(exc)
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        raise
