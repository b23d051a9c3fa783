"""End-to-end study orchestration: configuration, computation, table emission.

A study loads the traces and fleet, optionally rescales demand from the
quantile history, computes one ``Column`` of per-season and pooled LoLE/EEU
with bootstrap CIs for every requested model variant, and writes tables
plus plot-data CSVs and a manifest into the output directory. All randomness
derives from the single configured seed; rerunning with identical inputs
produces byte-identical outputs at any OpenBLAS thread count.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from functools import partial
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
    make_output_dir,
    write_csv,
)
from .risk import RiskMetrics, SeasonSample, ShortfallFunctionals, long_run_mean
from .uncertainty import (
    BlockBootstrapResult,
    ConfidenceInterval,
    block_bootstrap,
    resample_counts,
    season_bootstrap,
)

SCAN_QUANTILES = np.round(np.arange(0.80, 0.996, 0.01), 3)
SURVIVOR_CURVE_POINTS = 200


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
    model_kinds: tuple[str, ...] = dnw.MODEL_KINDS
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
        if self.replications < 100:
            raise ConfigError("bootstrap needs at least 100 replications")
        if not 0.0 < self.ci_level < 1.0:
            raise ConfigError("ci_level must lie strictly between 0 and 1")
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

    def counts(self, column: int, n_seasons: int) -> np.ndarray:
        """The bootstrap count matrix of the column at this position of
        ``columns()``: its replications draw from substreams keyed (seed, 101, column)."""
        try:
            return resample_counts(n_seasons, self.replications, (self.seed, 101, column))
        except (ValueError, MemoryError):  # past numpy's largest array, or more than memory holds
            raise ConfigError(f"reps: {self.replications} replications of {n_seasons} seasons "
                              f"are too many for one count matrix") from None

    def columns(self) -> list[tuple[str, str, float | None]]:
        """(label, kind, threshold_quantile) per model variant, in fixed order."""
        cols = []
        for kind in self.model_kinds:
            if kind == dnw.EVT:
                for q in self.threshold_quantiles:
                    cols.append((f"evt_{quantile_percent(q)}", dnw.EVT, q))
            else:
                cols.append((kind, kind, None))
        return cols


def pooled_column(sample: SeasonSample, kind: str, threshold_quantile: float | None,
                  counts: np.ndarray, level: float,
                  ) -> tuple[RiskMetrics, evt.GpdFit | None, BlockBootstrapResult]:
    """The pooled metrics of one column of ``RunConfig.columns()``, its evt fit
    (None for other kinds) and its block bootstrap over the rows of ``counts``,
    with intervals in the pooled table's metrics and units: "lole_hours", "eeu_gwh".

    The bootstrap hands the distinct count rows to ``SeasonSample.replicate``
    in one call. Nothing is computed per season, so a season that an evt
    column cannot fit on its own does not stop it.
    """
    metrics, fit = sample.metrics(np.ones(len(sample.seasons)), kind, threshold_quantile)
    result = block_bootstrap(partial(sample.replicate, kind=kind, q=threshold_quantile), counts, level)
    lole, eeu = result.intervals["lole_hours"], result.intervals["eeu_mwh"]  # GWh once, after the percentiles
    gwh = ConfidenceInterval(eeu.lower / 1000.0, eeu.upper / 1000.0, eeu.level)
    return metrics, fit, replace(result, intervals={"lole_hours": lole, "eeu_gwh": gwh})


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
class Column:
    """An entry of ``RunConfig.columns()`` and what a study computes for it:
    one estimate and one evt fit (None for other kinds) per season, the
    season-bootstrap CI of their mean per table metric, "lole_hours" and "eeu_gwh",
    and the pooled estimate, its evt fit and its block bootstrap (CIs keyed the
    same), which are None without a pooled table.
    """

    label: str
    kind: str
    threshold_quantile: float | None
    seasons: list[RiskMetrics]
    fits: list[evt.GpdFit | None]
    ci: dict[str, ConfidenceInterval]
    pooled: RiskMetrics | None
    pooled_fit: evt.GpdFit | None
    bootstrap: BlockBootstrapResult | None

    @property
    def mean(self) -> RiskMetrics:
        return long_run_mean(self.seasons)

    def values(self, metric: str) -> list[float]:
        """The per-season values of ``metric``, "lole_hours" or "eeu_gwh"."""
        return [getattr(m, metric) for m in self.seasons]


@dataclass
class StudyResult:
    config: RunConfig
    sample: SeasonSample
    columns: list[Column]
    rescale_factors: dict[str, float]
    outputs: list[str] = field(default_factory=list)

    @property
    def season_labels(self) -> list[str]:
        return [t.season_label for t in self.sample.seasons]


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


def run_study_computation(cfg: RunConfig, progress=lambda msg: None) -> StudyResult:
    """All numerical work for a study; file emission happens separately."""
    sample, factors = load_inputs(cfg, progress)
    labels = [t.season_label for t in sample.seasons]

    # every column's seasons first: a season one cannot fit stops the study before any bootstrap
    progress("computing per-season metrics")
    per_season = []
    for label, kind, q in cfg.columns():
        results = []
        # a one-hot count is that season on its own
        for season, one in zip(labels, np.identity(len(labels))):
            try:
                results.append(sample.metrics(one, kind, q))
            except NumericalError as exc:
                raise NumericalError(f"{label}, season {season}: {exc}") from exc
        per_season.append(results)

    progress("season bootstrap")
    # one count matrix per column, read by both season CIs and the block
    # bootstrap; for hindcast the block bootstrap then reproduces the season
    # bootstrap up to rounding (pooling is linear)
    counts = [cfg.counts(i, len(labels)) for i in range(len(per_season))]
    season_cis = [
        {metric: season_bootstrap([getattr(m, metric) for m, _ in results], c, cfg.ci_level)
         for metric in ("lole_hours", "eeu_gwh")}
        for results, c in zip(per_season, counts)
    ]

    progress("pooled estimates and block bootstrap")
    pooled = [
        pooled_column(sample, kind, q, c, cfg.ci_level) if cfg.include_pooled else (None, None, None)
        for (_, kind, q), c in zip(cfg.columns(), counts)
    ]
    columns = [
        Column(label, kind, q, [m for m, _ in results], [fit for _, fit in results], cis, *pool)
        for (label, kind, q), results, cis, pool in zip(cfg.columns(), per_season, season_cis, pooled)
    ]
    return StudyResult(config=cfg, sample=sample, columns=columns, rescale_factors=factors)


# ---------------------------------------------------------------------------
# emission


def _write_json(payload, path: Path) -> None:
    """Write ``payload`` as strict JSON: a NaN or an infinity raises ValueError."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8")


def _write_table(stem: Path, header: list[str], rows: list, payload: dict, text: list[str]) -> list[Path]:
    """Write one table as ``stem`` .csv, .json and aligned .txt, whose lines are one-field rows."""
    paths = [Path(f"{stem}{suffix}") for suffix in (".csv", ".json", ".txt")]
    write_csv(paths[0], header, rows)
    _write_json(payload, paths[1])
    write_csv(paths[2], text[:1], ([line] for line in text[1:]))
    return paths


def _format_ci(ci: ConfidenceInterval) -> str:
    return f"({ci.lower:.2f},{ci.upper:.2f})"


def write_season_tables(columns: list[Column], seasons: list[str], metric: str, stem: Path) -> list[Path]:
    """Write the per-season ``metric`` ("lole_hours" or "eeu_gwh") of each
    column, with its mean and season-bootstrap CI, as the table ``stem``."""
    labels = [c.label for c in columns]
    values = [c.values(metric) for c in columns]
    means = [getattr(c.mean, metric) for c in columns]
    cis = [c.ci[metric] for c in columns]

    rows = [*zip(seasons, *values), ("mean", *means),
            ("ci_lower", *(ci.lower for ci in cis)), ("ci_upper", *(ci.upper for ci in cis))]

    width = max(12, *(len(c) + 2 for c in labels))
    text = [f"{'season':<10}" + "".join(f"{c:>{width}}" for c in labels)]
    text.extend(f"{season:<10}" + "".join(f"{v[i]:>{width}.2f}" for v in values)
                for i, season in enumerate(seasons))
    text.append(f"{'Mean':<10}" + "".join(f"{m:>{width}.2f}" for m in means))
    text.append(f"{'CI':<10}" + "".join(f"{_format_ci(ci):>{width}}" for ci in cis))

    return _write_table(stem, ["season", *labels], rows, {
        "metric": metric,
        "columns": labels,
        "seasons": seasons,
        "values": dict(zip(labels, values)),
        "mean": dict(zip(labels, means)),
        "ci": {c: {"lower": ci.lower, "upper": ci.upper, "level": ci.level} for c, ci in zip(labels, cis)},
    }, text)


def write_pooled_tables(columns: list[Column], stem: Path) -> list[Path]:
    """Write each column's pooled LoLE/EEU (GWh) with its block-bootstrap CIs
    as the table ``stem``."""
    labels = [c.label for c in columns]
    lole = [c.pooled.lole_hours for c in columns]
    eeu = [c.pooled.eeu_gwh for c in columns]
    lole_ci = [c.bootstrap.intervals["lole_hours"] for c in columns]
    eeu_ci = [c.bootstrap.intervals["eeu_gwh"] for c in columns]

    rows = [("lole", *lole), ("lole_ci_lower", *(ci.lower for ci in lole_ci)),
            ("lole_ci_upper", *(ci.upper for ci in lole_ci)), ("eeu_gwh", *eeu),
            ("eeu_ci_lower", *(ci.lower for ci in eeu_ci)), ("eeu_ci_upper", *(ci.upper for ci in eeu_ci))]

    width = max(14, *(len(c) + 2 for c in labels))
    text = [f"{'':<10}" + "".join(f"{c:>{width}}" for c in labels)]
    for row, values, cis in (("LoLE", lole, lole_ci), ("EEU", eeu, eeu_ci)):
        text.append(f"{row:<10}" + "".join(f"{v:>{width}.2f}" for v in values))
        text.append(f"{'CI':<10}" + "".join(f"{_format_ci(ci):>{width}}" for ci in cis))

    return _write_table(stem, ["row", *labels], rows, {
        "columns": labels,
        "lole": dict(zip(labels, lole)),
        "lole_ci": {c: [ci.lower, ci.upper] for c, ci in zip(labels, lole_ci)},
        "eeu_gwh": dict(zip(labels, eeu)),
        "eeu_ci_gwh": {c: [ci.lower, ci.upper] for c, ci in zip(labels, eeu_ci)},
    }, text)


def emit_tables(result: StudyResult, outdir: Path) -> list[Path]:
    """Write the per-season LoLE/EEU tables, and the pooled table if computed, in every format."""
    paths = []
    for metric, stem in (("lole_hours", "lole_per_season"), ("eeu_gwh", "eeu_per_season")):
        paths.extend(write_season_tables(result.columns, result.season_labels, metric, outdir / stem))
    if result.config.include_pooled:
        paths.extend(write_pooled_tables(result.columns, outdir / "pooled_metrics"))
    return paths


def write_scan_csv(values, thresholds, path: Path) -> Path:
    return write_csv(path, "threshold_mw sigma xi sigma_star se_sigma se_xi n_exceed".split(), (
        (f.threshold_u, f.params.sigma, f.params.xi, f.sigma_star, f.se_sigma, f.se_xi, f.n_exceedances)
        for f in evt.threshold_scan(values, thresholds)
    ))


def write_qq_csv(fit: evt.GpdFit, values, path: Path) -> Path:
    excesses = evt._excesses(np.sort(values), fit.threshold_u)  # the excesses the fit was made on
    return write_csv(path, ("model_mw", "empirical_mw"), evt.qq_points(fit, excesses).tolist())


def write_survivor_csv(seasons, kind: str, fit: evt.GpdFit | None, path: Path) -> Path:
    """The survivor curve of the ``kind`` model of the pooled ``seasons`` (a list
    of traces; ``fit`` is its evt tail fit), on SURVIVOR_CURVE_POINTS from the
    10% quantile of their net demand to 2 GW past its maximum."""
    values = np.concatenate([t.net_demand_mw for t in seasons])
    grid = np.linspace(float(np.quantile(values, 0.10)), float(values.max() + 2_000.0),
                       SURVIVOR_CURVE_POINTS)
    probs = dnw.survivor(seasons, kind, grid, fit)
    return write_csv(path, ("v_mw", "prob"), zip(grid.tolist(), probs.tolist()))


def write_factors_csv(factors: dict[str, float], path: Path) -> Path:
    """The demand rescaling factor of each season, in the map's order."""
    return write_csv(path, ("season", "factor"), factors.items())


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
    outdir = make_output_dir(cfg.output_dir)
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
        result = run_study_computation(cfg, progress)
        outputs = []

        stage = "metric tables"
        outputs.extend(emit_tables(result, outdir))

        stage = "parameter tables"
        traces = result.sample.seasons
        evt_columns = [c for c in result.columns if c.kind == dnw.EVT]
        for column in evt_columns:
            # the study's own fits; without a pooled table the pooled fit is made here
            pooled = (column.pooled_fit
                      or result.sample.metrics(np.ones(len(traces)), dnw.EVT, column.threshold_quantile)[1])
            q = quantile_percent(column.threshold_quantile)
            header = "season threshold_mw sigma xi se_sigma se_xi n_exceed".split()
            outputs.append(write_csv(outdir / f"gpd_parameters_q{q}.csv", header, (
                (season, f.threshold_u, f.params.sigma, f.params.xi, f.se_sigma, f.se_xi, f.n_exceedances)
                for season, f in [*zip(result.season_labels, column.fits), ("pooled", pooled)]
            )))

        stage = "diagnostics"
        for i, trace in enumerate(traces):
            values = trace.net_demand_mw
            thresholds = np.unique(np.quantile(values, SCAN_QUANTILES))
            outputs.append(
                write_scan_csv(values, thresholds, outdir / f"threshold_scan_{trace.season_label}.csv")
            )
            for column in evt_columns:
                outputs.append(write_qq_csv(
                    column.fits[i], values,
                    outdir / f"qq_{trace.season_label}_q{quantile_percent(column.threshold_quantile)}.csv",
                ))

        stage = "survivor curves"
        for column in result.columns:
            for trace, fit in zip(traces, column.fits):
                outputs.append(write_survivor_csv(
                    [trace], column.kind, fit, outdir / f"survivor_{column.label}_{trace.season_label}.csv",
                ))

        stage = "rescale factors"
        outputs.append(write_factors_csv(result.rescale_factors, outdir / "rescale_factors.csv"))

        result.outputs = sorted(str(p.name) for p in outputs)
        manifest["status"] = "complete"
        manifest["outputs"] = result.outputs
        manifest["bootstrap"] = {  # column -> its block bootstrap's replication counts
            c.label: {"used": c.bootstrap.replications_used, "dropped": c.bootstrap.replications_dropped,
                      "first_error": c.bootstrap.first_error}
            for c in result.columns if c.bootstrap is not None
        }
        _write_json(manifest, manifest_path)
        return result
    except Exception as exc:
        manifest["failed_stage"] = stage
        manifest["error"] = str(exc)
        _write_json(manifest, manifest_path)
        raise
