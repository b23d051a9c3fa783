"""Bootstrap uncertainty quantification for the long-run risk metrics.

Two resampling schemes over historical seasons, both treating seasons as
independent blocks:

* season bootstrap -- resample the per-season metric estimates themselves and
  take percentile quantiles of the resample means;
* block bootstrap  -- resample whole season datasets, rerun the pooled
  pipeline (model fit, convolution, metrics) on each distinct season
  multiset, and take percentile quantiles of the replicated metrics.

Randomness comes from numpy's PCG64 with a per-replication substream
(SeedSequence entropy = (seed, replication index)), so replication r draws
the same indices however many replications are asked for. A BootstrapConfig
builds its index matrix once per season count, so every scheme run with the
same config object sees the same matrix without drawing it again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError

MAX_DROP_RATE = 0.01


@dataclass(frozen=True)
class BootstrapConfig:
    seed: int | tuple[int, ...]
    replications: int = 10_000
    ci_level: float = 0.95
    _indices: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.replications < 100:
            raise ValueError("bootstrap needs at least 100 replications")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("ci_level must lie strictly between 0 and 1")

    def indices(self, n: int) -> np.ndarray:
        """Read-only resample_indices(n, replications, seed), drawn once per n."""
        if n not in self._indices:
            idx = resample_indices(n, self.replications, self.seed)
            idx.flags.writeable = False
            self._indices[n] = idx
        return self._indices[n]


@dataclass(frozen=True)
class ConfidenceInterval:
    lower: float
    upper: float
    level: float

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("lower endpoint above upper endpoint")


@dataclass(frozen=True)
class BlockBootstrapResult:
    intervals: dict[str, ConfidenceInterval]
    replications_used: int
    replications_dropped: int
    first_error: str | None = None  # "replication <r>: <message>" of the first drop


def resample_indices(n: int, replications: int, seed) -> np.ndarray:
    """(replications, n) matrix of i.i.d. uniform indices in [0, n).

    ``seed`` is an integer or a tuple of integers (a derived substream key);
    row r is drawn from PCG64 seeded with entropy (*seed, r).
    """
    if n < 1:
        raise ValueError("n must be positive")
    base = tuple(seed) if isinstance(seed, (tuple, list)) else (int(seed),)
    out = np.empty((replications, n), dtype=np.int64)
    for r in range(replications):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(base + (r,))))
        out[r] = rng.integers(0, n, size=n)
    return out


def percentile_interval(samples: np.ndarray, level: float) -> ConfidenceInterval:
    alpha = (1.0 - level) / 2.0
    lower, upper = np.quantile(samples, [alpha, 1.0 - alpha])
    return ConfidenceInterval(float(lower), float(upper), level)


def season_bootstrap(per_season_values, cfg: BootstrapConfig) -> ConfidenceInterval:
    """Percentile CI for the mean of per-season estimates."""
    values = np.asarray(per_season_values, dtype=float)
    if values.size < 2:
        raise ValueError("season bootstrap needs at least 2 values")
    idx = cfg.indices(values.size)
    means = values[idx].mean(axis=1)
    return percentile_interval(means, cfg.ci_level)


def block_bootstrap(seasons, pipeline, cfg: BootstrapConfig) -> BlockBootstrapResult:
    """Percentile CIs from rerunning ``pipeline`` on resampled season blocks.

    ``pipeline`` maps a list of season datasets to a mapping of metric name to
    value. It runs once per distinct season multiset, on the seasons in index
    order, so its result depends only on which seasons a replication drew.
    Failing replications are dropped and counted; more than MAX_DROP_RATE of
    them is an error.
    """
    seasons = list(seasons)
    if len(seasons) < 2:
        raise ValueError("block bootstrap needs at least 2 seasons")
    outcomes: dict[tuple[int, ...], dict | Exception] = {}
    kept: list[dict] = []
    errors: list[str] = []
    for r, row in enumerate(np.sort(cfg.indices(len(seasons)), axis=1).tolist()):
        key = tuple(row)
        if key not in outcomes:
            try:
                outcomes[key] = dict(pipeline([seasons[i] for i in key]))
            except Exception as exc:  # recorded, not fatal unless widespread
                outcomes[key] = exc
        outcome = outcomes[key]
        if isinstance(outcome, Exception):
            errors.append(f"replication {r}: {outcome}")
        else:
            kept.append(outcome)

    dropped = cfg.replications - len(kept)
    if dropped > MAX_DROP_RATE * cfg.replications:
        raise NumericalError(
            f"{dropped}/{cfg.replications} bootstrap replications failed; first: "
            + (errors[0] if errors else "unknown")
        )
    metric_names = kept[0].keys()
    intervals = {
        name: percentile_interval(np.array([m[name] for m in kept]), cfg.ci_level)
        for name in metric_names
    }
    return BlockBootstrapResult(
        intervals=intervals,
        replications_used=len(kept),
        replications_dropped=dropped,
        first_error=errors[0] if errors else None,
    )
