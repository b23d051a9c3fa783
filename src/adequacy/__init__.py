"""Capacity-adequacy risk metrics from demand and wind traces.

Estimates LoLE and EEU for a future peak season from a two-state
conventional fleet model and a tail model of demand-net-of-wind (extreme-
value, hindcast, or demand-wind-independence), with bootstrap confidence
intervals over historical seasons.
"""

__version__ = "0.1.0"

from .dnw import survivor  # noqa: F401
from .errors import AdequacyError, ConfigError, DataError, NumericalError  # noqa: F401
from .evt import (  # noqa: F401
    GpdFit,
    GpdParams,
    fit_gpd,
    gpd_quantile,
    gpd_survivor,
    qq_points,
    select_threshold,
    threshold_scan,
)
from .genmodel import GeneratingUnit, convolve_fleet, load_fleet  # noqa: F401
from .ingest import (  # noqa: F401
    SeasonTrace,
    SeasonWindow,
    apply_rescaling,
    compute_rescale_factors,
    daily_peak_quantile,
    load_traces,
    lowess_fit,
)
from .pmf import DiscretePmf  # noqa: F401
from .risk import RiskMetrics, ShortfallFunctionals, long_run_mean  # noqa: F401
from .uncertainty import (  # noqa: F401
    ConfidenceInterval,
    block_bootstrap,
    resample_counts,
    resample_indices,
    season_bootstrap,
)
