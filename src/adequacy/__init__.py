"""Capacity-adequacy risk metrics from demand and wind traces.

Estimates LoLE and EEU for a future peak season from a two-state
conventional fleet model and a tail model of demand-net-of-wind (extreme-
value, hindcast, or demand-wind-independence), with bootstrap confidence
intervals over historical seasons.
"""

__version__ = "0.1.0"

from .dnw import (  # noqa: F401
    TailModel,
    build_evt_model,
    build_hindcast_model,
    build_independence_model,
    discretize,
    survivor,
)
from .errors import AdequacyError, ConfigError, DataError, NumericalError  # noqa: F401
from .evt import (  # noqa: F401
    GpdFit,
    GpdParams,
    fit_gpd,
    gpd_cdf,
    gpd_loglik,
    gpd_quantile,
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
from .risk import (  # noqa: F401
    RiskMetrics,
    ShortfallFunctionals,
    balance_distribution,
    compute_metrics,
    long_run_mean,
    season_risk,
)
from .uncertainty import (  # noqa: F401
    BootstrapConfig,
    ConfidenceInterval,
    block_bootstrap,
    resample_indices,
    season_bootstrap,
)
