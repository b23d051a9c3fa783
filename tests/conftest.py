import numpy as np
import pytest

from adequacy.demo import demo_fleet, demo_quantile_history, demo_traces, write_demo_dataset
from adequacy.genmodel import convolve_fleet
from adequacy.study import rescale_traces
from helpers import random_season


@pytest.fixture(scope="session")
def demo_system():
    """Rescaled demo traces plus the convolved demo fleet, built once."""
    traces = demo_traces()
    history = demo_quantile_history(traces=traces)
    rescaled, factors = rescale_traces(traces, history, None, 2.0 / 3.0, 1)
    return {
        "traces": rescaled,
        "fleet": convolve_fleet(demo_fleet()),
        "factors": factors,
    }


@pytest.fixture(scope="session")
def many_seasons(demo_system):
    """28 random seasons, 1986-87 to 2013-14, with the demo fleet."""
    rng = np.random.default_rng(28)
    return {"traces": [random_season(f"{y}-{(y + 1) % 100:02d}", rng) for y in range(1986, 2014)],
            "fleet": demo_system["fleet"]}


@pytest.fixture(scope="session")
def demo_dataset_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("demo_dataset")
    return write_demo_dataset(outdir)


def sample_pmf(pmf, size, rng):
    """Inverse-CDF sampling from a DiscretePmf; the Monte Carlo oracle's draw."""
    cdf = np.cumsum(pmf.probabilities)
    idx = np.searchsorted(cdf, rng.random(size), side="right")
    return pmf.values_mw[np.clip(idx, 0, len(pmf) - 1)]
