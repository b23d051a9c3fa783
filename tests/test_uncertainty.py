import collections
from itertools import product

import numpy as np
import pytest

from adequacy.errors import NumericalError
from adequacy.uncertainty import (
    MAX_DROP_RATE,
    BootstrapConfig,
    ConfidenceInterval,
    block_bootstrap,
    percentile_interval,
    resample_indices,
    season_bootstrap,
)

PUBLISHED_LOLE = [2.82, 2.22, 4.02, 16.77, 1.92, 7.69, 0.15]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BootstrapConfig(seed=1, replications=50)
        with pytest.raises(ValueError):
            BootstrapConfig(seed=1, ci_level=1.0)
        with pytest.raises(ValueError):
            ConfidenceInterval(2.0, 1.0, 0.95)


class TestResampleIndices:
    def test_single_item(self):
        idx = resample_indices(1, 50, seed=3)
        assert np.all(idx == 0)

    def test_deterministic(self):
        a = resample_indices(7, 200, seed=99)
        b = resample_indices(7, 200, seed=99)
        np.testing.assert_array_equal(a, b)
        assert a.tobytes() == b.tobytes()

    def test_replication_substreams_are_stable(self):
        # row r depends only on (seed, r), not on how many rows are asked for
        few = resample_indices(5, 10, seed=4)
        many = resample_indices(5, 300, seed=4)
        np.testing.assert_array_equal(few, many[:10])

    def test_config_draws_matrix_once(self):
        cfg = BootstrapConfig(seed=(4, 101, 2), replications=300)
        idx = cfg.indices(7)
        assert cfg.indices(7) is idx
        np.testing.assert_array_equal(idx, resample_indices(7, 300, (4, 101, 2)))
        assert not idx.flags.writeable  # shared by every scheme run with cfg

    def test_uniformity_chi_square(self):
        idx = resample_indices(7, 143_000, seed=42)  # just over 1e6 draws
        counts = np.bincount(idx.ravel(), minlength=7)
        expected = idx.size / 7
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < 16.81  # 99% point of chi-square(6)


class TestSeasonBootstrap:
    def test_reference_interval(self):
        cfg = BootstrapConfig(seed=314159, replications=10_000)
        ci = season_bootstrap(PUBLISHED_LOLE, cfg)
        assert ci.lower == pytest.approx(1.92, abs=0.25)
        assert ci.upper == pytest.approx(9.37, abs=0.25)

    def test_degenerate_values(self):
        ci = season_bootstrap([3.0] * 7, BootstrapConfig(seed=1, replications=1000))
        assert (ci.lower, ci.upper) == (3.0, 3.0)

    def test_two_values_exact_atoms(self):
        cfg = BootstrapConfig(seed=7, replications=10_000)
        ci = season_bootstrap([0.0, 10.0], cfg)
        assert ci.lower in {0.0, 5.0, 10.0}
        assert ci.upper in {0.0, 5.0, 10.0}
        # the four equally likely resamples give mean 0, 5, 5, 10
        idx = resample_indices(2, cfg.replications, cfg.seed)
        means = np.array([0.0, 10.0])[idx].mean(axis=1)
        freqs = collections.Counter(means)
        assert freqs[0.0] / cfg.replications == pytest.approx(0.25, abs=0.02)
        assert freqs[5.0] / cfg.replications == pytest.approx(0.50, abs=0.02)
        assert freqs[10.0] / cfg.replications == pytest.approx(0.25, abs=0.02)

    def test_matches_exhaustive_enumeration(self):
        values = np.array([0.0, 1.0, 5.0, 6.0])
        all_means = np.array(
            [np.mean(values[list(tup)]) for tup in product(range(4), repeat=4)]
        )
        exact_lo, exact_hi = np.quantile(all_means, [0.05, 0.95])
        ci = season_bootstrap(
            values, BootstrapConfig(seed=11, replications=1_000_000, ci_level=0.90)
        )
        assert ci.lower == exact_lo
        assert ci.upper == exact_hi

    def test_affine_equivariance(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 10.0, 7)
        a, b = 4.0, 2.5
        base = season_bootstrap(x, BootstrapConfig(seed=5, replications=2000))
        scaled = season_bootstrap(a + b * x, BootstrapConfig(seed=5, replications=2000))
        assert scaled.lower == pytest.approx(a + b * base.lower, rel=1e-12)
        assert scaled.upper == pytest.approx(a + b * base.upper, rel=1e-12)

    def test_wider_level_widens_interval(self):
        lo = season_bootstrap(PUBLISHED_LOLE, BootstrapConfig(seed=5, replications=5000, ci_level=0.90))
        hi = season_bootstrap(PUBLISHED_LOLE, BootstrapConfig(seed=5, replications=5000, ci_level=0.99))
        assert hi.lower <= lo.lower
        assert hi.upper >= lo.upper

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            season_bootstrap([1.0], BootstrapConfig(seed=1, replications=100))


class TestBlockBootstrap:
    @staticmethod
    def mean_pipeline(seasons):
        pooled = np.concatenate([np.asarray(s, dtype=float) for s in seasons])
        return {"mean": float(pooled.mean())}

    def test_identical_seasons_degenerate(self):
        seasons = [np.array([5.0, 7.0])] * 7
        result = block_bootstrap(seasons, self.mean_pipeline, BootstrapConfig(seed=2, replications=500))
        ci = result.intervals["mean"]
        assert (ci.lower, ci.upper) == (6.0, 6.0)
        assert result.replications_dropped == 0

    def test_matches_season_bootstrap_for_linear_pipelines(self):
        # pooling then averaging equals averaging per-season means, so the two
        # bootstrap schemes coincide at matched seeds
        rng = np.random.default_rng(9)
        seasons = [rng.uniform(0.0, 10.0, 50) for _ in range(7)]
        cfg = BootstrapConfig(seed=31, replications=3000)
        block = block_bootstrap(seasons, self.mean_pipeline, cfg).intervals["mean"]
        season = season_bootstrap([s.mean() for s in seasons], cfg)
        assert block.lower == pytest.approx(season.lower, rel=1e-12)
        assert block.upper == pytest.approx(season.upper, rel=1e-12)

    def test_failures_counted_and_bounded(self):
        # the pipeline fails on exactly the multiset that draws season 0 every
        # time, so the drop count is fixed by the index matrix alone
        seasons = [np.full(3, float(i)) for i in range(4)]

        def flaky(drawn):
            if all(s[0] == 0.0 for s in drawn):
                raise RuntimeError("numerical hiccup")
            return {"m": 1.0}

        cfg = BootstrapConfig(seed=1, replications=1000)
        failing = np.flatnonzero((resample_indices(4, cfg.replications, cfg.seed) == 0).all(axis=1))
        expected = failing.size
        assert 0 < expected <= MAX_DROP_RATE * cfg.replications
        result = block_bootstrap(seasons, flaky, cfg)
        assert result.replications_dropped == expected
        assert result.replications_used == cfg.replications - expected
        assert result.first_error == f"replication {failing[0]}: numerical hiccup"

    def test_pipeline_runs_once_per_distinct_sorted_row(self):
        seasons = [np.array([float(i)]) for i in range(5)]
        calls = []

        def recording(drawn):
            calls.append(tuple(int(s[0]) for s in drawn))
            return {"m": float(np.mean(drawn))}

        cfg = BootstrapConfig(seed=8, replications=400)
        result = block_bootstrap(seasons, recording, cfg)
        rows = {tuple(row) for row in np.sort(resample_indices(5, cfg.replications, cfg.seed), axis=1).tolist()}
        assert len(calls) == len(set(calls)) == len(rows) < cfg.replications
        assert set(calls) == rows  # seasons passed in sorted index order
        assert result.replications_used == cfg.replications
        assert result.first_error is None

    def test_widespread_failure_is_error(self):
        def broken(seasons):
            raise RuntimeError("always fails")

        with pytest.raises(NumericalError, match="replications failed"):
            block_bootstrap([np.arange(3.0)] * 4, broken, BootstrapConfig(seed=1, replications=200))

    def test_needs_two_seasons(self):
        with pytest.raises(ValueError):
            block_bootstrap([np.arange(3.0)], self.mean_pipeline, BootstrapConfig(seed=1, replications=100))


def test_percentile_interval_type7():
    samples = np.arange(101.0)
    ci = percentile_interval(samples, 0.95)
    assert ci.lower == pytest.approx(2.5)
    assert ci.upper == pytest.approx(97.5)
