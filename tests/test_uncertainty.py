import collections
from functools import partial
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from adequacy.errors import NumericalError
from adequacy.risk import RiskMetrics, SeasonSample
from adequacy.study import RunConfig
from adequacy.uncertainty import (
    MAX_DROP_RATE,
    ConfidenceInterval,
    _bounded,
    _distinct_rows,
    block_bootstrap,
    percentile_interval,
    resample_counts,
    resample_indices,
    season_bootstrap,
)
import oracles

PUBLISHED_LOLE = [2.82, 2.22, 4.02, 16.77, 1.92, 7.69, 0.15]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="ci_level"):
            percentile_interval(np.arange(5.0), 1.0)
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

    def test_run_config_counts_are_row_bincounts(self):
        cfg = RunConfig(traces_path="t.csv", fleet_path="f.csv", seed=4, replications=300)
        counts = cfg.counts(2, 7)
        idx = resample_indices(7, 300, (4, 101, 2))
        assert counts.shape == (300, 7)
        for row, drawn in zip(counts, idx):
            np.testing.assert_array_equal(row, np.bincount(drawn, minlength=7))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 28, 112])
    @pytest.mark.parametrize("seed", [0, 2**40 + 3, (5, 101, 2), (1, 2**33, 3, 4, 5, 6)])
    def test_port_matches_numpy_per_row(self, n, seed):
        # keys: int 0, an int of two words, a study column key, and a key of
        # seven words, longer than SeedSequence's pool of four
        ported = resample_indices(n, 257, seed)
        expected = oracles.resample_indices(n, 257, seed)
        assert ported.dtype == expected.dtype and ported.shape == expected.shape
        assert ported.tobytes() == expected.tobytes()

    def test_port_matches_numpy_at_full_size(self):
        ported = resample_indices(28, 10_000, (1, 101, 1))
        assert ported.tobytes() == oracles.resample_indices(28, 10_000, (1, 101, 1)).tobytes()

    def test_rejected_words_redraw_the_row_with_numpy(self):
        # at n = 3, Lemire's draw rejects a word whose (w * 3) mod 2**32 is
        # below (2**32 - 3) mod 3 = 1, so word 0 is rejected; word 2**31 maps to 1
        words = np.full((4, 3), 2**31, dtype=np.uint64)
        words[2, 1] = 0
        out = _bounded(words, 3, (9, 101, 4))
        np.testing.assert_array_equal(out[[0, 1, 3]], 1)
        numpy_row = oracles.resample_indices(3, 3, (9, 101, 4))[2]
        assert numpy_row.tolist() != [1, 0, 1]  # what the words alone would give
        np.testing.assert_array_equal(out[2], numpy_row)

    def test_negative_seed_is_rejected_as_numpy_does(self):
        with pytest.raises(ValueError, match="non-negative"):
            np.random.SeedSequence((-5, 0))
        with pytest.raises(ValueError, match="non-negative"):
            resample_indices(7, 10, -5)
        with pytest.raises(ValueError, match="non-negative"):
            resample_indices(7, 10, (3, -1, 2))

    def test_uniformity_chi_square(self):
        idx = resample_indices(7, 143_000, seed=42)  # just over 1e6 draws
        counts = np.bincount(idx.ravel(), minlength=7)
        expected = idx.size / 7
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < 16.81  # 99% point of chi-square(6)


class TestSeasonBootstrap:
    def test_reference_interval(self):
        ci = season_bootstrap(PUBLISHED_LOLE, resample_counts(7, 10_000, 314159), 0.95)
        assert ci.lower == pytest.approx(1.92, abs=0.25)
        assert ci.upper == pytest.approx(9.37, abs=0.25)

    def test_degenerate_values(self):
        ci = season_bootstrap([3.0] * 7, resample_counts(7, 1000, 1), 0.95)
        assert (ci.lower, ci.upper) == (3.0, 3.0)

    def test_two_values_exact_atoms(self):
        reps = 10_000
        ci = season_bootstrap([0.0, 10.0], resample_counts(2, reps, 7), 0.95)
        assert ci.lower in {0.0, 5.0, 10.0}
        assert ci.upper in {0.0, 5.0, 10.0}
        # the four equally likely resamples give mean 0, 5, 5, 10
        idx = resample_indices(2, reps, 7)
        means = np.array([0.0, 10.0])[idx].mean(axis=1)
        freqs = collections.Counter(means)
        assert freqs[0.0] / reps == pytest.approx(0.25, abs=0.02)
        assert freqs[5.0] / reps == pytest.approx(0.50, abs=0.02)
        assert freqs[10.0] / reps == pytest.approx(0.25, abs=0.02)

    def test_means_are_the_gathered_means(self):
        # a counts-weighted mean is the mean of the drawn values up to
        # rounding, and equal count rows give bit-equal means
        values = np.random.default_rng(12).uniform(0.0, 20.0, 7)
        idx = resample_indices(7, 5000, 21)
        counts = resample_counts(7, 5000, 21)
        means = np.einsum("rs,s->r", counts, values) / 7
        np.testing.assert_allclose(means, values[idx].mean(axis=1), rtol=1e-15, atol=0.0)
        _, which = np.unique(counts, axis=0, return_inverse=True)
        first = {}
        for r, key in enumerate(which.ravel().tolist()):
            assert means[r].tobytes() == means[first.setdefault(key, r)].tobytes()
        assert len(first) < 5000  # some rows repeat
        assert season_bootstrap(values, counts, 0.95) == percentile_interval(means, 0.95)

    def test_matches_exhaustive_enumeration(self):
        values = np.array([0.0, 1.0, 5.0, 6.0])
        all_means = np.array(
            [np.mean(values[list(tup)]) for tup in product(range(4), repeat=4)]
        )
        exact_lo, exact_hi = np.quantile(all_means, [0.05, 0.95])
        ci = season_bootstrap(values, resample_counts(4, 1_000_000, 11), 0.90)
        assert ci.lower == exact_lo
        assert ci.upper == exact_hi

    def test_affine_equivariance(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 10.0, 7)
        a, b = 4.0, 2.5
        counts = resample_counts(7, 2000, 5)
        base = season_bootstrap(x, counts, 0.95)
        scaled = season_bootstrap(a + b * x, counts, 0.95)
        assert scaled.lower == pytest.approx(a + b * base.lower, rel=1e-12)
        assert scaled.upper == pytest.approx(a + b * base.upper, rel=1e-12)

    def test_wider_level_widens_interval(self):
        counts = resample_counts(7, 5000, 5)
        lo = season_bootstrap(PUBLISHED_LOLE, counts, 0.90)
        hi = season_bootstrap(PUBLISHED_LOLE, counts, 0.99)
        assert hi.lower <= lo.lower
        assert hi.upper >= lo.upper

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            season_bootstrap([1.0], resample_counts(1, 100, 1), 0.95)


class TestBlockBootstrap:
    @staticmethod
    def mean_replicate(seasons):
        """The batch replicate of the pooled mean of ``seasons``: one mean per count row."""
        sums = np.array([np.sum(s, dtype=float) for s in seasons])
        sizes = np.array([np.size(s) for s in seasons], dtype=float)

        def replicate(rows):
            return {"mean": rows @ sums / (rows @ sizes)}, {}

        return replicate

    def test_identical_seasons_degenerate(self):
        seasons = [np.array([5.0, 7.0])] * 7
        result = block_bootstrap(self.mean_replicate(seasons), resample_counts(len(seasons), 500, 2), 0.95)
        ci = result.intervals["mean"]
        assert (ci.lower, ci.upper) == (6.0, 6.0)
        assert result.replications_dropped == 0

    def test_matches_season_bootstrap_for_linear_pipelines(self):
        # pooling then averaging equals averaging per-season means, so the two
        # bootstrap schemes coincide at matched seeds
        rng = np.random.default_rng(9)
        seasons = [rng.uniform(0.0, 10.0, 50) for _ in range(7)]
        counts = resample_counts(len(seasons), 3000, 31)
        block = block_bootstrap(self.mean_replicate(seasons), counts, 0.95).intervals["mean"]
        season = season_bootstrap([s.mean() for s in seasons], counts, 0.95)
        assert block.lower == pytest.approx(season.lower, rel=1e-12)
        assert block.upper == pytest.approx(season.upper, rel=1e-12)

    def test_failures_counted_and_bounded(self):
        # the replicate fails on exactly the row that draws season 0 every
        # time, so the drop count is fixed by the index matrix alone
        def flaky(rows):
            failing = rows[:, 0] == rows.sum(axis=1)
            return ({"m": np.where(failing, np.nan, 1.0)},
                    {i: "numerical hiccup" for i in np.flatnonzero(failing).tolist()})

        reps = 1000
        failing = np.flatnonzero((resample_indices(4, reps, 1) == 0).all(axis=1))
        expected = failing.size
        assert 0 < expected <= MAX_DROP_RATE * reps
        result = block_bootstrap(flaky, resample_counts(4, reps, 1), 0.95)
        assert result.replications_dropped == expected
        assert result.replications_used == reps - expected
        assert result.first_error == f"replication {failing[0]}: numerical hiccup"

    def test_replicate_runs_once_per_distinct_count_row(self):
        calls = []

        def recording(rows):
            calls.append(rows.copy())
            return {"m": rows @ np.arange(5.0) / 5.0}, {}

        reps = 400
        counts = resample_counts(5, reps, 8)
        result = block_bootstrap(recording, counts, 0.95)
        rows = {tuple(np.bincount(row, minlength=5).tolist())
                for row in resample_indices(5, reps, 8)}
        [batch] = calls  # one call with every distinct row
        assert len(batch) == len({tuple(r) for r in batch.tolist()}) == len(rows) < reps
        assert {tuple(r) for r in batch.tolist()} == rows  # a row counts how often each season was drawn
        np.testing.assert_array_equal(batch, np.unique(counts, axis=0))  # in np.unique's order
        assert result.replications_used == reps
        assert result.first_error is None

    def test_widespread_failure_is_error(self):
        def broken(rows):
            return {"m": np.full(len(rows), np.nan)}, {i: "always fails" for i in range(len(rows))}

        with pytest.raises(NumericalError, match="replications failed"):
            block_bootstrap(broken, resample_counts(4, 200, 1), 0.95)

    def test_a_bug_aborts_instead_of_dropping(self):
        # only a row reported failed is a droppable replication; a TypeError is a bug
        def buggy(rows):
            raise TypeError("unsupported operand")

        with pytest.raises(TypeError, match="unsupported operand"):
            block_bootstrap(buggy, resample_counts(4, 200, 1), 0.95)

    def test_a_negative_metric_drops_its_row_with_risk_metrics_message(self, monkeypatch):
        # SeasonSample.replicate checks every row as RiskMetrics checks one
        # metric pair: a row whose model gives a negative EEU is dropped
        counts = resample_counts(6, 500, 4)
        rows, which = np.unique(counts, axis=0, return_inverse=True)
        bad = int(np.flatnonzero(np.bincount(which.ravel()) == 1)[0])  # drawn by one replication
        hourly = np.tile([0.01, 2.0], (len(rows), 1))
        hourly[bad, 1] = -1.0
        sample = SeasonSample.__new__(SeasonSample)  # only n_hours and the model are read
        sample.n_hours = 100
        monkeypatch.setattr(SeasonSample, "_closed_form", lambda self, c, kind: hourly.copy())
        with pytest.raises(NumericalError) as single:
            RiskMetrics.from_hourly(0.01, -1.0, 100)
        values, failed = sample.replicate(rows, "hindcast")
        assert failed == {bad: str(single.value)}
        assert np.isnan(values["lole_hours"][bad]) and np.isnan(values["eeu_mwh"][bad])
        result = block_bootstrap(partial(sample.replicate, kind="hindcast"), counts, 0.95)
        assert (result.replications_used, result.replications_dropped) == (499, 1)
        assert result.first_error == f"replication {np.flatnonzero(which.ravel() == bad)[0]}: {single.value}"

    def test_needs_two_seasons(self):
        with pytest.raises(ValueError):
            block_bootstrap(self.mean_replicate([np.arange(3.0)]), resample_counts(1, 100, 1), 0.95)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300).flatmap(lambda n: st.integers(2, 30).flatmap(  # small entries, so rows repeat
    lambda s: hnp.arrays(np.int64, (n, s), elements=st.integers(-3, 3)))))
def test_distinct_rows_match_np_unique(counts):
    distinct, which = _distinct_rows(counts)
    want, want_which = np.unique(counts, axis=0, return_inverse=True)
    np.testing.assert_array_equal(distinct, want)  # the same rows in the same order
    np.testing.assert_array_equal(which, want_which.ravel())


def test_percentile_interval_type7():
    samples = np.arange(101.0)
    ci = percentile_interval(samples, 0.95)
    assert ci.lower == pytest.approx(2.5)
    assert ci.upper == pytest.approx(97.5)
