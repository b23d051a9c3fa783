import numpy as np
import pytest
from scipy import integrate, stats

from adequacy import evt
from adequacy.dnw import EVT, HINDCAST, INDEPENDENCE, survivor
from adequacy.errors import NumericalError
from adequacy.evt import GpdFit, GpdParams
from helpers import make_trace
from oracles import (TailModel, build_evt_model, build_hindcast_model, build_independence_model,
                     default_bounds, discretize, pmf_mean, upper_endpoint)


def net_trace(values):
    """A season whose demand-net-of-wind is ``values``: that demand and no wind."""
    return make_trace("2007-08", values, np.zeros(len(values)))


def quantile_fit(values, q):
    """The tail fit ``dnw --model evt`` makes: the GPD over the q quantile of the values."""
    return evt.fit_threshold_excesses(values, evt.select_threshold(values, q))


def hand_fit(u, sigma, xi, k, n_total):
    """A tail fit with exact parameters; its standard errors and likelihood are unused."""
    return GpdFit(threshold_u=u, params=GpdParams(sigma, xi), n_exceedances=k, n_total=n_total,
                  log_likelihood=0.0, iterations=0)


def reference_evt_model(pu=0.05, sigma=2850.0, xi=-0.32, u=45_280.0, n_total=1000):
    """Hand-assembled evt season and tail fit with exact parameters for arithmetic checks."""
    k = int(round(pu * n_total))
    rng = np.random.default_rng(1)
    body = np.concatenate(
        [
            np.linspace(30_000.0, u, n_total - k),
            u + stats.genpareto.rvs(c=xi, scale=sigma, size=k, random_state=rng),
        ]
    )
    return net_trace(body), hand_fit(u, sigma, xi, k, n_total)


@pytest.fixture(scope="module")
def season_sample():
    rng = np.random.default_rng(10)
    return np.round(stats.genpareto.rvs(c=-0.25, scale=2500.0, size=3528, random_state=rng) + 40_000.0)


class TestSurvivor:
    def test_tail_factorization_arithmetic(self):
        season, fit = reference_evt_model()
        got = survivor(season, EVT, 45_280.0 + 2850.0, fit)
        assert got == pytest.approx(0.05 * (1.0 - 0.7003665103978225), abs=1e-12)
        assert got == pytest.approx(0.05 * 0.2996, abs=2e-5)

    def test_continuity_at_threshold(self):
        season, fit = reference_evt_model()
        assert survivor(season, EVT, fit.threshold_u, fit) == fit.exceedance_prob

    def test_zero_beyond_finite_endpoint(self):
        season, fit = reference_evt_model()
        endpoint = fit.threshold_u + 2850.0 / 0.32
        assert survivor(season, EVT, endpoint + 10.0, fit) == 0.0

    def test_deep_tail_keeps_relative_precision(self):
        # 1 - H(y) rounds to 0 this far out; the survivor is computed directly
        season, fit = reference_evt_model(xi=0.25)
        sigma, xi = fit.params.sigma, fit.params.xi
        y = 1e5 * sigma / xi
        want = fit.exceedance_prob * (1.0 + xi * y / sigma) ** (-1.0 / xi)
        assert 0.0 < want < 1e-17
        assert survivor(season, EVT, fit.threshold_u + y, fit) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_hindcast_midpoint(self):
        season = net_trace([1.0, 2.0, 3.0, 4.0])
        assert survivor(season, HINDCAST, 2.5) == 0.5

    def test_hindcast_limits(self):
        season = net_trace([1.0, 2.0, 3.0, 4.0])
        assert survivor(season, HINDCAST, -1e12) == 1.0
        assert survivor(season, HINDCAST, 4.0) == 0.0

    def test_rejects_unknown_kind_and_missing_fit(self):
        for kind in ("oracle", EVT):
            with pytest.raises(ValueError):
                survivor(net_trace([1.0, 2.0, 3.0, 4.0]), kind, 2.5)

    def test_list_of_seasons_is_pooled(self, season_sample):
        demand, wind = season_sample + 5000.0, np.random.default_rng(2).uniform(0.0, 9000.0, 3528)
        halves = [make_trace("2007-08", demand[:1000], wind[:1000]),
                  make_trace("2008-09", demand[1000:], wind[1000:])]
        grid = np.linspace(season_sample.min() - 5000, season_sample.max() + 5000, 2000)
        fit = quantile_fit(demand - wind, 0.95)
        for kind in (EVT, HINDCAST, INDEPENDENCE):
            pooled = survivor(make_trace("2007-08", demand, wind), kind, grid, fit)
            np.testing.assert_array_equal(survivor(halves, kind, grid, fit), pooled)

    def test_nonincreasing_and_bounded(self, season_sample):
        grid = np.linspace(season_sample.min() - 500, season_sample.max() + 5000, 2000)
        season = net_trace(season_sample)
        models = [
            (season, EVT, quantile_fit(season_sample, 0.95)),
            (season, HINDCAST, None),
            (make_trace("2007-08", season_sample + 5000.0, np.full(season_sample.size, 5000.0)),
             INDEPENDENCE, None),
        ]
        for seasons, kind, fit in models:
            s = survivor(seasons, kind, grid, fit)
            assert np.all(np.diff(s) <= 1e-15)
            assert s.min() >= 0.0 and s.max() <= 1.0


class TestBelowThresholdIdentity:
    def test_evt_equals_hindcast_bitwise(self, season_sample):
        season, fit = net_trace(season_sample), quantile_fit(season_sample, 0.95)
        u = fit.threshold_u
        rng = np.random.default_rng(6)
        points = np.concatenate(
            [rng.uniform(season_sample.min() - 100, u - 1e-9, 500), season_sample[season_sample < u]]
        )
        for v in points:
            assert survivor(season, EVT, float(v), fit) == survivor(season, HINDCAST, float(v))

    def test_higher_threshold_widens_agreement(self, season_sample):
        season, fit98 = net_trace(season_sample), quantile_fit(season_sample, 0.98)
        u = fit98.threshold_u
        grid = np.linspace(season_sample.min(), u - 1e-9, 400)
        np.testing.assert_array_equal(survivor(season, EVT, grid, fit98), survivor(season, HINDCAST, grid))


class TestExtrapolation:
    def test_nonnegative_shape_extends_past_maximum(self, season_sample):
        body = np.sort(season_sample)
        fit = hand_fit(float(np.quantile(body, 0.95)), 2500.0, 0.05, 176, body.size)
        season = net_trace(season_sample)
        beyond = body[-1] + 5000.0
        assert survivor(season, EVT, beyond, fit) > 0.0
        assert survivor(season, HINDCAST, beyond) == 0.0


class TestBuildEvtModel:
    """The evt survivor over the tail fit that ``dnw`` makes."""

    def test_tail_estimate_near_truth(self):
        rng = np.random.default_rng(0)
        n = 20_000
        sample = stats.genpareto.rvs(c=-0.2, scale=2000.0, size=n, random_state=rng) + 40_000.0
        v999 = 40_000.0 + stats.genpareto(c=-0.2, scale=2000.0).ppf(0.999)
        se = np.sqrt(0.001 * 0.999 / n)
        assert abs(survivor(net_trace(sample), EVT, v999, quantile_fit(sample, 0.95)) - 0.001) < 3.0 * se

    def test_three_standard_quantile_choices(self, season_sample):
        for q in (0.90, 0.95, 0.98):
            fit = quantile_fit(season_sample, q)
            assert fit.n_exceedances >= 30
            assert survivor(net_trace(season_sample), EVT, fit.threshold_u, fit) == fit.exceedance_prob


class TestIndependenceModel:
    def test_degenerate_point_masses(self):
        assert build_independence_model([100.0], [30.0]).pmf.values_mw.tolist() == [70]
        season = make_trace("2007-08", [100.0], [30.0])
        assert survivor(season, INDEPENDENCE, 69.5) == 1.0
        assert survivor(season, INDEPENDENCE, 70.0) == 0.0

    def test_two_point_enumeration(self):
        model = build_independence_model([0.0, 1.0], [0.0, 1.0])
        np.testing.assert_allclose(model.pmf.probabilities, [0.25, 0.5, 0.25], atol=1e-15)
        assert model.pmf.origin_mw == -1

    def test_mean_linearity(self):
        rng = np.random.default_rng(3)
        demand = rng.uniform(20_000, 55_000, 700)
        wind = rng.uniform(0, 14_000, 700)
        model = build_independence_model(demand, wind)
        expected = np.floor(demand).mean() - np.floor(wind).mean()
        assert pmf_mean(model.pmf) == pytest.approx(expected, abs=1e-9)

    def test_matches_brute_force_pairs(self):
        rng = np.random.default_rng(4)
        demand = rng.integers(0, 300, 150).astype(float)
        wind = rng.integers(0, 80, 130).astype(float)
        model = build_independence_model(demand, wind)
        # exact pair counts, compared as integers scaled by n*m
        n, m = demand.size, wind.size
        diffs = (demand[:, None] - wind[None, :]).ravel().astype(np.int64)
        counts = np.bincount(diffs - diffs.min(), minlength=len(model.pmf))
        scaled = model.pmf.probabilities * (n * m)
        assert model.pmf.origin_mw == diffs.min()
        np.testing.assert_allclose(scaled, counts, atol=1e-6)
        np.testing.assert_array_equal(np.round(scaled).astype(np.int64), counts)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_independence_model([], [1.0])


class TestDiscretize:
    def test_point_mass_lands_in_its_bin(self):
        model = build_hindcast_model([70.0])
        p = discretize(model, 0.0, 200.0)
        assert p.probabilities[70] == 1.0
        assert p.values_mw[70] == 70

    def test_unit_mass_all_kinds(self, season_sample):
        models = [
            build_evt_model(season_sample, 0.95),
            build_hindcast_model(season_sample),
            build_independence_model(season_sample + 3000.0, np.full(300, 3000.0)),
        ]
        for model in models:
            assert discretize(model).probabilities.sum() == pytest.approx(1.0, abs=1e-9)

    def test_hindcast_pmf_is_floor_binned_sample(self, season_sample):
        model = build_hindcast_model(season_sample)
        p = discretize(model)
        expected = np.bincount(
            (np.floor(season_sample) - p.origin_mw).astype(int), minlength=len(p)
        ) / season_sample.size
        np.testing.assert_allclose(p.probabilities, expected, atol=1e-12)

    def test_mean_matches_survivor_quadrature(self, season_sample):
        model = build_evt_model(season_sample, 0.95)
        p = discretize(model)
        lo = season_sample.min()
        grid = np.linspace(lo, lo + 40_000.0, 400_001)
        curve = survivor(net_trace(season_sample), EVT, grid, model.fit)
        quadrature = lo + integrate.trapezoid(curve, grid)
        assert abs(pmf_mean(p) - quadrature) < 0.5

    def test_support_not_covered_rejected(self, season_sample):
        model = build_hindcast_model(season_sample)
        with pytest.raises(NumericalError, match="support"):
            discretize(model, season_sample.min() + 1000.0, season_sample.max() + 10.0)

    def test_heavy_tail_requires_explicit_bounds(self, season_sample):
        fit = hand_fit(float(np.quantile(season_sample, 0.95)), 2500.0, 0.5, 176, season_sample.size)
        model = TailModel(kind=EVT, body=np.sort(season_sample), fit=fit)
        with pytest.raises(NumericalError, match="explicit bounds"):
            default_bounds(model)


    def test_small_negative_shape_uses_the_quantile_window(self, season_sample):
        # for xi -> 0- the endpoint u + sigma/|xi| runs off to millions of MW;
        # the window ends at the 1 - TRUNCATION_TOL/p quantile instead
        fit = hand_fit(float(np.quantile(season_sample, 0.95)), 2500.0, -1e-3, 176, season_sample.size)
        model = TailModel(kind=EVT, body=np.sort(season_sample), fit=fit)
        lo, hi = default_bounds(model)
        assert hi - lo < 200_000 < upper_endpoint(fit.params)
        assert discretize(model).probabilities.sum() == pytest.approx(1.0, abs=1e-9)

    def test_explicit_bounds_skip_the_automatic_window(self, season_sample):
        # the automatic window of this tail is past the cap, but the caller's
        # window holds all but 1e-12 of its mass
        u = float(np.quantile(season_sample, 0.95))
        fit = hand_fit(u, 2500.0, 0.18, 176, season_sample.size)
        model = TailModel(kind=EVT, body=np.sort(season_sample), fit=fit)
        with pytest.raises(NumericalError, match="explicit bounds"):
            default_bounds(model)
        hi = u + evt.gpd_quantile(fit.params, 1.0 - 1e-12 / fit.exceedance_prob) + 1.0
        pmf = discretize(model, season_sample.min(), hi)
        assert pmf.origin_mw == int(season_sample.min())
        assert pmf.probabilities.sum() == pytest.approx(1.0, abs=1e-9)
