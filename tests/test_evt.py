import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize, stats

import adequacy
from adequacy import evt
from adequacy.cli import main
from adequacy.errors import NumericalError
from adequacy.evt import (
    GpdFit,
    GpdParams,
    MIN_FIT_SIZE,
    XI_ZERO_GUARD,
    fit_gpd,
    fit_threshold_excesses,
    gpd_survivor,
    gpd_quantile,
    qq_points,
    select_threshold,
    threshold_scan,
)
from adequacy.study import SCAN_QUANTILES
import oracles
from oracles import gpd_cdf, gpd_loglik, upper_endpoint

TABLE_PARAMS = GpdParams(sigma=2.85, xi=-0.32)


def _finite_difference_standard_errors(y, sigma, xi):
    """sqrt(diag(inverse of minus the central-difference Hessian of gpd_loglik))."""
    p0 = np.array([sigma, xi])
    h = np.array([1e-4 * sigma, 1e-4])

    def loglik(p):
        return gpd_loglik(GpdParams(p[0], p[1]), y)

    hess = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            ei, ej = np.eye(2)[i] * h[i], np.eye(2)[j] * h[j]
            hess[i, j] = (
                loglik(p0 + ei + ej) - loglik(p0 + ei - ej)
                - loglik(p0 - ei + ej) + loglik(p0 - ei - ej)
            ) / (4.0 * h[i] * h[j])
    return np.sqrt(np.diag(np.linalg.inv(-hess)))


class TestGpdCdf:
    def test_reference_value(self):
        # direct formula: 1 - (1 + xi*y/sigma)^(-1/xi) = 1 - 0.68**(1/0.32)
        assert gpd_cdf(TABLE_PARAMS, 2.85) == pytest.approx(0.7003665103978225, abs=1e-12)
        assert gpd_cdf(TABLE_PARAMS, 2.85) == pytest.approx(0.7004, abs=5e-5)

    def test_matches_scipy(self):
        y = np.linspace(0.0, 8.0, 50)
        ours = gpd_cdf(TABLE_PARAMS, y)
        ref = stats.genpareto(c=-0.32, scale=2.85).cdf(y)
        np.testing.assert_allclose(ours, ref, atol=1e-12)

    def test_zero_at_origin(self):
        for params in (TABLE_PARAMS, GpdParams(1.0, 0.0), GpdParams(5.0, 0.3)):
            assert gpd_cdf(params, 0.0) == 0.0

    def test_exponential_case(self):
        assert gpd_cdf(GpdParams(2.0, 0.0), 2.0) == pytest.approx(1.0 - np.exp(-1.0), abs=1e-12)

    def test_saturates_at_endpoint(self):
        params = GpdParams(2.0, -0.5)
        assert upper_endpoint(params) == 4.0
        assert gpd_cdf(params, 4.0) == pytest.approx(1.0, abs=1e-12)
        assert gpd_cdf(params, 10.0) == 1.0

    def test_monotone_nondecreasing(self):
        y = np.linspace(0.0, 30.0, 400)
        for params in (TABLE_PARAMS, GpdParams(2.0, 0.0), GpdParams(1.5, 0.4)):
            c = gpd_cdf(params, y)
            assert np.all(np.diff(c) >= -1e-15)
            assert c[0] == 0.0 and c[-1] <= 1.0

    def test_rejects_negative_excess(self):
        with pytest.raises(ValueError):
            gpd_cdf(TABLE_PARAMS, -0.1)


class TestGpdSurvivor:
    def test_matches_scipy(self):
        y = np.linspace(0.0, 8.0, 50)
        ref = stats.genpareto(c=-0.32, scale=2.85).sf(y)
        np.testing.assert_allclose(gpd_survivor(TABLE_PARAMS, y), ref, rtol=1e-12)

    def test_zero_past_the_endpoint_without_warning(self):
        # warnings are errors in this suite, so a log1p(-1) would fail here
        params = GpdParams(2.0, -0.5)
        np.testing.assert_array_equal(gpd_survivor(params, [4.0, 10.0]), [0.0, 0.0])
        assert gpd_survivor(params, 3.0) == pytest.approx(0.25**2, rel=1e-15, abs=0.0)


class TestGpdQuantile:
    def test_exponential_median(self):
        assert gpd_quantile(GpdParams(2.0, 0.0), 0.5) == pytest.approx(2.0 * np.log(2.0), abs=1e-12)

    def test_zero_probability(self):
        assert gpd_quantile(TABLE_PARAMS, 0.0) == 0.0

    def test_roundtrip(self):
        p = np.arange(0.1, 1.0, 0.01)
        y = gpd_quantile(TABLE_PARAMS, p)
        np.testing.assert_allclose(gpd_cdf(TABLE_PARAMS, y), p, atol=1e-10)

    def test_infinite_quantile_rejected_for_nonnegative_shape(self):
        with pytest.raises(ValueError):
            gpd_quantile(GpdParams(2.0, 0.1), 1.0)
        # finite endpoint is fine for xi < 0
        assert gpd_quantile(GpdParams(2.0, -0.5), 1.0) == pytest.approx(4.0)

    @settings(max_examples=50, deadline=None)
    @given(
        sigma=st.floats(0.1, 50.0),
        xi=st.floats(-0.8, 0.8),
        p=st.floats(0.01, 0.99),
    )
    def test_roundtrip_property(self, sigma, xi, p):
        params = GpdParams(sigma, xi)
        assert gpd_cdf(params, gpd_quantile(params, p)) == pytest.approx(p, abs=1e-8)


class TestGpdLoglik:
    def test_single_unit_excess(self):
        assert gpd_loglik(GpdParams(1.0, 0.0), [1.0]) == pytest.approx(-1.0)

    def test_support_violation_sentinel(self):
        assert gpd_loglik(GpdParams(1.0, -0.5), [3.0]) == -np.inf

    def test_matches_per_point_density_sum(self):
        y = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
        brute = stats.genpareto(c=0.1, scale=2.0).logpdf(y).sum()
        assert gpd_loglik(GpdParams(2.0, 0.1), y) == pytest.approx(brute, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gpd_loglik(TABLE_PARAMS, [])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            gpd_loglik(TABLE_PARAMS, [1.0, 0.0])


class TestFitGpd:
    def test_monte_carlo_recovery(self):
        rng = np.random.default_rng(0)
        draws = stats.genpareto.rvs(c=-0.25, scale=2.0, size=50_000, random_state=rng)
        mle = fit_gpd(draws)
        assert 1.95 <= mle.params.sigma <= 2.05
        assert -0.27 <= mle.params.xi <= -0.23

    def test_asymptotic_standard_error(self):
        rng = np.random.default_rng(1)
        draws = stats.genpareto.rvs(c=-0.25, scale=2.0, size=50_000, random_state=rng)
        mle = fit_gpd(draws)
        assert mle.se_xi == pytest.approx((1.0 - 0.25) / np.sqrt(draws.size), rel=0.05)

    def test_uniform_sample_is_the_edge(self):
        # the likelihood is unbounded for xi < -1; a uniform grid puts the
        # profile maximum at the xi = -1 edge, whose limit is sigma = max(y)
        y = np.linspace(0.01, 2.0, 60)
        mle = fit_gpd(y)
        assert mle.params.xi == -1.0
        assert mle.params.sigma == y.max()
        assert mle.log_likelihood == pytest.approx(-y.size * np.log(y.max()), rel=1e-15)
        assert np.isnan(mle.se_sigma) and np.isnan(mle.se_xi)

    def test_exponential_stationary_point_snaps_to_zero(self):
        # shifted so that mean(y^2) = 2 mean(y)^2: theta = 0 is then a
        # stationary point of the profile, the exponential MLE sigma = mean(y)
        e = np.random.default_rng(1).exponential(2.0, 1000)
        y = e + (e.std() - e.mean())
        assert y.min() > 0.0
        mle = fit_gpd(y)
        assert mle.params.xi == 0.0
        assert mle.params.sigma == pytest.approx(y.mean(), rel=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(30, 3000))
    def test_shape_snaps_inside_zero_guard(self, seed, k):
        y = np.random.default_rng(seed).exponential(1.0, k)
        xi = fit_gpd(y).params.xi
        assert xi == 0.0 or abs(xi) >= XI_ZERO_GUARD

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        xi=st.floats(-0.45, 0.5),
        k=st.integers(30, 3000),
    )
    def test_optimum_dominates_brute_force_grid(self, seed, xi, k):
        rng = np.random.default_rng(seed)
        y = stats.genpareto.rvs(c=xi, scale=2.0, size=k, random_state=rng)
        mle = fit_gpd(y)
        # +-4 standard errors in each coordinate, 41 points a side, within the
        # xi >= -1 domain of the fit (the likelihood is unbounded below it)
        half_ls = 4.0 * mle.se_sigma / mle.params.sigma if np.isfinite(mle.se_sigma) else 0.2
        half_xi = 4.0 * mle.se_xi if np.isfinite(mle.se_xi) else 0.2
        shapes = mle.params.xi + np.linspace(-half_xi, half_xi, 41)
        best = -np.inf
        for ls in np.log(mle.params.sigma) + np.linspace(-half_ls, half_ls, 41):
            for x in shapes[shapes >= -1.0]:
                best = max(best, gpd_loglik(GpdParams(np.exp(ls), x), y))
        assert mle.log_likelihood >= best - 1e-9

    @pytest.mark.parametrize("xi", [-0.25, -1e-3, 0.0, 2e-5, 0.3])
    def test_standard_errors_match_finite_difference_hessian(self, xi):
        # the analytic observed information holds at any (sigma, xi), on
        # both sides of the small-|xi y / sigma| series
        rng = np.random.default_rng(7)
        y = stats.genpareto.rvs(c=xi, scale=2.0, size=5000, random_state=rng)
        se = evt._standard_errors(y, 2.0, xi)
        np.testing.assert_allclose(se, _finite_difference_standard_errors(y, 2.0, xi), rtol=1e-4)

    def test_fitted_standard_errors_match_finite_difference_hessian(self):
        rng = np.random.default_rng(3)
        y = stats.genpareto.rvs(c=-0.25, scale=2.0, size=5000, random_state=rng)
        mle = fit_gpd(y)
        expected = _finite_difference_standard_errors(y, mle.params.sigma, mle.params.xi)
        np.testing.assert_allclose([mle.se_sigma, mle.se_xi], expected, rtol=1e-4)

    def test_degenerate_sample_rejected(self):
        with pytest.raises(NumericalError, match="degenerate"):
            fit_gpd(np.full(100, 3.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_excesses_not_finite_and_positive_rejected(self, bad):
        # a NaN excess made the search's bracket NaN, which never closed
        with pytest.raises(ValueError, match="strictly positive"):
            fit_gpd(np.r_[np.linspace(1.0, 100.0, 40), bad])

    def test_too_few_excesses_rejected(self):
        with pytest.raises(NumericalError, match="at least"):
            fit_gpd(np.linspace(0.1, 1.0, MIN_FIT_SIZE - 1))
        with pytest.raises(NumericalError, match="at least"):
            fit_gpd([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_excess_rejected_before_counting(self, bad):
        # a short sample is a NumericalError, which the threshold scan skips;
        # a faulty excess must not hide behind it
        with pytest.raises(ValueError, match="strictly positive"):
            fit_gpd(np.r_[np.linspace(1.0, 2.0, 3), bad])

    def test_excesses_past_the_float_range_fit_without_warning(self):
        # max(y) / min(y) overflows to inf: the bracket ends at s = 700, as it did
        # with the warning; the suite turns warnings into errors
        y = np.exp(np.random.default_rng(0).uniform(-600.0, 600.0, 100))
        mle = fit_gpd(y)
        assert mle.params.xi > 100.0 and math.isfinite(mle.log_likelihood)

    def test_search_bracket_is_plain_floats(self, monkeypatch):
        # np.float64 subclasses float: only an exact type check sees a numpy scalar
        brackets = []
        search = evt._profile_minimum

        def spy(rest, w_rest, n_top, k, lo, hi):
            brackets.append((type(lo), type(hi)))
            return search(rest, w_rest, n_top, k, lo, hi)

        monkeypatch.setattr(evt, "_profile_minimum", spy)
        fit_gpd(np.random.default_rng(5).uniform(1.0, 50.0, 200))
        fit_gpd(np.exp(np.random.default_rng(0).uniform(-600.0, 600.0, 100)))  # hi at _S_CEIL
        assert brackets == [(float, float), (float, float)]

    def test_excesses_past_the_float_range_have_no_standard_errors(self):
        # z**3 overflows in the information; only the singular warning is raised
        y = np.exp(np.random.default_rng(0).uniform(-600.0, 600.0, 100))
        mle = fit_gpd(y)
        with pytest.warns(UserWarning, match="singular"):
            assert math.isnan(mle.se_sigma) and math.isnan(mle.se_xi)

    def test_optimum_dominates_random_feasible_points(self):
        rng = np.random.default_rng(5)
        y = stats.genpareto.rvs(c=-0.2, scale=3.0, size=500, random_state=rng)
        mle = fit_gpd(y)
        best = gpd_loglik(mle.params, y)
        y_max = y.max()
        tried = 0
        while tried < 100:
            sigma = rng.uniform(0.5, 10.0)
            xi = rng.uniform(-0.9, 0.9)
            if xi < 0 and sigma <= -xi * y_max:
                continue
            tried += 1
            assert best >= gpd_loglik(GpdParams(sigma, xi), y) - 1e-9

    def test_standard_errors_shrink_with_sample_size(self):
        rng = np.random.default_rng(42)
        d = stats.genpareto.rvs(c=-0.25, scale=2.0, size=4000, random_state=rng)
        half = fit_gpd(d[:2000])
        full = fit_gpd(d)
        assert 0.6 <= full.se_xi / half.se_xi <= 0.8

    def test_threshold_translation_consistency(self):
        # excesses over u on an exact quantile grid; refit above higher
        # thresholds must recover the shape and the linearly shifted scale
        sigma_u, xi, u = 2.85, -0.32, 45.0
        k = 20_000
        grid = gpd_quantile(GpdParams(sigma_u, xi), np.arange(1, k + 1) / (k + 1))
        vals = u + grid
        sigma_stars = []
        for u2 in (45.0, 45.8, 46.6):
            mle = fit_gpd(vals[vals > u2] - u2)
            assert mle.params.xi == pytest.approx(xi, abs=5e-3)
            assert mle.params.sigma == pytest.approx(sigma_u + xi * (u2 - u), abs=1e-2)
            sigma_stars.append(mle.params.sigma - u2 * mle.params.xi)
        assert max(sigma_stars) - min(sigma_stars) < 0.06
        assert sigma_stars[0] == pytest.approx(sigma_u - u * xi, abs=0.15)


class TestWeightedFit:
    """Integer weights are repeat counts: the fit a season multiset needs."""

    @staticmethod
    def sample(seed, size=400):
        rng = np.random.default_rng(seed)
        xi = rng.uniform(-0.5, 0.4)
        return rng, stats.genpareto.rvs(c=xi, scale=1000.0, size=size, random_state=rng)

    @pytest.mark.parametrize("seed", range(6))
    def test_all_ones_is_the_unweighted_fit(self, seed):
        _, y = self.sample(seed)
        plain, ones = fit_gpd(y), fit_gpd(y, np.ones(y.size))
        assert ones.params.sigma == pytest.approx(plain.params.sigma, rel=1e-12)
        assert ones.params.xi == pytest.approx(plain.params.xi, rel=1e-12, abs=1e-15)
        assert ones.log_likelihood == pytest.approx(plain.log_likelihood, rel=1e-12)
        assert ones.se_sigma == pytest.approx(plain.se_sigma, rel=1e-12)
        assert ones.se_xi == pytest.approx(plain.se_xi, rel=1e-12)
        assert ones.n_exceedances == plain.n_exceedances

    @pytest.mark.parametrize("seed", range(6))
    def test_integer_weights_match_repeated_sample(self, seed):
        # the flat optimum moves by float reordering of the weighted sums, as
        # the profile search's own tolerance allows; the likelihood does not
        rng, y = self.sample(seed)
        w = rng.integers(1, 4, y.size)
        weighted, repeated = fit_gpd(y, w), fit_gpd(np.repeat(y, w))
        assert weighted.n_exceedances == repeated.n_exceedances == w.sum()
        assert weighted.params.sigma == pytest.approx(repeated.params.sigma, rel=1e-6)
        assert weighted.params.xi == pytest.approx(repeated.params.xi, abs=1e-6)
        assert weighted.log_likelihood == pytest.approx(repeated.log_likelihood, rel=1e-12)
        assert weighted.se_sigma == pytest.approx(repeated.se_sigma, rel=1e-5)
        assert weighted.se_xi == pytest.approx(repeated.se_xi, rel=1e-5)

    def test_size_is_the_weight_total(self):
        y = np.linspace(1.0, 100.0, 10)
        with pytest.raises(NumericalError, match="at least"):
            fit_gpd(y)
        assert fit_gpd(y, np.full(10, 3)).n_exceedances == 30

    def test_bad_weights_rejected(self):
        y = np.linspace(1.0, 100.0, 40)
        for w in (np.ones(39), np.r_[np.ones(39), 0.0], np.r_[np.ones(39), -1.0]):
            with pytest.raises(ValueError, match="weights"):
                fit_gpd(y, w)

    @pytest.mark.parametrize("w", [np.full(40, 0.99), np.r_[np.ones(39), 1.5], np.r_[np.ones(39), np.nan],
                                   np.r_[np.ones(39), np.inf]])
    def test_non_integer_weights_rejected(self, w):
        # 0.99 each would fit k = 39.6 excesses and report int(k) = 39 of them
        with pytest.raises(ValueError, match="weights"):
            fit_gpd(np.linspace(1.0, 100.0, 40), w)


class TestProfile:
    """``evt._profile``: xi(t) = sum(w log1p(t r)) / k and its t-derivatives."""

    @staticmethod
    def split(y, w):
        r = y / y.max()
        below = r < 1.0
        return r[below], w[below].astype(float), float(w.sum() - w[below].sum()), float(w.sum())

    @pytest.mark.parametrize("s", [-0.7, -0.01, 0.3, 4.0])
    def test_matches_the_direct_sums(self, s):
        rng = np.random.default_rng(4)
        y = np.r_[rng.uniform(1.0, 50.0, 200), 50.0, 50.0]
        w = rng.integers(1, 4, y.size)
        t = math.expm1(s)
        r = y / y.max()
        expected = (w @ np.log1p(t * r) / w.sum(), w @ (r / (1.0 + t * r)) / w.sum(),
                    -w @ (r / (1.0 + t * r)) ** 2 / w.sum())
        assert evt._profile(*self.split(y, w), s, t) == pytest.approx(expected, rel=1e-13)

    def test_finite_where_expm1_rounds_to_minus_one(self):
        y = np.r_[np.linspace(1.0, 90.0, 60), 100.0]
        rest, w_rest, n_top, k = self.split(y, np.ones(y.size))
        s = -38.0
        assert math.expm1(s) == -1.0
        xi, d1, d2 = evt._profile(rest, w_rest, n_top, k, s, -1.0)
        assert xi == pytest.approx((s + np.log1p(-rest).sum()) / k, rel=1e-13)
        assert d1 == pytest.approx((math.exp(-s) + (rest / (1.0 - rest)).sum()) / k, rel=1e-13)
        assert math.isfinite(d2) and d2 < 0.0

    def test_fit_does_not_depend_on_the_openblas_thread_count(self):
        # numpy's @ splits a dot of this length across OpenBLAS threads
        code = ("import numpy as np; from adequacy.evt import fit_gpd; "
                "y = np.random.default_rng(0).pareto(2.0, 25_000); assert np.unique(y).size > 20_000; "
                "f = fit_gpd(y); print(repr((f.params.sigma, f.params.xi, f.log_likelihood)))")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=str(Path(adequacy.__file__).parents[1]))
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


def _brent_search(edges):
    """scipy in place of ``evt._profile_minimum``: brentq finds the xi = -1
    edge where xi(s_lo) < -1, and fminbound minimises the profile negative
    log-likelihood per excess, less log(max(y)), over [edge, s_hi], both to
    the same xtol. Each call appends its edge, or None, to ``edges``."""

    def search(rest, w_rest, n_top, k, s_lo, s_hi):
        def xi(s):
            return (n_top * s + w_rest @ np.log1p(math.expm1(s) * rest)) / k

        def nll(s):
            if s == 0.0:
                return math.log((n_top + w_rest @ rest) / k) + 1.0  # the exponential limit
            t, x = math.expm1(s), xi(s)
            if x < -1.0:  # past the edge the best shape is -1, at sigma = -1/theta
                return math.log(-1.0 / t)
            return math.log(x / t) + x + 1.0

        edge = None
        if xi(s_lo) < -1.0:
            edge = s_lo = optimize.brentq(lambda s: xi(s) + 1.0, s_lo, 0.0, xtol=evt._S_XTOL)
        edges.append(edge)
        s, _, status, calls = optimize.fminbound(
            nll, s_lo, s_hi, xtol=evt._S_XTOL, maxfun=500, full_output=True, disp=0
        )
        assert status == 0
        return s, calls

    return search


def _bisecting_fits(monkeypatch, fit, samples):
    """fit(sample) for each sample, and the number of them whose profile
    search took a bisection step."""
    steps = []
    bisection_point = evt._bisection_point
    monkeypatch.setattr(evt, "_bisection_point",
                        lambda lo, hi: steps.append(lo) or bisection_point(lo, hi))
    results, bisected = [], 0
    for sample in samples:
        before = len(steps)
        results.append(fit(sample))
        bisected += len(steps) > before
    return results, bisected


class TestBrentPortsMatchScipy:
    """The fits the profile search makes match fits made with scipy's brentq
    and fminbound in its place."""

    @staticmethod
    def corpus(size):
        """Seeded GPD samples, xi from -1.5 to 0.6, some rounded to ties; every
        other one weighted. The short tails have the xi = -1 edge inside the
        search interval."""
        rng = np.random.default_rng(20140)
        for i in range(size):
            xi, sigma = rng.uniform(-1.5, 0.6), rng.uniform(0.5, 500.0)
            u = rng.random(int(rng.integers(30, 400)))
            y = sigma / xi * np.expm1(-xi * np.log(u))
            y = y[y > 0.0]
            if i % 7 == 0:
                y = np.round(y) + 1.0
            yield y, (rng.integers(1, 5, y.size) if i % 2 else None)

    @staticmethod
    def extreme_range(size):
        """Samples spanning exp(-300) to exp(300), unweighted and weighted:
        Newton steps crawl on them unless a step must be shorter than the last."""
        rng = np.random.default_rng(300)
        for _ in range(size):
            y = np.exp(rng.uniform(-300.0, 300.0, 100))
            yield y, None
            yield y, rng.integers(1, 5, y.size)

    @staticmethod
    def outcomes(samples):
        out = []
        for y, w in samples:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    m = fit_gpd(y, w)
                    result = (m.params.sigma, m.params.xi, m.log_likelihood, m.se_sigma, m.se_xi,
                              m.n_exceedances, m.iterations)
                except NumericalError as exc:
                    result = str(exc)
            out.append((result, [str(c.message) for c in caught]))
        return out

    def test_fits_match_fminbound_and_brentq(self, monkeypatch):
        samples = list(self.corpus(1200))
        extreme = list(self.extreme_range(4))
        ours, bisected = _bisecting_fits(monkeypatch, lambda sample: self.outcomes([sample])[0], samples)
        ours += self.outcomes(extreme)
        monkeypatch.undo()
        edges = []
        monkeypatch.setattr(evt, "_profile_minimum", _brent_search(edges))
        expected = self.outcomes(samples + extreme)
        assert sum(w is not None for _, w in samples) == 600
        inside = [edge is not None for edge in edges[:len(samples)]]
        assert sum(inside) > 300  # fits with the xi = -1 edge inside the search interval
        # the search finds the edge itself: a bisection for it first took up to 93
        assert max(result[6] for (result, _), edge in zip(ours, inside) if edge) <= 50
        assert bisected > 400  # fits whose search took a bisection step, not Newton steps alone
        assert all(result[6] <= 120 for result, _ in ours[len(samples):])
        for (mine, my_warnings), (ref, ref_warnings) in zip(ours, expected):
            assert my_warnings == ref_warnings
            if isinstance(ref, str):
                assert mine == ref
                continue
            sigma, xi, log_lik, se_sigma, se_xi, n, _ = mine
            assert log_lik >= ref[2] - 1e-9 * abs(ref[2])
            assert sigma == pytest.approx(ref[0], rel=1e-6)
            # fminbound stops within sqrt(eps) |s| of its optimum: 1e-5 in xi at
            # the extreme range's s ~ 600, where xi ~ 300
            assert xi == pytest.approx(ref[1], rel=1e-7, abs=1e-6)
            assert [se_sigma, se_xi] == pytest.approx(ref[3:5], rel=1e-5, nan_ok=True)
            assert n == ref[5]


def _se_bits(fit):
    return np.array([fit.se_sigma, fit.se_xi]).tobytes()


class TestThresholds:
    def test_select_median_of_three(self):
        assert select_threshold([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_exceedance_count_at_95(self):
        rng = np.random.default_rng(123)
        data = rng.normal(45_000.0, 2_000.0, size=3528)
        u = select_threshold(data, 0.95)
        count = int(np.count_nonzero(data > u))
        # continuous data, type-7 quantile: n - ceil(0.95*(n-1)) - ... = 177
        assert count == 177
        assert abs(count - 0.05 * 3528) <= 1

    def test_select_rejects_bad_level(self):
        with pytest.raises(ValueError):
            select_threshold([1.0, 2.0], 1.0)
        with pytest.raises(ValueError):
            select_threshold([], 0.5)

    def test_scan_shape_stable_on_exact_gpd(self):
        rng = np.random.default_rng(42)
        data = stats.genpareto.rvs(c=-0.25, scale=2.0, size=20_000, random_state=rng)
        thresholds = np.quantile(data, [0.0, 0.5, 0.8, 0.9, 0.95])
        scan = threshold_scan(data, thresholds)
        assert len(scan) == len(thresholds)
        for fit in scan:
            assert abs(fit.params.xi + 0.25) <= 2.0 * fit.se_xi

    def test_scan_flags_unfittable_thresholds(self):
        data = np.linspace(0.0, 1.0, 200)
        scan = threshold_scan(data, [0.5, 2.0])
        assert [f.threshold_u for f in scan] == [0.5]

    def test_scan_sigma_star_identity(self):
        rng = np.random.default_rng(3)
        data = stats.genpareto.rvs(c=-0.2, scale=2.0, size=5000, random_state=rng)
        scan = threshold_scan(data, np.quantile(data, [0.5, 0.8, 0.9]))
        for f in scan:
            assert f.sigma_star == f.params.sigma - f.threshold_u * f.params.xi

    def test_scan_is_the_per_threshold_oracle_on_the_demo(self, demo_system):
        # the study's grid, plus thresholds at and past the maximum, where no fit survives
        for trace in demo_system["traces"]:
            values = trace.net_demand_mw
            top = float(values.max())
            thresholds = np.r_[np.unique(np.quantile(values, SCAN_QUANTILES)), top, top + 1.0, top + 1e3]
            scan, expected = threshold_scan(values, thresholds), oracles.threshold_scan(values, thresholds)
            assert len(expected) == len(SCAN_QUANTILES)
            assert scan == expected
            assert [_se_bits(f) for f in scan] == [_se_bits(f) for f in expected]

    def test_scan_validates_inputs(self):
        with pytest.raises(ValueError):
            threshold_scan([1.0, 2.0], [])
        with pytest.raises(ValueError):
            threshold_scan([1.0, 2.0], [1.0, 1.0])


class TestQqPoints:
    @staticmethod
    def _fit(u, sigma, xi, k, n_total):
        return GpdFit(
            threshold_u=u,
            params=GpdParams(sigma, xi),
            n_exceedances=k,
            n_total=n_total,
            log_likelihood=0.0,
            iterations=0,
        )

    def test_exact_quantile_grid_is_diagonal(self):
        fit = self._fit(10.0, 3.0, -0.2, 50, 1000)
        positions = np.arange(1, 51) / 51.0
        excesses = gpd_quantile(fit.params, positions)
        pts = qq_points(fit, excesses)
        np.testing.assert_allclose(pts[:, 0], pts[:, 1], atol=1e-9)

    def test_monotone_in_both_coordinates(self):
        rng = np.random.default_rng(2)
        exc = stats.genpareto.rvs(c=-0.3, scale=2.0, size=80, random_state=rng)
        fit = self._fit(5.0, 2.0, -0.3, 80, 1600)
        pts = qq_points(fit, exc)
        assert np.all(np.diff(pts[:, 0]) >= 0)
        assert np.all(np.diff(pts[:, 1]) >= 0)

    def test_within_kolmogorov_band(self):
        rng = np.random.default_rng(11)
        k = 176
        exc = stats.genpareto.rvs(c=-0.25, scale=2.0, size=k, random_state=rng)
        data = np.concatenate([np.full(3352, 2.0), 5.0 + exc])
        fit = fit_threshold_excesses(data, 5.0)
        pts = qq_points(fit, exc)
        pp_model = gpd_cdf(fit.params, pts[:, 0] - 5.0)
        pp_emp = gpd_cdf(fit.params, pts[:, 1] - 5.0)
        assert np.abs(pp_model - pp_emp).max() < 1.628 / np.sqrt(k)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            qq_points(self._fit(1.0, 1.0, 0.0, 0, 10), [])


class TestFitThresholdExcesses:
    def test_bookkeeping(self):
        rng = np.random.default_rng(9)
        data = np.concatenate(
            [rng.uniform(0.0, 10.0, 900),
             10.0 + stats.genpareto.rvs(c=-0.2, scale=2.0, size=100, random_state=rng)]
        )
        fit = fit_threshold_excesses(data, 10.0)
        assert fit.n_total == 1000
        assert fit.n_exceedances == 100
        assert fit.exceedance_prob == pytest.approx(0.1)

    def test_strict_exceedance(self):
        # ties at the threshold stay in the body
        data = np.concatenate([np.full(50, 5.0), 5.0 + np.linspace(0.01, 2.0, 60)])
        fit = fit_threshold_excesses(data, 5.0)
        assert fit.n_exceedances == 60

    def test_nan_value_rejected(self):
        # a NaN used to drop out of the excesses but count in n_total
        data = np.r_[np.linspace(0.0, 10.0, 400), np.nan]
        with pytest.raises(ValueError, match="strictly positive"):
            fit_threshold_excesses(data, 5.0)
        with pytest.raises(ValueError, match="strictly positive"):
            threshold_scan(data, [5.0])

    def test_nan_value_rejected_where_too_few_exceed(self):
        # at 9.9 only four values exceed, too few to fit, but the NaN among
        # them is a fault in the data, not a threshold for the scan to skip
        data = np.r_[np.linspace(0.0, 10.0, 400), np.nan]
        with pytest.raises(ValueError, match="strictly positive"):
            threshold_scan(data, [9.9])
        with pytest.raises(ValueError, match="strictly positive"):
            threshold_scan(data, [5.0, 9.9])


# (sigma, xi, log-likelihood) of the demo dataset's fits, recorded from the
# three-start Nelder-Mead search the profile likelihood replaced
NELDER_MEAD_DEMO_FITS = {
    (0.90, '2007-08'): (2871.297619176224, -0.12573128436851433, -3119.386183517561),
    (0.90, '2008-09'): (2711.127425736039, -0.3111227998950401, -3033.6809487102346),
    (0.90, '2009-10'): (2549.454341472945, -0.17764722679204709, -3059.093560056335),
    (0.90, '2010-11'): (4049.400944171843, -0.3084265017977134, -3176.2579015159226),
    (0.90, '2011-12'): (3572.7981804430915, -0.4066238308497101, -3097.391630330483),
    (0.90, '2012-13'): (2675.454230745672, -0.34122749236229505, -3018.378381216586),
    (0.90, '2013-14'): (3415.102519436303, -0.32806676540789453, -3109.187303772409),
    (0.90, 'pooled'): (2860.324478842635, -0.15307793840391926, -21749.86262482018),
    (0.95, '2007-08'): (2294.9805571077527, -0.029846004514286133, -1541.4281506043653),
    (0.95, '2008-09'): (1784.332135995204, -0.18487154829598135, -1469.4412395569148),
    (0.95, '2009-10'): (2144.029355359582, -0.14265153502083686, -1509.4189493874524),
    (0.95, '2010-11'): (3137.962454700852, -0.2877741144863253, -1551.1492093282568),
    (0.95, '2011-12'): (2779.225299698459, -0.42488045147891496, -1505.3933254556448),
    (0.95, '2012-13'): (1886.4786210986163, -0.2825255832909728, -1462.0096661187179),
    (0.95, '2013-14'): (2536.3262285185756, -0.30156870271441083, -1511.031875378884),
    (0.95, 'pooled'): (2398.9693043225548, -0.11462386126894067, -10705.190703316253),
    (0.98, '2007-08'): (3154.765691026643, -0.3210971792899142, -620.2256346518851),
    (0.98, '2008-09'): (1802.973254181934, -0.32461348675387414, -580.2531022271195),
    (0.98, '2009-10'): (1786.4996261991887, -0.1171025536230205, -594.3346745912456),
    (0.98, '2010-11'): (2847.9527649171514, -0.40044947437455897, -607.3273404833975),
    (0.98, '2011-12'): (2219.6244980969523, -0.5058019496226327, -582.1496879353682),
    (0.98, '2012-13'): (1315.0459282688594, -0.2144615036838216, -565.6687430792473),
    (0.98, '2013-14'): (1350.9506162149098, -0.1489766592846381, -572.2306861170039),
    (0.98, 'pooled'): (2023.1374127023603, -0.06889129226384849, -4220.495638453105),
}


class TestDemoFitsMatchRecordedOptimum:
    @pytest.fixture(scope="class")
    def samples(self, demo_system):
        traces = demo_system["traces"]
        out = {t.season_label: t.net_demand_mw for t in traces}
        out["pooled"] = np.concatenate([t.net_demand_mw for t in traces])
        return out

    @pytest.mark.parametrize("q", [0.90, 0.95, 0.98])
    def test_per_season_and_pooled(self, samples, q):
        for label, values in samples.items():
            fit = fit_threshold_excesses(values, select_threshold(values, q))
            sigma, xi, log_lik = NELDER_MEAD_DEMO_FITS[(q, label)]
            assert fit.params.sigma == pytest.approx(sigma, rel=1e-6), label
            assert fit.params.xi == pytest.approx(xi, abs=1e-6), label
            assert fit.log_likelihood == pytest.approx(log_lik, rel=1e-6), label


class TestNewtonMatchesBrentOnDemoStudy:
    """The profile search finds fminbound's optimum on the fits a study makes."""

    @pytest.fixture(scope="class")
    def demo_fits(self, demo_dataset_dir, tmp_path_factory):
        """(excesses, weights) of every fit_gpd call of a 100-replication demo study."""
        inputs = []
        fit = evt.fit_gpd

        def spy(excesses, weights=None):
            inputs.append((np.array(excesses), None if weights is None else np.array(weights)))
            return fit(excesses, weights)

        files = [f"--{k}={demo_dataset_dir[k]}" for k in ("traces", "fleet", "quantiles")]
        out = tmp_path_factory.mktemp("newton_study")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evt, "fit_gpd", spy)
            code = main(["study", *files, "--reps", "100", "--seed", "1", "--out", str(out), "--quiet"])
        assert code == 0
        return inputs

    def test_optimum_matches_brent_search(self, demo_fits, monkeypatch):
        fits, bisected = _bisecting_fits(monkeypatch, lambda sample: fit_gpd(*sample), demo_fits)
        monkeypatch.setattr(evt, "_profile_minimum", _brent_search([]))
        searched = [fit_gpd(y, w) for y, w in demo_fits]
        assert len(demo_fits) == 440  # 300 in the evt columns, 140 in the threshold scans
        assert bisected <= 0.05 * len(demo_fits)
        for ours, brent in zip(fits, searched):
            assert ours.log_likelihood >= brent.log_likelihood - 1e-9 * abs(brent.log_likelihood)
            assert ours.params.sigma == pytest.approx(brent.params.sigma, rel=1e-6)
            assert ours.params.xi == pytest.approx(brent.params.xi, abs=1e-6)
        # the search that finds the xi = -1 edge itself took 2,703 evaluations; 5% more at most
        assert sum(f.iterations for f in fits) <= 2838
