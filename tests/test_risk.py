import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adequacy.errors import NumericalError
from adequacy.evt import fit_threshold_excesses, select_threshold
from adequacy.genmodel import GeneratingUnit, convolve_fleet
from adequacy.pmf import DiscretePmf
from adequacy.risk import SeasonSample, ShortfallFunctionals, long_run_mean
from adequacy.uncertainty import resample_counts
from conftest import sample_pmf
from helpers import make_trace, point_mass
from oracles import (balance_distribution, build_evt_model, build_hindcast_model, build_model,
                     compute_metrics, discretize, from_lole_eeu, pmf_mean, shortfall_metrics)


def two_atom(lo_val, lo_p, hi_val):
    probs = np.zeros(hi_val - lo_val + 1)
    probs[0] = lo_p
    probs[-1] = 1.0 - lo_p
    return DiscretePmf(lo_val, probs)


class TestComputeMetrics:
    def test_two_point_balance(self):
        z = two_atom(-50, 0.1, 50)
        m = compute_metrics(z, 3528)
        assert m.lole_hours == pytest.approx(352.8)
        assert m.eeu_mwh == pytest.approx(17_640.0)

    def test_small_enumeration(self):
        z = two_atom(-2, 0.1, 5)
        m = compute_metrics(z, 10)
        assert m.lole_hours == pytest.approx(1.0)
        assert m.eeu_mwh == pytest.approx(2.0)

    def test_no_shortfall(self):
        m = compute_metrics(two_atom(0, 0.5, 10), 100)
        assert m.lole_hours == 0.0
        assert m.eeu_mwh == 0.0

    def test_zero_at_balance_counts_adequate(self):
        # mass exactly at 0 is not a shortfall
        m = compute_metrics(two_atom(0, 1.0 - 1e-12, 1), 100)
        assert m.p_shortfall == 0.0

    def test_zero_hours_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics(point_mass(5.0), 0)


class TestBalanceDistribution:
    def test_point_masses(self):
        z = balance_distribution(point_mass(100.0), point_mass(60.0))
        assert z.values_mw.tolist() == [40]

    def test_two_state_fleet_vs_constant_net_demand(self):
        fleet = DiscretePmf(0, np.concatenate([[0.1], np.zeros(99), [0.9]]))
        z = balance_distribution(fleet, point_mass(50.0))
        assert z.survivor(0.0) == pytest.approx(0.9)
        assert z.probabilities[z.values_mw.tolist().index(-50)] == pytest.approx(0.1)
        assert z.probabilities[z.values_mw.tolist().index(50)] == pytest.approx(0.9)

    def test_mean_linearity(self):
        rng = np.random.default_rng(2)
        fleet = convolve_fleet(
            [GeneratingUnit(f"u{i}", int(rng.integers(50, 500)), float(rng.uniform(0.8, 1.0)))
             for i in range(20)]
        )
        net = discretize(build_hindcast_model(rng.uniform(1000.0, 4000.0, 500)))
        z = balance_distribution(fleet, net)
        assert pmf_mean(z) == pytest.approx(pmf_mean(fleet) - pmf_mean(net), rel=1e-6)

    def test_mass_conserved(self):
        rng = np.random.default_rng(3)
        fleet = convolve_fleet(
            [GeneratingUnit(f"u{i}", int(rng.integers(100, 900)), 0.9) for i in range(50)]
        )
        net = discretize(build_hindcast_model(rng.normal(30_000.0, 3_000.0, 3528)))
        assert balance_distribution(fleet, net).probabilities.sum() == pytest.approx(1.0, abs=1e-9)


class TestShortfallFunctionals:
    def test_matches_full_convolution_path(self, demo_system):
        fleet = demo_system["fleet"]
        fast = ShortfallFunctionals(fleet)
        trace = demo_system["traces"][0]
        for kind in ("evt", "hindcast", "ind"):
            pmf = discretize(build_model(trace, kind, 0.95))
            full = compute_metrics(balance_distribution(fleet, pmf), trace.n_hours)
            quick = shortfall_metrics(fast, pmf, trace.n_hours)
            assert quick.lole_hours == pytest.approx(full.lole_hours, rel=1e-9)
            assert quick.eeu_mwh == pytest.approx(full.eeu_mwh, rel=1e-9)


@st.composite
def fleet_and_net_demand(draw):
    """A small fleet pmf and a net-demand pmf placed anywhere around it."""
    weights = st.integers(0, 1000)
    fleet_w = np.array(draw(st.lists(weights, min_size=1, max_size=30)), dtype=float)
    fleet_w[draw(st.integers(0, fleet_w.size - 1))] += 1.0
    fleet = DiscretePmf(draw(st.integers(-50, 50)), fleet_w / fleet_w.sum())
    first, last = fleet.origin_mw, fleet.last_mw
    place = draw(st.sampled_from(["below", "above", "straddle", "anywhere", "atom"]))
    if place == "atom":
        at = draw(st.sampled_from([first - 1, first, first + 1, last - 1, last, last + 1]))
        return fleet, point_mass(at)
    net_w = np.array(draw(st.lists(weights, min_size=1, max_size=40)), dtype=float)
    net_w[draw(st.integers(0, net_w.size - 1))] += 1.0
    if place == "below":  # every atom at or below the fleet's origin
        origin = first - draw(st.integers(0, 5)) - (net_w.size - 1)
    elif place == "above":  # every atom above the fleet's maximum
        origin = last + 1 + draw(st.integers(0, 5))
    elif place == "straddle":  # mass below the fleet's origin and above its maximum
        below, above = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        span = np.zeros(below + fleet_w.size + above)
        span[: net_w.size] = net_w[: span.size]
        span[[0, -1]] += 1.0
        net_w, origin = span, first - below
    else:
        origin = draw(st.integers(first - 60, last + 20))
    return fleet, DiscretePmf(origin, net_w / net_w.sum())


class TestShortfallFunctionalsProperty:
    @settings(max_examples=300, deadline=None)
    @given(case=fleet_and_net_demand(), n_hours=st.integers(1, 5000))
    def test_equals_balance_convolution(self, case, n_hours):
        fleet, net = case
        fast = shortfall_metrics(ShortfallFunctionals(fleet), net, n_hours)
        exact = compute_metrics(balance_distribution(fleet, net), n_hours)
        assert fast.p_shortfall == pytest.approx(exact.p_shortfall, rel=1e-9, abs=1e-12)
        assert fast.lole_hours == pytest.approx(exact.lole_hours, rel=1e-9, abs=1e-12)
        assert fast.eeu_mwh == pytest.approx(exact.eeu_mwh, rel=1e-9, abs=1e-12)

    def test_atoms_above_the_fleet_use_its_mean(self):
        # X is 0 or 10 MW with equal odds; V = 12 MW: E[(V - X)+] = 12 - E[X] = 7
        fleet = two_atom(0, 0.5, 10)
        m = shortfall_metrics(ShortfallFunctionals(fleet), point_mass(12.0), 1)
        assert m.p_shortfall == 1.0
        assert m.eeu_mwh == pytest.approx(7.0, rel=1e-15)

    def test_at_reads_every_value_as_expect_does(self):
        # below, inside and above the fleet's support 3..9 MW
        functionals = ShortfallFunctionals(two_atom(3, 0.3, 9))
        v = np.arange(-2.0, 15.0)
        cdf, gap = functionals.at(v)
        assert list(zip(cdf.tolist(), gap.tolist())) == [functionals.expect(int(x), np.ones(1)) for x in v]

    def test_at_a_nan_value_is_value_error(self):
        with pytest.raises(ValueError, match="a NaN value has no grid bin"):
            ShortfallFunctionals(two_atom(0, 0.5, 10)).at(np.array([3.0, np.nan]))

    def test_at_infinities_read_the_ends(self):
        cdf, gap = ShortfallFunctionals(two_atom(0, 0.5, 10)).at(np.array([np.inf, -np.inf]))
        assert (cdf.tolist(), gap.tolist()) == ([1.0, 0.0], [np.inf, 0.0])


def one_season_metrics(trace, fleet, kind):
    """One season's metrics by the definition: model, discretize, functionals."""
    return shortfall_metrics(ShortfallFunctionals(fleet), discretize(build_model(trace, kind)), trace.n_hours)


class TestSeasonRisk:
    def test_oversized_perfect_fleet_has_zero_risk(self):
        rng = np.random.default_rng(4)
        demand = rng.uniform(20_000.0, 40_000.0, 336)
        trace = make_trace("2007-08", demand, np.zeros(336))
        fleet = convolve_fleet([GeneratingUnit("big", 50_000, 1.0)])
        m = one_season_metrics(trace, fleet, "hindcast")
        assert m.lole_hours == 0.0 and m.eeu_mwh == 0.0

    def test_eeu_zero_iff_no_shortfall(self, demo_system):
        fleet = demo_system["fleet"]
        for trace in demo_system["traces"][:2]:
            m = one_season_metrics(trace, fleet, "evt")
            assert (m.eeu_mwh == 0.0) == (m.p_shortfall == 0.0)

    def test_monte_carlo_oracle_hindcast(self, demo_system):
        fleet = demo_system["fleet"]
        trace = demo_system["traces"][0]
        pmf = discretize(build_model(trace, "hindcast"))
        exact = compute_metrics(balance_distribution(fleet, pmf), trace.n_hours)
        rng = np.random.default_rng(77)
        n_draws = 400_000
        z = sample_pmf(fleet, n_draws, rng) - sample_pmf(pmf, n_draws, rng)
        p_hat = float(np.mean(z < 0))
        se = np.sqrt(p_hat * (1.0 - p_hat) / n_draws)
        assert abs(exact.p_shortfall - p_hat) < 3.0 * se

    def test_rejects_unknown_kind(self, demo_system):
        with pytest.raises(ValueError):
            one_season_metrics(demo_system["traces"][0], demo_system["fleet"], "oracle")


class TestMonotonicity:
    def test_extra_unit_never_increases_risk(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            base_units = [
                GeneratingUnit(f"u{i}", int(rng.integers(20, 200)), float(rng.uniform(0.7, 1.0)))
                for i in range(rng.integers(3, 8))
            ]
            net = discretize(
                build_hindcast_model(rng.uniform(0.0, 1.2 * sum(u.capacity_mw for u in base_units), 300))
            )
            before = compute_metrics(balance_distribution(convolve_fleet(base_units), net), 100)
            extra = GeneratingUnit("extra", int(rng.integers(10, 150)), float(rng.uniform(0.5, 1.0)))
            after = compute_metrics(
                balance_distribution(convolve_fleet(base_units + [extra]), net), 100
            )
            assert after.lole_hours <= before.lole_hours + 1e-12
            assert after.eeu_mwh <= before.eeu_mwh + 1e-9


class TestLongRunMean:
    def test_published_lole_values(self):
        values = [2.82, 2.22, 4.02, 16.77, 1.92, 7.69, 0.15]
        metrics = [from_lole_eeu(v, 0.0, 3528) for v in values]
        assert long_run_mean(metrics).lole_hours == pytest.approx(5.08, abs=0.005)

    def test_published_eeu_values(self):
        values_gwh = [2.81, 2.12, 4.15, 24.01, 1.95, 9.16, 0.10]
        metrics = [from_lole_eeu(0.0, v * 1000.0, 3528) for v in values_gwh]
        assert long_run_mean(metrics).eeu_gwh == pytest.approx(6.33, abs=0.005)

    def test_single_season_identity(self):
        m = from_lole_eeu(3.5, 4200.0, 3528)
        out = long_run_mean([m])
        assert out.lole_hours == m.lole_hours
        assert out.eeu_mwh == m.eeu_mwh

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            long_run_mean([])


@pytest.fixture(scope="module")
def season_metrics(demo_system):
    fleet = demo_system["fleet"]
    fast = ShortfallFunctionals(fleet)
    out = {}
    for q in (0.90, 0.95, 0.98):
        out[f"evt_{q}"] = [
            shortfall_metrics(fast, discretize(build_evt_model(t.net_demand_mw, q)), t.n_hours)
            for t in demo_system["traces"]
        ]
    out["hindcast"] = [
        shortfall_metrics(fast, discretize(build_hindcast_model(t.net_demand_mw)), t.n_hours)
        for t in demo_system["traces"]
    ]
    return out


class TestSystemLevelInvariants:
    """Cross-model checks on the seeded GB-scale synthetic system."""

    def test_threshold_insensitivity(self, season_metrics):
        means = [
            np.mean([m.lole_hours for m in season_metrics[f"evt_{q}"]])
            for q in (0.90, 0.95, 0.98)
        ]
        assert max(means) / min(means) <= 1.15

    def test_evt_tracks_hindcast(self, season_metrics):
        evt_mean = np.mean([m.lole_hours for m in season_metrics["evt_0.95"]])
        hind_mean = np.mean([m.lole_hours for m in season_metrics["hindcast"]])
        assert abs(evt_mean - hind_mean) / hind_mean < 0.25

    def test_eeu_over_lole_is_conditional_depth(self, demo_system):
        fleet = demo_system["fleet"]
        trace = demo_system["traces"][0]
        pmf = discretize(build_model(trace, "evt"))
        z = balance_distribution(fleet, pmf)
        m = compute_metrics(z, trace.n_hours)
        neg = z.values_mw < 0
        depth = np.dot(z.probabilities[neg], -z.values_mw[neg]) / z.probabilities[neg].sum()
        assert m.eeu_mwh / m.lole_hours == pytest.approx(depth, rel=1e-6)


def concatenated_evt_metrics(fleet, seasons, q, n_hours):
    """The definition: pool the drawn seasons, fit, discretize, read the functionals."""
    model = build_model(seasons, "evt", q)
    return shortfall_metrics(ShortfallFunctionals(fleet), discretize(model), n_hours), model.fit


class TestEvtMultiset:
    """risk.SeasonSample's evt against concatenate -> build_evt_model -> discretize -> metrics."""

    @settings(max_examples=25, deadline=None)
    @given(
        drawn=st.lists(st.integers(0, 6), min_size=1, max_size=9),
        q=st.sampled_from([0.90, 0.95, 0.98]),
    )
    def test_matches_concatenated_pipeline(self, demo_system, drawn, q):
        traces, fleet = demo_system["traces"], demo_system["fleet"]
        n_hours = traces[0].n_hours
        got, fit = SeasonSample(ShortfallFunctionals(fleet), traces, n_hours).metrics(
            np.bincount(drawn, minlength=len(traces)), "evt", q)
        want, want_fit = concatenated_evt_metrics(fleet, [traces[i] for i in drawn], q, n_hours)
        # the fits differ by float reordering only; the profile optimum is flat
        # to about 1e-7, and the mass above the fleet is read in closed form
        assert got.lole_hours == pytest.approx(want.lole_hours, rel=1e-6)
        assert got.eeu_mwh == pytest.approx(want.eeu_mwh, rel=1e-6)
        assert fit.threshold_u == want_fit.threshold_u
        assert (fit.n_exceedances, fit.n_total) == (want_fit.n_exceedances, want_fit.n_total)

    @staticmethod
    def threshold(sample, counts, q):
        """The threshold of a draw, read even where it leaves too few exceedances to fit."""
        sizes = sample._sorted[-1]
        c = np.asarray(counts, dtype=float)
        return sample._threshold(c, int(c @ sizes), q)

    @settings(max_examples=40, deadline=None)
    @given(
        drawn=st.lists(st.integers(0, 6), min_size=1, max_size=12),
        q=st.floats(0.5, 0.999),
    )
    def test_threshold_is_numpys_quantile(self, demo_system, drawn, q):
        traces = demo_system["traces"]
        sample = SeasonSample(ShortfallFunctionals(demo_system["fleet"]), traces, 3528)
        counts = np.bincount(drawn, minlength=len(traces))
        pooled = np.concatenate([traces[i].net_demand_mw for i in drawn])
        assert self.threshold(sample, counts, q) == np.quantile(pooled, q)
        if q <= 0.99:  # above, one season leaves fewer than 30 exceedances to fit
            assert sample.metrics(counts, "evt", q)[1].threshold_u == np.quantile(pooled, q)

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.95, 0.98, 0.999])
    @pytest.mark.parametrize("drawn", [1, 3])
    def test_threshold_when_the_largest_values_are_not_drawn(self, demo_system, q, drawn):
        # every value of the first season lies above every value of the second,
        # and only the second is drawn: the slice of the largest values holds no
        # weight until it grows past the whole first season
        cold = demo_system["traces"][0].net_demand_mw
        hot = cold + (cold.max() - cold.min() + 1.0)
        seasons = [make_trace("2008-09", hot, np.zeros(hot.size)),
                   make_trace("2007-08", cold, np.zeros(cold.size))]
        sample = SeasonSample(ShortfallFunctionals(demo_system["fleet"]), seasons, 3528)
        want = np.quantile(np.tile(cold, drawn), q)
        assert self.threshold(sample, [0, drawn], q) == want
        if q <= 0.98:
            assert sample.metrics([0, drawn], "evt", q)[1].threshold_u == want

    def test_fit_is_fit_threshold_excesses(self, demo_system):
        # the fit, the scan and dnw fit each season as the study does, field for field
        traces = demo_system["traces"]
        sample = SeasonSample(ShortfallFunctionals(demo_system["fleet"]), traces, 3528)
        draws = [*np.identity(len(traces)), np.ones(len(traces))]
        for counts, values in zip(draws, [*(t.net_demand_mw for t in traces),
                                          np.concatenate([t.net_demand_mw for t in traces])]):
            for q in (0.90, 0.95, 0.98):
                want = fit_threshold_excesses(values, select_threshold(values, q))
                got = sample.metrics(counts, "evt", q)[1]
                assert got == want
                # == does not read the standard errors, which are computed on first read
                assert (got.se_sigma, got.se_xi) == (want.se_sigma, want.se_xi)

    def test_threshold_above_the_fleet(self, demo_system):
        # every value is past the fleet's top: P(Z < 0) = 1 and the whole tail
        # is read in closed form
        trace = demo_system["traces"][0]
        fleet = convolve_fleet([GeneratingUnit("a", 300, 0.9), GeneratingUnit("b", 200, 0.8)])
        got, _ = SeasonSample(ShortfallFunctionals(fleet), [trace], trace.n_hours).metrics([1], "evt", 0.95)
        want, _ = concatenated_evt_metrics(fleet, [trace], 0.95, trace.n_hours)
        assert got.p_shortfall == 1.0
        assert want.p_shortfall == pytest.approx(1.0, rel=1e-12)
        assert got.eeu_mwh == pytest.approx(want.eeu_mwh, rel=1e-9)

    def test_infinite_mean_tail_is_numerical_error(self, demo_system):
        rng = np.random.default_rng(3)
        demand = 40_000.0 + 100.0 * rng.pareto(0.7, 3528)  # shape xi = 1/0.7
        trace = make_trace("2007-08", demand, np.zeros(3528))
        sample = SeasonSample(ShortfallFunctionals(demo_system["fleet"]), [trace], 3528)
        with pytest.raises(NumericalError, match="infinite mean"):
            sample.metrics([1], "evt", 0.95)

    def test_negative_metrics_are_numerical_errors(self):
        with pytest.raises(NumericalError, match="non-negative"):
            from_lole_eeu(1.0, -1e-9, 3528)


@pytest.fixture(scope="module")
def evt_samples(demo_system):
    """The demo sample and the hot/cold pair of ``test_threshold_when_the_largest_values_are_not_drawn``,
    each with its seasons as given and reversed."""
    functionals = ShortfallFunctionals(demo_system["fleet"])
    cold = demo_system["traces"][0].net_demand_mw
    hot = cold + (cold.max() - cold.min() + 1.0)
    cases = {"demo": demo_system["traces"],
             "hot_cold": [make_trace("2008-09", hot, np.zeros(hot.size)),
                          make_trace("2007-08", cold, np.zeros(cold.size))]}
    return {name: (SeasonSample(functionals, seasons, 3528), SeasonSample(functionals, seasons[::-1], 3528))
            for name, seasons in cases.items()}


class TestEvtSums:
    """SeasonSample's evt reads only the exceedances and O(S) season sums."""

    @staticmethod
    def outputs(sample, c, q):
        """_evt's LoLE and EEU terms and fit, or the message it failed with."""
        try:
            return sample._evt(c, q)
        except NumericalError as exc:
            return str(exc)

    @settings(max_examples=60, deadline=None)
    @given(case=st.sampled_from(["demo", "hot_cold"]), q=st.floats(0.5, 0.999), data=st.data())
    def test_threshold_body_sums_and_season_order(self, evt_samples, case, q, data):
        sample, reversed_sample = evt_samples[case]
        seasons = sample.seasons
        c = np.array(data.draw(st.lists(st.integers(0, 4), min_size=len(seasons), max_size=len(seasons))
                               .filter(any), label="counts"), dtype=float)
        values, owner, _, sizes = sample._sorted
        n = int(c @ sizes)
        u = sample._threshold(c, n, q)
        drawn = np.concatenate([np.tile(t.net_demand_mw, int(k)) for t, k in zip(seasons, c)])
        assert u == np.quantile(drawn, q)

        cdf, gap = sample.functionals.at(np.floor(values))
        for cut in (int(np.searchsorted(values, u, side="right")), data.draw(st.integers(0, values.size))):
            w = c[owner[:cut]]
            got = sample._body_sums(c, cut)
            assert got[0] == pytest.approx(w @ cdf[:cut], rel=1e-13, abs=0.0)
            assert got[1] == pytest.approx(w @ gap[:cut], rel=1e-13, abs=0.0)

        got, want = self.outputs(sample, c, q), self.outputs(reversed_sample, c[::-1], q)
        assert got == want  # bit for bit: the order of the seasons changes no sum
        if not isinstance(got, str):
            np.testing.assert_array_equal(got[2].excesses, want[2].excesses)
            np.testing.assert_array_equal(got[2].weights, want[2].weights)

    def test_a_replication_does_not_depend_on_its_batch(self, evt_samples):
        # each row's evt metrics, bit for bit, whether it is replicated alone,
        # among other rows or in reversed order: the rows can be split into chunks
        sample = evt_samples["demo"][0]
        rows = np.unique(resample_counts(len(sample.seasons), 40, 3), axis=0)
        want = [sample.metrics(row, "evt", 0.95)[0] for row in rows]
        batches = [(rows, range(len(rows))), (rows[::-1], range(len(rows))[::-1])]
        batches += [(row[None], [i]) for i, row in enumerate(rows)]
        for batch, at in batches:
            values, failed = sample.replicate(batch, "evt", 0.95)
            assert not failed
            assert values["lole_hours"].tolist() == [want[i].lole_hours for i in at]
            assert values["eeu_mwh"].tolist() == [want[i].eeu_mwh for i in at]

    def test_sorted_sample_is_linear_in_the_values(self, demo_system):
        # 28 seasons of 3,528 values: the values, their season ids, each season's
        # prefix sums and sizes; a matrix of ranks by season would add S N entries
        rng = np.random.default_rng(5)
        size, n_seasons = 3528, 28
        seasons = [make_trace(f"{1990 + s}-{(91 + s) % 100:02d}", rng.uniform(30_000.0, 60_000.0, size),
                              np.zeros(size)) for s in range(n_seasons)]
        sample = SeasonSample(ShortfallFunctionals(demo_system["fleet"]), seasons, size)
        n = size * n_seasons
        assert sum(a.nbytes for a in sample._sorted) <= 8 * (5 * n + 2 * n_seasons * (size + 1) + n_seasons)


class TestSeasonCounts:
    """Every count row is one finite non-negative integer per season, drawing at least one."""

    @pytest.mark.parametrize("kind", ["evt", "hindcast", "ind"])
    @pytest.mark.parametrize("counts, match", [
        ([-1, 2, 0, 0, 0, 0, 0], "finite non-negative integers"),
        ([0.5, 0.5, 0, 0, 0, 0, 0], "finite non-negative integers"),
        ([np.nan, 1, 0, 0, 0, 0, 0], "finite non-negative integers"),
        ([np.inf, 1, 0, 0, 0, 0, 0], "finite non-negative integers"),
        ([0, 0, 0, 0, 0, 0, 0], "draws no season"),
        ([1, 1, 1], "one count per season"),
    ])
    def test_metrics_and_replicate_refuse_what_is_not_a_count_row(self, evt_samples, kind, counts, match):
        sample = evt_samples["demo"][0]
        assert len(sample.seasons) == 7
        with pytest.raises(ValueError, match=match):
            sample.metrics(counts, kind, 0.95)
        with pytest.raises(ValueError, match=match):  # one bad row fails the whole matrix
            sample.replicate([np.ones(len(counts)), counts], kind, 0.95)


class TestIndMultiset:
    """risk.SeasonSample's ind against every (demand hour, wind hour) pair of the draw."""

    UNITS = [GeneratingUnit("a", 5, 0.9), GeneratingUnit("b", 8, 0.8), GeneratingUnit("c", 13, 0.85)]

    @staticmethod
    def enumerated(units, demand, wind, n_hours):
        """LoLE and EEU over every pair of hours and every up/down state of the units."""
        states = np.array(list(itertools.product((0, 1), repeat=len(units))))
        capacity = states @ np.array([u.capacity_mw for u in units])
        availability = np.array([u.availability for u in units])
        prob = np.prod(np.where(states == 1, availability, 1.0 - availability), axis=1)
        # the model bins demand and wind at their floors
        short = np.floor(demand)[:, None, None] - np.floor(wind)[None, :, None] - capacity
        pairs = demand.size * wind.size
        return (n_hours * ((short > 0) * prob).sum() / pairs,
                n_hours * (np.maximum(short, 0) * prob).sum() / pairs)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        draws=st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=6), min_size=1, max_size=4),
    )
    def test_matches_enumerated_pairs(self, seed, draws):
        # three seasons of 12, 9 and 10 observed hours, so pooling weights them
        # unequally; draws repeat seasons or hold one, and run in turn on one
        # sample, so later draws read columns that earlier ones filled
        rng = np.random.default_rng(seed)
        seasons = [make_trace(label, rng.uniform(10.0, 35.0, n), rng.uniform(0.0, 12.0, n))
                   for label, n in (("2007-08", 12), ("2008-09", 9), ("2009-10", 10))]
        sample = SeasonSample(ShortfallFunctionals(convolve_fleet(self.UNITS)), seasons, 12)
        for drawn in draws:
            got, fit = sample.metrics(np.bincount(drawn, minlength=3), "ind")
            demand, wind = (np.concatenate([getattr(seasons[i], name) for i in drawn])
                            for name in ("demand_mw", "wind_mw"))
            lole, eeu = self.enumerated(self.UNITS, demand, wind, 12)
            assert fit is None
            assert got.lole_hours == pytest.approx(lole, rel=1e-12)
            assert got.eeu_mwh == pytest.approx(eeu, rel=1e-12)
