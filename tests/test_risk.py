import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adequacy.dnw import build_evt_model, build_hindcast_model, discretize
from adequacy.genmodel import GeneratingUnit, convolve_fleet
from adequacy.pmf import DiscretePmf, point_mass
from adequacy.risk import (
    RiskMetrics,
    ShortfallFunctionals,
    balance_distribution,
    build_model,
    compute_metrics,
    long_run_mean,
    season_risk,
)
from conftest import sample_pmf
from helpers import make_trace


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

    def test_lole_p_consistency_enforced(self):
        with pytest.raises(ValueError):
            RiskMetrics(lole_hours=10.0, eeu_mwh=1.0, n_hours=100, p_shortfall=0.5)


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
        assert z.mean() == pytest.approx(fleet.mean() - net.mean(), rel=1e-6)

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
        for kind in ("evt", "hindcast", "independence"):
            pmf = discretize(build_model(trace, kind, 0.95))
            full = compute_metrics(balance_distribution(fleet, pmf), trace.n_hours)
            quick = fast.metrics(pmf, trace.n_hours)
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
        fast = ShortfallFunctionals(fleet).metrics(net, n_hours)
        exact = compute_metrics(balance_distribution(fleet, net), n_hours)
        assert fast.p_shortfall == pytest.approx(exact.p_shortfall, rel=1e-9, abs=1e-12)
        assert fast.lole_hours == pytest.approx(exact.lole_hours, rel=1e-9, abs=1e-12)
        assert fast.eeu_mwh == pytest.approx(exact.eeu_mwh, rel=1e-9, abs=1e-12)

    def test_atoms_above_the_fleet_use_its_mean(self):
        # X is 0 or 10 MW with equal odds; V = 12 MW: E[(V - X)+] = 12 - E[X] = 7
        fleet = two_atom(0, 0.5, 10)
        m = ShortfallFunctionals(fleet).metrics(point_mass(12.0), 1)
        assert m.p_shortfall == 1.0
        assert m.eeu_mwh == pytest.approx(7.0, rel=1e-15)


class TestSeasonRisk:
    def test_oversized_perfect_fleet_has_zero_risk(self):
        rng = np.random.default_rng(4)
        demand = rng.uniform(20_000.0, 40_000.0, 336)
        trace = make_trace("2007-08", demand, np.zeros(336))
        fleet = convolve_fleet([GeneratingUnit("big", 50_000, 1.0)])
        m = season_risk(trace, fleet, "hindcast")
        assert m.lole_hours == 0.0 and m.eeu_mwh == 0.0

    def test_eeu_zero_iff_no_shortfall(self, demo_system):
        fleet = demo_system["fleet"]
        for trace in demo_system["traces"][:2]:
            m = season_risk(trace, fleet, "evt")
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
            season_risk(demo_system["traces"][0], demo_system["fleet"], "oracle")


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
        metrics = [RiskMetrics.from_lole_eeu(v, 0.0, 3528) for v in values]
        assert long_run_mean(metrics).lole_hours == pytest.approx(5.08, abs=0.005)

    def test_published_eeu_values(self):
        values_gwh = [2.81, 2.12, 4.15, 24.01, 1.95, 9.16, 0.10]
        metrics = [RiskMetrics.from_lole_eeu(0.0, v * 1000.0, 3528) for v in values_gwh]
        assert long_run_mean(metrics).eeu_gwh == pytest.approx(6.33, abs=0.005)

    def test_single_season_identity(self):
        m = RiskMetrics.from_lole_eeu(3.5, 4200.0, 3528)
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
            fast.metrics(discretize(build_evt_model(t.net_demand_mw, q)), t.n_hours)
            for t in demo_system["traces"]
        ]
    out["hindcast"] = [
        fast.metrics(discretize(build_hindcast_model(t.net_demand_mw)), t.n_hours)
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
