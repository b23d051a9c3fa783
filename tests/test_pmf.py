import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import fft, signal

from adequacy import pmf as pmf_module
from adequacy.errors import NumericalError
from adequacy.pmf import DiscretePmf, convolve, convolve_each, pmf_from_samples, reflect
from helpers import point_mass
from oracles import fft_convolve, pmf_mean, rebin


class TestDiscretePmf:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiscretePmf(0, np.array([0.5, 0.4]))  # does not sum to 1
        with pytest.raises(ValueError):
            DiscretePmf(0, np.array([1.5, -0.5]))
        with pytest.raises(ValueError):
            DiscretePmf(0, np.array([]))

    @pytest.mark.parametrize("probs", [[np.nan, 0.5], [0.5, np.nan, 0.5], [np.inf, 1.0]])
    def test_non_finite_probabilities_rejected(self, probs):
        # nan < 0 and |nan - 1| > tol are both False
        with pytest.raises(ValueError, match="^probabilities must be finite$"):
            DiscretePmf(0, np.array(probs))

    def test_values_and_mean(self):
        p = DiscretePmf(10, np.array([0.25, 0.5, 0.25]))
        np.testing.assert_array_equal(p.values_mw, [10, 11, 12])
        assert pmf_mean(p) == pytest.approx(11.0)

    def test_survivor_steps(self):
        p = DiscretePmf(0, np.array([0.2, 0.3, 0.5]))
        assert p.survivor(-1.0) == 1.0
        assert p.survivor(0.0) == pytest.approx(0.8)
        assert p.survivor(0.5) == pytest.approx(0.8)
        assert p.survivor(1.0) == pytest.approx(0.5)
        assert p.survivor(2.0) == 0.0

    def test_survivor_rejects_nan(self):
        # a NaN used to sort past every atom and read as probability 0
        p = pmf_from_samples([1.0, 2.0, 3.0])
        for v in (np.nan, [np.nan], [2.0, np.nan]):
            with pytest.raises(ValueError, match="^a NaN value has no survivor probability$"):
                p.survivor(v)
        np.testing.assert_array_equal(p.survivor([-np.inf, np.inf]), [1.0, 0.0])

    def test_immutable(self):
        p = DiscretePmf(0, np.array([1.0]))
        with pytest.raises(ValueError):
            p.probabilities[0] = 0.5


class TestFromSamples:
    def test_floor_binning(self):
        p = pmf_from_samples([1.9, 1.2, 3.0, 2.5])
        assert p.origin_mw == 1
        np.testing.assert_allclose(p.probabilities, [0.5, 0.25, 0.25])

    def test_each_observation_counts_once(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(-50.0, 50.0, 1000)
        p = pmf_from_samples(vals)
        assert p.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        assert pmf_mean(p) == pytest.approx(np.floor(vals).mean(), abs=1e-9)

    @pytest.mark.parametrize("values, message", [
        ([0.0, 1e300], "values from 0 to 1e+300 MW"),  # a floor past int64
        ([-1e300, 0.0], "values from -1e+300 to 0 MW"),
        ([-9e18, 9e18], "values from -9e+18 to 9e+18 MW"),  # a span past int64
        ([0.0, 1e18], "values from 0 to 1e+18 MW"),  # 7 EiB of bins: past any address space
    ])
    def test_values_past_the_grid_are_numerical_error(self, values, message):
        with pytest.raises(NumericalError, match=f"^{re.escape(message)} do not fit on the 1 MW grid$"):
            pmf_from_samples(values)


class TestConvolve:
    def test_degenerate_difference(self):
        z = convolve(point_mass(100.0), reflect(point_mass(30.0)))
        assert z.values_mw.tolist() == [70]
        assert z.probabilities[0] == 1.0

    def test_two_coin_difference(self):
        d = pmf_from_samples([0.0, 1.0])
        w = pmf_from_samples([0.0, 1.0])
        z = convolve(d, reflect(w))
        assert z.origin_mw == -1
        np.testing.assert_allclose(z.probabilities, [0.25, 0.5, 0.25], atol=1e-15)

    def test_mean_additivity(self):
        rng = np.random.default_rng(1)
        a = pmf_from_samples(rng.uniform(0, 100, 400))
        b = pmf_from_samples(rng.uniform(-40, 10, 300))
        c = convolve(a, b)
        assert pmf_mean(c) == pytest.approx(pmf_mean(a) + pmf_mean(b), rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 40),
        m=st.integers(2, 40),
    )
    def test_difference_mean_property(self, seed, n, m):
        rng = np.random.default_rng(seed)
        d = rng.integers(0, 200, n).astype(float)
        w = rng.integers(0, 60, m).astype(float)
        z = convolve(pmf_from_samples(d), reflect(pmf_from_samples(w)))
        assert pmf_mean(z) == pytest.approx(d.mean() - w.mean(), abs=1e-9)


def _scipy_convolve(a: DiscretePmf, b: DiscretePmf) -> np.ndarray:
    """What convolve computed with scipy.signal.convolve: the oracle."""
    raw = np.clip(signal.convolve(a.probabilities, b.probabilities, mode="full", method="auto"), 0.0, None)
    return raw / raw.sum()


def _random_pmf(rng, n, origin=0):
    p = rng.random(n) ** 4
    p[0] = p[-1] = 1.0  # nothing to trim
    return DiscretePmf(origin, p / p.sum())


class TestConvolveMatchesScipy:
    # the smallest and largest convolutions of the benchmark's workloads
    WORKLOAD_SIZES = [(32_967, 12_790), (134_004, 50_439)]

    def test_fast_length_is_scipy_next_fast_len(self):
        sizes = list(range(1, 20_001)) + [n + m - 1 for n, m in self.WORKLOAD_SIZES] + [2**31 + 1]
        assert [pmf_module._fast_length(n) for n in sizes] == [fft.next_fast_len(n, True) for n in sizes]

    @pytest.mark.parametrize("n, m", WORKLOAD_SIZES)
    def test_bit_identical_at_workload_sizes(self, n, m):
        rng = np.random.default_rng(n)
        a, b = _random_pmf(rng, n, origin=-n), _random_pmf(rng, m, origin=7)
        c = convolve(a, b)
        assert c.origin_mw == 7 - n
        np.testing.assert_array_equal(c.probabilities, _scipy_convolve(a, b))

    # supports this short make entries near 1/3, where the FFT's round-off
    # is two ulps; the direct sum gives scipy's bits
    @pytest.mark.parametrize("seed, n, m", [(8, 1, 6), (12, 6, 1), (0, 3, 1), (0, 14, 14), (1, 40, 25)])
    def test_short_supports_bit_identical(self, seed, n, m):
        rng = np.random.default_rng(seed)
        a, b = _random_pmf(rng, n), _random_pmf(rng, m)
        np.testing.assert_array_equal(convolve(a, b).probabilities, _scipy_convolve(a, b))

    # small sizes too, where scipy convolves directly
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 20_000), m=st.integers(1, 2_000))
    def test_small_inputs_within_1e16(self, seed, n, m):
        rng = np.random.default_rng(seed)
        a, b = _random_pmf(rng, n), _random_pmf(rng, m)
        np.testing.assert_allclose(convolve(a, b).probabilities, _scipy_convolve(a, b), rtol=0.0, atol=1e-16)


class TestConvolveEach:
    @staticmethod
    def padded(rng, n, origin):
        """A pmf with zero padding at both ends, for ``_trimmed`` to cut."""
        p = _random_pmf(rng, n).probabilities
        return DiscretePmf(origin - 3, np.concatenate([np.zeros(3), p, np.zeros(5)]))

    def test_equals_one_convolve_per_pmf(self):
        # six B's over three FFT lengths, returning to lengths already used
        rng = np.random.default_rng(31)
        a = self.padded(rng, 5_000, 1_000)
        bs = [self.padded(rng, m, -m) for m in (1_000, 3_000, 1_001, 7_000, 2_999, 1_000)]
        lengths = [pmf_module._fast_length(len(a) + len(b) - 2 * 8 - 1) for b in bs]  # 8 padding bins each
        assert len(set(lengths)) == 3
        for got, b in zip(convolve_each(a, bs), bs, strict=True):
            want = convolve(a, b)
            assert got.origin_mw == want.origin_mw
            np.testing.assert_array_equal(got.probabilities, want.probabilities)

    @pytest.mark.parametrize("n, m", [(5_000, 1_000), (52_536, 41_300), (300, 7)])
    def test_convolve_is_the_product_of_both_transforms(self, n, m):
        # a reused spectrum times a temporary rfft multiplies in swapped
        # operand order, which moves the last bits
        rng = np.random.default_rng(n)
        a, b = self.padded(rng, n, 17), self.padded(rng, m, -2)
        want = fft_convolve(a, b)
        for got in (convolve(a, b), *convolve_each(a, [b, b])):
            assert got.origin_mw == want.origin_mw == 15
            np.testing.assert_array_equal(got.probabilities, want.probabilities)


def _winds(system):
    return [pmf_from_samples(t.wind_mw) for t in system["traces"]]


class TestConvolveEachWorkers:
    """``convolve_each`` on its background thread: the bits, the order and the
    errors of a serial loop, and no thread left behind."""

    @pytest.fixture(params=["demo_system", "many_seasons"])
    def system(self, request):
        return request.getfixturevalue(request.param)

    def test_same_bits_as_the_fft_oracle(self, system):
        fleet, winds = system["fleet"], _winds(system)
        want = [fft_convolve(fleet, wind) for wind in winds]
        got = list(convolve_each(fleet, winds))
        assert [g.origin_mw for g in got] == [w.origin_mw for w in want]
        for g, w in zip(got, want, strict=True):
            assert g.probabilities.tobytes() == w.probabilities.tobytes()

    def test_many_threads_keep_the_order(self):
        # switching threads as often as the interpreter allows: each result
        # must still be its own B's, in the order of bs
        rng = np.random.default_rng(8)
        a = _random_pmf(rng, 300)
        bs = [_random_pmf(rng, m, origin=i) for i, m in enumerate(rng.integers(1, 200, 120))]
        want = [convolve(a, b) for b in bs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = list(convolve_each(a, bs))
        finally:
            sys.setswitchinterval(interval)
        assert [g.origin_mw for g in got] == [w.origin_mw for w in want]
        for g, w in zip(got, want, strict=True):
            assert g.probabilities.tobytes() == w.probabilities.tobytes()

    def test_a_worker_error_comes_in_its_place(self, demo_system, monkeypatch):
        # the third sum fails on its worker; the two before it are yielded
        # first, and a failure of bs after it does not overtake it
        fleet, winds = demo_system["fleet"], _winds(demo_system)
        origins = [convolve(fleet, w).origin_mw for w in winds[:4]]
        doomed = origins[2]
        assert origins.count(doomed) == 1
        normalized = pmf_module._normalized

        def failing(origin, raw):
            if origin == doomed:
                raise NumericalError("convolution produced a degenerate mass function")
            return normalized(origin, raw)

        def bs():
            yield from winds[:4]
            raise ValueError("no more winds")

        monkeypatch.setattr(pmf_module, "_normalized", failing)
        got = []
        with pytest.raises(NumericalError, match="^convolution produced a degenerate mass function$"):
            for total in convolve_each(fleet, bs()):
                got.append(total)
        assert len(got) == 2
        # without a failed sum, the failure of bs follows every result before it
        monkeypatch.setattr(pmf_module, "_normalized", normalized)
        got = []
        with pytest.raises(ValueError, match="no more winds"):
            for total in convolve_each(fleet, bs()):
                got.append(total)
        assert len(got) == 4

    def test_no_thread_outlives_its_generator(self, demo_system):
        fleet, winds = demo_system["fleet"], _winds(demo_system)
        start = threading.active_count()

        sums = convolve_each(fleet, winds)
        next(sums)
        assert threading.active_count() == start + 1
        sums.close()  # abandoned mid-iteration
        assert threading.active_count() == start

        sums = convolve_each(fleet, winds)
        next(sums)
        del sums  # dropped without a close
        assert threading.active_count() == start

        def consumer_raises():
            for i, _ in enumerate(convolve_each(fleet, winds)):
                if i == 1:
                    raise RuntimeError("the consumer failed")

        with pytest.raises(RuntimeError, match="the consumer failed"):
            consumer_raises()
        assert threading.active_count() == start

        list(convolve_each(fleet, winds))
        assert threading.active_count() == start


class TestRebin:
    def test_identity_window(self):
        p = DiscretePmf(5, np.array([0.5, 0.5]))
        q = rebin(p, 5, 7)
        assert q.origin_mw == 5
        np.testing.assert_allclose(q.probabilities, [0.5, 0.5])

    def test_wider_window_pads_zeros(self):
        p = point_mass(10.0)
        q = rebin(p, 0, 20)
        assert q.probabilities[10] == 1.0
        assert q.probabilities.sum() == 1.0

    def test_truncation_rejected(self):
        p = DiscretePmf(0, np.array([0.5, 0.5]))
        with pytest.raises(Exception, match="mass"):
            rebin(p, 1, 5)
