import numpy as np
import pytest

from adequacy.errors import DataError, NumericalError
from adequacy.genmodel import GeneratingUnit, convolve_fleet, fleet_summary, load_fleet
from helpers import write_fleet_csv
from oracles import convolve_fleet_full, pmf_mean


def brute_force_fleet(units):
    """Exhaustive enumeration over all 2^n availability states."""
    caps = np.array([u.capacity_mw for u in units])
    avail = np.array([u.availability for u in units])
    n = len(units)
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    totals = bits @ caps
    probs = np.prod(np.where(bits == 1, avail, 1.0 - avail), axis=1)
    out = np.zeros(caps.sum() + 1)
    np.add.at(out, totals, probs)
    return out


def random_fleet(rng, n_units):
    return [
        GeneratingUnit(f"u{i}", int(rng.integers(1, 800)), float(rng.uniform(0.5, 1.0)))
        for i in range(n_units)
    ]


class TestGeneratingUnit:
    def test_validation(self):
        with pytest.raises(ValueError):
            GeneratingUnit("a", 0, 0.9)
        with pytest.raises(ValueError):
            GeneratingUnit("a", 100, 1.2)
        with pytest.raises(ValueError):
            GeneratingUnit("a", 100, 0.0)


class TestConvolveFleet:
    def test_two_identical_units(self):
        fleet = [GeneratingUnit("a", 100, 0.9), GeneratingUnit("b", 100, 0.9)]
        pmf = convolve_fleet(fleet)
        assert pmf.probabilities[0] == pytest.approx(0.01, abs=1e-15)
        assert pmf.probabilities[100] == pytest.approx(0.18, abs=1e-15)
        assert pmf.probabilities[200] == pytest.approx(0.81, abs=1e-15)

    def test_perfect_unit_is_point_mass(self):
        pmf = convolve_fleet([GeneratingUnit("n", 1200, 1.0)])
        assert pmf.probabilities[1200] == 1.0
        assert pmf.probabilities[:1200].sum() == 0.0

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(12)
        fleet = random_fleet(rng, 12)
        pmf = convolve_fleet(fleet, trim_threshold=0.0)
        np.testing.assert_allclose(pmf.probabilities, brute_force_fleet(fleet), atol=1e-12)

    def test_mean_is_sum_of_derated_capacities(self):
        rng = np.random.default_rng(13)
        fleet = random_fleet(rng, 60)
        pmf = convolve_fleet(fleet)
        expected = sum(u.capacity_mw * u.availability for u in fleet)
        assert pmf_mean(pmf) == pytest.approx(expected, rel=1e-6)

    def test_order_invariance(self):
        rng = np.random.default_rng(14)
        fleet = random_fleet(rng, 20)
        base = convolve_fleet(fleet)
        perm = convolve_fleet([fleet[i] for i in rng.permutation(20)])
        assert np.abs(base.probabilities - perm.probabilities).max() < 1e-12

    def test_perfect_unit_shifts_pmf(self):
        rng = np.random.default_rng(15)
        fleet = random_fleet(rng, 8)
        base = convolve_fleet(fleet)
        shifted = convolve_fleet(fleet + [GeneratingUnit("firm", 500, 1.0)])
        np.testing.assert_allclose(shifted.probabilities[500:], base.probabilities, atol=1e-15)
        assert shifted.probabilities[:500].sum() == 0.0

    def test_top_mass_is_product_of_availabilities(self):
        rng = np.random.default_rng(16)
        fleet = random_fleet(rng, 25)
        pmf = convolve_fleet(fleet)
        assert abs(pmf.probabilities[-1] - np.prod([u.availability for u in fleet])) < 1e-12

    def test_five_hundred_units_mass_hygiene(self):
        rng = np.random.default_rng(17)
        fleet = random_fleet(rng, 500)
        pmf = convolve_fleet(fleet)
        assert abs(pmf.probabilities.sum() - 1.0) <= 1e-9

    def test_live_window_matches_the_full_array_loop(self):
        # 400 units trim mass at both ends: the pmf's first and last bins are empty
        fleet = random_fleet(np.random.default_rng(18), 400)
        pmf = convolve_fleet(fleet)
        assert pmf.probabilities[0] == pmf.probabilities[-1] == 0.0
        assert np.array_equal(pmf.probabilities, convolve_fleet_full(fleet).probabilities)

    def test_live_window_with_perfect_units_matches_the_full_array_loop(self):
        # an availability-1.0 unit empties every bin below its capacity
        rng = np.random.default_rng(19)
        fleet = random_fleet(rng, 120)
        for i in (0, 1, 40, 119):
            fleet.insert(i, GeneratingUnit(f"firm{i}", int(rng.integers(1, 800)), 1.0))
        for trim in (1e-15, 0.0):
            want = convolve_fleet_full(fleet, trim_threshold=trim).probabilities
            assert np.array_equal(convolve_fleet(fleet, trim_threshold=trim).probabilities, want)

    def test_trimming_all_mass_is_numerical_error(self):
        # the first half-available unit leaves two states of 0.5 < 0.6
        units = [GeneratingUnit("a", 100, 0.5), GeneratingUnit("b", 100, 0.5)]
        with pytest.raises(NumericalError, match=r"removed all probability mass .*\(1\.000e\+00 in all\)"):
            convolve_fleet(units, trim_threshold=0.6)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            convolve_fleet([])

    def test_capacity_past_the_grid_is_data_error(self):
        # past numpy's largest array: an error before any allocation
        units = [GeneratingUnit("big", 10**20, 0.9), GeneratingUnit("small", 5, 0.9)]
        with pytest.raises(DataError, match="^the fleet's total capacity of 100000000000000000005 MW "):
            convolve_fleet(units)


class TestLoadFleet:
    def test_three_valid_rows(self, tmp_path):
        path = write_fleet_csv(
            tmp_path / "fleet.csv",
            [("gt1", 400, 0.93), ("gt2", 620, 0.88), ("hydro", 55, 0.97)],
        )
        units = load_fleet(path)
        assert [u.name for u in units] == ["gt1", "gt2", "hydro"]
        assert units[1].capacity_mw == 620

    def test_availability_out_of_range_names_unit(self, tmp_path):
        path = write_fleet_csv(tmp_path / "fleet.csv", [("bad", 400, 1.2)])
        with pytest.raises(DataError, match="'bad'"):
            load_fleet(path)

    def test_zero_capacity_rejected(self, tmp_path):
        path = write_fleet_csv(tmp_path / "fleet.csv", [("z", 0, 0.9)])
        with pytest.raises(DataError, match="capacity"):
            load_fleet(path)

    def test_fractional_capacity_rejected(self, tmp_path):
        path = write_fleet_csv(tmp_path / "fleet.csv", [("f", 399.5, 0.9)])
        with pytest.raises(DataError, match="integer"):
            load_fleet(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_fleet(tmp_path / "missing.csv")

    @pytest.mark.parametrize(
        "encoding, newline", [("utf-8-sig", "\n"), ("utf-8", "\r\n")], ids=["bom", "crlf"]
    )
    def test_byte_order_mark_and_crlf(self, tmp_path, encoding, newline):
        path = tmp_path / "fleet.csv"
        rows = ["name,capacity_mw,availability", "gt1,400,0.93", "hydro,55,0.97"]
        path.write_bytes((newline.join(rows) + newline).encode(encoding))
        units = load_fleet(path)
        assert [(u.name, u.capacity_mw, u.availability) for u in units] == [
            ("gt1", 400, 0.93), ("hydro", 55, 0.97)
        ]

    def test_non_utf8_is_data_error(self, tmp_path):
        path = tmp_path / "fleet.csv"
        path.write_bytes("name,capacity_mw,availability\ngt1,400,0.93\nturbin\u00e9,55,0.97\n"
                         .encode("latin-1"))
        with pytest.raises(DataError, match=r"fleet\.csv: line 3: byte 0xe9 is not UTF-8$"):
            load_fleet(path)

    def test_missing_column_shows_header(self, tmp_path):
        path = tmp_path / "fleet.csv"
        path.write_text("name, capacity_mw, availability\ngt1,400,0.93\n")
        with pytest.raises(DataError) as excinfo:
            load_fleet(path)
        assert str(excinfo.value) == (
            f"{path}: missing required columns ['availability', 'capacity_mw']; "
            "header has ['name', ' capacity_mw', ' availability']"
        )


def test_fleet_summary():
    fleet = [GeneratingUnit("a", 100, 0.9), GeneratingUnit("b", 300, 0.8)]
    summary = fleet_summary(fleet)
    assert summary["n_units"] == 2
    assert summary["total_capacity_mw"] == 400
    assert summary["mean_available_mw"] == pytest.approx(330.0)
