"""SUI model operations against hand-evaluated expected values."""

import math

import pytest

from pathcast import (
    DomainError,
    Environment,
    RadioLink,
    sui,
)

import oracle


def _sui_terms(frequency_mhz=1900.0, bs_height_m=30.0, rx_height_m=3.0,
               environment=Environment.URBAN, d0_m=100.0):
    """One SUI point at 10*d0, where the distance component is exactly 10*gamma
    because log10(10) is 1.0."""
    link = RadioLink(frequency_mhz, 10.0 * d0_m, bs_height_m, rx_height_m, d0_m)
    return sui(link, environment)(link.distance_m)


def _gamma(bs_height_m, environment):
    return _sui_terms(bs_height_m=bs_height_m, environment=environment).component("distance")


class TestTerrainParams:
    def test_table_values(self):
        # urban, suburban and rural bind terrains A, B and C: (a, b, c)
        for environment, (a, b, c) in [(Environment.URBAN, (4.6, 0.0075, 12.6)),
                                       (Environment.SUBURBAN, (4.0, 0.0065, 17.1)),
                                       (Environment.RURAL, (3.6, 0.005, 20.0))]:
            assert _gamma(37.0, environment) == 10.0 * (a - b * 37.0 + c / 37.0)


class TestGamma:
    def test_terrain_a_at_30m(self):
        assert _gamma(30.0, Environment.URBAN) == pytest.approx(47.95, abs=1e-11)

    def test_terrain_c_at_20m(self):
        assert _gamma(20.0, Environment.RURAL) == pytest.approx(45.0, abs=1e-11)

    def test_nonpositive_height(self):
        with pytest.raises(DomainError, match="^heights must satisfy bs_height > rx_height > 0$"):
            RadioLink(1900.0, 5000.0, 0.0, 3.0)

    def test_overflow(self):
        # c / h_b overflows to inf for a subnormal height
        with pytest.raises(DomainError, match="SUI exponent gamma overflows"):
            sui(RadioLink(1900.0, 5000.0, 1e-323, 5e-324), Environment.URBAN)


class TestReferenceLoss:
    def test_1900mhz_100m(self):
        assert _sui_terms(1900.0).component("free_space_ref") == pytest.approx(
            78.02285524093995, abs=1e-9)

    def test_2100mhz_100m(self):
        assert _sui_terms(2100.0).component("free_space_ref") == pytest.approx(
            78.89216911656176, abs=1e-9)

    def test_zero_at_quarter_wavelength_over_pi(self):
        # d0 = lambda / (4*pi) makes the log argument exactly 1
        lam = 299_792_458.0 / (1000.0 * 1e6)
        terms = _sui_terms(1000.0, d0_m=lam / (4.0 * math.pi))
        assert terms.component("free_space_ref") == pytest.approx(0.0, abs=1e-12)

    def test_preconditions(self):
        with pytest.raises(DomainError, match="^frequency must be positive$"):
            RadioLink(0.0, 5000.0, 30.0, 3.0)
        with pytest.raises(DomainError, match="^SUI reference distance must be positive$"):
            RadioLink(1900.0, 5000.0, 30.0, 3.0, 0.0)

    @pytest.mark.parametrize("frequency_mhz", [1e305, 1e-310, float("nan")])
    def test_wavelength_must_be_finite_and_nonzero(self, frequency_mhz):
        # f * 1e6 overflows to inf (wavelength 0) or c / (f * 1e6) overflows to inf
        with pytest.raises(DomainError):
            RadioLink(frequency_mhz, 5000.0, 30.0, 3.0)

    def test_log_argument_underflow(self):
        with pytest.raises(DomainError, match="4\\*pi\\*d0/lambda underflows to 0"):
            sui(RadioLink(1e-299, 5000.0, 30.0, 3.0, 1e-300), Environment.URBAN)

    def test_log_argument_overflow(self):
        # 4*pi*d0/lambda overflows to inf
        with pytest.raises(DomainError, match="free-space reference loss overflows"):
            sui(RadioLink(1e5, 5000.0, 30.0, 3.0, 1.7e308), Environment.URBAN)


class TestFreqCorrection:
    def test_zero_at_2000(self):
        assert _sui_terms(2000.0).component("frequency_correction") == 0.0

    def test_1900(self):
        assert _sui_terms(1900.0).component("frequency_correction") == pytest.approx(
            -0.13365836826691352, abs=1e-9)

    def test_2100(self):
        assert _sui_terms(2100.0).component("frequency_correction") == pytest.approx(
            0.12713579441962855, abs=1e-9)

    def test_frequency_without_finite_wavelength(self):
        with pytest.raises(DomainError, match="wavelength"):
            RadioLink(5e-324, 5000.0, 30.0, 3.0)


def _height_correction(rx_height_m, environment):
    return _sui_terms(bs_height_m=2500.0, rx_height_m=rx_height_m,
                      environment=environment).component("height_correction")


class TestHeightCorrection:
    def test_zero_at_2000m(self):
        for environment in Environment:
            assert _height_correction(2000.0, environment) == 0.0

    def test_terrain_a_at_3m(self):
        assert _height_correction(3.0, Environment.URBAN) == pytest.approx(
            30.498214402198645, abs=1e-9)

    def test_terrain_c_at_3m(self):
        assert _height_correction(3.0, Environment.RURAL) == pytest.approx(
            56.47817481888637, abs=1e-9)

    def test_underflow(self):
        with pytest.raises(DomainError, match="h_r/2000 underflows to 0"):
            sui(RadioLink(1900.0, 5000.0, 30.0, 5e-324), Environment.URBAN)

    def test_terrain_b_matches_a(self):
        assert _height_correction(3.0, Environment.SUBURBAN) == \
            _height_correction(3.0, Environment.URBAN)


def _shadowing(frequency_mhz, environment):
    return _sui_terms(frequency_mhz, environment=environment).component("shadowing")


class TestShadowing:
    def test_log_term_vanishes_at_1mhz(self):
        assert _shadowing(1.0, Environment.RURAL) == pytest.approx(5.2, abs=1e-12)

    def test_urban_1900(self):
        assert _shadowing(1900.0, Environment.URBAN) == pytest.approx(9.325266683006065, abs=1e-9)

    def test_suburban_1900(self):
        assert _shadowing(1900.0, Environment.SUBURBAN) == pytest.approx(
            7.925266683006066, abs=1e-9)

    def test_alpha_binds_by_environment(self):
        delta = _shadowing(1900.0, Environment.URBAN) - _shadowing(1900.0, Environment.RURAL)
        assert delta == pytest.approx(1.4, abs=1e-12)


class TestPathLoss:
    def test_urban_table_point(self):
        link = RadioLink(1900.0, 5000.0, 30.0, 3.0)
        result = sui(link, Environment.URBAN, include_shadowing=True)(link.distance_m)
        assert result.total_db == pytest.approx(199.17828966578986, abs=1e-9)
        assert [label for label, _ in result.components] == [
            "free_space_ref", "distance", "frequency_correction",
            "height_correction", "shadowing"]

    def test_at_reference_distance_rejected(self):
        link = RadioLink(1900.0, 100.0, 30.0, 3.0)
        with pytest.raises(DomainError, match="reference distance"):
            sui(link, Environment.URBAN)(link.distance_m)

    def test_shadowing_toggle(self):
        link = RadioLink(1900.0, 5000.0, 30.0, 3.0)
        on = sui(link, Environment.URBAN, include_shadowing=True)(link.distance_m)
        off = sui(link, Environment.URBAN, include_shadowing=False)(link.distance_m)
        assert on.total_db - off.total_db == pytest.approx(
            on.component("shadowing"), abs=1e-9)
        assert all(label != "shadowing" for label, _ in off.components)

    def test_height_correction_vanishes_at_2000m(self):
        # a receiver at 2000 m zeroes the height term; the rest is checked at 3 m
        assert _height_correction(2000.0, Environment.URBAN) == 0.0
        link = RadioLink(1900.0, 200.0, 30.0, 3.0)
        result = sui(link, Environment.URBAN, include_shadowing=False)(link.distance_m)
        without_height = result.total_db - result.component("height_correction")
        assert without_height == pytest.approx(92.32358516476094, abs=1e-9)

    def test_custom_reference_distance(self):
        link = RadioLink(1900.0, 5000.0, 30.0, 3.0, sui_reference_distance_m=50.0)
        result = sui(link, Environment.URBAN, include_shadowing=False)(link.distance_m)
        assert result.component("free_space_ref") == pytest.approx(
            oracle.sui_reference_loss(1900.0, 50.0), abs=1e-12)
