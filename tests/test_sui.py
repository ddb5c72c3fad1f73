"""SUI model operations against hand-evaluated expected values."""

import pytest

from pathcast import (
    DomainError,
    Environment,
    RadioLink,
    SUI_TERRAIN_PARAMS,
    SuiTerrain,
    SuiTerrainParams,
    sui,
    sui_freq_correction,
    sui_gamma,
    sui_height_correction,
    sui_reference_loss,
    sui_shadowing,
)


class TestTerrainParams:
    def test_table_values(self):
        assert SUI_TERRAIN_PARAMS[SuiTerrain.A] == SuiTerrainParams(4.6, 0.0075, 12.6)
        assert SUI_TERRAIN_PARAMS[SuiTerrain.B] == SuiTerrainParams(4.0, 0.0065, 17.1)
        assert SUI_TERRAIN_PARAMS[SuiTerrain.C] == SuiTerrainParams(3.6, 0.005, 20.0)

    def test_invalid_params_rejected(self):
        with pytest.raises(DomainError):
            SuiTerrainParams(0.0, 0.0075, 12.6)
        with pytest.raises(DomainError):
            SuiTerrainParams(4.6, -0.1, 12.6)


class TestGamma:
    def test_terrain_a_at_30m(self):
        assert sui_gamma(SUI_TERRAIN_PARAMS[SuiTerrain.A], 30.0) == pytest.approx(4.795, abs=1e-12)

    def test_b_and_c_vanish(self):
        assert sui_gamma(SuiTerrainParams(4.0, 0.0, 0.0), 57.3) == 4.0

    def test_terrain_c_at_20m(self):
        assert sui_gamma(SUI_TERRAIN_PARAMS[SuiTerrain.C], 20.0) == pytest.approx(4.5, abs=1e-12)

    def test_nonpositive_height(self):
        with pytest.raises(DomainError):
            sui_gamma(SUI_TERRAIN_PARAMS[SuiTerrain.A], 0.0)

    def test_overflow(self):
        # c / h_b overflows to inf for a subnormal height
        with pytest.raises(DomainError, match="SUI exponent gamma overflows"):
            sui_gamma(SUI_TERRAIN_PARAMS[SuiTerrain.A], 5e-324)


class TestReferenceLoss:
    def test_1900mhz_100m(self):
        assert sui_reference_loss(1900.0, 100.0) == pytest.approx(78.02285524093995, abs=1e-9)

    def test_2100mhz_100m(self):
        assert sui_reference_loss(2100.0, 100.0) == pytest.approx(78.89216911656176, abs=1e-9)

    def test_zero_at_quarter_wavelength_over_pi(self):
        # d0 = lambda / (4*pi) makes the log argument exactly 1
        import math
        lam = 299_792_458.0 / (1000.0 * 1e6)
        assert sui_reference_loss(1000.0, lam / (4.0 * math.pi)) == pytest.approx(0.0, abs=1e-12)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            sui_reference_loss(0.0, 100.0)
        with pytest.raises(DomainError):
            sui_reference_loss(1900.0, 0.0)

    @pytest.mark.parametrize("frequency_mhz", [1e305, 1e-310, float("nan")])
    def test_wavelength_must_be_finite_and_nonzero(self, frequency_mhz):
        # f * 1e6 overflows to inf (wavelength 0) or c / (f * 1e6) overflows to inf
        with pytest.raises(DomainError):
            sui_reference_loss(frequency_mhz, 100.0)

    def test_log_argument_underflow(self):
        with pytest.raises(DomainError, match="underflows to 0"):
            sui_reference_loss(1e-299, 1e-300)

    def test_log_argument_overflow(self):
        # 4*pi*d0/lambda overflows to inf
        with pytest.raises(DomainError, match="free-space reference loss overflows"):
            sui_reference_loss(1e5, 1.7e308)


class TestFreqCorrection:
    def test_zero_at_2000(self):
        assert sui_freq_correction(2000.0) == 0.0

    def test_1900(self):
        assert sui_freq_correction(1900.0) == pytest.approx(-0.13365836826691352, abs=1e-9)

    def test_2100(self):
        assert sui_freq_correction(2100.0) == pytest.approx(0.12713579441962855, abs=1e-9)


    def test_frequency_without_finite_wavelength(self):
        with pytest.raises(DomainError, match="wavelength"):
            sui_freq_correction(5e-324)


class TestHeightCorrection:
    def test_zero_at_2000m(self):
        for terrain in SuiTerrain:
            assert sui_height_correction(2000.0, terrain) == 0.0

    def test_terrain_a_at_3m(self):
        assert sui_height_correction(3.0, SuiTerrain.A) == pytest.approx(30.498214402198645, abs=1e-9)

    def test_terrain_c_at_3m(self):
        assert sui_height_correction(3.0, SuiTerrain.C) == pytest.approx(56.47817481888637, abs=1e-9)

    def test_underflow(self):
        with pytest.raises(DomainError, match="underflows to 0"):
            sui_height_correction(5e-324, SuiTerrain.A)

    def test_terrain_b_matches_a(self):
        assert sui_height_correction(3.0, SuiTerrain.B) == sui_height_correction(3.0, SuiTerrain.A)


class TestShadowing:
    def test_log_term_vanishes_at_1mhz(self):
        assert sui_shadowing(1.0, Environment.RURAL) == pytest.approx(5.2, abs=1e-12)

    def test_urban_1900(self):
        assert sui_shadowing(1900.0, Environment.URBAN) == pytest.approx(9.325266683006065, abs=1e-9)

    def test_suburban_1900(self):
        assert sui_shadowing(1900.0, Environment.SUBURBAN) == pytest.approx(7.925266683006066, abs=1e-9)

    def test_alpha_binds_by_environment(self):
        delta = sui_shadowing(1900.0, Environment.URBAN) - sui_shadowing(1900.0, Environment.RURAL)
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
            sui_shadowing(1900.0, Environment.URBAN), abs=1e-9)
        assert all(label != "shadowing" for label, _ in off.components)

    def test_height_correction_vanishes_at_2000m(self):
        # receiver at 2000 m zeroes the height term; asserted componentwise
        # because valid links require bs_height > rx_height
        assert sui_height_correction(2000.0, SuiTerrain.A) == 0.0
        link = RadioLink(1900.0, 200.0, 30.0, 3.0)
        result = sui(link, Environment.URBAN, include_shadowing=False)(link.distance_m)
        without_height = result.total_db - result.component("height_correction")
        assert without_height == pytest.approx(92.32358516476094, abs=1e-9)

    def test_custom_reference_distance(self):
        link = RadioLink(1900.0, 5000.0, 30.0, 3.0, sui_reference_distance_m=50.0)
        result = sui(link, Environment.URBAN, include_shadowing=False)(link.distance_m)
        assert result.component("free_space_ref") == pytest.approx(
            sui_reference_loss(1900.0, 50.0), abs=1e-12)
