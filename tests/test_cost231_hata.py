"""COST-231 Hata operations, both fidelity modes."""

import pytest

from pathcast import (
    DomainError,
    Environment,
    FidelityMode,
    RadioLink,
    cost231_hata,
)


def _rx_correction(rx_height_m, environment, mode=FidelityMode.CORRECTED,
                   frequency_mhz=1900.0, bs_height_m=30.0):
    """a(h_r), which the binder subtracts as its rx_correction component."""
    link = RadioLink(frequency_mhz, 5000.0, bs_height_m, rx_height_m)
    return -cost231_hata(link, environment, mode)(link.distance_m).component("rx_correction")


class TestRxCorrection:
    def test_urban_log_term_vanishes(self):
        assert _rx_correction(1.0 / 11.75, Environment.URBAN) == pytest.approx(-4.97, abs=1e-9)

    def test_urban_3m(self):
        assert _rx_correction(3.0, Environment.URBAN) == pytest.approx(
            2.689844309461207, abs=1e-9)

    def test_urban_mode_independent(self):
        corrected = _rx_correction(3.0, Environment.URBAN, FidelityMode.CORRECTED)
        printed = _rx_correction(3.0, Environment.URBAN, FidelityMode.AS_PRINTED)
        assert corrected == printed

    def test_suburban_corrected(self):
        assert _rx_correction(3.0, Environment.SUBURBAN, FidelityMode.CORRECTED) == \
            pytest.approx(4.405031265657922, abs=1e-9)

    def test_suburban_as_printed_is_garbled(self):
        # the misprinted variant collapses to a huge negative value
        assert _rx_correction(3.0, Environment.SUBURBAN, FidelityMode.AS_PRINTED) == \
            pytest.approx(-2999.6933710389517, abs=1e-9)

    @pytest.mark.parametrize("frequency_mhz, rx_height_m, environment, mode", [
        (1900.0, 1.7e308, Environment.URBAN, FidelityMode.CORRECTED),  # 11.75 * h_r
        (1900.0, 1.7e308, Environment.SUBURBAN, FidelityMode.CORRECTED),  # (...) * h_r
    ])
    def test_overflow(self, frequency_mhz, rx_height_m, environment, mode):
        link = RadioLink(frequency_mhz, 5000.0, 1.75e308, rx_height_m)
        with pytest.raises(DomainError, match="receiver correction a\\(h_r\\) overflows"):
            cost231_hata(link, environment, mode)


class TestPathLoss:
    def test_urban_5km(self):
        link = RadioLink(1900.0, 5000.0, 30.0, 3.0)
        for mode in FidelityMode:
            result = cost231_hata(link, Environment.URBAN, mode)(link.distance_m)
            assert result.total_db == pytest.approx(161.96720462100492, abs=1e-9)

    def test_urban_1km_distance_term_vanishes(self):
        link = RadioLink(1900.0, 1000.0, 30.0, 3.0)
        result = cost231_hata(link, Environment.URBAN)(link.distance_m)
        assert result.component("distance") == 0.0
        assert result.total_db == pytest.approx(137.34608702261397, abs=1e-9)

    def test_urban_offset_is_3db(self):
        link = RadioLink(1900.0, 5000.0, 30.0, 3.0)
        urban = cost231_hata(link, Environment.URBAN)(link.distance_m)
        assert urban.component("environment") == 3.0
        rural = cost231_hata(link, Environment.RURAL)(link.distance_m)
        assert rural.component("environment") == 0.0

    def test_out_of_band_warning(self):
        link = RadioLink(2100.0, 5000.0, 30.0, 3.0)
        result = cost231_hata(link, Environment.URBAN)(link.distance_m)
        assert any("validity" in w for w in result.warnings)

    def test_in_band_no_warning(self):
        link = RadioLink(1900.0, 5000.0, 30.0, 3.0)
        assert cost231_hata(link, Environment.URBAN)(link.distance_m).warnings == ()

    def test_suburban_equals_rural(self):
        link = RadioLink(1900.0, 5000.0, 30.0, 3.0)
        suburban = cost231_hata(link, Environment.SUBURBAN)(link.distance_m)
        rural = cost231_hata(link, Environment.RURAL)(link.distance_m)
        assert suburban.total_db == rural.total_db

    def test_urban_modes_bit_identical(self):
        link = RadioLink(1777.0, 4321.0, 42.0, 2.5)
        corrected = cost231_hata(link, Environment.URBAN, FidelityMode.CORRECTED)(link.distance_m)
        printed = cost231_hata(link, Environment.URBAN, FidelityMode.AS_PRINTED)(link.distance_m)
        assert corrected.total_db == printed.total_db
        assert corrected.components == printed.components
