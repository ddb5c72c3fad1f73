"""Ericsson 9999 operations, both fidelity modes."""

import pytest

from pathcast import (
    DomainError,
    EricssonCoefficients,
    FidelityMode,
    RadioLink,
    ericsson,
)


def _frequency_gain(frequency_mhz):
    link = RadioLink(frequency_mhz, 5000.0, 30.0, 3.0)
    return ericsson(link)(link.distance_m).component("frequency_gain")


class TestFrequencyGain:
    def test_vanishes_at_1mhz(self):
        assert _frequency_gain(1.0) == 0.0

    def test_1900(self):
        assert _frequency_gain(1900.0) == pytest.approx(94.48567136625311, abs=1e-9)

    def test_2100(self):
        assert _frequency_gain(2100.0) == pytest.approx(95.04800224050689, abs=1e-9)


class TestPathLoss:
    def test_default_coefficients(self):
        assert EricssonCoefficients() == EricssonCoefficients(36.2, 30.2, 12.0, 0.1)

    def test_as_printed_table_point(self):
        link = RadioLink(1900.0, 5000.0, 30.0, 3.0)
        result = ericsson(link, mode=FidelityMode.AS_PRINTED)(link.distance_m)
        assert result.total_db == pytest.approx(165.95932758370014, abs=1e-9)

    def test_only_fixed_offset_survives(self):
        link = RadioLink(1.0, 1000.0, 1.0, 0.5)
        result = ericsson(link, EricssonCoefficients(0.0, 0.0, 0.0, 0.0),
                          FidelityMode.AS_PRINTED)(link.distance_m)
        assert result.total_db == pytest.approx(-3.663939315118322, abs=1e-9)

    def test_corrected_restores_rx_height(self):
        link = RadioLink(1900.0, 5000.0, 30.0, 3.0)
        printed = ericsson(link, mode=FidelityMode.AS_PRINTED)(link.distance_m)
        corrected = ericsson(link, mode=FidelityMode.CORRECTED)(link.distance_m)
        assert printed.total_db - corrected.total_db == pytest.approx(
            3.995904994342885, abs=1e-9)

    @pytest.mark.parametrize("name", ["a0", "a1", "a2", "a3"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_coefficient_named(self, name, bad):
        with pytest.raises(DomainError, match=f"^{name} must be finite$"):
            EricssonCoefficients(**{name: bad})

    def test_custom_coefficients(self):
        link = RadioLink(1900.0, 5000.0, 30.0, 3.0)
        doubled = ericsson(link, EricssonCoefficients(72.4, 30.2, 12.0, 0.1),
                           FidelityMode.AS_PRINTED)(link.distance_m)
        base = ericsson(link, mode=FidelityMode.AS_PRINTED)(link.distance_m)
        assert doubled.total_db - base.total_db == pytest.approx(36.2, abs=1e-9)

    def test_component_labels(self):
        link = RadioLink(1900.0, 5000.0, 30.0, 3.0)
        result = ericsson(link)(link.distance_m)
        assert [label for label, _ in result.components] == [
            "constant", "distance", "bs_height", "bs_distance_cross",
            "rx_height_offset", "frequency_gain"]
