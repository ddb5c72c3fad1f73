"""Okumura model operations with stub curve tables."""

import math

import pytest

from pathcast import (
    BoundsError,
    DomainError,
    Environment,
    RadioLink,
    load_curves,
    okumura,
)

STUB_AMU20 = """\
AMU,1,100
100,20,20
3000,20,20

GAREA,freq_mhz,environment,gain_db
100,urban,0
3000,urban,0
100,suburban,9
3000,suburban,9
100,rural,12
3000,rural,12
# source: stub, constant surface for unit tests
"""

STUB_AMU0 = """\
AMU,1,100
100,0,0
3000,0,0

GAREA,freq_mhz,environment,gain_db
100,urban,0
3000,urban,0
# source: stub, all-zero surface
"""


def _antenna_gains(bs_height_m, rx_height_m):
    """(G(h_b), G(h_r)), which the binder subtracts as its height-gain components."""
    link = RadioLink(1900.0, 5000.0, bs_height_m, rx_height_m)
    result = okumura(link, Environment.URBAN, load_curves(STUB_AMU0))(link.distance_m)
    return -result.component("bs_height_gain"), -result.component("rx_height_gain")


class TestAntennaGains:
    def test_reference_heights_vanish(self):
        assert _antenna_gains(200.0, 3.0) == (0.0, 0.0)

    def test_30m_bs(self):
        g_bs, g_rx = _antenna_gains(30.0, 3.0)
        assert g_bs == pytest.approx(-16.478174818886377, abs=1e-9)
        assert g_rx == 0.0

    def test_80m_bs(self):
        g_bs, _ = _antenna_gains(80.0, 3.0)
        assert g_bs == pytest.approx(-7.958800173440752, abs=1e-9)

    def test_nonpositive_height(self):
        with pytest.raises(DomainError, match="^heights must satisfy bs_height > rx_height > 0$"):
            RadioLink(1900.0, 5000.0, 0.0, 3.0)

    def test_underflow(self):
        with pytest.raises(DomainError, match="h_r/3 underflows to 0"):
            okumura(RadioLink(1900.0, 5000.0, 30.0, 5e-324), Environment.URBAN,
                    load_curves(STUB_AMU0))
        with pytest.raises(DomainError, match="h_b/200 underflows to 0"):
            okumura(RadioLink(1900.0, 5000.0, 1e-322, 5e-324), Environment.URBAN,
                    load_curves(STUB_AMU0))


class TestPathLoss:
    def test_stub_surface(self):
        curves = load_curves(STUB_AMU20)
        link = RadioLink(1900.0, 5000.0, 30.0, 3.0)
        result = okumura(link, Environment.SUBURBAN, curves)(link.distance_m)
        assert result.total_db == pytest.approx(139.48043014654672, abs=1e-9)
        assert result.component("free_space") == pytest.approx(112.00225532766034, abs=1e-9)
        assert result.component("median_attenuation") == pytest.approx(20.0, abs=1e-9)
        assert result.component("bs_height_gain") == pytest.approx(16.478174818886377, abs=1e-9)
        assert result.component("rx_height_gain") == 0.0
        assert result.component("area_gain") == pytest.approx(-9.0, abs=1e-9)

    def test_all_corrections_vanish(self):
        curves = load_curves(STUB_AMU0)
        link = RadioLink(1900.0, 5000.0, 200.0, 3.0)
        result = okumura(link, Environment.URBAN, curves)(link.distance_m)
        assert result.total_db == pytest.approx(112.00225532766034, abs=1e-9)

    def test_frequency_below_grid(self):
        curves = load_curves(STUB_AMU20)
        link = RadioLink(50.0, 5000.0, 30.0, 3.0)
        with pytest.raises(BoundsError, match="frequency.*below grid minimum"):
            okumura(link, Environment.URBAN, curves)(link.distance_m)

    def test_distance_above_grid(self):
        curves = load_curves(STUB_AMU20)
        link = RadioLink(1900.0, 150_000.0, 30.0, 3.0)
        with pytest.raises(BoundsError, match="distance.*above grid maximum"):
            okumura(link, Environment.URBAN, curves)(link.distance_m)

    def test_clamp_annotates(self):
        curves = load_curves(STUB_AMU20)
        link = RadioLink(1900.0, 150_000.0, 30.0, 3.0)
        result = okumura(link, Environment.URBAN, curves, clamp=True)(link.distance_m)
        assert any("clamped" in w for w in result.warnings)
        at_edge = okumura(
            RadioLink(1900.0, 100_000.0, 30.0, 3.0), Environment.URBAN, curves)(100_000.0)
        # the lookup clamps to the grid edge; the free-space term keeps the
        # true distance
        assert result.component("median_attenuation") == pytest.approx(
            at_edge.component("median_attenuation"), abs=1e-12)

    @pytest.mark.parametrize("frequency_mhz", [1e305, 1e-310])
    def test_clamp_refuses_unrepresentable_wavelength(self, frequency_mhz, bundled_curves):
        with pytest.raises(DomainError, match="wavelength"):
            okumura(RadioLink(frequency_mhz, 5000.0, 30.0, 3.0), Environment.URBAN,
                    bundled_curves, clamp=True)(5000.0)

    def test_clamp_free_space_underflow(self, bundled_curves):
        at = okumura(RadioLink(1e-299, 5000.0, 30.0, 3.0), Environment.URBAN,
                     bundled_curves, clamp=True)
        assert math.isfinite(at(5000.0).total_db)
        with pytest.raises(DomainError, match="underflows to 0"):
            at(1e-300)

    def test_bundled_table_point(self, bundled_curves):
        link = RadioLink(1900.0, 5000.0, 30.0, 3.0)
        result = okumura(link, Environment.URBAN, bundled_curves)(link.distance_m)
        assert result.component("median_attenuation") == pytest.approx(33.83255218538436, abs=1e-9)
        assert result.total_db == pytest.approx(162.31298233193107, abs=1e-9)
