"""Okumura model operations with stub curve tables."""

import ast
import math
from pathlib import Path

import pytest

import pathcast
from pathcast import (
    BoundsError,
    DomainError,
    Environment,
    ModelId,
    RadioLink,
    amu_lookup,
    default_scenario,
    load_curves,
    okumura,
)
from pathcast.scenario import iter_sweep

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


class TestBoundLookup:
    """The A_mu lookup is bound to the frequency at the first point; the
    error order is still distance, frequency, then grid distance."""

    FREQ_BELOW = "^frequency 50 MHz below grid minimum 100 MHz$"

    def test_off_grid_frequency_raises_on_every_call(self, bundled_curves):
        at = okumura(RadioLink(50.0, 5000.0, 30.0, 3.0), Environment.URBAN, bundled_curves)
        with pytest.raises(DomainError, match="^distance must be positive$"):
            at(-5000.0)
        for distance_m in (5000.0, 500.0, 150_000.0, 5000.0):
            with pytest.raises(BoundsError, match=self.FREQ_BELOW):
                at(distance_m)

    def test_sweep_aborts_at_d_min(self, bundled_curves):
        scenario = default_scenario(Environment.URBAN, frequency_mhz=50.0)
        for d_min_m in (500.0, 5000.0):
            with pytest.raises(DomainError, match=f"^sweep aborted at {d_min_m:.2f} m: "
                                                  "frequency 50 MHz below grid minimum"):
                list(iter_sweep(ModelId.OKUMURA, scenario, d_min_m, 150_000.0, 5,
                                bundled_curves))

    def test_off_grid_distance_keeps_the_binding(self, bundled_curves):
        at = okumura(RadioLink(1900.0, 5000.0, 30.0, 3.0), Environment.URBAN, bundled_curves)
        with pytest.raises(BoundsError, match="^distance 0.5 km below grid minimum 1 km$"):
            at(500.0)
        assert at(5000.0).component("median_attenuation") == amu_lookup(
            bundled_curves, 1900.0, 5000.0)

    def test_clamp_warns_frequency_then_distance(self, bundled_curves):
        at = okumura(RadioLink(50.0, 5000.0, 30.0, 3.0), Environment.URBAN, bundled_curves,
                     clamp=True)
        for distance_m, edge_m in ((150_000.0, 100_000.0), (500.0, 1000.0)):
            result = at(distance_m)
            assert result.warnings == (
                "frequency 50 MHz clamped to grid edge 100 MHz",
                f"distance {distance_m:g} m clamped to grid edge {edge_m:g} m")
            assert result.component("median_attenuation") == amu_lookup(
                bundled_curves, 100.0, edge_m)


class TestHome:
    """The binder lives in pathcast.curves, with the table it reads."""

    def test_missing_table_is_a_domain_error(self):
        with pytest.raises(DomainError, match="^curve table required for the okumura model$"):
            okumura(RadioLink(1900.0, 5000.0, 30.0, 3.0), Environment.URBAN, None)

    def test_every_name_is_the_curves_binder(self):
        assert pathcast.okumura is pathcast.curves.okumura
        assert pathcast.scenario.okumura is pathcast.curves.okumura
        assert not hasattr(pathcast.propagation, "okumura")

    def test_propagation_imports_nothing_from_curves(self):
        """curves imports propagation, so an import back would be a cycle."""
        tree = ast.parse(Path(pathcast.propagation.__file__).read_text("utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            assert not any("curves" in name.split(".") for name in names), ast.dump(node)
