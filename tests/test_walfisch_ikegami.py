"""Walfisch-Ikegami operations: LOS, orientation, rooftop, multiscreen, NLOS."""

import pytest

from pathcast import (
    DomainError,
    FidelityMode,
    RadioLink,
    WiGeometry,
    wi_los,
    wi_nlos,
)

URBAN_GEOMETRY = WiGeometry(street_width_m=25.0, building_separation_m=50.0,
                            roof_height_m=15.0, orientation_deg=30.0,
                            metro_factor_k=1.5)


class TestLos:
    def test_both_logs_vanish(self):
        result = wi_los(RadioLink(1.0, 1000.0, 30.0, 3.0))(1000.0)
        assert result.total_db == pytest.approx(42.64, abs=1e-12)

    def test_1900mhz_5km(self):
        result = wi_los(RadioLink(1900.0, 5000.0, 30.0, 3.0))(5000.0)
        assert result.total_db == pytest.approx(126.38829213179307, abs=1e-9)

    def test_2100mhz_5km(self):
        result = wi_los(RadioLink(2100.0, 5000.0, 30.0, 3.0))(5000.0)
        assert result.total_db == pytest.approx(127.25760600741486, abs=1e-9)

    def test_bs_height_independent(self):
        low = wi_los(RadioLink(1900.0, 5000.0, 30.0, 3.0))(5000.0)
        high = wi_los(RadioLink(1900.0, 5000.0, 80.0, 3.0))(5000.0)
        assert low.total_db == high.total_db


def _rooftop(geometry, frequency_mhz, rx_height_m):
    """L_RTS, the NLOS binder's rooftop_to_street component."""
    link = RadioLink(frequency_mhz, 1000.0, 30.0, rx_height_m)
    return wi_nlos(geometry, link)(link.distance_m).component("rooftop_to_street")


def _orientation_loss(angle_deg):
    # a 10 m street, 10 MHz and the roof 1 m above the receiver leave
    # L_RTS = -16.9 + L_ori
    geometry = WiGeometry(street_width_m=10.0, roof_height_m=4.0, orientation_deg=angle_deg)
    return _rooftop(geometry, 10.0, 3.0) + 16.9


class TestOrientation:
    def test_branch_values(self):
        assert _orientation_loss(0.0) == -10.0
        assert _orientation_loss(35.0) == 2.5
        assert _orientation_loss(30.0) == pytest.approx(0.62, abs=1e-9)
        assert _orientation_loss(90.0) == pytest.approx(0.01, abs=1e-9)
        assert _orientation_loss(40.0) == pytest.approx(2.875, abs=1e-12)

    def test_branch_boundaries(self):
        # fixed discontinuities of the piecewise definition, no smoothing
        assert _orientation_loss(34.999) == pytest.approx(2.389646, abs=1e-9)
        assert _orientation_loss(35.0) - _orientation_loss(34.999) == pytest.approx(
            0.110354, abs=1e-9)
        assert _orientation_loss(54.999) == pytest.approx(3.999925, abs=1e-9)
        assert _orientation_loss(55.0) - _orientation_loss(54.999) == pytest.approx(
            7.5e-5, abs=1e-9)

    def test_domain(self):
        message = "^street orientation must lie in \\[0, 90\\] degrees$"
        with pytest.raises(DomainError, match=message):
            WiGeometry(orientation_deg=-0.001)
        with pytest.raises(DomainError, match=message):
            WiGeometry(orientation_deg=90.001)


class TestGeometry:
    @pytest.mark.parametrize("name", ["street_width_m", "building_separation_m",
                                      "roof_height_m", "orientation_deg", "metro_factor_k"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_field_named(self, name, bad):
        with pytest.raises(DomainError, match=f"^{name} must be finite$"):
            WiGeometry(**{name: bad})


class TestRooftopToStreet:
    def test_urban_defaults(self):
        assert _rooftop(URBAN_GEOMETRY, 1900.0, 3.0) == pytest.approx(
            24.111760843760415, abs=1e-9)

    def test_all_terms_unity(self):
        geometry = WiGeometry(street_width_m=10.0, building_separation_m=50.0,
                              roof_height_m=4.0, orientation_deg=0.0)
        assert _rooftop(geometry, 10.0, 3.0) == pytest.approx(-26.9, abs=1e-12)

    def test_roof_at_receiver_height_rejected(self):
        geometry = WiGeometry(roof_height_m=3.0)
        with pytest.raises(DomainError, match="rooftop term undefined"):
            wi_nlos(geometry, RadioLink(1900.0, 5000.0, 30.0, 3.0))


class TestMultiscreen:
    def test_urban_defaults(self):
        link = RadioLink(1900.0, 5000.0, 30.0, 3.0)
        result = wi_nlos(URBAN_GEOMETRY, link)(link.distance_m)
        assert result.component("multiscreen") == pytest.approx(21.68553123539919, abs=1e-9)

    def test_log_terms_vanish(self):
        # d = 1 km and s_b = 1 m zero their terms; k_F*log(925) remains
        geometry = WiGeometry(building_separation_m=1.0, roof_height_m=15.0,
                              metro_factor_k=1.5)
        link = RadioLink(925.0, 1000.0, 30.0, 3.0)
        result = wi_nlos(geometry, link)(link.distance_m)
        assert result.component("multiscreen") == pytest.approx(20.46127338123722, abs=1e-9)

    def test_bs_at_roof_height_zero_base_term(self):
        geometry = WiGeometry(building_separation_m=1.0, roof_height_m=15.0,
                              metro_factor_k=1.5)
        link = RadioLink(925.0, 1000.0, 15.0, 3.0)
        result = wi_nlos(geometry, link)(link.distance_m)
        assert result.component("multiscreen") == pytest.approx(42.13543306904387, abs=1e-9)

    def test_as_printed_above_roof_differs(self):
        link = RadioLink(1900.0, 5000.0, 30.0, 3.0)
        corrected = wi_nlos(URBAN_GEOMETRY, link, FidelityMode.CORRECTED)(link.distance_m)
        printed = wi_nlos(URBAN_GEOMETRY, link, FidelityMode.AS_PRINTED)(link.distance_m)
        assert printed.component("multiscreen") != pytest.approx(
            corrected.component("multiscreen"), abs=0.1)

    def test_below_roof_values(self):
        geometry = WiGeometry(building_separation_m=50.0, roof_height_m=15.0,
                              metro_factor_k=1.5)
        link = RadioLink(1900.0, 1000.0, 10.0, 3.0)
        corrected = wi_nlos(geometry, link, FidelityMode.CORRECTED)(link.distance_m)
        printed = wi_nlos(geometry, link, FidelityMode.AS_PRINTED)(link.distance_m)
        assert corrected.component("multiscreen") == pytest.approx(34.7782308451575, abs=1e-9)
        assert printed.component("multiscreen") == pytest.approx(31.70729426140214, abs=1e-9)


class TestNlos:
    def test_urban_defaults(self):
        link = RadioLink(1900.0, 5000.0, 30.0, 3.0)
        result = wi_nlos(URBAN_GEOMETRY, link)(link.distance_m)
        assert result.total_db == pytest.approx(157.80176418493656, abs=1e-9)
        assert result.component("free_space") == pytest.approx(112.00447210577696, abs=1e-9)
        assert result.component("rooftop_to_street") == pytest.approx(24.111760843760415, abs=1e-9)
        assert result.component("multiscreen") == pytest.approx(21.68553123539919, abs=1e-9)

    def test_free_space_floor(self):
        # a tall mast and a low frequency push the diffraction sum negative
        geometry = WiGeometry(orientation_deg=30.0, metro_factor_k=1.5)
        link = RadioLink(1.0, 1000.0, 200.0, 3.0)
        result = wi_nlos(geometry, link)(link.distance_m)
        assert result.total_db == pytest.approx(32.45, abs=1e-12)
        assert any("clamped" in w for w in result.warnings)
        assert result.component("diffraction_floor") == pytest.approx(
            -(result.component("rooftop_to_street") + result.component("multiscreen")),
            abs=1e-12)

    def test_suburban_shift_is_componentwise(self):
        link = RadioLink(1900.0, 5000.0, 30.0, 3.0)
        urban = wi_nlos(URBAN_GEOMETRY, link)(link.distance_m)
        suburban_geometry = WiGeometry(street_width_m=25.0, building_separation_m=50.0,
                                       roof_height_m=15.0, orientation_deg=40.0,
                                       metro_factor_k=0.7)
        suburban = wi_nlos(suburban_geometry, link)(link.distance_m)
        assert suburban.total_db == pytest.approx(157.29197736467364, abs=1e-9)
        # the total moves exactly by the rooftop and multiscreen deltas
        delta = ((suburban.component("rooftop_to_street") - urban.component("rooftop_to_street"))
                 + (suburban.component("multiscreen") - urban.component("multiscreen")))
        assert suburban.total_db - urban.total_db == pytest.approx(delta, abs=1e-9)
        assert suburban.component("free_space") == urban.component("free_space")

    def test_as_printed_urban_defaults(self):
        link = RadioLink(1900.0, 5000.0, 30.0, 3.0)
        result = wi_nlos(URBAN_GEOMETRY, link, FidelityMode.AS_PRINTED)(link.distance_m)
        assert result.total_db == pytest.approx(173.21537766622149, abs=1e-9)

    def test_height_binding_warning(self):
        link = RadioLink(1900.0, 5000.0, 30.0, 3.0)
        result = wi_nlos(URBAN_GEOMETRY, link)(link.distance_m)
        assert any("roof height" in w and "base-station" in w for w in result.warnings)
        at_roof = wi_nlos(URBAN_GEOMETRY, RadioLink(1900.0, 5000.0, 15.0, 3.0))(5000.0)
        assert not any("base-station reading" in w for w in at_roof.warnings)

    def test_garbled_branch_warnings_as_printed(self):
        geometry = WiGeometry(roof_height_m=15.0, metro_factor_k=1.5)
        below_roof = RadioLink(1900.0, 1000.0, 10.0, 3.0)
        result = wi_nlos(geometry, below_roof, FidelityMode.AS_PRINTED)(below_roof.distance_m)
        garbled = [w for w in result.warnings if w.startswith("garbled branch")]
        assert len(garbled) == 1  # only the base term lacks a printed branch at d >= 0.5

        short = RadioLink(1900.0, 400.0, 10.0, 3.0)
        result = wi_nlos(geometry, short, FidelityMode.AS_PRINTED)(short.distance_m)
        garbled = [w for w in result.warnings if w.startswith("garbled branch")]
        assert len(garbled) == 2  # printed k_A and k_D only cover d > 0.5

        corrected = wi_nlos(geometry, short, FidelityMode.CORRECTED)(short.distance_m)
        assert not any(w.startswith("garbled branch") for w in corrected.warnings)

    def test_all_four_warnings_in_order(self):
        # below the rooftops at 100 m as printed: both garbled multiscreen
        # branches fire, the roof is not the mast height, and 1 MHz drives the
        # diffraction sum negative, so the floor fires too
        geometry = WiGeometry(street_width_m=100.0, roof_height_m=3.01)
        at = wi_nlos(geometry, RadioLink(1.0, 100.0, 3.005, 3.0), FidelityMode.AS_PRINTED)
        result = at(100.0)
        assert result.components == (
            ("free_space", 12.450000000000003),
            ("rooftop_to_street", -76.28000000000017),
            ("multiscreen", 74.68435301745424),
            ("diffraction_floor", 1.5956469825459294))
        assert result.warnings == (
            "garbled branch: corrected definition substituted for the multiscreen range "
            "offset below rooftop at d <= 0.5 km",
            "garbled branch: corrected definition substituted for the multiscreen distance "
            "slope below rooftop at d <= 0.5 km",
            "height symbols bound to roof height 3.01 m; the base-station reading (3.005 m) "
            "would shift the rooftop term by -6.02 dB",
            "negative diffraction sum clamped to the free-space floor")
        assert at.loss(100.0) == result.total_db
