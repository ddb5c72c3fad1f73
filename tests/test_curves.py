"""Curve table loading, validation and interpolation."""

import math

import pytest

from pathcast import (
    BoundsError,
    CurveLookupError,
    CurveParseError,
    Environment,
    amu_lookup,
    garea_lookup,
    load_curves,
)
from pathcast.curves import clamp_to_grid

import oracle

VALID = """\
# comment line
AMU,1,10,100
100,10.0,20.0,30.0
1000,15.0,25.0,35.0
3000,18.0,28.0,38.0

GAREA,freq_mhz,environment,gain_db
100,urban,0
3000,urban,0
100,suburban,5.0
3000,suburban,11.0
100,rural,20.0
3000,rural,31.0
# source: unit-test fixture
"""


class TestLoad:
    def test_valid_table(self):
        table = load_curves(VALID)
        assert table.freq_mhz == (100.0, 1000.0, 3000.0)
        assert table.dist_km == (1.0, 10.0, 100.0)
        assert table.amu_db[1] == (15.0, 25.0, 35.0)
        assert table.source_tag == "unit-test fixture"

    def test_accepts_bytes_and_streams(self, tmp_path):
        table_from_bytes = load_curves(VALID.encode("utf-8"))
        path = tmp_path / "curves.csv"
        path.write_text(VALID)
        with open(path, "rb") as fh:
            table_from_stream = load_curves(fh)
        assert table_from_bytes == table_from_stream

    def test_unsorted_distances(self):
        bad = VALID.replace("AMU,1,10,100", "AMU,10,1,100")
        with pytest.raises(CurveParseError, match="strictly increasing"):
            load_curves(bad)

    def test_single_frequency_row(self):
        lines = [l for l in VALID.splitlines() if not l.startswith(("1000,", "3000,1"))]
        with pytest.raises(CurveParseError, match="2"):
            load_curves("\n".join(lines))

    def test_non_rectangular(self):
        bad = VALID.replace("1000,15.0,25.0,35.0", "1000,15.0,25.0")
        with pytest.raises(CurveParseError, match="rectangular"):
            load_curves(bad)

    def test_missing_source_tag(self):
        bad = VALID.replace("# source: unit-test fixture", "")
        with pytest.raises(CurveParseError, match="source"):
            load_curves(bad)

    def test_malformed_number_names_line(self):
        bad = VALID.replace("1000,15.0,25.0,35.0", "1000,abc,25.0,35.0")
        with pytest.raises(CurveParseError, match="line 4"):
            load_curves(bad)

    def test_unknown_environment(self):
        bad = VALID.replace("100,rural,20.0", "100,open,20.0")
        with pytest.raises(CurveParseError, match="environment"):
            load_curves(bad)

    def test_nonzero_urban_gain(self):
        bad = VALID.replace("100,urban,0", "100,urban,1.5")
        with pytest.raises(CurveParseError, match="urban"):
            load_curves(bad)

    def test_non_finite_distance_header(self):
        bad = VALID.replace("AMU,1,10,100", "AMU,1,10,inf")
        with pytest.raises(CurveParseError, match="line 2: non-finite"):
            load_curves(bad)

    def test_non_finite_area_gain_frequency(self):
        bad = VALID.replace("100,rural,20.0", "inf,rural,20.0")
        with pytest.raises(CurveParseError, match="line 12: non-finite"):
            load_curves(bad)


class TestAmuLookup:
    def test_exact_at_every_node(self):
        table = load_curves(VALID)
        for i, freq in enumerate(table.freq_mhz):
            for j, dist in enumerate(table.dist_km):
                assert amu_lookup(table, freq, dist * 1000.0) == table.amu_db[i][j]

    def test_geometric_midpoint_is_corner_mean(self):
        table = load_curves(VALID)
        freq = math.sqrt(100.0 * 1000.0)
        dist_km = math.sqrt(1.0 * 10.0)
        mean = (10.0 + 20.0 + 15.0 + 25.0) / 4.0
        assert amu_lookup(table, freq, dist_km * 1000.0) == pytest.approx(mean, abs=1e-9)

    def test_out_of_bounds_messages(self):
        table = load_curves(VALID)
        with pytest.raises(BoundsError, match="frequency 50 MHz below grid minimum 100 MHz"):
            amu_lookup(table, 50.0, 5000.0)
        with pytest.raises(BoundsError, match="distance 150 km above grid maximum 100 km"):
            amu_lookup(table, 1000.0, 150_000.0)

    def test_clamp_returns_edge_value(self):
        table = load_curves(VALID)
        freq, dist, notes = clamp_to_grid(table, 5000.0, 150_000.0)
        assert amu_lookup(table, freq, dist) == amu_lookup(table, 3000.0, 100_000.0)
        assert len(notes) == 2

    def test_monotone_in_distance_on_bundled_grid(self, bundled_curves):
        for row in bundled_curves.amu_db:
            assert all(b >= a for a, b in zip(row, row[1:]))

    def test_bundled_span(self, bundled_curves):
        assert bundled_curves.freq_mhz[0] == 100.0
        assert bundled_curves.freq_mhz[-1] == 3000.0
        assert bundled_curves.dist_km[0] == 1.0
        assert bundled_curves.dist_km[-1] == 100.0
        assert bundled_curves.source_tag

    def test_agrees_with_independent_redigitization(self, bundled_curves):
        # second, coarser read of the published family around the operating
        # point; the two digitizations must agree within 1.5 dB
        anchor_freqs = [1000.0, 2000.0]
        anchor_dists = [2.0, 10.0]
        anchor_amu = [[25.5, 34.5], [28.5, 38.5]]
        independent = oracle.bilinear_log(anchor_freqs, anchor_dists, anchor_amu, 1900.0, 5.0)
        assert amu_lookup(bundled_curves, 1900.0, 5000.0) == pytest.approx(
            independent, abs=1.5)


class TestGareaLookup:
    def test_urban_always_zero(self, bundled_curves):
        for freq in (100.0, 430.0, 1900.0, 3000.0):
            assert garea_lookup(bundled_curves, freq, Environment.URBAN) == 0.0

    def test_exact_at_node(self):
        table = load_curves(VALID)
        assert garea_lookup(table, 100.0, Environment.SUBURBAN) == 5.0
        assert garea_lookup(table, 3000.0, Environment.SUBURBAN) == 11.0

    def test_rural_exceeds_suburban_at_1900(self, bundled_curves):
        rural = garea_lookup(bundled_curves, 1900.0, Environment.RURAL)
        suburban = garea_lookup(bundled_curves, 1900.0, Environment.SUBURBAN)
        assert rural > suburban > 0.0

    def test_missing_environment(self):
        no_rural = "\n".join(l for l in VALID.splitlines() if ",rural," not in l)
        table = load_curves(no_rural)
        with pytest.raises(CurveLookupError, match="rural"):
            garea_lookup(table, 1000.0, Environment.RURAL)

    def test_out_of_bounds(self):
        table = load_curves(VALID)
        with pytest.raises(BoundsError, match="frequency"):
            garea_lookup(table, 50.0, Environment.SUBURBAN)
