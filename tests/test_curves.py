"""Curve table loading, validation and interpolation."""

import copy
import dataclasses
import math
import pickle
import re
from fractions import Fraction
from pathlib import Path

import pytest

from pathcast import (
    BoundsError,
    CurveLookupError,
    CurveParseError,
    CurveTable,
    Environment,
    RadioLink,
    amu_lookup,
    garea_lookup,
    load_curves,
    load_default_curves,
    okumura,
)
from pathcast.curves import amu_at_frequency

import oracle
from conftest import (LOG_AXIS_DEFECTS, VALID_CURVES as VALID, bundled_curves_path,
                      defective_curves)


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
        for old, new, message in [
                ("AMU,1,10,100", "AMU,5", "line 2: at least 2 distance samples required"),
                ("GAREA,freq_mhz,environment,gain_db", "GAREA,freq,environment,gain_db",
                 "line 7: malformed GAREA header"),
                ("100,urban,0", "100,urban", "line 8: expected freq,environment,gain")]:
            with pytest.raises(CurveParseError, match=f"^{re.escape(message)}$"):
                load_curves(defective_curves(old, new))

    @pytest.mark.parametrize("second", ["AMU,2,20\n4000,5,6", "AMU,1,10,100\n4000,1,2,3"],
                             ids=["same-length", "longer"])
    def test_second_amu_header_names_line(self, second):
        # before, the same-length header relabelled the rows above it, and
        # the longer one was refused only as a non-rectangular grid
        with pytest.raises(CurveParseError, match="^line 4: second AMU header; "
                                                  "a table has one distance axis$"):
            load_curves(f"AMU,1,10\n100,1,2\n3000,3,4\n{second}\n# source: x\n")

    def test_area_gains_without_amu_header(self):
        # before, this was refused as "at least 2 frequency samples required"
        with pytest.raises(CurveParseError, match="^line 1: missing AMU header$"):
            load_curves("GAREA,freq_mhz,environment,gain_db\n100,urban,0\n# source: x\n")

    @pytest.mark.parametrize("tag", ["# source:", "#  source:   "])
    def test_empty_source_tag_names_line(self, tag):
        # before, the table loaded with source_tag ''
        bad = VALID.replace("# source: unit-test fixture", tag)
        line = VALID.splitlines().index("# source: unit-test fixture") + 1
        with pytest.raises(CurveParseError,
                           match=f"^line {line}: empty '# source:' provenance tag$"):
            load_curves(bad)

    def test_data_before_amu_header_names_line(self):
        with pytest.raises(CurveParseError, match="^line 1: data before the AMU header$"):
            load_curves("1,2,3\nAMU,1,100\n")

    def test_non_utf8_names_line(self, tmp_path):
        with pytest.raises(CurveParseError, match="line 2: not UTF-8"):
            load_curves(b"AMU,1,2\n\xff\n")
        path = tmp_path / "curves.csv"
        path.write_bytes(VALID.encode("utf-8").replace(b"1000,15.0", b"1000,\xe9"))
        with open(path, "rb") as fh, pytest.raises(CurveParseError, match="line 4: not UTF-8"):
            load_curves(fh)

    def test_leading_byte_order_mark_is_ignored(self, bundled_curves, tmp_path):
        # "CSV UTF-8" from a spreadsheet starts with a BOM; before, it hid
        # line 1's "#" and the table was refused as data before the AMU header
        path = tmp_path / "curves.csv"
        path.write_bytes(b"\xef\xbb\xbf" + Path(bundled_curves_path()).read_bytes())
        with open(path, "rb") as fh:
            assert load_curves(fh) == bundled_curves
        with open(path, encoding="utf-8") as fh:
            assert load_curves(fh) == bundled_curves
        # an undecodable byte is still named by its line in the file
        with pytest.raises(CurveParseError, match="^line 2: not UTF-8"):
            load_curves(b"\xef\xbb\xbfAMU,1,2\n\xff\n")

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

    @pytest.mark.parametrize("old,new,message", [case[1:] for case in LOG_AXIS_DEFECTS],
                             ids=[case[0] for case in LOG_AXIS_DEFECTS])
    def test_log_axis_defect_names_line(self, old, new, message):
        with pytest.raises(CurveParseError, match=f"^{re.escape(message)}$"):
            load_curves(defective_curves(old, new))


def _direct_table(**changes):
    fields = dict(freq_mhz=(100.0, 3000.0), dist_km=(1.0, 10.0), amu_db=((1.0, 2.0), (3.0, 4.0)),
                  garea={Environment.URBAN: ((100.0, 0.0),)}, source_tag="direct")
    return CurveTable(**{**fields, **changes})


class TestDirectTable:
    """A table built without the loader keeps the loader's rules; before, the
    first two cases ended in ZeroDivisionError and a math domain error."""

    def test_valid_table_builds(self):
        assert amu_lookup(_direct_table(), 3000.0, 10_000.0) == 4.0

    @pytest.mark.parametrize("changes,message", [
        (dict(freq_mhz=(100.0, 100.0)),
         "frequencies must be strictly increasing in log10, got 100.0 after 100.0"),
        (dict(dist_km=(0.0, 10.0)), "distances must be positive, got 0"),
        (dict(freq_mhz=(100.0, math.inf)), "non-finite value inf"),
        (dict(amu_db=((1.0, math.nan), (3.0, 4.0))), "non-finite value nan"),
        (dict(garea={Environment.URBAN: ((100.0, -math.inf),)}), "non-finite value -inf"),
        (dict(dist_km=(1.0,), amu_db=((1.0,), (3.0,))), "at least 2 distance samples required"),
        (dict(freq_mhz=(100.0,), amu_db=((1.0, 2.0),)), "at least 2 frequency samples required"),
        (dict(amu_db=((1.0, 2.0), (3.0,))), "expected one attenuation row per frequency and "
                                            "one value per distance (grid must be rectangular)"),
        (dict(amu_db=((1.0, 2.0),)), "expected one attenuation row per frequency and "
                                     "one value per distance (grid must be rectangular)"),
        (dict(garea={Environment.SUBURBAN: ((3000.0, 1.0), (100.0, 2.0))}),
         "suburban area-gain frequencies must be strictly increasing in log10, "
         "got 100.0 after 3000.0"),
        # before, this built, and its urban Okumura results carried area_gain -5.0
        (dict(garea={Environment.URBAN: ((100.0, 5.0), (3000.0, 5.0))}),
         "urban area gain must be 0 dB (reference environment)"),
        # before, these three raised ValueError, AttributeError and OverflowError
        (dict(garea={Environment.URBAN: ((100.0, 0.0, 1.0),)}),
         "area-gain row (100.0, 0.0, 1.0) is not a (frequency, gain) pair"),
        (dict(garea={"urban": ((100.0, 0.0),)}), "unknown environment 'urban'"),
        (dict(freq_mhz=(100, 10**400)), "non-finite value inf"),
    ], ids=["frequency-log-equal", "distance-zero", "frequency-inf", "amu-nan", "gain-inf",
            "one-distance", "one-frequency", "ragged-row", "missing-row", "gain-unsorted",
            "urban-gain-nonzero", "gain-row-not-a-pair", "gain-key-not-an-environment",
            "frequency-int-past-float-range"])
    def test_loader_rules_hold(self, changes, message):
        with pytest.raises(CurveParseError, match=f"^{re.escape(message)}$"):
            _direct_table(**changes)

    def test_generator_area_gain_rows_are_kept(self):
        # Before, the checks used the generators up, and every lookup raised
        # "no area-gain rows for environment 'suburban'"
        bundled = load_default_curves()
        table = dataclasses.replace(bundled, garea={
            env: (row for row in rows) for env, rows in bundled.garea.items()})
        for env in Environment:
            for frequency in (150.0, 1000.0, 1900.0):
                assert garea_lookup(table, frequency, env) == garea_lookup(bundled, frequency, env)
        assert table.garea == bundled.garea
        assert all(type(rows) is tuple and all(type(row) is tuple for row in rows)
                   for rows in table.garea.values())


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

    @pytest.mark.parametrize("lookup,message", [
        (lambda t: amu_lookup(t, math.nan, 5000.0), "frequency nan MHz"),
        (lambda t: amu_lookup(t, 1000.0, math.nan), "distance nan km"),
        (lambda t: garea_lookup(t, math.nan, Environment.RURAL), "frequency nan MHz"),
        (lambda t: amu_at_frequency(t, math.nan)(5.0), "frequency nan MHz"),
    ], ids=["amu-frequency", "amu-distance", "garea", "bound-amu"])
    def test_nan_is_refused(self, lookup, message):
        with pytest.raises(BoundsError, match=f"^{message} is not a number$"):
            lookup(load_curves(VALID))

    @pytest.mark.parametrize("lookup,message", [
        (lambda t: amu_lookup(t, 1000.0, 10**400), "distance inf km above grid maximum 100 km"),
        (lambda t: amu_lookup(t, 1000.0, -10**400), "distance -inf km below grid minimum 1 km"),
        (lambda t: amu_lookup(t, 10**400, 5000.0),
         "frequency inf MHz above grid maximum 3000 MHz"),
        (lambda t: amu_lookup(t, Fraction(10**400, 3), 5000.0),
         "frequency inf MHz above grid maximum 3000 MHz"),
        (lambda t: garea_lookup(t, 10**400, Environment.SUBURBAN),
         "frequency inf MHz above grid maximum 3000 MHz"),
    ], ids=["amu-distance", "amu-distance-negative", "amu-frequency", "amu-fraction", "garea"])
    def test_number_past_float_range_is_refused(self, lookup, message):
        # before, each raised OverflowError
        with pytest.raises(BoundsError, match=f"^{re.escape(message)}$"):
            lookup(load_curves(VALID))

    @pytest.mark.parametrize("freq,dist_m,message", [
        (3000.0000000000005, 5000.0,
         "frequency 3000.0000000000005 MHz above grid maximum 3000 MHz"),
        (99.99999999999999, 5000.0, "frequency 99.99999999999999 MHz below grid minimum 100 MHz"),
        (1000.0, 100_000.00000000001, "distance 100.00000000000001 km above grid maximum 100 km"),
    ])
    def test_value_next_to_an_edge_is_shown_in_full(self, freq, dist_m, message):
        with pytest.raises(BoundsError, match=f"^{re.escape(message)}$"):
            amu_lookup(load_curves(VALID), freq, dist_m)

    def test_clamp_returns_edge_value(self):
        table = load_curves(VALID)
        result = okumura(RadioLink(5000.0, 150_000.0, 30.0, 3.0), Environment.URBAN, table,
                         clamp=True)(150_000.0)
        assert result.component("median_attenuation") == amu_lookup(table, 3000.0, 100_000.0)
        assert result.warnings == ("frequency 5000 MHz clamped to grid edge 3000 MHz",
                                   "distance 150000 m clamped to grid edge 100000 m")

    @pytest.mark.parametrize("distance_m,edge_km", [(200_000.0, 127.7539), (5000.0, 17.0151)])
    def test_clamp_pins_each_edge_in_km(self, distance_m, edge_km):
        # before, the edge went to metres and back, one ulp off the grid:
        # "distance 127.75390000000002 km above grid maximum 127.754 km"
        table = CurveTable(freq_mhz=(100.0, 3000.0), dist_km=(17.0151, 127.7539),
                           amu_db=((1.0, 2.0), (3.0, 4.0)),
                           garea={Environment.URBAN: ((100.0, 0.0), (3000.0, 0.0))},
                           source_tag="odd edges")
        link = RadioLink(1900.0, 50_000.0, 30.0, 3.0)
        at = okumura(link, Environment.URBAN, table, clamp=True)
        result = at(distance_m)
        assert result.component("median_attenuation") == \
            amu_at_frequency(table, 1900.0)(edge_km)
        assert result.warnings == (f"distance {distance_m:g} m clamped to grid edge "
                                   f"{edge_km * 1000.0:g} m",)
        assert at.loss(distance_m) == result.total_db
        assert at.losses([distance_m, 50_000.0]) == [result.total_db, at.loss(50_000.0)]

    def test_clamp_pins_the_amu_axes_only(self):
        # the area-gain rows must still cover the clamped frequency
        table = _direct_table()  # urban area gain at 100 MHz only
        at = okumura(RadioLink(1900.0, 5000.0, 30.0, 3.0), Environment.URBAN, table, clamp=True)
        with pytest.raises(BoundsError, match="^frequency 1900 MHz above grid maximum 100 MHz$"):
            at(5000.0)

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


class TestAmuAtFrequency:
    def test_agrees_with_the_oracle(self, bundled_curves):
        t = bundled_curves
        freqs = t.freq_mhz + tuple(math.sqrt(a * b) for a, b in zip(t.freq_mhz, t.freq_mhz[1:]))
        dists_km = t.dist_km + tuple(a + (b - a) / 3 for a, b in zip(t.dist_km, t.dist_km[1:]))
        for freq in freqs:
            at = amu_at_frequency(t, freq)
            for d_km in dists_km:
                assert at(d_km) == pytest.approx(
                    oracle.bilinear_log(t.freq_mhz, t.dist_km, t.amu_db, freq, d_km), abs=1e-9)

    def test_frequency_checked_when_bound_distance_when_called(self):
        table = load_curves(VALID)
        with pytest.raises(BoundsError, match="^frequency 3500 MHz above grid maximum 3000 MHz$"):
            amu_at_frequency(table, 3500.0)
        at = amu_at_frequency(table, 1000.0)
        with pytest.raises(BoundsError, match="^distance 150 km above grid maximum 100 km$"):
            at(150.0)
        assert at(10.0) == 25.0

    def test_km_lookup_is_amu_lookup_bit_for_bit(self, bundled_curves):
        t = bundled_curves
        freqs = [f for node in t.freq_mhz
                 for f in (math.nextafter(node, 0.0), node, math.nextafter(node, math.inf))
                 if t.freq_mhz[0] <= f <= t.freq_mhz[-1]]
        dists_m = [d for node in t.dist_km
                   for d in (math.nextafter(node * 1000.0, 0.0), node * 1000.0,
                             math.nextafter(node * 1000.0, math.inf))
                   if t.dist_km[0] <= d / 1000.0 <= t.dist_km[-1]]
        for freq in freqs:
            at = amu_at_frequency(t, freq)
            for d in dists_m:
                assert at(d / 1000.0).hex() == amu_lookup(t, freq, d).hex(), (freq, d)


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

    def test_reads_the_rows_the_table_was_built_with(self):
        # the table keeps a read-only copy of the rows it checked: a change to
        # the mapping it was built from reaches neither garea nor a lookup
        no_rural = load_curves("\n".join(l for l in VALID.splitlines() if ",rural," not in l))
        rows = dict(no_rural.garea)
        table = dataclasses.replace(no_rural, garea=rows)
        rows[Environment.RURAL] = ((100.0, 1.0), (3000.0, 2.0))
        del rows[Environment.SUBURBAN]
        assert table.garea == no_rural.garea
        with pytest.raises(CurveLookupError,
                           match="^no area-gain rows for environment 'rural'$"):
            garea_lookup(table, 1000.0, Environment.RURAL)
        assert garea_lookup(table, 3000.0, Environment.SUBURBAN) == 11.0

    @pytest.mark.parametrize("change", [
        lambda g: g.__setitem__(Environment.RURAL, ((100.0, 1.0), (3000.0, 2.0))),
        lambda g: g.__delitem__(Environment.RURAL),
        lambda g: g.clear(),
        lambda g: g.pop(Environment.RURAL),
        lambda g: g.popitem(),
        lambda g: g.setdefault(Environment.RURAL, ()),
        lambda g: g.update({Environment.RURAL: ()}),
        lambda g: g.__ior__({Environment.RURAL: ()}),
    ], ids=["setitem", "delitem", "clear", "pop", "popitem", "setdefault", "update", "ior"])
    def test_garea_is_read_only(self, change):
        # before, a change was kept: garea then disagreed with garea_lookup
        table = load_default_curves()
        rows = dict(table.garea)
        with pytest.raises(TypeError, match="^curve table area gains are read-only$"):
            change(table.garea)
        assert table.garea == rows
        assert garea_lookup(table, 3000.0, Environment.RURAL) == 31.1

    def test_garea_reads_copies_and_pickles_as_a_dict(self):
        table = load_default_curves()
        rows = dict(table.garea)
        assert table.garea == rows and repr(table.garea) == repr(rows)
        for other in (copy.copy(table), copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
            assert other == table
            assert garea_lookup(other, 1900.0, Environment.RURAL) == \
                garea_lookup(table, 1900.0, Environment.RURAL)
        for twin in (copy.copy(table.garea), copy.deepcopy(table.garea),
                     pickle.loads(pickle.dumps(table.garea)), copy.deepcopy(table).garea,
                     pickle.loads(pickle.dumps(table)).garea):
            assert twin == rows
            with pytest.raises(TypeError):
                twin[Environment.RURAL] = ()
        assert type(table.garea | {Environment.RURAL: ()}) is dict

    def test_out_of_bounds(self):
        table = load_curves(VALID)
        with pytest.raises(BoundsError, match="frequency"):
            garea_lookup(table, 50.0, Environment.SUBURBAN)

    def test_one_row_and_empty_environments(self):
        # one area-gain row is a one-node axis, with no segment to interpolate
        table = _direct_table()
        over = "^frequency 150 MHz above grid maximum 100 MHz$"
        assert garea_lookup(table, 100.0, Environment.URBAN) == 0.0
        with pytest.raises(BoundsError, match=over):
            garea_lookup(table, 150.0, Environment.URBAN)
        link = RadioLink(frequency_mhz=100.0, distance_m=1000.0, bs_height_m=30.0,
                         rx_height_m=1.5)
        assert okumura(link, Environment.URBAN, table)(1000.0).component("area_gain") == 0.0
        with pytest.raises(BoundsError, match=over):
            okumura(dataclasses.replace(link, frequency_mhz=150.0), Environment.URBAN,
                    table)(1000.0)
        with pytest.raises(CurveLookupError,
                           match="^no area-gain rows for environment 'rural'$"):
            garea_lookup(_direct_table(garea={Environment.RURAL: ()}), 100.0, Environment.RURAL)
