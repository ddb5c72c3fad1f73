"""Scenario defaults, dispatch, sweeps, reference comparison, inversion."""

import dataclasses
import inspect
import math

import pytest

from pathcast import (
    BoundsError,
    DomainError,
    Environment,
    EricssonCoefficients,
    FidelityMode,
    ModelId,
    RadioLink,
    WiGeometry,
    amu_lookup,
    compare_against_reference,
    cost231_hata,
    default_scenario,
    ericsson,
    evaluate,
    invert_cell_range,
    load_curves,
    load_reference_rows,
    okumura,
    sui,
    sweep,
    wi_los,
    wi_nlos,
)
from pathcast import scenario as scenario_module


class TestDefaults:
    def test_urban_scenario_reproduces_simulation_table(self):
        s = default_scenario(Environment.URBAN)
        assert s.link.frequency_mhz == 1900.0
        assert s.link.distance_m == 5000.0
        assert s.link.bs_height_m == 30.0
        assert s.link.rx_height_m == 3.0
        assert s.wi_geometry.street_width_m == 25.0
        assert s.wi_geometry.building_separation_m == 50.0
        assert s.wi_geometry.roof_height_m == 15.0
        assert s.wi_geometry.orientation_deg == 30.0
        assert s.wi_geometry.metro_factor_k == 1.5
        assert s.wi_geometry.los is False
        assert s.shadow_margin_db == 10.6
        assert s.apply_shadow_margin is False
        assert s.include_sui_shadowing is True
        assert s.mode is FidelityMode.CORRECTED

    def test_suburban_and_rural_bindings(self):
        suburban = default_scenario(Environment.SUBURBAN)
        assert suburban.wi_geometry.orientation_deg == 40.0
        assert suburban.wi_geometry.metro_factor_k == 0.7
        assert suburban.shadow_margin_db == 8.2
        rural = default_scenario(Environment.RURAL)
        assert rural.wi_geometry.los is True
        assert rural.shadow_margin_db == 8.2

    def test_overrides(self):
        s = default_scenario(Environment.URBAN, bs_height_m=80.0, frequency_mhz=2100.0,
                             orientation_deg=12.0, wi_los=True)
        assert s.link.bs_height_m == 80.0
        assert s.link.frequency_mhz == 2100.0
        assert s.wi_geometry.orientation_deg == 12.0
        assert s.wi_geometry.los is True


class TestEvaluate:
    def test_wi_rural_is_los(self):
        s = default_scenario(Environment.RURAL)
        result = evaluate(ModelId.WALFISCH_IKEGAMI, s)
        assert result.total_db == pytest.approx(126.38829213179307, abs=1e-9)
        assert result == wi_los(s.link)(s.link.distance_m)

    def test_wi_urban_is_nlos(self):
        s = default_scenario(Environment.URBAN)
        assert evaluate(ModelId.WALFISCH_IKEGAMI, s) == wi_nlos(
            s.wi_geometry, s.link, s.mode)(s.link.distance_m)

    def test_okumura_requires_curves(self):
        s = default_scenario(Environment.URBAN)
        with pytest.raises(DomainError, match="curve table required"):
            evaluate(ModelId.OKUMURA, s)

    def test_shadow_margin_only_on_request(self):
        s = default_scenario(Environment.URBAN)
        base = evaluate(ModelId.SUI, s)
        assert all(label != "shadow_margin" for label, _ in base.components)
        with_margin = evaluate(ModelId.SUI, default_scenario(
            Environment.URBAN, apply_shadow_margin=True))
        assert with_margin.component("shadow_margin") == 10.6
        assert with_margin.total_db == pytest.approx(base.total_db + 10.6, abs=1e-9)

    def test_all_models_run_at_defaults(self, bundled_curves):
        s = default_scenario(Environment.SUBURBAN)
        for model in ModelId:
            result = evaluate(model, s, bundled_curves)
            assert result.total_db > 0

    def test_wi_rural_los_below_nlos_environments(self):
        # the only qualitative ordering of the printed comparison that the
        # formulas themselves reproduce
        rural = evaluate(ModelId.WALFISCH_IKEGAMI, default_scenario(Environment.RURAL))
        suburban = evaluate(ModelId.WALFISCH_IKEGAMI, default_scenario(Environment.SUBURBAN))
        urban = evaluate(ModelId.WALFISCH_IKEGAMI, default_scenario(Environment.URBAN))
        assert rural.total_db < suburban.total_db
        assert rural.total_db < urban.total_db


class TestSweep:
    def test_endpoints_only(self):
        s = default_scenario(Environment.RURAL)
        points = sweep(ModelId.WALFISCH_IKEGAMI, s, 1000.0, 5000.0, steps=2)
        assert [d for d, _ in points] == [1000.0, 5000.0]
        assert points[0][1].total_db == pytest.approx(108.21507201905658, abs=1e-9)
        assert points[1][1].total_db == pytest.approx(126.38829213179307, abs=1e-9)

    def test_degenerate_span(self):
        s = default_scenario(Environment.RURAL)
        points = sweep(ModelId.WALFISCH_IKEGAMI, s, 4999.99, 5000.0, steps=2)
        distances = [d for d, _ in points]
        assert distances == sorted(distances)
        assert distances[0] < distances[1]

    def test_precondition_violation_names_distance(self):
        s = default_scenario(Environment.URBAN)
        with pytest.raises(DomainError, match="50.00 m"):
            sweep(ModelId.SUI, s, 50.0, 5000.0, steps=4)

    def test_log_spacing_default(self):
        s = default_scenario(Environment.RURAL)
        points = sweep(ModelId.WALFISCH_IKEGAMI, s, 1000.0, 4000.0, steps=3)
        assert points[1][0] == pytest.approx(2000.0, rel=1e-12)

    def test_linear_spacing(self):
        s = default_scenario(Environment.RURAL)
        points = sweep(ModelId.WALFISCH_IKEGAMI, s, 1000.0, 4000.0, steps=3,
                       spacing="linear")
        assert points[1][0] == pytest.approx(2500.0, rel=1e-12)

    def test_invalid_parameters(self):
        s = default_scenario(Environment.RURAL)
        with pytest.raises(DomainError):
            sweep(ModelId.WALFISCH_IKEGAMI, s, 5000.0, 1000.0, steps=2)
        with pytest.raises(DomainError):
            sweep(ModelId.WALFISCH_IKEGAMI, s, 1000.0, 5000.0, steps=1)

    @pytest.mark.parametrize("d_min", [0.0, -1000.0, float("-inf")])
    def test_log_spacing_needs_positive_start(self, d_min):
        s = default_scenario(Environment.RURAL)
        with pytest.raises(DomainError, match="log spacing requires d_min > 0"):
            sweep(ModelId.WALFISCH_IKEGAMI, s, d_min, 5000.0, steps=3)
        with pytest.raises(DomainError, match="bracket requires d_min > 0"):
            invert_cell_range(ModelId.WALFISCH_IKEGAMI, s, 120.0, d_min, 5000.0)

    def test_iter_sweep_yields_the_points_before_a_failure(self, bundled_curves):
        s = default_scenario(Environment.URBAN)
        seen = []
        with pytest.raises(DomainError, match="sweep aborted at 100071.35 m: distance 100.071 km"):
            for point in scenario_module.iter_sweep(ModelId.OKUMURA, s, 50_000.0, 150_000.0,
                                                    20, bundled_curves):
                seen.append(point)
        assert len(seen) == 12
        fresh = default_scenario(Environment.URBAN, distance_m=50_000.0)
        assert seen[0][1] == evaluate(ModelId.OKUMURA, fresh, bundled_curves)

    def test_sweep_takes_iter_sweep_parameters(self):
        assert inspect.signature(sweep).parameters == \
            inspect.signature(scenario_module.iter_sweep).parameters

    def test_default_range(self):
        s = default_scenario(Environment.RURAL)
        points = sweep(ModelId.WALFISCH_IKEGAMI, s)
        assert (points[0][0], points[-1][0], len(points)) == (1000.0, 5000.0, 50)
        # the default bracket reaches past the default sweep end, to 10 km
        far = invert_cell_range(ModelId.WALFISCH_IKEGAMI, s, points[-1][1].total_db + 5.0)
        assert 5000.0 < far < 10000.0


# Walfisch-Ikegami geometries: LOS, NLOS with the BS above and below the
# roofs, and a wide street with a high mast whose diffraction sum is negative.
_WI_VARIANTS = [
    dict(wi_los=True),
    dict(wi_los=False),
    dict(wi_los=False, bs_height_m=12.0),
    dict(wi_los=False, frequency_mhz=150.0, bs_height_m=120.0, rx_height_m=1.0,
         roof_height_m=1.5, street_width_m=50.0, building_separation_m=100.0,
         orientation_deg=0.0),
]


@pytest.mark.parametrize("model", list(ModelId), ids=lambda m: m.value)
def test_sweep_points_equal_fresh_evaluation(model, bundled_curves):
    """Binding once must not change a single bit of any point."""
    d_min = 1000.0 if model is ModelId.OKUMURA else 150.0
    variants = _WI_VARIANTS if model is ModelId.WALFISCH_IKEGAMI else [{}]
    seen = set()
    for env in Environment:
        for mode in FidelityMode:
            for margin in (False, True):
                for variant in variants:
                    kwargs = dict(variant, mode=mode, apply_shadow_margin=margin)
                    points = sweep(model, default_scenario(env, **kwargs), d_min, 20_000.0,
                                   41, bundled_curves)
                    for distance, result in points:
                        fresh = default_scenario(env, distance_m=distance, **kwargs)
                        assert result == evaluate(model, fresh, bundled_curves)
                        seen.update(label for label, _ in result.components)
                        seen.update(result.warnings)
    assert "shadow_margin" in seen
    if model is ModelId.WALFISCH_IKEGAMI:
        # all three garbled-branch warnings: the sweep crosses d = 0.5 km
        assert sum(str(item).startswith("garbled branch") for item in seen) == 3
        assert "diffraction_floor" in seen


class TestCompare:
    def test_ledger_shape(self, bundled_curves):
        rows = load_reference_rows()
        assert len(rows) == 19
        ledger = compare_against_reference(rows, 0.5, bundled_curves)
        assert len(ledger.entries) == 57
        assert ledger.summary == "matched 4/57 within 0.50 dB"

    def test_only_wi_rural_matches(self, bundled_curves):
        ledger = compare_against_reference(load_reference_rows(), 0.5, bundled_curves)
        matches = [e for e in ledger.entries if e.verdict == "match"]
        assert len(matches) == 4
        for entry in matches:
            assert entry.row.model is ModelId.WALFISCH_IKEGAMI
            assert entry.environment is Environment.RURAL
            assert abs(entry.delta_db) <= 0.5

    def test_sui_urban_delta(self, bundled_curves):
        ledger = compare_against_reference(load_reference_rows(), 0.5, bundled_curves)
        entry = next(e for e in ledger.entries
                     if e.row.model is ModelId.SUI and e.row.freq_mhz == 1900.0
                     and e.row.bs_m == 30.0 and e.environment is Environment.URBAN)
        assert entry.printed_db == 72.17
        assert entry.computed_db == pytest.approx(199.17828966578986, abs=1e-9)
        assert entry.delta_db == pytest.approx(127.0, abs=0.05)
        assert entry.verdict == "mismatch"

    def test_notes_quote_mode_and_anomalies(self, bundled_curves):
        ledger = compare_against_reference(load_reference_rows(), 0.5, bundled_curves,
                                           FidelityMode.AS_PRINTED)
        assert all("mode=as_printed" in e.notes for e in ledger.entries)
        ericsson = [e for e in ledger.entries if e.row.model is ModelId.ERICSSON9999]
        assert all(any("anomaly" in n for n in e.notes) for e in ericsson)

    def test_empty_reference(self, bundled_curves):
        ledger = compare_against_reference((), 0.5, bundled_curves)
        assert ledger.entries == ()
        assert ledger.summary == "matched 0/0 within 0.50 dB"

    def test_missing_curves_becomes_notes(self):
        ledger = compare_against_reference(load_reference_rows(), 0.5, curves=None)
        assert len(ledger.entries) == 57
        okumura = [e for e in ledger.entries if e.row.model is ModelId.OKUMURA]
        assert all(e.computed_db is None for e in okumura)
        assert all(any("evaluation failed" in n for n in e.notes) for e in okumura)
        assert ledger.matched == 4

    def test_tolerance_must_be_positive(self, bundled_curves):
        with pytest.raises(DomainError):
            compare_against_reference(load_reference_rows(), 0.0, bundled_curves)


def _dip_table(bundled):
    """The bundled A_mu surface on a grid with nodes at 4.5, 5 and 5.5 km, with
    8 dB taken off at 5 km, written as curve CSV and read back through the
    loader: the default urban Okumura loss falls from 160.76 dB at 4.5 km to
    154.31 dB at 5 km."""
    dist_km = (1.0, 2.0, 4.5, 5.0, 5.5) + tuple(d for d in bundled.dist_km if d >= 10.0)
    lines = ["AMU," + ",".join(map(repr, dist_km))]
    for f in bundled.freq_mhz:
        amu_db = (amu_lookup(bundled, f, d * 1000.0) - (8.0 if d == 5.0 else 0.0)
                  for d in dist_km)
        lines.append(",".join(map(repr, (f, *amu_db))))
    lines.append("GAREA,freq_mhz,environment,gain_db")
    lines += [f"{f!r},{env.value},{gain!r}"
              for env, rows in bundled.garea.items() for f, gain in rows]
    lines.append("# source: bundled surface with a dip at 5 km")
    return load_curves("\n".join(lines))


_PRINTED_BRANCH_POINTS = (math.nextafter(500.0, 0.0), 500.0, math.nextafter(500.0, math.inf))


class TestInvertCellRange:
    def test_round_trip_wi_los(self):
        s = default_scenario(Environment.RURAL)
        target = evaluate(ModelId.WALFISCH_IKEGAMI, s).total_db
        distance = invert_cell_range(ModelId.WALFISCH_IKEGAMI, s, target,
                                     1000.0, 10000.0)
        assert distance == pytest.approx(5000.0, abs=0.01)

    def test_bracket_violation(self):
        s = default_scenario(Environment.RURAL)
        low = evaluate(ModelId.WALFISCH_IKEGAMI, s).total_db
        with pytest.raises(BoundsError, match="outside bracket"):
            invert_cell_range(ModelId.WALFISCH_IKEGAMI, s, low - 50.0, 1000.0, 10000.0)

    def test_upper_boundary_fixed_point(self):
        s = default_scenario(Environment.RURAL)
        at_top = dataclasses.replace(s, link=dataclasses.replace(s.link, distance_m=10000.0))
        top = evaluate(ModelId.WALFISCH_IKEGAMI, at_top).total_db
        assert invert_cell_range(ModelId.WALFISCH_IKEGAMI, s, top, 1000.0, 10000.0) == 10000.0

    def test_non_monotone_detected(self):
        # a very tall SUI mast drives the distance exponent negative
        s = default_scenario(Environment.URBAN, bs_height_m=800.0)
        with pytest.raises(DomainError, match="monotone"):
            invert_cell_range(ModelId.SUI, s, 150.0, 200.0, 5000.0)

    def test_dip_between_grid_nodes_detected(self, bundled_curves):
        # 17 log-spaced samples over 1-100 km all rise on this table, so a
        # sampled check passes it; the largest distance within 155 dB is
        # about 5034 m
        table = _dip_table(bundled_curves)
        s = default_scenario(Environment.URBAN)
        with pytest.raises(DomainError, match=r"PL\(4500.00 m\) = 160.7580 dB > "
                                              r"PL\(5000.00 m\) = 154.3130 dB"):
            invert_cell_range(ModelId.OKUMURA, s, 155.0, 1000.0, 100_000.0, table)

    def test_as_printed_wi_drop_above_500_m_detected(self):
        # below the roofs the printed k_A and k_D switch just above 500 m and
        # the loss drops about 1.8 dB; the corrected k_A is continuous there
        def scenario(mode):
            return default_scenario(Environment.SUBURBAN, bs_height_m=18.6,
                                    roof_height_m=19.9, mode=mode)
        at = scenario_module.bind(ModelId.WALFISCH_IKEGAMI, scenario(FidelityMode.AS_PRINTED))
        drop = at(500.0).total_db - at(_PRINTED_BRANCH_POINTS[2]).total_db
        assert drop == pytest.approx(1.8, abs=0.05)
        target = evaluate(ModelId.WALFISCH_IKEGAMI, scenario(FidelityMode.CORRECTED)).total_db
        with pytest.raises(DomainError, match=r"PL\(500.00 m\) = .* > PL\(500.00 m\)"):
            invert_cell_range(ModelId.WALFISCH_IKEGAMI, scenario(FidelityMode.AS_PRINTED),
                              target, 500.0, 8000.0)
        distance = invert_cell_range(ModelId.WALFISCH_IKEGAMI, scenario(FidelityMode.CORRECTED),
                                     target, 500.0, 8000.0)
        assert distance == pytest.approx(5000.0, abs=0.01)

    def test_every_binder_exposes_branch_points(self, bundled_curves):
        table = _dip_table(bundled_curves)
        link, at_roof = RadioLink(1900.0, 5000.0, 30.0, 3.0), RadioLink(1900.0, 5000.0, 40.0, 3.0)
        above, below = WiGeometry(roof_height_m=15.0), WiGeometry(roof_height_m=40.0)
        nodes = (1000.0, 2000.0, 4500.0, 5000.0, 5500.0, 10000.0, 20000.0, 30000.0,
                 50000.0, 70000.0, 100000.0)
        for env in Environment:
            assert sui(link, env).branch_points == ()
            assert okumura(link, env, table).branch_points == nodes
            assert okumura(link, env, table, clamp=True).branch_points == nodes
        assert wi_los(link).branch_points == ()
        for mode in FidelityMode:
            printed = mode is FidelityMode.AS_PRINTED
            for env in Environment:
                assert cost231_hata(link, env, mode).branch_points == ()
            assert ericsson(link, EricssonCoefficients(), mode).branch_points == ()
            assert wi_nlos(above, link, mode).branch_points == ()
            for bs_at_or_below_roofs in (link, at_roof):
                assert wi_nlos(below, bs_at_or_below_roofs, mode).branch_points == \
                    (_PRINTED_BRANCH_POINTS if printed else ())
        # the shadow-margin wrapper passes them on
        s = default_scenario(Environment.URBAN, apply_shadow_margin=True)
        assert scenario_module.bind(ModelId.OKUMURA, s, table).branch_points == nodes

    @pytest.mark.parametrize("model", list(ModelId))
    @pytest.mark.parametrize("distance_m", [1000.5, 3210.0, 9999.0])
    def test_no_distance_evaluated_twice(self, model, distance_m, bundled_curves, monkeypatch):
        s = default_scenario(Environment.URBAN)
        at_target = dataclasses.replace(s, link=dataclasses.replace(s.link, distance_m=distance_m))
        target = evaluate(model, at_target, bundled_curves).total_db
        seen = []
        bind = scenario_module.bind

        def recording_bind(*args):
            at = bind(*args)

            def recorded(d):
                result = at(d)
                seen.append((d, result.total_db))
                return result
            recorded.branch_points = at.branch_points
            return recorded
        monkeypatch.setattr(scenario_module, "bind", recording_bind)
        found = invert_cell_range(model, s, target, 1000.0, 10000.0, bundled_curves)
        # exactly 2 + interior branch points + bisection steps: d_min, the
        # branch points inside the bracket and d_max, then one midpoint of the
        # remaining bracket per step
        interior = [d for d in bind(model, s, bundled_curves).branch_points
                    if 1000.0 < d < 10000.0]
        checked = [1000.0, *interior, 10000.0]
        assert [d for d, _ in seen[:len(checked)]] == checked
        lo, hi = 1000.0, 10000.0
        for d, loss in seen[len(checked):]:
            assert d == 0.5 * (lo + hi)
            lo, hi = (d, hi) if loss <= target else (lo, d)
        assert found == lo
        assert len(seen) == len({d for d, _ in seen})
