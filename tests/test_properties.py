"""Property suites over seeded random inputs (>= 100 cases each)."""

import copy
import dataclasses
import itertools
import json
import math
import pickle
import random
import re
from decimal import Decimal
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from pathcast import (
    BoundsError,
    CurveTable,
    DomainError,
    Environment,
    EricssonCoefficients,
    FidelityMode,
    ModelId,
    PathLossResult,
    PathcastError,
    RadioLink,
    Scenario,
    WiGeometry,
    bind,
    cost231_hata,
    default_scenario,
    ericsson,
    evaluate,
    invert_cell_range,
    load_default_curves,
    okumura,
    sui,
    wi_los,
    wi_nlos,
)
from pathcast import curves as curves_module
from pathcast import propagation
from pathcast import scenario as scenario_module
from pathcast.cli import _COMMANDS, _FIELDS, _REQUIRED, _command_fields
from pathcast.curves import amu_at_frequency
from pathcast.scenario import iter_sweep

from conftest import (LOG_AXIS_DEFECTS, VALID_CURVES, bundled_curves_path, defective_curves,
                      invoke_cli, plain_bisection)

N_CASES = 120


def random_link(rng, f_lo=100.0, f_hi=3000.0, d_lo=150.0, d_hi=80_000.0):
    rx = rng.uniform(1.0, 10.0)
    return RadioLink(
        frequency_mhz=rng.uniform(f_lo, f_hi),
        distance_m=rng.uniform(d_lo, d_hi),
        bs_height_m=rng.uniform(rx + 1.0, 200.0),
        rx_height_m=rx,
    )


def random_geometry(rng, rx_height):
    roof = rng.uniform(rx_height + 1.0, 40.0)
    return WiGeometry(
        street_width_m=rng.uniform(5.0, 50.0),
        building_separation_m=rng.uniform(10.0, 100.0),
        roof_height_m=roof,
        orientation_deg=rng.uniform(0.0, 90.0),
        metro_factor_k=rng.choice([0.7, 1.5]),
    )


class TestComponentAdditivity:
    def test_all_models(self, bundled_curves):
        rng = random.Random(413)
        for _ in range(N_CASES):
            link = random_link(rng, d_lo=150.0, d_hi=90_000.0)
            env = rng.choice(list(Environment))
            mode = rng.choice(list(FidelityMode))
            geometry = random_geometry(rng, link.rx_height_m)
            results = [
                sui(link, env, rng.random() < 0.5)(link.distance_m),
                cost231_hata(link, env, mode)(link.distance_m),
                wi_los(link)(link.distance_m),
                wi_nlos(geometry, link, mode)(link.distance_m),
                ericsson(link, mode=mode)(link.distance_m),
            ]
            on_grid = random_link(rng, d_lo=1000.0, d_hi=100_000.0)  # Okumura's 1-100 km
            results.append(okumura(on_grid, env, bundled_curves)(on_grid.distance_m))
            for result in results:
                assert abs(result.total_db - sum(v for _, v in result.components)) <= 1e-9


class TestDistanceMonotonicity:
    def _check(self, rng, evaluate_at):
        for _ in range(N_CASES):
            d1 = rng.uniform(150.0, 60_000.0)
            d2 = rng.uniform(150.0, 60_000.0)
            if d1 == d2:
                continue
            lo, hi = sorted((d1, d2))
            assert evaluate_at(hi) > evaluate_at(lo)

    def test_sui(self):
        rng = random.Random(1)
        link = random_link(rng, d_lo=150.0)
        env = Environment.URBAN
        assert sui(link, env)(1000.0).component("distance") > 0  # 10*gamma at 10*d0
        self._check(rng, lambda d: sui(
            RadioLink(link.frequency_mhz, d, link.bs_height_m, link.rx_height_m),
            env)(d).total_db)

    def test_cost231_hata(self):
        rng = random.Random(2)
        for _ in range(N_CASES):
            f = rng.uniform(1500.0, 2000.0)
            hb = rng.uniform(10.0, 200.0)
            d1, d2 = sorted((rng.uniform(200, 60_000), rng.uniform(200, 60_000)))
            if d1 == d2:
                continue
            low = cost231_hata(RadioLink(f, d1, hb, 3.0), Environment.URBAN)(d1)
            high = cost231_hata(RadioLink(f, d2, hb, 3.0), Environment.URBAN)(d2)
            assert high.total_db > low.total_db

    def test_wi_los(self):
        rng = random.Random(3)
        self._check(rng, lambda d: wi_los(RadioLink(1900.0, d, 30.0, 3.0))(d).total_db)

    def test_ericsson_default_coefficients(self):
        rng = random.Random(4)
        for _ in range(N_CASES):
            hb = rng.uniform(1.0, 200.0)
            d1, d2 = sorted((rng.uniform(150, 60_000), rng.uniform(150, 60_000)))
            if d1 == d2:
                continue
            rx = 0.5 if hb < 3.0 else 3.0
            low = ericsson(RadioLink(1900.0, d1, hb, rx))(d1)
            high = ericsson(RadioLink(1900.0, d2, hb, rx))(d2)
            assert high.total_db > low.total_db


class TestFrequencyMonotonicity:
    def test_free_space_terms(self, bundled_curves):
        rng = random.Random(5)
        for _ in range(N_CASES):
            f1, f2 = sorted((rng.uniform(100, 3000), rng.uniform(100, 3000)))
            if f1 == f2:
                continue
            link1 = RadioLink(f1, 5000.0, 30.0, 3.0)
            link2 = RadioLink(f2, 5000.0, 30.0, 3.0)
            assert sui(link2, Environment.URBAN)(5000.0).component("free_space_ref") > \
                sui(link1, Environment.URBAN)(5000.0).component("free_space_ref")
            assert wi_los(link2)(link2.distance_m).component("frequency") > \
                wi_los(link1)(link1.distance_m).component("frequency")
            nlos1 = wi_nlos(WiGeometry(), link1)(link1.distance_m)
            nlos2 = wi_nlos(WiGeometry(), link2)(link2.distance_m)
            assert nlos2.component("free_space") > nlos1.component("free_space")
            oku1 = okumura(link1, Environment.URBAN, bundled_curves)(link1.distance_m)
            oku2 = okumura(link2, Environment.URBAN, bundled_curves)(link2.distance_m)
            assert oku2.component("free_space") > oku1.component("free_space")


class TestSuiGammaOrdering:
    def test_a_exceeds_b_exceeds_c(self):
        rng = random.Random(6)
        for _ in range(N_CASES):
            hb = rng.uniform(10.0, 80.0)
            # 10*gamma at 10*d0, urban (A), suburban (B) and rural (C)
            gammas = [sui(RadioLink(1900.0, 1000.0, hb, 3.0), env)(1000.0).component("distance")
                      for env in (Environment.URBAN, Environment.SUBURBAN, Environment.RURAL)]
            assert gammas[0] > gammas[1] > gammas[2]


class TestModeAgreement:
    def test_errata_free_formulas(self):
        rng = random.Random(7)
        for _ in range(N_CASES):
            link = random_link(rng)
            urban_corr = cost231_hata(link, Environment.URBAN,
                                      FidelityMode.CORRECTED)(link.distance_m)
            urban_printed = cost231_hata(link, Environment.URBAN,
                                         FidelityMode.AS_PRINTED)(link.distance_m)
            assert urban_corr.total_db == urban_printed.total_db
            assert urban_corr.components == urban_printed.components
            # SUI and W-I LOS take no mode at all; equal inputs, equal outputs
            env = rng.choice(list(Environment))
            assert sui(link, env)(link.distance_m) == sui(link, env)(link.distance_m)
            assert wi_los(link)(link.distance_m) == wi_los(link)(link.distance_m)


class TestInterpolationProperties:
    def test_node_exactness(self, bundled_curves):
        for i, freq in enumerate(bundled_curves.freq_mhz):
            at = amu_at_frequency(bundled_curves, freq)
            for j, dist in enumerate(bundled_curves.dist_km):
                assert at(dist) == bundled_curves.amu_db[i][j]

    def test_cell_boundedness(self, bundled_curves):
        rng = random.Random(8)
        freqs = bundled_curves.freq_mhz
        dists = bundled_curves.dist_km
        for _ in range(N_CASES):
            fi = rng.randrange(len(freqs) - 1)
            di = rng.randrange(len(dists) - 1)
            f = rng.uniform(freqs[fi], freqs[fi + 1])
            d = rng.uniform(dists[di], dists[di + 1])
            corners = [bundled_curves.amu_db[fi][di], bundled_curves.amu_db[fi][di + 1],
                       bundled_curves.amu_db[fi + 1][di], bundled_curves.amu_db[fi + 1][di + 1]]
            value = amu_at_frequency(bundled_curves, f)(d)
            assert min(corners) - 1e-9 <= value <= max(corners) + 1e-9


class TestSweepDeterminism:
    def test_repeated_runs_equal(self, bundled_curves):
        scenario = default_scenario(Environment.SUBURBAN)
        for model in (ModelId.SUI, ModelId.OKUMURA, ModelId.WALFISCH_IKEGAMI):
            runs = [tuple(iter_sweep(model, scenario, 1500.0, 50_000.0, 120, bundled_curves))
                    for _ in range(3)]
            assert runs[0] == runs[1] == runs[2]
            assert [d for d, _ in runs[0]] == sorted(d for d, _ in runs[0])


class TestPurity:
    def test_equal_inputs_equal_outputs(self, bundled_curves):
        rng = random.Random(9)
        for _ in range(N_CASES):
            link = random_link(rng)
            env = rng.choice(list(Environment))
            geometry = random_geometry(rng, link.rx_height_m)
            mode = rng.choice(list(FidelityMode))
            assert wi_nlos(geometry, link, mode)(link.distance_m) == \
                wi_nlos(geometry, link, mode)(link.distance_m)
            on_grid = random_link(rng, d_lo=1000.0, d_hi=100_000.0)  # Okumura's 1-100 km
            assert okumura(on_grid, env, bundled_curves)(on_grid.distance_m) == \
                okumura(on_grid, env, bundled_curves)(on_grid.distance_m)


class TestResultInvariants:
    def test_total_is_left_to_right_sum(self):
        # A compensated sum (sum() of floats from Python 3.12 on) gives 0.6 here
        components = (("a", 0.1), ("b", 0.2), ("c", 0.3), ("d", -1e-17))
        result = PathLossResult(components, ("note",))
        assert result.total_db == (((0.1 + 0.2) + 0.3) + -1e-17) == 0.6000000000000001
        assert result.warnings == ("note",)
        assert not hasattr(result, "__dict__")

    def test_total_is_not_an_argument(self):
        with pytest.raises(TypeError):
            PathLossResult(total_db=1.0, components=(("a", 1.0),))
        result = PathLossResult((("a", 1.0),))
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.total_db = 2.0

    def test_empty_components(self):
        with pytest.raises(DomainError, match="at least one component"):
            PathLossResult(())

    def test_duplicate_label(self):
        with pytest.raises(DomainError, match="unique"):
            PathLossResult((("a", 1.0), ("b", 2.0), ("a", 1.0)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400])
    def test_non_finite_component(self, bad):
        with pytest.raises(DomainError, match="finite"):
            PathLossResult((("a", 1.0), ("b", bad)))

    def test_any_iterables_read_once_and_stored_as_tuples(self):
        result = PathLossResult((c for c in (("a", 1.0), ("b", 2.0))), (w for w in ("note",)))
        assert result.components == (("a", 1.0), ("b", 2.0))
        assert result.total_db == 3.0 and result.warnings == ("note",)
        listed = PathLossResult([("a", 1.0)], ["note"])
        assert type(listed.components) is tuple and type(listed.warnings) is tuple
        assert hash(listed) == hash(PathLossResult((("a", 1.0),), ("note",)))

    @pytest.mark.parametrize("components, warnings, message", [
        (((1, 1.0),), (), "component label 1 is not a string"),
        ((("a", 1.0), (None, 2.0)), (), "component label None is not a string"),
        ((("a", 1.0),), "abc", "warnings must be a sequence of strings, not one string"),
        ((("a", 1.0),), ("note", 7), "warning 7 is not a string"),
    ])
    def test_label_or_warning_not_a_string(self, components, warnings, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            PathLossResult(components, warnings)

    @pytest.mark.parametrize("components, message", [
        ((("a", "x"),), "every component value must be a real number"),
        ((("a", 1.0), ("b", None)), "every component value must be a real number"),
        ((("a", 1j),), "every component value must be a real number"),
        ((("a", 0.5), ("b", 0.5j)), "every component value must be a real number"),
        ((("a",),), "component ('a',) is not a (label, value) pair"),
        ((("a", 1.0, 2.0),), "component ('a', 1.0, 2.0) is not a (label, value) pair"),
        ((5,), "component 5 is not a (label, value) pair"),
        # the earlier checks keep their messages
        ((("a", 1.0), ("a", "x")), "component labels must be unique"),
        (((1, "x"),), "component label 1 is not a string"),
    ])
    def test_component_not_a_label_and_real_number(self, components, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            PathLossResult(components)

    def test_real_number_values_and_any_pairs(self):
        result = PathLossResult((("a", 1), ["b", Fraction(1, 2)], iter(("c", True))))
        assert result.total_db == 2.5
        assert result.components == (("a", 1), ("b", Fraction(1, 2)), ("c", True))
        assert all(type(component) is tuple for component in result.components)

    @pytest.mark.parametrize("label", ["nope", 1, ["x"]],
                             ids=["absent", "not-a-str", "unhashable"])
    def test_component_refuses_a_label_it_lacks(self, label):
        # before, a bare KeyError, or a TypeError for an unhashable label
        result = evaluate(ModelId.SUI, default_scenario(Environment.URBAN))
        assert all(result.component(name) == value for name, value in result.components)
        with pytest.raises(DomainError, match=f"^no component labelled {re.escape(repr(label))}$"):
            result.component(label)

    def test_margin_adds_exactly(self, bundled_curves):
        rng = random.Random(77)
        for _ in range(N_CASES):
            env = rng.choice(list(Environment))
            base = default_scenario(env, frequency_mhz=rng.uniform(500.0, 2000.0),
                                    mode=rng.choice(list(FidelityMode)))
            margined = dataclasses.replace(base, apply_shadow_margin=True,
                                           shadow_margin_db=rng.uniform(0.0, 12.0))
            model = rng.choice(list(ModelId))
            d = rng.uniform(1000.0, 20_000.0)
            plain = bind(model, base, bundled_curves)(d)
            result = bind(model, margined, bundled_curves)(d)
            assert result.total_db == plain.total_db + margined.shadow_margin_db
            assert result.components == \
                plain.components + (("shadow_margin", margined.shadow_margin_db),)
            assert result.warnings == plain.warnings


#: One scenario per binder layout: SUI with and without shadowing, WI NLOS
#: with the BS above the roofs (with the diffraction floor), below them in
#: both modes, and WI LOS.
_LAYOUT_SCENARIOS = (
    default_scenario(Environment.URBAN),
    default_scenario(Environment.SUBURBAN, include_sui_shadowing=False,
                     mode=FidelityMode.AS_PRINTED),
    default_scenario(Environment.URBAN, frequency_mhz=150.0, bs_height_m=200.0,
                     roof_height_m=3.5, street_width_m=60.0, orientation_deg=0.0,
                     building_separation_m=100.0),
    default_scenario(Environment.URBAN, bs_height_m=12.0),
    default_scenario(Environment.URBAN, bs_height_m=12.0, mode=FidelityMode.AS_PRINTED),
    default_scenario(Environment.RURAL),
)


class TestBinderResults:
    """Results the binders and the shadow-margin wrapper build, each through
    ``PathLossResult(...)``."""

    def test_every_layout_rebuilds_through_the_public_constructor(self, bundled_curves):
        emitted = set()
        for scenario in _LAYOUT_SCENARIOS:
            for margined in (scenario, dataclasses.replace(scenario, apply_shadow_margin=True)):
                for model in ModelId:
                    at = bind(model, margined, bundled_curves)
                    for d in (1000.0, 5000.0, 20_000.0):
                        result = at(d)
                        assert PathLossResult(result.components, result.warnings) == result
                        emitted.add(tuple(label for label, _ in result.components))
        assert ("free_space", "rooftop_to_street", "multiscreen", "diffraction_floor") in emitted
        # SUI twice, WI NLOS twice and one each for the others, with and without the margin
        assert len(emitted) == 16

    @pytest.mark.parametrize("model", list(ModelId))
    def test_replace_rebuilds_through_the_public_checks(self, model, bundled_curves):
        scenario = default_scenario(Environment.URBAN)
        result = bind(model, scenario, bundled_curves)(5000.0)
        replaced = dataclasses.replace(result, warnings=("x",))
        assert replaced.total_db == result.total_db
        assert (replaced.components, replaced.warnings) == (result.components, ("x",))
        with pytest.raises(DomainError, match="unique"):
            dataclasses.replace(result, components=(("a", 1.0), ("a", 2.0)))
        assert not hasattr(result, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.total_db = 0.0
        margined = bind(model, dataclasses.replace(scenario, apply_shadow_margin=True),
                        bundled_curves)(5000.0)
        for original in (result, margined):
            copies = [pickle.loads(pickle.dumps(original, protocol))
                      for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for copied in copies + [copy.copy(original), copy.deepcopy(original)]:
                assert copied == original
                assert hash(copied) == hash(original)
                assert copied.total_db.hex() == original.total_db.hex()
                assert not hasattr(copied, "__dict__")

    def test_results_built_per_call(self, monkeypatch, bundled_curves):
        """``at(d)`` builds one result, two with the margin (the model's, then
        the margined one); ``at.loss``, inversion and CSV and table sweeps
        build none."""
        built = []
        post_init = PathLossResult.__post_init__

        def counting_post_init(result):
            post_init(result)
            built.append(result)
        monkeypatch.setattr(PathLossResult, "__post_init__", counting_post_init)
        for scenario in _LAYOUT_SCENARIOS:
            margined = dataclasses.replace(scenario, apply_shadow_margin=True)
            for model in ModelId:
                at = bind(model, scenario, bundled_curves)
                built.clear()
                result = at(5000.0)
                assert len(built) == 1 and built[0] is result
                at = bind(model, margined, bundled_curves)
                built.clear()
                outer = at(5000.0)
                assert len(built) == 2 and built[1] is outer
                assert built[0].components == outer.components[:-1]
                built.clear()
                for s in (scenario, margined):
                    at = bind(model, s, bundled_curves)
                    at.loss(5000.0)
                    invert_cell_range(model, s, at.loss(3000.0), 1000.0, 10_000.0,
                                      bundled_curves)
                assert built == []
        for model, output in itertools.product(ModelId, ("csv", "table")):
            for margin in ([], ["--apply-shadow-margin"]):
                code, out, _ = invoke_cli(["sweep", "--model", model.value, "--steps", "5",
                                           "--curves", bundled_curves_path(),
                                           "--output", output, *margin])
                assert code == 0 and out
        assert built == []


#: NaN, the infinities, zero, a negative and the smallest subnormal; SUI's d0
#: and its neighbours; the neighbours of the as-printed WI break at 500 m;
#: Okumura's grid edges, off-grid distances and a point between nodes;
#: and a distance whose log still fits.
_LOSS_DISTANCES = (
    math.nan, math.inf, -math.inf, 0.0, -5.0, 5e-324,
    math.nextafter(100.0, 0.0), 100.0, math.nextafter(100.0, math.inf),
    math.nextafter(500.0, 0.0), 500.0, math.nextafter(500.0, math.inf),
    999.0, 1000.0, 3210.5, 99_999.0, 100_000.0, math.nextafter(100_000.0, math.inf),
    150_000.0, 1e308)


def _loss_or_error(evaluate, distance):
    """The hex of the float ``evaluate(distance)`` returns, or the type and
    message of what it raises."""
    try:
        return evaluate(distance).hex()
    except Exception as exc:  # whatever it is, at(d) must raise the same
        return type(exc), str(exc)


def _loss_binders(curves):
    """(name, make) for every binder, each layout and both ways to bind it."""
    no_rural = dataclasses.replace(curves, garea={
        env: rows for env, rows in curves.garea.items() if env is not Environment.RURAL})
    floor = WiGeometry(street_width_m=60.0, building_separation_m=100.0, roof_height_m=3.5,
                       orientation_deg=0.0)
    links = {"default": RadioLink(1900.0, 5000.0, 30.0, 3.0),
             "below roofs": RadioLink(1900.0, 5000.0, 12.0, 3.0),
             "diffraction floor": RadioLink(150.0, 5000.0, 200.0, 3.0),
             "off grid": RadioLink(50.0, 5000.0, 30.0, 3.0)}
    overflow = EricssonCoefficients(1e308, 1e308, 1e308, 1e308)
    for (name, link), env, mode in itertools.product(links.items(), Environment, FidelityMode):
        case = f"{name} {env.value} {mode.value}"
        yield f"sui {case}", partial(sui, link, env)
        yield f"sui unshadowed {case}", partial(sui, link, env, False)
        yield f"cost231_hata {case}", partial(cost231_hata, link, env, mode)
        yield f"wi_los {case}", partial(wi_los, link)
        yield f"wi_nlos {case}", partial(wi_nlos, WiGeometry(), link, mode)
        yield f"wi_nlos floor {case}", partial(wi_nlos, floor, link, mode)
        yield f"ericsson {case}", partial(ericsson, link, EricssonCoefficients(), mode)
        yield f"ericsson overflow {case}", partial(ericsson, link, overflow, mode)
        for table in (curves, no_rural):
            yield f"okumura rural={table is curves} {case}", partial(okumura, link, env, table)
    for bs, env, mode, los, margin in itertools.product(
            (30.0, 12.0), Environment, FidelityMode, (False, True), (None, 8.2, 1.7e308)):
        scenario = default_scenario(env, bs_height_m=bs, mode=mode, wi_los=los,
                                    shadow_margin_db=margin,
                                    apply_shadow_margin=margin is not None)
        for model in ModelId:
            yield (f"bind {model.value} bs={bs} {env.value} {mode.value} los={los} "
                   f"margin={margin}", partial(bind, model, scenario, curves))


class TestLossIsTheTotal:
    """``at.loss(d)`` is ``at(d).total_db`` to the bit, or raises what ``at(d)``
    raises.  On Python 3.12 and later a sum() in a kernel would break it."""

    def test_every_binder_and_layout(self, bundled_curves):
        count = 0
        for name, make in _loss_binders(bundled_curves):
            # one binding per point, and one binding through every point in
            # turn, as a sweep reads it (Okumura binds its lookups lazily)
            swept_at, swept_loss = make(), make().loss
            for d in _LOSS_DISTANCES:
                expected = _loss_or_error(lambda x: make()(x).total_db, d)
                assert _loss_or_error(make().loss, d) == expected, (name, d)
                assert _loss_or_error(swept_loss, d) == \
                    _loss_or_error(lambda x: swept_at(x).total_db, d), (name, d)
                count += 1
        assert count == 600 * len(_LOSS_DISTANCES)


#: Where float arithmetic breaks: underflow to 0, overflow to inf, and NaN.
_EDGE_FLOATS = (0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e300, 1e305,
                1.7976931348623157e308, math.inf, -math.inf, math.nan)


#: Fractions past the float range: two that round to 0.0 and two whose
#: float() overflows.
_EDGE_FRACTIONS = (Fraction(1, 10**400), Fraction(-3, 10**400), Fraction(10**400, 3),
                   Fraction(-(10**400), 7))


def _any_float(lo, hi):
    """Arbitrary floats, edge values, ints up to 10**400 in size, past the
    float range, fractions (arbitrary, edge and plausible), bools, and a
    plausible range, in equal parts."""
    return st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS),
                     st.integers(-10**400, 10**400),
                     st.fractions() | st.sampled_from(_EDGE_FRACTIONS) | st.fractions(lo, hi),
                     st.booleans(), st.floats(lo, hi))


def _any_tuple(*ranges):
    """A tuple of ``_any_float``, or in equal part one wholly in the plausible
    ranges, so that every model branch also gets finite results."""
    return st.one_of(st.tuples(*(_any_float(lo, hi) for lo, hi in ranges)),
                     st.tuples(*(st.floats(lo, hi) for lo, hi in ranges)))


_LINK = dict(frequency_mhz=1900.0, distance_m=5000.0, bs_height_m=30.0, rx_height_m=3.0,
             sui_reference_distance_m=100.0)
_HEIGHTS = "heights must satisfy bs_height > rx_height > 0"
_STREET = "street width and building separation must be positive"
_ORIENTATION = "street orientation must lie in [0, 90] degrees"


class TestInputRanges:
    """RadioLink and WiGeometry check every input range when they are built; the
    binders rely on them and check only what valid inputs can overflow."""

    @pytest.mark.parametrize("field, value, message", [
        ("frequency_mhz", 0.0, "frequency must be positive"),
        ("frequency_mhz", -1900.0, "frequency must be positive"),
        ("bs_height_m", 3.0, _HEIGHTS),
        ("rx_height_m", 0.0, _HEIGHTS),
        ("sui_reference_distance_m", 0.0, "SUI reference distance must be positive"),
        ("street_width_m", 0.0, _STREET),
        ("building_separation_m", 0.0, _STREET),
        ("roof_height_m", 0.0, "roof height must be positive"),
        ("orientation_deg", -0.001, _ORIENTATION),
        ("orientation_deg", 90.001, _ORIENTATION),
        ("orientation_deg", 0.0, None),
        ("orientation_deg", 90.0, None),
    ])
    def test_checked_when_built(self, field, value, message):
        if field in _LINK:
            make = lambda: RadioLink(**{**_LINK, field: value})
        else:
            make = lambda: WiGeometry(**{field: value})
        if message is None:
            result = wi_nlos(make(), RadioLink(**_LINK))(5000.0)
            assert math.isfinite(result.total_db)
            return
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            make()


class TestFiniteOrPathcastError:
    """Every evaluation gives a finite total or raises PathcastError, nothing else;
    a finite result equals the public constructor's result over its parts, and
    ``at.loss`` gives its total or raises the same error."""

    @pytest.mark.parametrize("model", [ModelId.COST231_HATA, ModelId.WALFISCH_IKEGAMI,
                                       ModelId.ERICSSON9999])
    @pytest.mark.parametrize("environment", [Environment.URBAN, Environment.RURAL])
    def test_distance_underflowing_in_km(self, model, environment):
        at = bind(model, default_scenario(environment))
        with pytest.raises(DomainError, match="underflows to 0 km"):
            at(5e-324)

    @pytest.mark.parametrize("make, message", [
        (lambda: RadioLink(1900.0, 10**400, 30.0, 3.0), "distance_m must be finite"),
        (lambda: WiGeometry(street_width_m=-10**400), "street_width_m must be finite"),
        (lambda: EricssonCoefficients(10**400), "a0 must be finite"),
        (lambda: default_scenario(Environment.URBAN, bs_height_m=10**400),
         "bs_height_m must be finite"),
        (lambda: invert_cell_range(ModelId.COST231_HATA, default_scenario(Environment.URBAN),
                                   140.0, d_max_m=10**400), "distance must be finite"),
        (lambda: next(iter_sweep(ModelId.SUI, default_scenario(Environment.URBAN),
                                 d_max_m=10**400)), "distance must be finite"),
        (lambda: next(iter_sweep(ModelId.SUI, default_scenario(Environment.URBAN), 10**400,
                                 10**401, spacing="linear")), "distance must be finite"),
    ])
    def test_int_past_the_float_range(self, make, message):
        """An int too large for a float is a DomainError, never an OverflowError."""
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            make()

    @pytest.mark.parametrize("make, error, message", [
        (lambda: RadioLink(Fraction(1, 10**400), 5000.0, 30.0, 3.0), DomainError,
         "frequency must be positive"),
        (lambda: WiGeometry(street_width_m=Fraction(1, 10**400)), DomainError, _STREET),
        (lambda: bind(ModelId.SUI, default_scenario(Environment.URBAN))(Fraction(1, 3)),
         DomainError, "distance 0.333333 m is below reference distance 100 m"),
        (lambda: next(iter_sweep(ModelId.SUI, default_scenario(Environment.URBAN),
                                 Fraction(1, 10**400))),
         DomainError, "log spacing requires d_min > 0"),
        (lambda: next(iter_sweep(ModelId.SUI, default_scenario(Environment.URBAN),
                                 Fraction(1, 10**400), spacing="linear")),
         DomainError, "sweep aborted at 0.00 m: distance 0 m underflows to 0 km"),
        (lambda: invert_cell_range(ModelId.SUI, default_scenario(Environment.URBAN),
                                   Fraction(7, 2), Fraction(1000), Fraction(10_000)),
         BoundsError, "target 3.5000 dB outside bracket: PL(1000 m) = 165.6627 dB, "
                      "PL(10000 m) = 213.6127 dB"),
        (lambda: invert_cell_range(ModelId.SUI, default_scenario(Environment.URBAN), 10**400),
         BoundsError, "target inf dB outside bracket: PL(1000 m) = 165.6627 dB, "
                      "PL(10000 m) = 213.6127 dB"),
    ])
    def test_fraction_or_int_past_the_float_range(self, make, error, message):
        """A Fraction is checked as the float it computes with, so one too small
        for a float is 0.0; a message shows a Fraction or an int as a float."""
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            make()

    def test_fraction_fields_stored_as_floats(self):
        link = RadioLink(Fraction(1900), 5000, 30, 3)
        assert (link.frequency_mhz, type(link.frequency_mhz)) == (1900.0, float)
        assert type(link.distance_m) is int  # ints are stored as given
        assert EricssonCoefficients(Fraction(1, 2)).a0 == 0.5
        assert WiGeometry(los=True).los is True

    @pytest.mark.parametrize("make, error, message", [
        (lambda: RadioLink("1900", 5000.0, 30.0, 3.0), TypeError, "must be real number, not str"),
        (lambda: WiGeometry(street_width_m=None), TypeError, "must be real number, not NoneType"),
        (lambda: EricssonCoefficients(1j), TypeError, "must be real number, not complex"),
        (lambda: bind(ModelId.SUI, default_scenario(Environment.URBAN))("5000"), TypeError,
         "must be real number, not str"),
        (lambda: bind(ModelId.SUI, default_scenario(Environment.URBAN)).loss(None), TypeError,
         "must be real number, not NoneType"),
        (lambda: invert_cell_range(ModelId.COST231_HATA, default_scenario(Environment.URBAN),
                                   "150"), TypeError, "'<=' not supported"),
        (lambda: next(iter_sweep(ModelId.SUI, default_scenario(Environment.URBAN), "a", "b")),
         ValueError, "could not convert string to float: 'a'"),
    ])
    def test_wrong_type_is_pythons_error(self, make, error, message):
        """A str, None or complex where a number belongs raises Python's own
        TypeError (ValueError for a sweep end float() cannot read), not a
        PathcastError; README's "Library" section states this."""
        with pytest.raises(error, match=f"^{re.escape(message)}") as raised:
            make()
        assert not isinstance(raised.value, PathcastError)

    @pytest.mark.parametrize("model", list(ModelId))
    @pytest.mark.parametrize("margin", [None, 10**400])
    def test_int_past_the_float_range_at_a_binding(self, model, margin, bundled_curves):
        scenario = default_scenario(Environment.URBAN)
        if margin is not None:
            scenario = dataclasses.replace(scenario, apply_shadow_margin=True,
                                           shadow_margin_db=margin)
        at = bind(model, scenario, bundled_curves)
        message = "distance must be finite" if margin is None else "path-loss total must be finite"
        distance = 10**400 if margin is None else 5000
        for evaluate_at in (at, at.loss):
            with pytest.raises(DomainError, match=f"^{message}$"):
                evaluate_at(distance)

    @pytest.mark.parametrize("model", list(ModelId))
    def test_margin_float_arithmetic_refuses(self, model, bundled_curves):
        """A Decimal margin raises the DomainError of its component from
        ``at``, ``at.loss``, ``at.losses``, inversion and both sweep paths,
        which name d_min; a str distance stays Python's TypeError."""
        scenario = default_scenario(Environment.URBAN, shadow_margin_db=Decimal("8.2"),
                                    apply_shadow_margin=True)
        at = bind(model, scenario, bundled_curves)
        message = "every component value must be a real number"
        for call in (lambda: at(5000.0), lambda: at.loss(5000.0), lambda: at.losses([5000.0]),
                     lambda: invert_cell_range(model, scenario, 150.0, curves=bundled_curves)):
            with pytest.raises(DomainError, match=f"^{message}$"):
                call()
        totals = scenario_module._sweep_totals(model, scenario, 1000.0, 5000.0, 50,
                                               bundled_curves, "log")
        points = iter_sweep(model, scenario, curves=bundled_curves)
        for call in (lambda: list(points), lambda: list(totals)):
            with pytest.raises(DomainError, match=f"^sweep aborted at 1000.00 m: {message}$"):
                call()
        for evaluate_at in (at, at.loss, lambda d: at.losses([d])):
            with pytest.raises(TypeError, match="must be real number, not str") as raised:
                evaluate_at("5000")
            assert not isinstance(raised.value, PathcastError)

    # No shrink phase: shrinking a failure among Fractions with 400-digit
    # denominators took over five minutes; the first failing example reports.
    @settings(max_examples=200, derandomize=True, deadline=None, database=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
    @given(link=_any_tuple((50.0, 3500.0), (1.0, 120_000.0), (1.0, 250.0), (0.5, 20.0),
                           (1.0, 500.0)),
           geometry=_any_tuple((1.0, 60.0), (1.0, 120.0), (1.0, 60.0), (0.0, 90.0), (0.1, 3.0)),
           coefficients=_any_tuple(*[(-100.0, 100.0)] * 4),
           environment=st.sampled_from(Environment), mode=st.sampled_from(FidelityMode),
           distance=_any_float(1.0, 120_000.0),
           margin=st.none() | _any_float(0.0, 12.0), sui_shadowing=st.booleans(),
           on_grid=st.tuples(st.floats(100.0, 3000.0), st.floats(1000.0, 100_000.0)))
    # The default urban scenario, its margin applied and SUI shadowing left out
    @example(link=(1900.0, 5000.0, 30.0, 3.0, 100.0), geometry=(25.0, 50.0, 15.0, 30.0, 1.5),
             coefficients=(36.2, 30.2, 12.0, 0.1), environment=Environment.URBAN,
             mode=FidelityMode.CORRECTED, distance=5000.0, margin=10.6, sui_shadowing=False,
             on_grid=(1900.0, 5000.0))
    # The BS far above roofs a little over the receiver: the diffraction floor
    @example(link=(150.0, 5000.0, 200.0, 3.0, 100.0), geometry=(60.0, 100.0, 3.5, 0.0, 1.5),
             coefficients=(36.2, 30.2, 12.0, 0.1), environment=Environment.URBAN,
             mode=FidelityMode.CORRECTED, distance=5000.0, margin=None, sui_shadowing=True,
             on_grid=(150.0, 5000.0))
    def test_any_input(self, link, geometry, coefficients, environment, mode, distance,
                       margin, sui_shadowing, on_grid):
        """``on_grid`` is a frequency and distance on the bundled Okumura grid,
        100-3000 MHz and 1-100 km, where Okumura gives finite results."""
        curves = load_default_curves()  # not a fixture: a falsifying example prints its arguments
        def finite_or_rejected(make_at, distance=distance):
            try:
                loss = make_at().loss
            except PathcastError:
                return
            assert _loss_or_error(loss, distance) == \
                _loss_or_error(lambda d: make_at()(d).total_db, distance)
            try:
                result = make_at()(distance)
            except PathcastError:
                return
            assert math.isfinite(result.total_db)
            # a result rebuilt from its own fields is the same result
            rebuilt = PathLossResult(result.components, result.warnings)
            assert rebuilt == result
            assert hash(rebuilt) == hash(result)
            assert repr(rebuilt) == repr(result)
            assert rebuilt.total_db.hex() == result.total_db.hex()

        freq, grid_distance = on_grid
        finite_or_rejected(lambda: okumura(RadioLink(freq, grid_distance, *link[2:]),
                                           environment, curves), grid_distance)
        for los in (False, True):
            for model in ModelId:
                finite_or_rejected(lambda: bind(model, Scenario(
                    RadioLink(*link), environment, WiGeometry(*geometry, los=los),
                    EricssonCoefficients(*coefficients), mode,
                    shadow_margin_db=0.0 if margin is None else margin,
                    apply_shadow_margin=margin is not None,
                    include_sui_shadowing=sui_shadowing), curves))


def _losses_or_error(at, distances):
    """The hex of each float ``at.losses(distances)`` returns, or the type
    and message of what it raises."""
    try:
        return [total.hex() for total in at.losses(distances)]
    except Exception as exc:  # whatever it is, the first failing at.loss must raise it
        return type(exc), str(exc)


def _loss_list_or_error(at, distances):
    """``[at.loss(d) for d in distances]`` as :func:`_losses_or_error` gives it."""
    totals = []
    for d in distances:
        outcome = _loss_or_error(at.loss, d)
        if isinstance(outcome, tuple):
            return outcome
        totals.append(outcome)
    return totals


def _batch_binders(curves):
    """:func:`_loss_binders`, then margins it leaves out (-2e4 dB, 3e14 dB and
    an int past the float range) and a SUI d0 so small that a distance past
    it can underflow to 0 km."""
    yield from _loss_binders(curves)
    for (shown, margin), model in itertools.product(
            (("-2e4", -2e4), ("3e14", 3e14), ("10**400", 10**400)), ModelId):
        scenario = default_scenario(Environment.SUBURBAN, shadow_margin_db=margin,
                                    apply_shadow_margin=True)
        yield f"bind {model.value} margin={shown}", partial(bind, model, scenario, curves)
    yield "sui d0=5e-324", partial(sui, RadioLink(1900.0, 5000.0, 30.0, 3.0, 5e-324),
                                   Environment.URBAN)


class TestLossesIsTheLossList:
    """``at.losses(ds)`` is ``[at.loss(d) for d in ds]`` bit for bit, or raises
    what the first failing ``at.loss`` raises.  It guards each list, not each
    point: a point its one-pass expression would pass must still send the
    list point by point, and on Python 3.12 and later sum(), which the guard
    reads, compensates, so it must still see a non-finite total."""

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(distances=st.lists(
        st.sampled_from((*_LOSS_DISTANCES, *_EDGE_FRACTIONS, 10**400, 1e-322, 7))
        | st.floats(1.0, 200_000.0), max_size=8))
    @example(distances=[math.nan, -math.inf, math.inf])
    @example(distances=[3210.5, math.inf, 2500.0, -math.inf, math.nan])
    @example(distances=[])
    # Points only the guard's loss(min(distances)) catches: at SUI's d0, and
    # a km that underflows where d0 is smaller still (where d0 is 5e-324,
    # d / d0 overflows from 1e-16 m on)
    @example(distances=[3210.5, 100.0])
    @example(distances=[3210.5, 5e-324])
    @example(distances=[1e-322, 1e-300])
    # The smallest distance mid-list; a first point off Okumura's 1-100 km
    # grid whose smallest is on it, so a fresh binding's guard binds the
    # lookups and its pass must still raise what at.loss raises
    @example(distances=[5000.0, 100.0, 150_000.0])
    @example(distances=[150_000.0, 5000.0])
    def test_every_binder(self, bundled_curves, distances):
        for name, make in _batch_binders(bundled_curves):
            # a fresh binding, Okumura's lookups still unbound; then the same
            # binding again, bound wherever the first list bound them
            at, reference = make(), make()
            for batch in (distances, distances[::-1]):
                assert _losses_or_error(at, batch) == \
                    _loss_list_or_error(reference, batch), (name, batch)

    def test_ordinary_list_takes_one_pass(self, bundled_curves, monkeypatch):
        """Totals that are all finite and far from overflow in a sum come from
        the one-pass expression, not from the point-by-point fallback; every
        other list still gives what ``at.loss`` gives point by point."""
        passes, evaluator = [], propagation._evaluator

        def recorded(at, loss, totals, *args, **kwargs):
            def kept(distances):  # the margin's list, built on the model's, ends last
                passes.append(totals(distances))
                return passes[-1]
            return evaluator(at, loss, kept, *args, **kwargs)
        for module in (propagation, curves_module, scenario_module):
            monkeypatch.setattr(module, "_evaluator", recorded)
        distances = [1000.0 * 1.01 ** i for i in range(300)]  # 1-19.6 km
        one_pass = 0
        for name, make in _batch_binders(bundled_curves):
            # an inf total past the smallest distance, which only the pass's sum() refuses
            ending = [*distances, math.inf]
            assert _losses_or_error(make(), ending) == \
                _loss_list_or_error(make(), ending), name
            expected = _loss_list_or_error(make(), distances)
            passes.clear()
            assert _losses_or_error(make(), distances) == expected, name
            if isinstance(expected, tuple) or not all(
                    abs(float.fromhex(total)) < 1e300 for total in expected):
                continue
            assert passes and [total.hex() for total in passes[-1]] == expected, name
            one_pass += 1
        assert one_pass == 448

    def test_margin_guards_each_list_once(self, bundled_curves, monkeypatch):
        """A margined evaluator's ``at.losses`` over an ordinary ascending list
        calls the model's ``loss`` once, at the smallest distance: the margin's
        guard is the only guard of the list."""
        calls, evaluator = [], propagation._evaluator

        def counted(at, loss, *args, **kwargs):
            def recorded(distance_m):
                calls.append(distance_m)
                return loss(distance_m)
            return evaluator(at, recorded, *args, **kwargs)
        for module in (propagation, curves_module):
            monkeypatch.setattr(module, "_evaluator", counted)
        distances = [1000.0 * 1.01 ** i for i in range(300)]  # 1-19.6 km
        for model, los in itertools.product(ModelId, (False, True)):
            scenario = default_scenario(Environment.SUBURBAN, wi_los=los,
                                        apply_shadow_margin=True)
            at = bind(model, scenario, bundled_curves)
            expected = _loss_list_or_error(at, distances)
            assert isinstance(expected, list), (model, los)
            calls.clear()
            assert _losses_or_error(at, distances) == expected, (model, los)
            assert calls == [distances[0]], (model, los)

    @pytest.mark.parametrize("once", [iter, lambda ds: (d for d in ds)],
                             ids=["iterator", "generator"])
    def test_any_iterable_is_read_once(self, bundled_curves, once):
        """An iterator or a generator gives what the list of its distances gives."""
        distances = [5000.0, 6000.0, 2500.0]
        for name, make in _batch_binders(bundled_curves):
            assert _losses_or_error(make(), once(distances)) == \
                _loss_list_or_error(make(), distances), name


def _curve_table(dist_km, amu_db, upper_db=None):
    """A 100-3000 MHz grid: ``amu_db`` at 100 MHz, ``upper_db`` (or it again) at 3000 MHz."""
    return CurveTable(freq_mhz=(100.0, 3000.0), dist_km=tuple(dist_km),
                      amu_db=(tuple(amu_db), tuple(amu_db if upper_db is None else upper_db)),
                      garea={Environment.URBAN: ((100.0, 0.0), (3000.0, 0.0))},
                      source_tag="hypothesis grid")


class TestCellRangeOnAnyCurveGrid:
    """On any curve grid, dips included, inversion either refuses the bracket
    or returns a distance beyond which the loss never comes back to the target."""

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(rises_db=st.lists(st.floats(-8.0, 12.0), min_size=8, max_size=8),
           dip=st.none() | st.tuples(st.floats(0.1, 1.9), st.floats(0.005, 0.06),
                                     st.floats(0.0, 15.0)),
           position=st.floats(0.0, 1.0))
    def test_largest_distance_or_domain_error(self, rises_db, dip, position):
        # A_mu on nodes a quarter decade apart, 1-100 km; free space adds 5 dB
        # per quarter decade, so a fall of more than that is a dip.  ``dip``
        # adds nodes at log10(d_km) = centre - width, centre, centre + width
        # and takes ``depth`` dB off at the centre: a dip narrower than the
        # spacing of any fixed set of samples.
        dist_km = [10.0 ** (i / 4) for i in range(9)]
        amu_db = [20.0]
        for rise in rises_db:
            amu_db.append(amu_db[-1] + rise)
        if dip is not None:
            centre, width, depth = dip
            base = _curve_table(dist_km, amu_db)
            nodes = dict(zip(dist_km, amu_db))
            for offset in (-width, 0.0, width):
                d_km = 10.0 ** (centre + offset)
                drop = depth if offset == 0.0 else 0.0
                nodes[d_km] = amu_at_frequency(base, 1900.0)(d_km) - drop
            assume(len(nodes) == 12)
            dist_km, amu_db = zip(*sorted(nodes.items()))
        curves = _curve_table(dist_km, amu_db)
        scenario = default_scenario(Environment.URBAN)
        at = bind(ModelId.OKUMURA, scenario, curves)
        d_min, d_max = 1000.0, 100_000.0
        target = at(d_min * (d_max / d_min) ** position).total_db
        try:
            found = invert_cell_range(ModelId.OKUMURA, scenario, target, d_min, d_max, curves)
        except DomainError:
            return
        dense = (found * (d_max / found) ** (i / 2000) for i in range(1, 2001))
        beyond = [d for d in (*dense, *(d_km * 1000.0 for d_km in dist_km)) if found < d <= d_max]
        # the bisection stops up to 1e-6 dB below the target
        assert all(at(d).total_db > target - 2e-6 for d in beyond)


def _crossing(dist_km, per_cell):
    """An ascending list in metres across a whole grid: ``per_cell`` points
    log-spaced inside each cell and the floats within 4 ulps of each node's
    ``d_km * 1000.0``, whose km, as Okumura computes it, reach the node and
    the floats on either side of it.  Every km lies on the grid."""
    points = set()
    for node in dist_km:
        for toward in (-math.inf, math.inf):
            d = node * 1000.0
            for _ in range(5):
                points.add(d)
                d = math.nextafter(d, toward)
    for lo, hi in zip(dist_km, dist_km[1:]):
        points.update(lo * 1000.0 * (hi / lo) ** (k / (per_cell + 1))
                      for k in range(1, per_cell + 1))
    return sorted(d for d in points if dist_km[0] <= d / 1000.0 <= dist_km[-1])


def _check_cell_walk(curves, freq_mhz, ascending):
    """``at.losses`` is ``at.loss`` point by point on ``ascending``, on it
    reversed and on it shuffled; ascending, the list is walked by cell, so
    the per-point A_mu lookup runs once, at the guard's smallest distance."""
    link = RadioLink(freq_mhz, 5000.0, 30.0, 3.0)
    lookups, amu_at_frequency = [], curves_module.amu_at_frequency

    def counted(table, frequency_mhz):
        at = amu_at_frequency(table, frequency_mhz)

        def recorded(d_km):
            lookups.append(d_km)
            return at(d_km)
        return recorded
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(curves_module, "amu_at_frequency", counted)
        shuffled = random.Random(len(ascending)).sample(ascending, len(ascending))
        for batch in (ascending, ascending[::-1], shuffled):
            at = okumura(link, Environment.URBAN, curves)
            lookups.clear()
            totals = _losses_or_error(at, batch)
            walked = len(lookups)
            reference = okumura(link, Environment.URBAN, curves)
            assert totals == _loss_list_or_error(reference, batch), batch
            assert isinstance(totals, list)
            if batch is ascending:
                assert walked == 1


def _past_node_inside(ascending, dist_km):
    """For each inner node, the points of the cell below it with the first
    point past the node put second: a bisect on the list never probes it, so
    only the check of the run's largest point keeps it out of that cell."""
    for below, node in zip(dist_km, dist_km[1:-1]):
        run = [d for d in ascending if below <= d / 1000.0 < node]
        past = next(d for d in ascending if d / 1000.0 > node)
        yield [run[0], past, *run[1:]]


class TestCellWalkIsTheLossList:
    """Okumura's pass evaluates an ascending list one grid cell's run of
    points at a time; on lists that cross every node, start and end on
    nodes and hold each node's float neighbours, in any order,
    ``at.losses`` is still ``at.loss`` point by point, hex for hex."""

    def test_bundled_grid(self, bundled_curves):
        nodes = bundled_curves.dist_km
        ascending = _crossing(nodes, 20)
        kms = {d / 1000.0 for d in ascending}
        for node in nodes:
            assert node in kms
            assert math.nextafter(node, -math.inf) in kms or node == nodes[0]
            assert math.nextafter(node, math.inf) in kms or node == nodes[-1]
        # on the grid's first and last rows and between them
        for freq_mhz in (100.0, 1900.0, 3000.0):
            _check_cell_walk(bundled_curves, freq_mhz, ascending)
        for lo, hi in itertools.combinations(nodes, 2):
            _check_cell_walk(bundled_curves, 1900.0,
                             [d for d in ascending if lo <= d / 1000.0 <= hi])
        at = okumura(RadioLink(1900.0, 5000.0, 30.0, 3.0), Environment.URBAN, bundled_curves)
        for batch in _past_node_inside(ascending, nodes):
            assert _losses_or_error(at, batch) == _loss_list_or_error(at, batch)

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(first=st.floats(-1.0, 1.0),
           gaps=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6),
           rows_db=st.lists(st.tuples(st.floats(-40.0, 90.0), st.floats(-40.0, 90.0)),
                            min_size=7, max_size=7),
           freq_mhz=st.floats(100.0, 3000.0))
    def test_drawn_grids(self, first, gaps, rows_db, freq_mhz):
        dist_km = [10.0 ** first]
        for gap in gaps:
            dist_km.append(10.0 ** (math.log10(dist_km[-1]) + gap))
        lower, upper = zip(*rows_db[:len(dist_km)])
        curves = _curve_table(dist_km, lower, upper)
        ascending = _crossing(dist_km, 8)
        _check_cell_walk(curves, freq_mhz, ascending)
        for lo, hi in itertools.combinations(dist_km, 2):
            _check_cell_walk(curves, freq_mhz, [d for d in ascending if lo <= d / 1000.0 <= hi])
        at = okumura(RadioLink(freq_mhz, 5000.0, 30.0, 3.0), Environment.URBAN, curves)
        for batch in _past_node_inside(ascending, dist_km):
            assert _losses_or_error(at, batch) == _loss_list_or_error(at, batch)


# SUI urban's exponent gamma is about 0 for this mast: its loss rises by about
# 3e-14 dB from 200 m to 50 km
_FLAT_SUI_BS_M = 616.0603389


@st.composite
def _bound_cases(draw):
    """Inputs of one bound model and a bracket of its domain: (model,
    scenario, d_min, d_max)."""
    model = draw(st.sampled_from(ModelId))
    freq = draw(st.floats(50.0, 3500.0))
    rx = draw(st.floats(1.0, 10.0))
    bs = draw(st.floats(rx + 1.0, 200.0) | st.sampled_from(
        [_FLAT_SUI_BS_M, math.nextafter(_FLAT_SUI_BS_M, 0.0), _FLAT_SUI_BS_M + 1e-7]))
    lo, hi = sorted(10.0 ** draw(st.floats(math.log10(150.0), math.log10(200_000.0)))
                    for _ in range(2))
    if model is ModelId.OKUMURA:  # on the grid, 100-3000 MHz and 1-100 km
        freq, lo, hi = min(max(freq, 100.0), 3000.0), max(lo, 1000.0), min(hi, 100_000.0)
    assume(lo < hi)
    margin = draw(st.booleans())
    scenario = default_scenario(
        draw(st.sampled_from(Environment)), frequency_mhz=freq, bs_height_m=bs,
        rx_height_m=rx, roof_height_m=draw(st.floats(rx + 1.0, 40.0)),
        # wide streets, low roofs and a street along the path put the WI NLOS
        # floor's kink inside many brackets
        street_width_m=draw(st.floats(5.0, 100.0)),
        building_separation_m=draw(st.floats(10.0, 100.0)),
        orientation_deg=draw(st.floats(0.0, 90.0)),
        metro_factor_k=draw(st.sampled_from([0.7, 1.5]) | st.floats(0.0, 3.0)),
        wi_los=draw(st.booleans()), mode=draw(st.sampled_from(FidelityMode)),
        apply_shadow_margin=margin, include_sui_shadowing=draw(st.booleans()),
        # a margin this large rounds the loss to a staircase
        shadow_margin_db=draw(st.none() | st.none() | st.sampled_from([-2e4, 3e14])))
    return model, scenario, lo, hi


def _distance_or_error(call):
    try:
        return call()
    except PathcastError as exc:
        return type(exc), str(exc)


# WI NLOS whose floor's kink lies at about 1,075.5 m, inside 1-10 km
_KINK = (ModelId.WALFISCH_IKEGAMI,
         default_scenario(Environment.RURAL, frequency_mhz=150.0, bs_height_m=616.0603389,
                          roof_height_m=25.0, wi_los=False), 1000.0, 10000.0)


def _across_500_m(mode):
    """WI NLOS with the BS below the roofs, on a bracket across 500 m."""
    scenario = default_scenario(Environment.URBAN, bs_height_m=10.0, roof_height_m=25.0,
                                mode=mode)
    return ModelId.WALFISCH_IKEGAMI, scenario, 150.0, 3000.0


class TestLogAffinePieces:
    """A binder is affine in log d on every piece between its branch points
    from its ``at.affine_from_m`` on, and cell-range inversion, which
    decides such pieces by comparison, returns what plain bisection
    returns."""

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(case=_bound_cases(), shares=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
    @example(case=_KINK, shares=[0.0, 0.25, 0.75])
    @example(case=_across_500_m(FidelityMode.CORRECTED), shares=[0.0, 0.5, 1.0])
    @example(case=_across_500_m(FidelityMode.AS_PRINTED), shares=[0.0, 0.5, 1.0])
    def test_pieces_lie_on_their_chords(self, case, shares):
        model, scenario, lo, hi = case
        at = bind(model, scenario, load_default_curves())
        assume(at.affine_from_m < hi)
        edges = [lo, *(d for d in at.branch_points if lo < d < hi), hi]
        for a, b in zip(edges, edges[1:]):
            a = max(a, at.affine_from_m)  # the part of the piece from there on
            if a >= b:
                continue
            v_a, v_b = at.loss(a), at.loss(b)
            for share in shares:
                d = a * (b / a) ** share
                chord = v_a + (v_b - v_a) * (math.log(d / a) / math.log(b / a))
                assert abs(at.loss(d) - chord) <= scenario_module._CHORD_EPS_DB / 100, (a, b, d)

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(case=_bound_cases(), share=st.floats(0.0, 1.0),
           at_checked_point=st.booleans(),
           offset=st.sampled_from([0.0, -3e-7, -1e-6, 1e-6, -5e-7, 5e-7, -1e-9, 1e-9,
                                   -1e-6 - 1e-9, -1e-6 + 1e-9, 1e-6 + 1e-9, -3.0, 5.0])
           | st.floats(-2e-6, 2e-6))
    # the near-flat SUI mast over 200 m to 50 km, at and just below its top
    @example(case=(ModelId.SUI, default_scenario(Environment.URBAN, bs_height_m=_FLAT_SUI_BS_M),
                   200.0, 50_000.0), share=1.0, at_checked_point=True, offset=0.0)
    @example(case=(ModelId.SUI, default_scenario(Environment.URBAN, bs_height_m=_FLAT_SUI_BS_M),
                   200.0, 50_000.0), share=0.5, at_checked_point=False, offset=-1e-14)
    # just above the loss at Okumura's 2 km node: the midpoints close in on
    # 2 km from below, and one within 1e-6 dB of the target stops there
    @example(case=(ModelId.OKUMURA, default_scenario(Environment.URBAN), 1000.0, 10000.0),
             share=0.34, at_checked_point=True, offset=5e-7)
    # 5e-7 and 1e-6 dB over the loss at d_min, which alone can meet the
    # secondary safety stop
    @example(case=(ModelId.SUI, default_scenario(Environment.URBAN), 1000.0, 10000.0),
             share=0.0, at_checked_point=True, offset=5e-7)
    @example(case=(ModelId.SUI, default_scenario(Environment.URBAN), 1000.0, 10000.0),
             share=0.0, at_checked_point=True, offset=1e-6)
    @example(case=(ModelId.OKUMURA, default_scenario(Environment.URBAN), 1000.0, 10000.0),
             share=0.0, at_checked_point=True, offset=5e-7)
    @example(case=(ModelId.OKUMURA, default_scenario(Environment.URBAN), 1000.0, 10000.0),
             share=0.0, at_checked_point=True, offset=1e-6)
    # distances whose km value is subnormal, which rounds coarsely
    @example(case=(ModelId.ERICSSON9999, default_scenario(Environment.URBAN),
                   1.85536e-318, 3.88244992897547e-309), share=0.5, at_checked_point=False,
             offset=0.0)
    # d_min + d_max overflows, or a later lo + hi does: a midpoint is inf and
    # its evaluation raises
    @example(case=(ModelId.WALFISCH_IKEGAMI, default_scenario(Environment.RURAL),
                   1e308, 1.7e308), share=0.5, at_checked_point=False, offset=0.0)
    @example(case=(ModelId.WALFISCH_IKEGAMI, default_scenario(Environment.RURAL),
                   1e307, 1.2e308), share=0.97, at_checked_point=False, offset=0.0)
    @example(case=(ModelId.SUI, default_scenario(Environment.URBAN),
                   9e307, 1.79e308), share=0.9, at_checked_point=False, offset=-1e-6)
    # a bracket that holds the WI NLOS floor's kink, with targets on both sides
    @example(case=_KINK, share=0.02, at_checked_point=False, offset=0.0)
    @example(case=_KINK, share=0.6, at_checked_point=False, offset=0.0)
    # brackets across 500 m below the roofs: corrected k_A is linear in d
    # there, and as printed the loss steps down at 500 m
    @example(case=_across_500_m(FidelityMode.CORRECTED), share=0.3, at_checked_point=False,
             offset=0.0)
    @example(case=_across_500_m(FidelityMode.AS_PRINTED), share=0.3, at_checked_point=False,
             offset=0.0)
    def test_inversion_equals_plain_bisection(self, case, share, at_checked_point, offset):
        model, scenario, lo, hi = case
        curves = load_default_curves()
        at = bind(model, scenario, curves)
        checked = [lo, *(d for d in at.branch_points if lo < d < hi), hi]
        # the loss inside the bracket, or at one of its checked points (the
        # ends of its pieces), moved by an offset near the 1e-6 dB stop
        d = checked[int(share * (len(checked) - 1))] if at_checked_point else lo * (hi / lo) ** share
        target = _distance_or_error(lambda: at.loss(d))
        assume(isinstance(target, float))
        target += offset
        expected = _distance_or_error(
            lambda: plain_bisection(at.loss, at.branch_points, target, lo, hi)[0])
        assert _distance_or_error(
            lambda: invert_cell_range(model, scenario, target, lo, hi, curves)) == expected


# Float text at the edges of what float() accepts, and any float's repr
_FLOAT_EDGES = (st.sampled_from(["nan", "inf", "-inf", "-0", "0", "1e309", "-1e309", "5e-324",
                                 "1e-310", "2.2250738585072014e-308", "1e308"])
                | st.floats().map(repr))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 60) | st.floats() | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children, max_size=3)),
    max_leaves=8)
_CURVE_LINES = VALID_CURVES.splitlines()
_CURVES = (
    st.sampled_from([VALID_CURVES, Path(bundled_curves_path()).read_text("utf-8")])
    | st.tuples(st.integers(0, len(_CURVE_LINES) - 1),
                st.text("0123456789.,-+eainf ", max_size=24)).map(
        lambda edit: "\n".join(_CURVE_LINES[:edit[0]] + [edit[1]] + _CURVE_LINES[edit[0] + 1:]))
).map(str.encode) | st.binary(max_size=48)


def _json_number(text):
    try:
        return float(text)  # nan and inf go out as JSON's NaN and Infinity
    except ValueError:
        return text


@st.composite
def _cli_cases(draw):
    """(argv, --config text or None, --curves bytes or None).  Each field the
    command takes is left out, given as a flag or put in the config; about
    one value in thirty is of a kind the field refuses.  ``--steps`` is capped,
    because a sweep holds its whole output until it succeeds."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv, config = [command], {}
    for name, kind, default, choices, _ in _command_fields(command):
        places = ["flag", "config"] if default is _REQUIRED else [None, None, "flag", "config"]
        place = draw(st.sampled_from(places))
        if name == "curves" or place is None:
            continue
        flag = "--" + name.replace("_", "-")
        if draw(st.integers(0, 29)) == 29 and (place == "config" or kind is not bool):
            value = "bogus"
        elif kind is bool:
            value = draw(st.booleans())
        elif choices:
            value = draw(st.sampled_from(choices))
        elif kind is int:
            value = draw(st.integers(-2, 60))
        else:  # one in ten at an edge, the rest in the models' working ranges
            edge = draw(st.integers(0, 9)) == 9
            value = draw(_FLOAT_EDGES if edge else st.floats(0.5, 5000.0).map(repr))
        if place == "config":
            config[name] = _json_number(value) if kind is float else value
        elif kind is bool:
            argv.append(flag if value else "--no-" + flag[2:])
        else:
            argv.append(f"{flag}={value}")  # "=" lets a value start with "-"
    if draw(st.integers(0, 9)) == 9:
        config[draw(st.sampled_from([name for name, *_ in _FIELDS]) | st.text(max_size=4))] = (
            draw(_JSON))
    text = json.dumps(config) if config else None
    if draw(st.integers(0, 19)) == 19:
        text = json.dumps(draw(_JSON))
    return argv, text, draw(st.none() | _CURVES)


def _finite_float(text):
    value = float(text)
    assert math.isfinite(value), f"non-finite number printed: {text}"
    return value


def _reject(constant):
    raise AssertionError(f"non-finite number printed: {constant}")


def _grid_examples(test):
    """The log-axis defects, which once crashed the sweep with a traceback."""
    sweep = ["sweep", "--model", "okumura", "--env", "rural", "--freq-mhz", "100",
             "--d-max-m", "100000"]
    for _, old, new, _ in LOG_AXIS_DEFECTS:
        test = example(case=(sweep, None, defective_curves(old, new).encode()))(test)
    return test


class TestCliMain:
    """Any argv, --config and curve file through cli.main gives an exit code
    in {0, 1, 2, 3} and no traceback; exits 1 and 2 print nothing on stdout,
    and exits 0 and 3 print only finite numbers."""

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(case=_cli_cases())
    @example(case=(["pathloss", "--model", "sui"], "[" * 100_000 + "]" * 100_000, None))
    @_grid_examples
    def test_any_invocation(self, case, tmp_path_factory):
        argv, config, curves = case
        directory = tmp_path_factory.getbasetemp()
        if config is not None:
            (directory / "cli_main.json").write_text(config)
            argv = [*argv, "--config", str(directory / "cli_main.json")]
        if curves is not None:
            (directory / "cli_main.csv").write_bytes(curves)
            argv = [*argv, "--curves", str(directory / "cli_main.csv")]
        code, out, err = invoke_cli(argv)
        assert code in (0, 1, 2, 3), err
        if code in (1, 2):
            assert out == ""
            assert err.startswith("error: ") if code == 1 else "error:" in err
        elif out.startswith("{"):
            json.loads(out, parse_float=_finite_float, parse_constant=_reject)
        else:
            for token in re.split(r"[\s,]+", out):
                try:
                    _finite_float(token)
                except ValueError:
                    continue
