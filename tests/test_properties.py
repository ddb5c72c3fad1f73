"""Property suites over seeded random inputs (>= 100 cases each)."""

import dataclasses
import math
import random
import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pathcast import (
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
    amu_lookup,
    bind,
    cost231_hata,
    default_scenario,
    ericsson,
    evaluate,
    invert_cell_range,
    load_default_curves,
    okumura,
    sui,
    sweep,
    wi_los,
    wi_nlos,
)

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
                okumura(link, env, bundled_curves, clamp=True)(link.distance_m),
            ]
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
            for j, dist in enumerate(bundled_curves.dist_km):
                assert amu_lookup(bundled_curves, freq, dist * 1000.0) == \
                    bundled_curves.amu_db[i][j]

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
            value = amu_lookup(bundled_curves, f, d * 1000.0)
            assert min(corners) - 1e-9 <= value <= max(corners) + 1e-9


class TestSweepDeterminism:
    def test_repeated_runs_equal(self, bundled_curves):
        scenario = default_scenario(Environment.SUBURBAN)
        for model in (ModelId.SUI, ModelId.OKUMURA, ModelId.WALFISCH_IKEGAMI):
            runs = [sweep(model, scenario, 1500.0, 50_000.0, 120, bundled_curves)
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
            assert okumura(link, env, bundled_curves, clamp=True)(link.distance_m) == \
                okumura(link, env, bundled_curves, clamp=True)(link.distance_m)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_component(self, bad):
        with pytest.raises(DomainError, match="finite"):
            PathLossResult((("a", 1.0), ("b", bad)))

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
    """Results the binders build through the fold-only path."""

    def test_every_layout_is_checked_when_bound(self, monkeypatch, bundled_curves):
        checked = []
        monkeypatch.setattr("pathcast.propagation._check_labels",
                            lambda labels: checked.append(tuple(labels)))
        emitted = set()
        for scenario in _LAYOUT_SCENARIOS:
            for model in ModelId:
                checked.clear()
                at = bind(model, scenario, bundled_curves)
                layouts = set(checked)
                for d in (1000.0, 5000.0, 20_000.0):
                    labels = tuple(label for label, _ in at(d).components)
                    assert labels in layouts
                    emitted.add(labels)
        assert ("free_space", "rooftop_to_street", "multiscreen", "diffraction_floor") in emitted
        assert len(emitted) == 8  # SUI twice, WI NLOS twice, one each for the others

    @pytest.mark.parametrize("model", list(ModelId))
    def test_replace_rebuilds_through_the_public_checks(self, model, bundled_curves):
        result = bind(model, default_scenario(Environment.URBAN), bundled_curves)(5000.0)
        replaced = dataclasses.replace(result, warnings=("x",))
        assert replaced.total_db == result.total_db
        assert (replaced.components, replaced.warnings) == (result.components, ("x",))
        with pytest.raises(DomainError, match="unique"):
            dataclasses.replace(result, components=(("a", 1.0), ("a", 2.0)))
        assert not hasattr(result, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.total_db = 0.0


#: Where float arithmetic breaks: underflow to 0, overflow to inf, and NaN.
_EDGE_FLOATS = (0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e300, 1e305,
                1.7976931348623157e308, math.inf, -math.inf, math.nan)


def _any_float(lo, hi):
    """Arbitrary floats, edge values and a plausible range, in equal parts."""
    return st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS), st.floats(lo, hi))


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
    a finite result equals the public constructor's result over its parts."""

    @pytest.mark.parametrize("model", [ModelId.COST231_HATA, ModelId.WALFISCH_IKEGAMI,
                                       ModelId.ERICSSON9999])
    @pytest.mark.parametrize("environment", [Environment.URBAN, Environment.RURAL])
    def test_distance_underflowing_in_km(self, model, environment):
        at = bind(model, default_scenario(environment))
        with pytest.raises(DomainError, match="underflows to 0 km"):
            at(5e-324)

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(link=_any_tuple((50.0, 3500.0), (1.0, 120_000.0), (1.0, 250.0), (0.5, 20.0),
                           (1.0, 500.0)),
           geometry=_any_tuple((1.0, 60.0), (1.0, 120.0), (1.0, 60.0), (0.0, 90.0), (0.1, 3.0)),
           coefficients=_any_tuple(*[(-100.0, 100.0)] * 4),
           environment=st.sampled_from(Environment), mode=st.sampled_from(FidelityMode),
           distance=_any_float(1.0, 120_000.0),
           margin=st.none() | _any_float(0.0, 12.0), sui_shadowing=st.booleans())
    # The default urban scenario, its margin applied and SUI shadowing left out
    @example(link=(1900.0, 5000.0, 30.0, 3.0, 100.0), geometry=(25.0, 50.0, 15.0, 30.0, 1.5),
             coefficients=(36.2, 30.2, 12.0, 0.1), environment=Environment.URBAN,
             mode=FidelityMode.CORRECTED, distance=5000.0, margin=10.6, sui_shadowing=False)
    # The BS far above roofs a little over the receiver: the diffraction floor
    @example(link=(150.0, 5000.0, 200.0, 3.0, 100.0), geometry=(60.0, 100.0, 3.5, 0.0, 1.5),
             coefficients=(36.2, 30.2, 12.0, 0.1), environment=Environment.URBAN,
             mode=FidelityMode.CORRECTED, distance=5000.0, margin=None, sui_shadowing=True)
    def test_any_input(self, link, geometry, coefficients, environment, mode, distance,
                       margin, sui_shadowing):
        curves = load_default_curves()  # not a fixture: a falsifying example prints its arguments
        def finite_or_rejected(make_at):
            try:
                result = make_at()(distance)
            except PathcastError:
                return
            assert math.isfinite(result.total_db)
            # binders check labels when they bind; the public constructor on every call
            rebuilt = PathLossResult(result.components, result.warnings)
            assert rebuilt == result
            assert hash(rebuilt) == hash(result)
            assert repr(rebuilt) == repr(result)
            assert rebuilt.total_db.hex() == result.total_db.hex()

        finite_or_rejected(
            lambda: okumura(RadioLink(*link), environment, curves, clamp=True))
        for los in (False, True):
            for model in ModelId:
                finite_or_rejected(lambda: bind(model, Scenario(
                    RadioLink(*link), environment, WiGeometry(*geometry, los=los),
                    EricssonCoefficients(*coefficients), mode,
                    shadow_margin_db=0.0 if margin is None else margin,
                    apply_shadow_margin=margin is not None,
                    include_sui_shadowing=sui_shadowing), curves))


def _curve_table(dist_km, amu_db):
    return CurveTable(freq_mhz=(100.0, 3000.0), dist_km=tuple(dist_km),
                      amu_db=(tuple(amu_db), tuple(amu_db)),
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
                nodes[d_km] = amu_lookup(base, 1900.0, d_km * 1000.0) - drop
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
