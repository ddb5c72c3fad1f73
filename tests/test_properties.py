"""Property suites over seeded random inputs (>= 100 cases each)."""

import dataclasses
import math
import random

import pytest

from pathcast import (
    DomainError,
    Environment,
    FidelityMode,
    ModelId,
    PathLossResult,
    RadioLink,
    SUI_TERRAIN_PARAMS,
    SuiTerrain,
    WiGeometry,
    amu_lookup,
    bind,
    cost231_hata_path_loss,
    default_scenario,
    ericsson_path_loss,
    evaluate,
    okumura_path_loss,
    sui_gamma,
    sui_path_loss,
    sui_reference_loss,
    sweep,
    wi_los_path_loss,
    wi_nlos_path_loss,
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
                sui_path_loss(link, env, rng.random() < 0.5),
                cost231_hata_path_loss(link, env, mode),
                wi_los_path_loss(link),
                wi_nlos_path_loss(geometry, link, mode),
                ericsson_path_loss(link, mode=mode),
                okumura_path_loss(link, env, bundled_curves, clamp=True),
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
        gamma = sui_gamma(SUI_TERRAIN_PARAMS[SuiTerrain.A], link.bs_height_m)
        assert gamma > 0
        self._check(rng, lambda d: sui_path_loss(
            RadioLink(link.frequency_mhz, d, link.bs_height_m, link.rx_height_m),
            env).total_db)

    def test_cost231_hata(self):
        rng = random.Random(2)
        for _ in range(N_CASES):
            f = rng.uniform(1500.0, 2000.0)
            hb = rng.uniform(10.0, 200.0)
            d1, d2 = sorted((rng.uniform(200, 60_000), rng.uniform(200, 60_000)))
            if d1 == d2:
                continue
            low = cost231_hata_path_loss(RadioLink(f, d1, hb, 3.0), Environment.URBAN)
            high = cost231_hata_path_loss(RadioLink(f, d2, hb, 3.0), Environment.URBAN)
            assert high.total_db > low.total_db

    def test_wi_los(self):
        rng = random.Random(3)
        self._check(rng, lambda d: wi_los_path_loss(RadioLink(1900.0, d, 30.0, 3.0)).total_db)

    def test_ericsson_default_coefficients(self):
        rng = random.Random(4)
        for _ in range(N_CASES):
            hb = rng.uniform(1.0, 200.0)
            d1, d2 = sorted((rng.uniform(150, 60_000), rng.uniform(150, 60_000)))
            if d1 == d2:
                continue
            rx = 0.5 if hb < 3.0 else 3.0
            low = ericsson_path_loss(RadioLink(1900.0, d1, hb, rx))
            high = ericsson_path_loss(RadioLink(1900.0, d2, hb, rx))
            assert high.total_db > low.total_db


class TestFrequencyMonotonicity:
    def test_free_space_terms(self, bundled_curves):
        rng = random.Random(5)
        for _ in range(N_CASES):
            f1, f2 = sorted((rng.uniform(100, 3000), rng.uniform(100, 3000)))
            if f1 == f2:
                continue
            assert sui_reference_loss(f2, 100.0) > sui_reference_loss(f1, 100.0)
            link1 = RadioLink(f1, 5000.0, 30.0, 3.0)
            link2 = RadioLink(f2, 5000.0, 30.0, 3.0)
            assert wi_los_path_loss(link2).component("frequency") > \
                wi_los_path_loss(link1).component("frequency")
            nlos1 = wi_nlos_path_loss(WiGeometry(), link1)
            nlos2 = wi_nlos_path_loss(WiGeometry(), link2)
            assert nlos2.component("free_space") > nlos1.component("free_space")
            oku1 = okumura_path_loss(link1, Environment.URBAN, bundled_curves)
            oku2 = okumura_path_loss(link2, Environment.URBAN, bundled_curves)
            assert oku2.component("free_space") > oku1.component("free_space")


class TestSuiGammaOrdering:
    def test_a_exceeds_b_exceeds_c(self):
        rng = random.Random(6)
        for _ in range(N_CASES):
            hb = rng.uniform(10.0, 80.0)
            gammas = [sui_gamma(SUI_TERRAIN_PARAMS[t], hb) for t in
                      (SuiTerrain.A, SuiTerrain.B, SuiTerrain.C)]
            assert gammas[0] > gammas[1] > gammas[2]


class TestModeAgreement:
    def test_errata_free_formulas(self):
        rng = random.Random(7)
        for _ in range(N_CASES):
            link = random_link(rng)
            urban_corr = cost231_hata_path_loss(link, Environment.URBAN,
                                                FidelityMode.CORRECTED)
            urban_printed = cost231_hata_path_loss(link, Environment.URBAN,
                                                   FidelityMode.AS_PRINTED)
            assert urban_corr.total_db == urban_printed.total_db
            assert urban_corr.components == urban_printed.components
            # SUI and W-I LOS take no mode at all; equal inputs, equal outputs
            env = rng.choice(list(Environment))
            assert sui_path_loss(link, env) == sui_path_loss(link, env)
            assert wi_los_path_loss(link) == wi_los_path_loss(link)


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
            assert wi_nlos_path_loss(geometry, link, mode) == \
                wi_nlos_path_loss(geometry, link, mode)
            assert okumura_path_loss(link, env, bundled_curves, clamp=True) == \
                okumura_path_loss(link, env, bundled_curves, clamp=True)


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
