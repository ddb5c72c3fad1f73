"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on the terminal.
"""

import random
import time

from pathcast import (
    Environment,
    FidelityMode,
    ModelId,
    RadioLink,
    SUI_TERRAIN_PARAMS,
    SuiTerrain,
    WiGeometry,
    amu_lookup,
    compare_against_reference,
    cost231_hata_path_loss,
    default_scenario,
    ericsson_path_loss,
    evaluate,
    invert_cell_range,
    load_default_curves,
    load_reference_rows,
    okumura_path_loss,
    sui_gamma,
    sui_path_loss,
    sweep,
    wi_los_path_loss,
    wi_nlos_path_loss,
)
import oracle
from conftest import invoke_cli
from test_cli_golden import GOLDEN_CASES, GOLDEN_DIR


def _report(criterion, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    tail = f" - {detail}" if detail else ""
    print(f"\nACCEPTANCE {criterion}: {status}{tail}")
    assert not failures, f"{criterion}: {failures[:5]}"


def test_criterion_1_wi_rural_reproduces_printed_values():
    """W-I rural LOS matches the printed table within 0.1 dB at all 4 cells."""
    failures = []
    checked = 0
    for row in load_reference_rows():
        if row.model is not ModelId.WALFISCH_IKEGAMI:
            continue
        scenario = default_scenario(
            Environment.RURAL, frequency_mhz=row.freq_mhz,
            distance_m=row.dist_km * 1000.0, bs_height_m=row.bs_m,
            rx_height_m=row.rx_m)
        computed = evaluate(ModelId.WALFISCH_IKEGAMI, scenario).total_db
        delta = computed - row.rural_db
        checked += 1
        if abs(delta) > 0.1:
            failures.append((row.freq_mhz, row.bs_m, computed, row.rural_db))
    if checked != 4:
        failures.append(f"expected 4 rural cells, saw {checked}")
    _report("criterion 1 (W-I rural quantitative)", failures,
            "4 cells within 0.1 dB of printed values")


def test_criterion_2_discrepancy_ledger():
    """57-entry ledger; exactly the 4 W-I rural cells match at 0.5 dB in
    corrected mode; every mismatch carries computed value, delta and mode."""
    failures = []
    curves = load_default_curves()
    ledger = compare_against_reference(load_reference_rows(), 0.5, curves,
                                       FidelityMode.CORRECTED)
    if len(ledger.entries) != 57:
        failures.append(f"entries={len(ledger.entries)}")
    matches = [e for e in ledger.entries if e.verdict == "match"]
    if len(matches) != 4:
        failures.append(f"matches={len(matches)}")
    for entry in matches:
        if entry.row.model is not ModelId.WALFISCH_IKEGAMI or \
                entry.environment is not Environment.RURAL:
            failures.append(f"unexpected match {entry.row.model} {entry.environment}")
    for entry in ledger.entries:
        if entry.verdict == "mismatch":
            if entry.computed_db is None or entry.delta_db is None:
                failures.append("mismatch entry without computed value")
            if not any(n == "mode=corrected" for n in entry.notes):
                failures.append("mismatch entry without mode note")
    # golden-file verification of the compare command output
    code, out, _ = invoke_cli(["compare", "--tolerance-db", "0.5"])
    expected = (GOLDEN_DIR / "compare_default.csv").read_text()
    if code != 0 or out != expected:
        failures.append("compare output differs from golden file")
    _report("criterion 2 (non-reproducibility ledger)", failures,
            "matched 4/57, every mismatch itemized")


def _random_geometry(rng, rx):
    roof = rng.uniform(rx + 1.0, 40.0)
    return WiGeometry(
        street_width_m=rng.uniform(5.0, 50.0),
        building_separation_m=rng.uniform(10.0, 100.0),
        roof_height_m=roof,
        orientation_deg=rng.uniform(0.0, 90.0),
        metro_factor_k=rng.choice([0.7, 1.5]),
    )


def test_criterion_3_oracle_equivalence():
    """Library agrees with the straight-line oracle within 1e-9 dB on a
    500-point random grid per model per fidelity mode, in under 10 s."""
    started = time.perf_counter()
    rng = random.Random(20260811)
    failures = []
    curves = load_default_curves()
    raw_freqs = list(curves.freq_mhz)
    raw_dists = list(curves.dist_km)
    raw_grid = [list(row) for row in curves.amu_db]
    raw_garea = {env: list(pairs) for env, pairs in curves.garea.items()}
    modes = [FidelityMode.CORRECTED, FidelityMode.AS_PRINTED]
    env_names = {Environment.URBAN: "urban", Environment.SUBURBAN: "suburban",
                 Environment.RURAL: "rural"}

    def check(label, got, want):
        if abs(got - want) > 1e-9:
            failures.append((label, got, want))

    for mode in modes:
        mode_name = mode.value
        for _ in range(500):
            rx = rng.uniform(1.0, 10.0)
            bs = rng.uniform(rx + 1.0, 200.0)
            env = rng.choice(list(Environment))

            # SUI (mode-free, checked under both mode loops)
            d0 = rng.uniform(50.0, 200.0)
            f = rng.uniform(100.0, 3500.0)
            d = rng.uniform(d0 * 1.1, 100_000.0)
            shadow = rng.random() < 0.5
            link = RadioLink(f, d, bs, rx, d0)
            check("sui", sui_path_loss(link, env, shadow).total_db,
                  oracle.sui_total(f, d, bs, rx, env_names[env], shadow, d0))

            # Okumura over the bundled grid
            f = rng.uniform(100.0, 3000.0)
            d = rng.uniform(1000.0, 100_000.0)
            link = RadioLink(f, d, bs, rx)
            amu = oracle.bilinear_log(raw_freqs, raw_dists, raw_grid, f, d / 1000.0)
            garea = oracle.loglinear(raw_garea[env], f)
            check("okumura", okumura_path_loss(link, env, curves).total_db,
                  oracle.okumura_total(f, d, bs, rx, amu, garea))

            # COST-231 Hata
            f = rng.uniform(1400.0, 2200.0)
            d = rng.uniform(500.0, 30_000.0)
            link = RadioLink(f, d, bs, rx)
            check("cost231", cost231_hata_path_loss(link, env, mode).total_db,
                  oracle.cost231_total(f, d, bs, rx, env_names[env], mode_name))

            # Walfisch-Ikegami LOS and NLOS
            f = rng.uniform(800.0, 2200.0)
            d = rng.uniform(50.0, 8000.0)
            geometry = _random_geometry(rng, rx)
            wi_bs = rng.uniform(rx + 0.5, 100.0)
            link = RadioLink(f, d, wi_bs, rx)
            check("wi_los", wi_los_path_loss(link).total_db,
                  oracle.wi_los_total(f, d))
            check("wi_nlos", wi_nlos_path_loss(geometry, link, mode).total_db,
                  oracle.wi_nlos_total(f, d, wi_bs, rx, geometry.street_width_m,
                                       geometry.building_separation_m,
                                       geometry.roof_height_m,
                                       geometry.orientation_deg,
                                       geometry.metro_factor_k, mode_name))

            # Ericsson 9999
            f = rng.uniform(150.0, 3000.0)
            d = rng.uniform(200.0, 30_000.0)
            link = RadioLink(f, d, bs, rx)
            check("ericsson", ericsson_path_loss(link, mode=mode).total_db,
                  oracle.ericsson_total(f, d, bs, rx, 36.2, 30.2, 12.0, 0.1, mode_name))

    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f} s exceeds 10 s")
    _report("criterion 3 (oracle equivalence)", failures,
            f"6 operations x 2 modes x 500 points, {elapsed:.2f} s")


def test_criterion_4_property_suites():
    """Component additivity, monotonicity, gamma ordering, mode agreement,
    interpolation exactness/boundedness, sweep determinism."""
    failures = []
    rng = random.Random(77)
    curves = load_default_curves()

    # component-sum additivity, 120 random results across all models
    for _ in range(120):
        rx = rng.uniform(1.0, 10.0)
        bs = rng.uniform(rx + 1.0, 200.0)
        link = RadioLink(rng.uniform(100.0, 3000.0), rng.uniform(1000.0, 90_000.0), bs, rx)
        env = rng.choice(list(Environment))
        mode = rng.choice(list(FidelityMode))
        geometry = _random_geometry(rng, rx)
        for result in (sui_path_loss(link, env), cost231_hata_path_loss(link, env, mode),
                       wi_los_path_loss(link), wi_nlos_path_loss(geometry, link, mode),
                       ericsson_path_loss(link, mode=mode),
                       okumura_path_loss(link, env, curves, clamp=True)):
            if abs(result.total_db - sum(v for _, v in result.components)) > 1e-9:
                failures.append(("additivity", result))

    # distance monotonicity per the invariant list, 100 pairs per model
    for _ in range(100):
        d1, d2 = sorted((rng.uniform(150.0, 60_000.0), rng.uniform(150.0, 60_000.0)))
        if d1 == d2:
            continue
        hb = rng.uniform(10.0, 80.0)
        if sui_path_loss(RadioLink(1900, d2, hb, 3), Environment.URBAN).total_db <= \
                sui_path_loss(RadioLink(1900, d1, hb, 3), Environment.URBAN).total_db:
            failures.append(("sui monotone", d1, d2))
        hb = rng.uniform(10.0, 200.0)
        if cost231_hata_path_loss(RadioLink(1900, d2, hb, 3), Environment.URBAN).total_db <= \
                cost231_hata_path_loss(RadioLink(1900, d1, hb, 3), Environment.URBAN).total_db:
            failures.append(("cost231 monotone", d1, d2))
        if wi_los_path_loss(RadioLink(1900, d2, 30, 3)).total_db <= \
                wi_los_path_loss(RadioLink(1900, d1, 30, 3)).total_db:
            failures.append(("wi monotone", d1, d2))
        hb = rng.uniform(1.5, 200.0)
        if ericsson_path_loss(RadioLink(1900, d2, hb, 1.0)).total_db <= \
                ericsson_path_loss(RadioLink(1900, d1, hb, 1.0)).total_db:
            failures.append(("ericsson monotone", d1, d2))

    # SUI exponent ordering A > B > C for h_b in [10, 80]
    for _ in range(100):
        hb = rng.uniform(10.0, 80.0)
        g = [sui_gamma(SUI_TERRAIN_PARAMS[t], hb)
             for t in (SuiTerrain.A, SuiTerrain.B, SuiTerrain.C)]
        if not g[0] > g[1] > g[2]:
            failures.append(("gamma ordering", hb, g))

    # mode agreement on errata-free formulas
    for _ in range(100):
        rx = rng.uniform(1.0, 10.0)
        link = RadioLink(rng.uniform(100.0, 3000.0), rng.uniform(500.0, 50_000.0),
                         rng.uniform(rx + 1.0, 200.0), rx)
        a = cost231_hata_path_loss(link, Environment.URBAN, FidelityMode.CORRECTED)
        b = cost231_hata_path_loss(link, Environment.URBAN, FidelityMode.AS_PRINTED)
        if a.total_db != b.total_db:
            failures.append(("mode agreement", link))

    # interpolation node-exactness and cell-boundedness
    for i, f in enumerate(curves.freq_mhz):
        for j, d in enumerate(curves.dist_km):
            if amu_lookup(curves, f, d * 1000.0) != curves.amu_db[i][j]:
                failures.append(("node exactness", f, d))
    for _ in range(100):
        fi = rng.randrange(len(curves.freq_mhz) - 1)
        di = rng.randrange(len(curves.dist_km) - 1)
        f = rng.uniform(curves.freq_mhz[fi], curves.freq_mhz[fi + 1])
        d = rng.uniform(curves.dist_km[di], curves.dist_km[di + 1])
        corners = [curves.amu_db[fi][di], curves.amu_db[fi][di + 1],
                   curves.amu_db[fi + 1][di], curves.amu_db[fi + 1][di + 1]]
        value = amu_lookup(curves, f, d * 1000.0)
        if not min(corners) - 1e-9 <= value <= max(corners) + 1e-9:
            failures.append(("cell boundedness", f, d, value))

    # sweep determinism: repeated runs are equal and ascending (120 points)
    scenario = default_scenario(Environment.SUBURBAN)
    first = sweep(ModelId.OKUMURA, scenario, 1500.0, 60_000.0, 120, curves)
    for _ in range(3):
        if sweep(ModelId.OKUMURA, scenario, 1500.0, 60_000.0, 120, curves) != first:
            failures.append(("sweep determinism",))
    if [d for d, _ in first] != sorted(d for d, _ in first):
        failures.append(("sweep ascending",))

    _report("criterion 4 (property suites)", failures,
            "additivity, monotonicity, ordering, mode agreement, interpolation, determinism")


def test_criterion_5_inversion_round_trip():
    """50 random (model, scenario, target) triples round-trip within 1e-6 dB
    in under 5 s."""
    started = time.perf_counter()
    rng = random.Random(55)
    failures = []
    curves = load_default_curves()
    candidates = [ModelId.SUI, ModelId.COST231_HATA, ModelId.WALFISCH_IKEGAMI,
                  ModelId.ERICSSON9999, ModelId.OKUMURA]
    for _ in range(50):
        model = rng.choice(candidates)
        env = rng.choice(list(Environment))
        scenario = default_scenario(
            env,
            frequency_mhz=rng.uniform(1500.0, 2100.0),
            bs_height_m=rng.uniform(20.0, 100.0),
        )
        d_lo, d_hi = 1000.0, 90_000.0
        target_distance = rng.uniform(d_lo * 1.05, d_hi * 0.95)
        target = evaluate(model, default_scenario(
            env, frequency_mhz=scenario.link.frequency_mhz,
            bs_height_m=scenario.link.bs_height_m,
            distance_m=target_distance), curves).total_db
        inverted = invert_cell_range(model, scenario, target, d_lo, d_hi, curves)
        back = evaluate(model, default_scenario(
            env, frequency_mhz=scenario.link.frequency_mhz,
            bs_height_m=scenario.link.bs_height_m,
            distance_m=inverted), curves).total_db
        if abs(back - target) > 1e-6:
            failures.append((model, target, back))
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f} s exceeds 5 s")
    _report("criterion 5 (inversion round-trip)", failures,
            f"50 triples within 1e-6 dB, {elapsed:.2f} s")


def test_criterion_6_cli_golden():
    """Byte-exact CSV/JSON for the documented invocations, including the
    matched 4/57 compare summary."""
    failures = []
    for name, argv in GOLDEN_CASES:
        code, out, err = invoke_cli(argv)
        expected = (GOLDEN_DIR / name).read_text()
        if code != 0:
            failures.append((name, "exit", code, err))
        elif out != expected:
            failures.append((name, "bytes differ"))
    summary = (GOLDEN_DIR / "compare_default.csv").read_text().splitlines()[-1]
    if summary != "matched 4/57 within 0.50 dB":
        failures.append(("summary", summary))
    _report("criterion 6 (CLI golden outputs)", failures,
            f"{len(GOLDEN_CASES)} documented invocations byte-exact")
