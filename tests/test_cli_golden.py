"""Byte-exact golden tests for every CLI example documented in the README,
plus an Okumura sweep off a frequency node that crosses every grid cell, a
CSV sweep with the shadow margin applied, and
two JSON outputs that pin every bit of their floats: the whole ledger, 12 of
its cells Okumura on the bundled table, and an Okumura breakdown with its
component labels in order; and every ``--help`` text, rendered 80 columns
wide."""

from pathlib import Path

import pytest

from conftest import bundled_curves_path, invoke_cli

GOLDEN_DIR = Path(__file__).parent / "golden"


GOLDEN_CASES = [
    ("pathloss_sui_urban.csv",
     ["pathloss", "--model", "sui", "--env", "urban", "--freq-mhz", "1900",
      "--bs-m", "30", "--rx-m", "3", "--dist-m", "5000"]),
    ("pathloss_sui_urban.json",
     ["pathloss", "--model", "sui", "--env", "urban", "--freq-mhz", "1900",
      "--bs-m", "30", "--rx-m", "3", "--dist-m", "5000", "--output", "json"]),
    ("pathloss_cost231_2100.txt",
     ["pathloss", "--model", "cost231_hata", "--env", "urban",
      "--freq-mhz", "2100", "--output", "table"]),
    ("pathloss_okumura_suburban.csv",
     ["pathloss", "--model", "okumura", "--env", "suburban",
      "--curves", bundled_curves_path()]),
    ("sweep_wi_rural.csv",
     ["sweep", "--model", "walfisch_ikegami", "--env", "rural", "--freq-mhz", "1900",
      "--d-min-m", "1000", "--d-max-m", "5000", "--steps", "5"]),
    ("sweep_hata_2100_margin.json",
     ["sweep", "--model", "cost231_hata", "--env", "urban", "--freq-mhz", "2100",
      "--steps", "3", "--apply-shadow-margin", "--output", "json"]),
    ("sweep_ericsson_margin.csv",
     ["sweep", "--model", "ericsson9999", "--env", "suburban", "--apply-shadow-margin",
      "--d-min-m", "200", "--d-max-m", "20000", "--steps", "7"]),
    ("sweep_sui_suburban.txt",
     ["sweep", "--model", "sui", "--env", "suburban", "--d-min-m", "500", "--d-max-m", "8000",
      "--steps", "5", "--output", "table"]),
    ("sweep_okumura_suburban.csv",
     ["sweep", "--model", "okumura", "--env", "suburban", "--freq-mhz", "1234.5",
      "--curves", bundled_curves_path(), "--d-min-m", "1000", "--d-max-m", "100000",
      "--steps", "60"]),
    ("compare_default.csv",
     ["compare", "--tolerance-db", "0.5"]),
    ("compare_default.json",
     ["compare", "--output", "json"]),
    ("pathloss_okumura_rural.json",
     ["pathloss", "--model", "okumura", "--env", "rural", "--output", "json",
      "--curves", bundled_curves_path()]),
    ("cellrange_wi_rural.csv",
     ["cell-range", "--model", "walfisch_ikegami", "--env", "rural",
      "--freq-mhz", "1900", "--max-loss-db", "126.3883",
      "--d-min-m", "1000", "--d-max-m", "10000"]),
]


@pytest.mark.parametrize("golden_name,argv", GOLDEN_CASES,
                         ids=[name for name, _ in GOLDEN_CASES])
def test_golden(golden_name, argv):
    code, out, err = invoke_cli(argv)
    assert code == 0, err
    assert err == ""
    expected = (GOLDEN_DIR / golden_name).read_text()
    assert out == expected


HELP_CASES = [("help.txt", []), *((f"help_{command}.txt", [command])
                                  for command in ("pathloss", "sweep", "compare", "cell-range"))]


@pytest.mark.parametrize("golden_name,argv", HELP_CASES, ids=[name for name, _ in HELP_CASES])
def test_help_golden(golden_name, argv, monkeypatch):
    """argparse wraps help to the terminal width, which it reads from COLUMNS."""
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = invoke_cli([*argv, "--help"])
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / golden_name).read_text()


def test_compare_golden_has_full_ledger():
    lines = (GOLDEN_DIR / "compare_default.csv").read_text().splitlines()
    assert len(lines) == 59  # header + 57 entries + summary
    assert lines[-1] == "matched 4/57 within 0.50 dB"
    matches = [l for l in lines if ",match," in l]
    assert len(matches) == 4
    assert all("walfisch_ikegami" in l and ",rural," in l for l in matches)
