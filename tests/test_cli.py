"""CLI argument parsing, precedence, exit codes and error mapping."""

import json

import pytest

from pathcast import Environment, FidelityMode, ModelId
from pathcast.cli import parse_args

from conftest import invoke_cli


class TestParseArgs:
    def test_table_row_invocation(self):
        config = parse_args(["pathloss", "--model", "sui", "--env", "urban",
                             "--freq-mhz", "1900", "--bs-m", "30", "--rx-m", "3",
                             "--dist-m", "5000"])
        assert config.command == "pathloss"
        assert config.model is ModelId.SUI
        assert config.environment is Environment.URBAN
        assert config.freq_mhz == 1900.0
        assert config.bs_m == 30.0
        assert config.rx_m == 3.0
        assert config.dist_m == 5000.0
        assert config.mode is FidelityMode.CORRECTED
        assert config.output == "csv"

    def test_defaults_inherited(self):
        config = parse_args(["compare", "--tolerance-db", "0.5"])
        assert config.command == "compare"
        assert config.tolerance_db == 0.5
        assert config.freq_mhz == 1900.0
        assert config.dist_m == 5000.0
        assert config.bs_m == 30.0
        assert config.rx_m == 3.0
        assert config.strict is False

    def test_no_arguments_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_args([])
        assert exc.value.code == 2

    def test_unknown_flag_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["pathloss", "--model", "sui", "--frobnicate", "1"])
        assert exc.value.code == 2

    def test_malformed_number_names_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["pathloss", "--model", "sui", "--freq-mhz", "fast"])
        assert exc.value.code == 2
        assert "--freq-mhz" in capsys.readouterr().err

    def test_model_required(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["pathloss"])
        assert exc.value.code == 2

    def test_max_loss_required_for_cell_range(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["cell-range", "--model", "sui"])
        assert exc.value.code == 2


class TestConfigFile:
    def test_flags_override_config_overrides_defaults(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"freq_mhz": 2100, "bs_m": 80}))
        config = parse_args(["pathloss", "--model", "sui", "--config", str(path),
                             "--bs-m", "30"])
        assert config.freq_mhz == 2100.0  # from config
        assert config.bs_m == 30.0        # flag wins
        assert config.dist_m == 5000.0    # default

    def test_config_can_set_model_and_env(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"model": "ericsson9999", "env": "rural",
                                    "mode": "as_printed"}))
        config = parse_args(["pathloss", "--config", str(path)])
        assert config.model is ModelId.ERICSSON9999
        assert config.environment is Environment.RURAL
        assert config.mode is FidelityMode.AS_PRINTED

    def test_unknown_field_rejected(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"freq": 2100}))
        with pytest.raises(SystemExit) as exc:
            parse_args(["pathloss", "--model", "sui", "--config", str(path)])
        assert exc.value.code == 2
        assert "freq" in capsys.readouterr().err

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit) as exc:
            parse_args(["pathloss", "--model", "sui", "--config", str(path)])
        assert exc.value.code == 2


class TestRun:
    def test_okumura_without_curves_exits_1(self):
        code, out, err = invoke_cli(["pathloss", "--model", "okumura"])
        assert code == 1
        assert "curve table required" in err
        assert out == ""

    def test_missing_curve_file_exits_1(self):
        code, _, err = invoke_cli(["pathloss", "--model", "okumura",
                                   "--curves", "/nonexistent/curves.csv"])
        assert code == 1
        assert "curves.csv" in err

    def test_domain_error_exits_1(self):
        code, _, err = invoke_cli(["pathloss", "--model", "sui", "--dist-m", "50"])
        assert code == 1
        assert "reference distance" in err

    @pytest.mark.parametrize("argv", [
        ["pathloss", "--model", "sui", "--freq-mhz", "nan"],
        ["pathloss", "--model", "cost231_hata", "--freq-mhz", "inf"],
        ["pathloss", "--model", "ericsson9999", "--dist-m", "nan"],
        ["pathloss", "--model", "walfisch_ikegami", "--bs-m", "inf"],
        ["pathloss", "--model", "sui", "--apply-shadow-margin",
         "--shadow-margin-db", "nan"],
        ["sweep", "--model", "cost231_hata", "--d-max-m", "inf"],
        ["compare", "--tolerance-db", "nan"],
        ["compare", "--tolerance-db", "inf"],
    ], ids=lambda argv: " ".join(argv))
    def test_non_finite_input_exits_1(self, argv):
        code, out, err = invoke_cli(argv)
        assert code == 1
        assert err.startswith("error:")
        assert out == ""

    def test_compare_mismatches_exit_0_by_default(self):
        code, out, _ = invoke_cli(["compare", "--tolerance-db", "0.5"])
        assert code == 0
        assert out.endswith("matched 4/57 within 0.50 dB\n")

    def test_compare_strict_exits_3(self):
        code, out, _ = invoke_cli(["compare", "--tolerance-db", "0.5", "--strict"])
        assert code == 3
        assert "matched 4/57" in out

    def test_curves_env_var_fallback(self, monkeypatch, tmp_path):
        from importlib import resources
        bundled = resources.files("pathcast.data").joinpath("okumura_curves.csv")
        path = tmp_path / "curves.csv"
        path.write_bytes(bundled.read_bytes())
        monkeypatch.setenv("PATHCAST_CURVES", str(path))
        code, out, _ = invoke_cli(["pathloss", "--model", "okumura", "--env", "suburban"])
        assert code == 0
        assert out.splitlines()[1].endswith("151.72")

    def test_sweep_csv_column_order(self):
        code, out, _ = invoke_cli(["sweep", "--model", "walfisch_ikegami", "--env",
                                   "rural", "--steps", "2"])
        assert code == 0
        assert out.splitlines()[0] == \
            "distance_m,model,environment,freq_mhz,bs_m,rx_m,mode,path_loss_db"

    def test_cell_range_table_output(self):
        code, out, _ = invoke_cli(["cell-range", "--model", "walfisch_ikegami",
                                   "--env", "rural", "--freq-mhz", "1900",
                                   "--max-loss-db", "126.3883", "--output", "table"])
        assert code == 0
        assert out == "5000.00 m\n"

    def test_json_breakdown_sums_to_total(self):
        code, out, _ = invoke_cli(["pathloss", "--model", "ericsson9999",
                                   "--output", "json"])
        assert code == 0
        body = json.loads(out)
        total = sum(c["db"] for c in body["components"])
        assert abs(body["total_db"] - total) <= 1e-9

    def test_emission_is_byte_stable(self):
        first = invoke_cli(["compare", "--tolerance-db", "0.5"])
        second = invoke_cli(["compare", "--tolerance-db", "0.5"])
        assert first == second

    def test_module_entry_point(self):
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "pathcast", "pathloss", "--model", "sui"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1].startswith("5000.00,sui,urban")

    @pytest.mark.parametrize("output", ["csv", "json", "table"])
    def test_every_command_supports_every_output(self, output):
        invocations = [
            ["pathloss", "--model", "ericsson9999"],
            ["sweep", "--model", "walfisch_ikegami", "--env", "rural", "--steps", "3"],
            ["compare", "--tolerance-db", "0.5"],
            ["cell-range", "--model", "walfisch_ikegami", "--env", "rural",
             "--freq-mhz", "1900", "--max-loss-db", "126.3883"],
        ]
        for argv in invocations:
            code, out, err = invoke_cli(argv + ["--output", output])
            assert code == 0, (argv, err)
            assert out
