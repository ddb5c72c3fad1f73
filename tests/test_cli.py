"""CLI argument parsing, precedence, exit codes and error mapping."""

import csv
import io
import json
import re
import tracemalloc

import pytest

from pathcast import Environment, FidelityMode, ModelId, default_scenario
from pathcast.cli import _scenario_from, parse_args, run

from conftest import (LOG_AXIS_DEFECTS, VALID_CURVES, bundled_curves_path, defective_curves,
                      invoke_cli)


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

    def test_unknown_command_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["pathlos", "--model", "sui"])
        assert exc.value.code == 2
        assert "invalid choice: 'pathlos'" in capsys.readouterr().err

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

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--help", "sweep"]])
    def test_top_level_help_lists_every_command(self, argv):
        code, out, _ = invoke_cli(argv)
        assert code == 0
        for command in ("pathloss", "sweep", "compare", "cell-range"):
            assert re.search(rf"^    {command} +\S", out, re.MULTILINE), command


# What pathloss, sweep and cell-range take after --freq-mhz, in table order.
_SCENARIO_FLAGS = ["--bs-m", "--rx-m", "--d0-m", "--street-width-m", "--building-sep-m",
                   "--roof-height-m", "--orientation-deg", "--metro-k", "--wi-condition",
                   "--a0", "--a1", "--a2", "--a3", "--shadow-margin-db",
                   "--apply-shadow-margin", "--sui-shadowing", "--curves", "--output"]
COMMAND_FLAGS = {
    "pathloss": ["-h", "--model", "--env", "--mode", "--freq-mhz", "--dist-m",
                 *_SCENARIO_FLAGS, "--config"],
    "sweep": ["-h", "--model", "--env", "--mode", "--freq-mhz", *_SCENARIO_FLAGS,
              "--d-min-m", "--d-max-m", "--steps", "--spacing", "--config"],
    "compare": ["-h", "--mode", "--curves", "--output", "--tolerance-db", "--strict",
                "--config"],
    "cell-range": ["-h", "--model", "--env", "--mode", "--freq-mhz", *_SCENARIO_FLAGS,
                   "--max-loss-db", "--d-min-m", "--d-max-m", "--config"],
}
# Flags a command no longer takes, each with a value its old parser accepted.
REMOVED_FLAGS = {
    "compare": [["--env", "rural"], ["--freq-mhz", "2100"], ["--dist-m", "1000"],
                ["--bs-m", "200"], ["--rx-m", "2"], ["--d0-m", "50"],
                ["--street-width-m", "20"], ["--building-sep-m", "40"],
                ["--roof-height-m", "20"], ["--orientation-deg", "45"], ["--metro-k", "0.7"],
                ["--wi-condition", "los"], ["--a0", "99"], ["--a1", "1"], ["--a2", "1"],
                ["--a3", "1"], ["--shadow-margin-db", "5"], ["--apply-shadow-margin"],
                ["--no-sui-shadowing"]],
    "sweep": [["--dist-m", "1000"]],
    "cell-range": [["--dist-m", "1000"]],
}


class TestCommandFlags:
    """Each command takes only the flags it reads."""

    @pytest.mark.parametrize("command", list(COMMAND_FLAGS))
    def test_help_lists_exactly_the_command_flags(self, command):
        code, out, _ = invoke_cli([command, "--help"])
        assert code == 0
        options = out.split("\noptions:\n", 1)[1]
        assert re.findall(r"^  (-h|--[a-z0-9-]+)", options, re.MULTILINE) == \
            COMMAND_FLAGS[command]

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command, flags in REMOVED_FLAGS.items() for flag in flags],
        ids=lambda value: " ".join(value) if isinstance(value, list) else value)
    def test_removed_flag_is_a_usage_error(self, command, flag):
        code, out, err = invoke_cli([command, *REQUIRED_ARGS[command], *flag])
        assert code == 2
        assert out == "" and f"unrecognized arguments: {' '.join(flag)}" in err

    def test_compare_config_ignores_scenario_fields(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"freq_mhz": 2100, "env": "rural", "dist_m": 1000,
                                    "a0": 99, "wi_condition": "los"}))
        expected = invoke_cli(["compare", "--tolerance-db", "0.5"])
        assert expected[0] == 0
        assert invoke_cli(["compare", "--tolerance-db", "0.5", "--config", str(path)]) == \
            expected


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

    def test_integer_accepted_for_float_field(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"freq_mhz": 2100, "steps": 7, "strict": True}))
        config = parse_args(["sweep", "--model", "sui", "--config", str(path)])
        assert type(config.freq_mhz) is float and config.freq_mhz == 2100.0
        assert config.steps == 7

    @pytest.mark.parametrize("text, field", [
        ('{"freq_mhz": true}', "freq_mhz"),
        ('{"freq_mhz": "2100"}', "freq_mhz"),
        ('{"freq_mhz": null}', "freq_mhz"),
        ('{"freq_mhz": 1' + "0" * 400 + "}", "freq_mhz"),
        ('{"steps": 2.9}', "steps"),
        ('{"steps": 1e400}', "steps"),
        ('{"steps": "5"}', "steps"),
        ('{"apply_shadow_margin": 1}', "apply_shadow_margin"),
        ('{"model": 3}', "model"),
        ('{"curves": ["a.csv"]}', "curves"),
    ], ids=["bool-for-float", "string-for-float", "null-for-float", "huge-int-for-float",
            "float-for-int", "overflow-for-int", "string-for-int", "int-for-bool",
            "int-for-enum", "list-for-string"])
    def test_ill_typed_value_rejected(self, tmp_path, capsys, text, field):
        path = tmp_path / "run.json"
        path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            parse_args(["sweep", "--model", "sui", "--config", str(path)])
        assert exc.value.code == 2
        assert repr(field) in capsys.readouterr().err

    def test_malformed_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        # malformed, not UTF-8, and an integer too long for int()
        for content in (b"{not json", b'{"freq_mhz": \xff}', b'{"steps": 1' + b"0" * 5000 + b"}"):
            path.write_bytes(content)
            with pytest.raises(SystemExit) as exc:
                parse_args(["pathloss", "--model", "sui", "--config", str(path)])
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == "" and "--config: invalid JSON" in err

    def test_deeply_nested_config_rejected(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = invoke_cli(["pathloss", "--model", "sui", "--config", str(path)])
        assert code == 2
        assert out == "" and "--config: invalid JSON: " in err

    def test_unreadable_config_rejected(self, tmp_path, capsys):
        for path, reason in ((tmp_path / "missing.json", "file not found"),
                             (tmp_path, "Is a directory")):
            with pytest.raises(SystemExit) as exc:
                parse_args(["pathloss", "--model", "sui", "--config", str(path)])
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == "" and "--config: " in err and reason in err


class TestRun:
    def test_okumura_without_curves_exits_1(self):
        code, out, err = invoke_cli(["pathloss", "--model", "okumura"])
        assert code == 1
        assert "curve table required" in err
        assert out == ""

    def test_missing_curve_file_exits_1(self, tmp_path):
        (tmp_path / "latin1.csv").write_bytes(b"AMU,1,2\n\xe9\n")
        for path, reason in (("/nonexistent/curves.csv", "curves.csv"),
                             (tmp_path, "Is a directory"),
                             (tmp_path / "latin1.csv", "line 2: not UTF-8")):
            for command in (["pathloss", "--model", "okumura"], ["compare"]):
                code, out, err = invoke_cli([*command, "--curves", str(path)])
                assert code == 1
                assert out == "" and err.startswith("error: ") and reason in err

    @pytest.mark.parametrize("old,new,message", [case[1:] for case in LOG_AXIS_DEFECTS],
                             ids=[case[0] for case in LOG_AXIS_DEFECTS])
    def test_log_axis_defect_exits_1(self, tmp_path, old, new, message):
        path = tmp_path / "curves.csv"
        path.write_text(defective_curves(old, new))
        okumura = ["--model", "okumura", "--env", "rural", "--freq-mhz", "100"]
        for command in (["pathloss", *okumura, "--dist-m", "1000"], ["sweep", *okumura],
                        ["cell-range", *okumura, "--max-loss-db", "130"], ["compare"]):
            code, out, err = invoke_cli([*command, "--curves", str(path)])
            assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_missing_area_gain_rows_message_is_plain(self, tmp_path):
        path = tmp_path / "no_rural.csv"
        path.write_text("\n".join(l for l in VALID_CURVES.splitlines() if ",rural," not in l))
        message = "no area-gain rows for environment 'rural'"
        assert invoke_cli(["pathloss", "--model", "okumura", "--env", "rural",
                           "--curves", str(path)]) == (1, "", f"error: {message}\n")
        code, out, _ = invoke_cli(["compare", "--curves", str(path)])
        assert code == 0
        notes = [row[-1] for row in csv.reader(io.StringIO(out))
                 if row[0] == "okumura" and row[5] == "rural"]
        assert notes and set(notes) == {f"mode=corrected; evaluation failed: {message}"}

    def test_nul_in_curves_path_exits_1(self, tmp_path):
        path = tmp_path / "nul.json"
        path.write_text(json.dumps({"curves": "a\u0000b"}))
        for command in (["pathloss", "--model", "okumura"], ["compare"]):
            code, out, err = invoke_cli([*command, "--config", str(path)])
            assert code == 1
            assert out == "" and err.startswith("error: ") and "null byte" in err

    @pytest.mark.parametrize("argv", [
        ["pathloss", "--model", "sui"],
        ["pathloss", "--model", "cost231_hata", "--output", "json"],
        ["sweep", "--model", "walfisch_ikegami", "--steps", "3"],
        ["cell-range", "--model", "walfisch_ikegami", "--env", "rural",
         "--max-loss-db", "126.3883"],
    ])
    def test_curves_unread_by_other_models(self, argv, monkeypatch):
        """Only okumura and compare read the curve table, so no other command
        opens the --curves or $PATHCAST_CURVES file."""
        monkeypatch.delenv("PATHCAST_CURVES", raising=False)
        expected = invoke_cli(argv)
        assert expected[0] == 0
        assert invoke_cli([*argv, "--curves", "/nonexistent/curves.csv"]) == expected
        monkeypatch.setenv("PATHCAST_CURVES", "/nonexistent/curves.csv")
        assert invoke_cli(argv) == expected

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
        ["sweep", "--model", "sui", "--d-min-m", "0"],
        ["sweep", "--model", "sui", "--d-min-m", "-1000"],
        ["cell-range", "--model", "sui", "--max-loss-db", "130", "--d-min-m", "0"],
        ["pathloss", "--model", "walfisch_ikegami", "--street-width-m", "nan"],
        ["pathloss", "--model", "walfisch_ikegami", "--building-sep-m", "inf"],
        ["sweep", "--model", "walfisch_ikegami", "--roof-height-m", "inf"],
        ["pathloss", "--model", "ericsson9999", "--a1", "nan"],
        ["pathloss", "--model", "sui", "--a0", "inf"],
        ["pathloss", "--model", "sui", "--freq-mhz", "1e305"],
        ["pathloss", "--model", "sui", "--freq-mhz", "1e-310"],
    ], ids=lambda argv: " ".join(argv))
    def test_non_finite_input_exits_1(self, argv):
        code, out, err = invoke_cli(argv)
        assert code == 1
        assert err.startswith("error:")
        assert out == ""

    @pytest.mark.parametrize("output", ["csv", "json", "table"])
    def test_sweep_failing_part_way_leaves_stdout_empty(self, output):
        # CSV and table rows read at.loss, JSON ones the results; each gives
        # the same abort line, for a curve lookup and for a binder's own check
        for argv, message in [
            # 50-150 km in 20 log steps: the points up to 94.4 km are on the
            # curve grid, the 13th is past its 100 km edge.
            (["--model", "okumura", "--curves", bundled_curves_path(), "--d-min-m", "50000",
              "--d-max-m", "150000", "--steps", "20"],
             "100071.35 m: distance 100.071 km above grid maximum 100 km"),
            # SUI refuses the first point, which is below d0
            (["--model", "sui", "--d-min-m", "50", "--d-max-m", "5000"],
             "50.00 m: distance 50 m is below reference distance 100 m"),
        ]:
            code, out, err = invoke_cli(["sweep", *argv, "--output", output])
            assert code == 1
            assert out == ""
            assert err == f"error: sweep aborted at {message}\n"

    @pytest.mark.parametrize("output,argv", [
        ("csv", ["--model", "walfisch_ikegami", "--d-min-m", "500", "--d-max-m", "8000"]),
        ("json", ["--model", "walfisch_ikegami", "--d-min-m", "500", "--d-max-m", "8000"]),
        ("table", ["--model", "sui"]),
    ])
    def test_sweep_memory_follows_output_size(self, output, argv):
        # Holding one result object per point costs 8-15 times the output.
        config = parse_args(["sweep", "--env", "urban", "--steps", "10000",
                             "--output", output] + argv)
        out, err = io.StringIO(), io.StringIO()
        tracemalloc.start()
        try:
            code = run(config, out, err)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, err.getvalue()
        assert peak < 6 * len(out.getvalue())

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


_LAZY_MODULES = {"pathcast.curves", "pathcast.reference", "json", "csv", "importlib.resources"}


class TestImportFootprint:
    """A command loads only the modules it reads: the curve table, the
    reference comparison, json, csv and the bundled-data reader are imported
    on first use."""

    @pytest.mark.parametrize("argv, loaded", [
        (["pathloss", "--model", "sui", "--output", "csv"], set()),
        (["pathloss", "--model", "sui", "--env", "urban"], set()),
        (["pathloss"], set()),  # a usage error
        (["pathloss", "--model", "okumura", "--curves", bundled_curves_path()],
         {"pathcast.curves"}),
        (["compare", "--output", "json"], _LAZY_MODULES),
    ])
    def test_command_loads_only_what_it_reads(self, argv, loaded):
        import subprocess
        import sys
        from pathlib import Path

        import pathcast
        # -S keeps site's imports out, -B writes no bytecode; the child
        # imports the pathcast under test
        env = {"PYTHONPATH": str(Path(pathcast.__file__).parent.parent)}
        proc = subprocess.run(
            [sys.executable, "-S", "-B", "-c", "import sys, pathcast.cli\n"
             "code = pathcast.cli.main(sys.argv[1:])\n"
             "print(' '.join(sorted(sys.modules)))\n"
             "sys.exit(code)", *argv],
            capture_output=True, text=True, env=env)
        assert proc.returncode == (2 if argv == ["pathloss"] else 0), proc.stderr
        modules = set(proc.stdout.splitlines()[-1].split())
        assert {"pathcast.cli", "pathcast.scenario"} <= modules
        assert modules & _LAZY_MODULES == loaded


REQUIRED_ARGS = {"pathloss": ["--model", "sui"], "sweep": ["--model", "sui"], "compare": [],
                 "cell-range": ["--model", "sui", "--max-loss-db", "130"]}


def _help_defaults(command, capsys):
    """Flag -> the text of its "(default: X)" in ``command --help``."""
    with pytest.raises(SystemExit):
        parse_args([command, "--help"])
    text = " ".join(capsys.readouterr().out.split("options:", 1)[1].split())
    defaults = {}
    for entry in re.split(r" (?=--(?!no-)[a-z])", text)[2:]:  # past "-h," and "--help"
        match = re.search(r"\((required|default: [^)]*)\)", entry)
        assert match, f"{command}: no default or (required) for {entry!r}"
        if match.group(1) != "required":
            defaults[entry.split()[0].rstrip(",")] = match.group(1)[len("default: "):]
    return defaults


class TestOneSourceOfTruth:
    @pytest.mark.parametrize("env", [e.value for e in Environment])
    def test_cli_defaults_are_the_library_defaults(self, env):
        config = parse_args(["pathloss", "--model", "sui", "--env", env])
        assert _scenario_from(config) == default_scenario(Environment(env))

    @pytest.mark.parametrize("command", list(REQUIRED_ARGS))
    def test_help_defaults_match_resolved_values(self, command, capsys, monkeypatch):
        monkeypatch.delenv("PATHCAST_CURVES", raising=False)
        shown = _help_defaults(command, capsys)
        assert ("--d-max-m" in shown) == (command in ("sweep", "cell-range"))
        config = parse_args([command] + REQUIRED_ARGS[command])
        per_environment = {"--orientation-deg": lambda s: s.wi_geometry.orientation_deg,
                           "--metro-k": lambda s: s.wi_geometry.metro_factor_k,
                           "--shadow-margin-db": lambda s: s.shadow_margin_db}
        for flag, text in shown.items():
            if flag in ("--config", "--curves"):
                assert text in ("none", "$PATHCAST_CURVES")
            elif flag in per_environment:
                for group in text.split(" / "):
                    value, names = group.split(" ", 1)
                    for env in names.split(", "):
                        scenario = _scenario_from(
                            parse_args([command, "--env", env] + REQUIRED_ARGS[command]))
                        assert per_environment[flag](scenario) == float(value), (flag, env)
            else:
                attr = flag[2:].replace("-", "_")
                resolved = getattr(config, "environment" if attr == "env" else attr)
                if isinstance(resolved, bool):
                    assert text == ("on" if resolved else "off"), flag
                elif isinstance(resolved, (int, float)):
                    assert float(text.split()[0]) == resolved, flag
                else:
                    assert text.split()[0] == getattr(resolved, "value", resolved), flag
