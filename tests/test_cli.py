"""CLI argument parsing, precedence, exit codes and error mapping."""

import csv
import gc
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from itertools import zip_longest
from types import SimpleNamespace

import pytest

from pathcast import Environment, FidelityMode, ModelId, default_scenario
from pathcast import cli as cli_module
from pathcast import scenario as scenario_module
from pathcast.cli import _scenario_from, parse_args, run
from pathcast.scenario import iter_sweep

from conftest import (LOG_AXIS_DEFECTS, VALID_CURVES, bundled_curves_path, defective_curves,
                      flat_distances, invoke_cli)


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
            pieces = []
            assert run(parse_args(["sweep", *argv, "--output", output]),
                       SimpleNamespace(write=pieces.append), io.StringIO()) == 1
            assert pieces == []

    @pytest.mark.parametrize("output, source", [("csv", "_sweep_totals"), ("json", "iter_sweep")])
    def test_sweep_out_of_memory_exits_1(self, output, source, monkeypatch):
        # A sweep's output is held until it ends, so one too long for memory
        # fails part-way; here its point source fails after its first item, a
        # chunk of CSV totals or one JSON point
        points = getattr(cli_module, source)

        def one_chunk_then_out_of_memory(*args):
            yield next(iter(points(*args)))
            raise MemoryError
        monkeypatch.setattr(cli_module, source, one_chunk_then_out_of_memory)
        out, err = io.StringIO(), io.StringIO()
        code = run(parse_args(["sweep", "--model", "sui", "--output", output]), out, err)
        assert (code, out.getvalue(), err.getvalue()) == (1, "", "error: out of memory\n")

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

    # A CSV row is held as its two numbers, about 15 bytes, until run writes
    # its chunk; the six constant columns, about 49 more, are put back then.
    # The table's rows are already mostly its output: about 27 bytes a point.
    @pytest.mark.parametrize("output, bytes_per_point", [("csv", 24), ("table", 32)])
    def test_sweep_memory_per_point(self, output, bytes_per_point):
        def peak(steps):
            config = parse_args(["sweep", "--model", "walfisch_ikegami", "--env", "urban",
                                 "--d-min-m", "500", "--d-max-m", "8000", "--steps", str(steps),
                                 "--output", output])
            written = [0]

            def count(text):  # holds nothing it is given
                written[0] += len(text)
            tracemalloc.start()
            try:
                code = run(config, SimpleNamespace(write=count), io.StringIO())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0 and written[0] > 27 * steps
            return peak
        assert (peak(40_000) - peak(10_000)) / 30_000 < bytes_per_point

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

    def test_cell_range_bracket_too_wide_to_resolve_exits_1(self):
        code, out, err = invoke_cli(["cell-range", "--model", "sui", "--max-loss-db", "150",
                                     "--d-min-m", "200", "--d-max-m", "1e308"])
        assert (code, out) == (1, "")
        assert err == "error: bracket [200, 1e+308] m too wide: 200 bisection steps left " \
                      "[200, 6.22302e+247] m unresolved\n"

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


def _per_point_rows(model, spacing, steps, curves):
    """Sweep output for ``model`` in suburban terrain as the CLI wrote it one
    point at a time: (CSV, table) from iter_sweep's totals and per-row f-strings."""
    argv = ["sweep", "--model", model, "--env", "suburban", "--spacing", spacing,
            "--steps", str(steps), "--curves", bundled_curves_path()]
    config = parse_args(argv)
    points = [(d, result.total_db) for d, result in iter_sweep(
        config.model, _scenario_from(config), config.d_min_m, config.d_max_m, steps,
        curves, spacing)]
    middle = f",{model},suburban,1900.00,30.00,3.00,corrected,"
    return argv, (
        "distance_m,model,environment,freq_mhz,bs_m,rx_m,mode,path_loss_db\n"
        + "".join(f"{d:.2f}{middle}{t:.2f}\n" for d, t in points),
        "  distance_m  path_loss_db\n" + "".join(f"{d:>12.2f}  {t:>12.2f}\n" for d, t in points))


def _first_difference(out, expected):
    """The first line, numbered from 1, where two unequal outputs differ."""
    pairs = zip_longest(out.splitlines(keepends=True), expected.splitlines(keepends=True))
    for number, (got, want) in enumerate(pairs, 1):
        if got != want:
            return f"line {number} is {got!r}, expected {want!r}"


class TestSweepChunks:
    """CSV and table sweeps evaluate and format their points a chunk at a
    time: the bytes on either side of a chunk edge, and the distance an abort
    names, are those of one point at a time."""

    def _check_edges(self, model, spacing, curves):
        chunk = scenario_module._SWEEP_CHUNK
        for steps in (chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
            argv, expected = _per_point_rows(model, spacing, steps, curves)
            for output, rows in zip(["csv", "table"], expected):
                code, out, err = invoke_cli(argv + ["--output", output])
                assert code == 0, err
                if out != rows:  # not assert ==: pytest diffs 0.5 MB strings for minutes
                    pytest.fail(f"{steps} steps, {output}: {_first_difference(out, rows)}")

    def test_rows_equal_per_point_formatting_at_the_chunk_size(self, bundled_curves):
        self._check_edges("cost231_hata", "log", bundled_curves)

    # A 16-point chunk puts the same edges in small sweeps of every model
    @pytest.mark.parametrize("spacing", ["log", "linear"])
    @pytest.mark.parametrize("model", [m.value for m in ModelId])
    def test_rows_equal_per_point_formatting(self, model, spacing, bundled_curves,
                                             monkeypatch):
        monkeypatch.setattr(scenario_module, "_SWEEP_CHUNK", 16)
        self._check_edges(model, spacing, bundled_curves)

    @pytest.mark.parametrize("output", ["csv", "table", "json"])
    def test_failed_binding_names_d_min(self, output, monkeypatch):
        monkeypatch.delenv("PATHCAST_CURVES", raising=False)
        code, out, err = invoke_cli(["sweep", "--model", "okumura", "--output", output])
        assert (code, out) == (1, "")
        assert err == "error: sweep aborted at 1000.00 m: " \
                      "curve table required for the okumura model\n"

    @pytest.mark.parametrize("output", ["csv", "table", "json"])
    def test_abort_past_the_first_chunk_names_its_point(self, output):
        # 1-150 km in two chunks of log steps leaves the 100 km curve grid
        # 92 % of the way along, in the second chunk
        steps = 2 * scenario_module._SWEEP_CHUNK
        distances = flat_distances(1000.0, 150_000.0, steps)
        index = next(i for i, d in enumerate(distances) if d > 100_000.0)
        assert scenario_module._SWEEP_CHUNK < index < steps - 1
        d = distances[index]
        code, out, err = invoke_cli(["sweep", "--model", "okumura", "--curves",
                                     bundled_curves_path(), "--d-min-m", "1000", "--d-max-m",
                                     "150000", "--steps", str(steps), "--output", output])
        assert (code, out) == (1, "")
        assert err == f"error: sweep aborted at {d:.2f} m: " \
                      f"distance {d / 1000:g} km above grid maximum 100 km\n"


class TestOutputPieces:
    """``run`` writes the strings a command formatted, one ``write`` each,
    to an ``out`` that needs nothing but ``write``; a sweep is never joined
    into one string."""

    @pytest.mark.parametrize("output", ["csv", "table"])
    def test_sweep_is_written_a_chunk_at_a_time(self, output):
        chunk = scenario_module._SWEEP_CHUNK
        argv = ["sweep", "--model", "walfisch_ikegami", "--d-min-m", "500", "--d-max-m",
                "8000", "--steps", str(2 * chunk + 1), "--output", output]
        pieces = []
        assert run(parse_args(argv), SimpleNamespace(write=pieces.append), io.StringIO()) == 0
        code, out, _ = invoke_cli(argv)
        assert code == 0
        assert "".join(pieces) == out
        # the header, then one piece per chunk of rows
        assert [piece.count("\n") for piece in pieces] == [1, chunk, chunk, 1]

    def test_pipe_gets_the_bytes_of_the_in_process_run(self):
        # the goldens and invoke_cli read a StringIO; here stdout is a real pipe
        steps = ["--steps", str(2 * scenario_module._SWEEP_CHUNK + 1)]
        for argv in [
                ["sweep", "--model", "cost231_hata", *steps],
                ["sweep", "--model", "sui", *steps, "--output", "table"],
                ["sweep", "--model", "walfisch_ikegami", *steps, "--spacing", "linear"],
                ["sweep", "--model", "okumura", "--curves", bundled_curves_path(), *steps],
                ["sweep", "--model", "sui", "--steps", "50", "--output", "json"]]:
            proc = subprocess.run([sys.executable, "-m", "pathcast", *argv],
                                  capture_output=True)
            code, out, _ = invoke_cli(argv)
            assert (code, proc.returncode, proc.stderr) == (0, 0, b"")
            assert proc.stdout == out.encode("utf-8")


_ENTRY = "import sys\nfrom pathcast.__main__ import entry\nsys.exit(entry())"


def _environ(unbuffered=False):
    """This process's environment, with argparse's help at the goldens' 80
    columns and PYTHONUNBUFFERED set or unset."""
    environ = dict(os.environ, COLUMNS="80")
    environ.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        environ["PYTHONUNBUFFERED"] = "1"
    return environ


class TestProcessEntry:
    """``python -m pathcast`` and the installed script end in ``entry``: the
    bytes and exit code of ``main`` in-process, a failed write to stdout as
    exit 1 without a traceback, and the module graph frozen for the exit."""

    @pytest.mark.parametrize("expected, argv", [
        (0, ["pathloss", "--model", "sui"]),
        (0, ["pathloss", "--model", "cost231_hata", "--output", "json"]),
        (0, ["pathloss", "--model", "walfisch_ikegami", "--output", "table"]),
        (0, ["compare"]),
        (3, ["compare", "--strict", "--tolerance-db", "0.001"]),
        (0, ["cell-range", "--model", "sui", "--max-loss-db", "180"]),
        (1, ["sweep", "--model", "okumura", "--curves", bundled_curves_path(),
             "--d-min-m", "50000", "--d-max-m", "150000", "--steps", "20"]),
        (2, ["pathloss", "--freq-mhz", "1900"]),
        (0, ["pathloss", "--help"]),
    ], ids=lambda value: " ".join(value[:3]) if isinstance(value, list) else str(value))
    def test_processes_match_in_process_run(self, expected, argv, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = invoke_cli(argv)
        assert code == expected, err
        for how in (["-m", "pathcast"], ["-c", _ENTRY]):
            proc = subprocess.run([sys.executable, *how, *argv], capture_output=True,
                                  env=_environ())
            assert (proc.returncode, proc.stdout, proc.stderr.decode("utf-8")) == (
                code, out.encode("utf-8"), err), how

    def test_main_and_run_freeze_nothing(self):
        frozen = gc.get_freeze_count()
        assert invoke_cli(["pathloss", "--model", "sui"])[0] == 0
        assert run(parse_args(["compare"]), io.StringIO(), io.StringIO()) == 0
        assert gc.get_freeze_count() == frozen

    def test_entry_freezes_after_the_command(self):
        proc = _fresh_python("import gc, sys\n"
                             "from pathcast.__main__ import entry\n"
                             "frozen = gc.get_freeze_count()\n"
                             "code = entry()\n"
                             "print(frozen, gc.get_freeze_count(), code, file=sys.stderr)",
                             "pathloss", "--model", "sui")
        at_import, after, code = map(int, proc.stderr.split())
        assert (at_import, code, proc.returncode) == (0, 0, 0)
        assert after > 0

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_pipe_exits_1_silently(self, unbuffered):
        # 40,000 rows are far more than a pipe holds, so the command is still
        # writing when the reader goes
        with subprocess.Popen([sys.executable, "-m", "pathcast", "sweep", "--model", "sui",
                               "--steps", "40000"], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=_environ(unbuffered)) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert first == b"distance_m,model,environment,freq_mhz,bs_m,rx_m,mode,path_loss_db\n"
        assert (code, err) == (1, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    # argparse's own print_help drops the error of an unbuffered write
    @pytest.mark.parametrize("argv", [["pathloss", "--model", "sui"], ["--help"],
                                      ["pathloss", "--help"]], ids=" ".join)
    def test_full_device_exits_1_with_one_error_line(self, argv, unbuffered):
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([sys.executable, "-m", "pathcast", *argv],
                                  stdout=full, stderr=subprocess.PIPE, env=_environ(unbuffered))
        assert (proc.returncode, proc.stderr) == (
            1, b"error: [Errno 28] No space left on device\n")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        ["pathloss", "--model", "sui"],
        ["pathloss", "--help"],
        ["pathloss", "--model", "okumura"],  # no curve table: exit 1
        ["pathloss", "--freq-mhz", "1900"],  # no --model: exit 2
    ], ids=" ".join)
    def test_closed_stdout(self, argv, unbuffered, monkeypatch):
        """Started with stdout closed, the process has ``sys.stdout`` None.
        Output is then a failed write, exit 1 with one error line; a command
        that writes nothing to stdout ends as it does in-process."""
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = invoke_cli(argv)
        if out:
            code, err = 1, "error: [Errno 9] Bad file descriptor\n"
        proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable,
                               "-m", "pathcast", *argv],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              env=_environ(unbuffered))
        assert (proc.returncode, proc.stderr.decode("utf-8")) == (code, err)


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
        # bind is the first importer of pathcast.curves, and refuses the missing table
        (["pathloss", "--model", "okumura"], {"pathcast.curves"}),
    ])
    def test_command_loads_only_what_it_reads(self, argv, loaded):
        proc = _fresh_python("import sys, pathcast.cli\n"
                             "code = pathcast.cli.main(sys.argv[1:])\n"
                             "print(' '.join(sorted(sys.modules)))\n"
                             "sys.exit(code)", *argv)
        failures = {("pathloss",): (2, "required"),
                    ("pathloss", "--model", "okumura"): (1, "curve table required")}
        code, message = failures.get(tuple(argv), (0, ""))
        assert proc.returncode == code and message in proc.stderr, proc.stderr
        modules = set(proc.stdout.splitlines()[-1].split())
        assert {"pathcast.cli", "pathcast.scenario"} <= modules
        assert modules & _LAZY_MODULES == loaded

    def test_submodule_loads_on_first_access(self):
        # in this process every submodule is loaded before a test runs
        proc = _fresh_python("import sys, pathcast\n"
                             "print('pathcast.reference' in sys.modules)\n"
                             "print(pathcast.reference is sys.modules['pathcast.reference'])")
        assert proc.stdout.split() == ["False", "True"], proc.stderr


def _fresh_python(code, *argv):
    """Run ``code`` in a new interpreter that imports the pathcast under test."""
    from pathlib import Path

    import pathcast
    # -S keeps site's imports out, -B writes no bytecode
    env = {"PYTHONPATH": str(Path(pathcast.__file__).parent.parent)}
    return subprocess.run([sys.executable, "-S", "-B", "-c", code, *argv],
                          capture_output=True, text=True, env=env)


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
