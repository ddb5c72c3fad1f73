"""Batch command-line front end: pathloss, sweep, compare and cell-range.

Precedence for every setting: command-line flag, then --config JSON (same
field names, snake_case), then the library defaults.  CSV/JSON goes to
stdout, diagnostics to stderr.  Exit codes: 0 success, 1 evaluation error,
2 usage error, 3 compare --strict with mismatches.
"""

from __future__ import annotations

import argparse
import errno
import inspect
import os
import sys
from enum import Enum
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional

from .errors import PathcastError
from .propagation import Environment, EricssonCoefficients, FidelityMode, PathLossResult
from .scenario import (DEFAULT_TOLERANCE_DB, _ENVIRONMENT_DEFAULTS, ModelId, Scenario,
                       _sweep_totals, default_scenario, evaluate, invert_cell_range,
                       iter_sweep)

# json, csv, the curve table and the reference comparison are imported by
# the commands and formats that read them, so that no other command loads them.
if TYPE_CHECKING:
    from .curves import CurveTable

CURVES_ENV_VAR = "PATHCAST_CURVES"


def _defaults(function):
    """Parameter name -> default of a library function."""
    return {name: p.default for name, p in inspect.signature(function).parameters.items()}


def _per_environment(column):
    """Help text for one column of the per-environment defaults, equal values grouped."""
    groups = {}
    for environment, row in _ENVIRONMENT_DEFAULTS.items():
        groups.setdefault(row[column], []).append(environment.value)
    return "(default: " + " / ".join(
        f"{value:g} {', '.join(names)}" for value, names in groups.items()) + ")"


_REQUIRED = object()
_SWEEP, _INVERT, _DEFAULT_SCENARIO = map(_defaults,
                                         (iter_sweep, invert_cell_range, default_scenario))

# Field -> default_scenario keyword, for the fields passed straight through.
_SCENARIO_KEYWORDS = {
    "mode": "mode", "freq_mhz": "frequency_mhz", "dist_m": "distance_m", "bs_m": "bs_height_m",
    "rx_m": "rx_height_m", "d0_m": "sui_reference_distance_m", "metro_k": "metro_factor_k",
    "street_width_m": "street_width_m", "building_sep_m": "building_separation_m",
    "roof_height_m": "roof_height_m", "orientation_deg": "orientation_deg",
    "shadow_margin_db": "shadow_margin_db", "apply_shadow_margin": "apply_shadow_margin",
    "sui_shadowing": "include_sui_shadowing"}
_SCENARIO = {name: _DEFAULT_SCENARIO[kw] for name, kw in _SCENARIO_KEYWORDS.items()}

# The one spec of every flag and --config field: (name, type, default,
# choices, help); the flag is --name with dashes.  Defaults come from the
# library; None leaves the value to default_scenario (per environment) or,
# for curves, to the environment variable.  Help gets "(default: X)"
# appended, or X put at "{}".
_FIELDS = [
    ("model", ModelId, _REQUIRED, [m.value for m in ModelId], "propagation model"),
    ("env", Environment, Environment.URBAN, [m.value for m in Environment], "environment"),
    ("mode", FidelityMode, _SCENARIO["mode"], [m.value for m in FidelityMode], "formula fidelity"),
    ("freq_mhz", float, _SCENARIO["freq_mhz"], None, "carrier frequency in MHz"),
    ("dist_m", float, _SCENARIO["dist_m"], None, "Tx-Rx distance in meters"),
    ("bs_m", float, _SCENARIO["bs_m"], None, "base-station antenna height in meters"),
    ("rx_m", float, _SCENARIO["rx_m"], None, "receiver antenna height in meters"),
    ("d0_m", float, _SCENARIO["d0_m"], None, "SUI reference distance in meters"),
    ("street_width_m", float, _SCENARIO["street_width_m"], None, "street width in meters"),
    ("building_sep_m", float, _SCENARIO["building_sep_m"], None,
     "building-to-building distance in meters"),
    ("roof_height_m", float, _SCENARIO["roof_height_m"], None,
     "average building height in meters"),
    ("orientation_deg", float, _SCENARIO["orientation_deg"], None,
     "street orientation angle in degrees " + _per_environment(0)),
    ("metro_k", float, _SCENARIO["metro_k"], None,
     "metro factor k " + _per_environment(1)),
    ("wi_condition", str, "auto", ["auto", "los", "nlos"],
     "walfisch_ikegami dispatch (default: {} = LOS for "
     + ", ".join(env.value for env, row in _ENVIRONMENT_DEFAULTS.items() if row[3])
     + ", NLOS otherwise)"),
    *[(name, float, getattr(EricssonCoefficients(), name), None, f"Ericsson {name}")
      for name in ("a0", "a1", "a2", "a3")],
    ("shadow_margin_db", float, _SCENARIO["shadow_margin_db"], None,
     "shadow margin in dB " + _per_environment(2)),
    ("apply_shadow_margin", bool, _SCENARIO["apply_shadow_margin"], None,
     "add the shadow margin as a component"),
    ("sui_shadowing", bool, _SCENARIO["sui_shadowing"], None,
     "include the SUI closed-form shadowing term"),
    ("curves", str, None, None, f"curve CSV for the okumura model (default: ${CURVES_ENV_VAR})"),
    ("output", str, "csv", ["csv", "json", "table"], "output format"),
    ("tolerance_db", float, DEFAULT_TOLERANCE_DB, None, "match tolerance in dB"),
    ("strict", bool, False, None, "exit 3 when any entry mismatches"),
    ("max_loss_db", float, _REQUIRED, None, "maximum tolerable path loss in dB"),
    ("d_min_m", float, None, None, None),  # default and help per command
    ("d_max_m", float, None, None, None),
    ("steps", int, _SWEEP["steps"], None, "number of samples"),
    ("spacing", str, _SWEEP["spacing"], ["log", "linear"], "sample spacing"),
]

# Command -> (summary, the fields only it takes).  A (default, help) pair
# replaces the table's for that command.  Every command takes the fields that
# no command lists, but compare, whose scenarios are the reference table's
# rows, takes only the _SHARED ones.
_COMMANDS = {
    "pathloss": ("evaluate one scenario", {"model": None, "dist_m": None}),
    "sweep": ("path loss over a distance sweep", {
        "model": None, "steps": None, "spacing": None,
        "d_min_m": (_SWEEP["d_min_m"], "sweep start distance in meters"),
        "d_max_m": (_SWEEP["d_max_m"], "sweep end distance in meters")}),
    "compare": ("compare all models against the embedded reference table",
                {"tolerance_db": None, "strict": None}),
    "cell-range": ("invert a maximum loss to a distance", {
        "model": None, "max_loss_db": None,
        "d_min_m": (_INVERT["d_min_m"], "bracket start in meters"),
        "d_max_m": (_INVERT["d_max_m"], "bracket end in meters")}),
}
_OWNED = {name for _, own in _COMMANDS.values() for name in own}
_SHARED = {"mode", "curves", "output"}

# --config value rule per field type: (accepted JSON types, what the error asks for).
_JSON_TYPES = {float: ((int, float), "a number"), int: (int, "an integer"),
               bool: (bool, "a boolean")}


def _command_fields(command):
    """The table rows ``command`` takes, in table order, with its own defaults."""
    own = _COMMANDS[command][1]
    for name, kind, default, choices, text in _FIELDS:
        if name in own or name not in _OWNED and (name in _SHARED or command != "compare"):
            default, text = own.get(name) or (default, text)
            yield name, kind, default, choices, text


def _help(default, text):
    if default is None or default is _REQUIRED:
        return text if default is None else f"{text} (required)"
    if isinstance(default, bool):
        default = "on" if default else "off"
    shown = f"{default:g}" if isinstance(default, float) else getattr(default, "value", default)
    return (text if "{}" in text else text + " (default: {})").format(shown)


def _build_parser(only) -> argparse.ArgumentParser:
    """The pathcast parser; only the subcommand named ``only`` gets its flags."""
    parser = argparse.ArgumentParser(
        prog="pathcast",
        description="Empirical radio path-loss models with scenario comparison.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        if command != only:
            continue
        for name, kind, default, choices, text in _command_fields(command):
            flag, text = "--" + name.replace("_", "-"), _help(default, text)
            kwargs = {"action": argparse.BooleanOptionalAction} if kind is bool else {
                "type": kind if kind in (float, int) else None, "choices": choices}
            p.add_argument(flag, help=text, **kwargs)
        p.add_argument("--config", help="JSON config file; flags override it (default: none)")
    return parser


def _load_config_file(parser, path):
    import json
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        parser.error(f"--config: file not found: {path}")
    except OSError as exc:
        parser.error(f"--config: {exc}")
    except (ValueError, RecursionError) as exc:
        # malformed JSON, non-UTF-8 bytes, an over-long integer or nesting too deep
        parser.error(f"--config: invalid JSON: {exc}")
    if not isinstance(raw, dict):
        parser.error("--config: top-level value must be an object")
    spec = {name: (kind, choices) for name, kind, _, choices, _ in _FIELDS}
    values = {}
    for key, value in raw.items():
        if key not in spec:
            parser.error(f"--config: unknown field {key!r}")
        kind, choices = spec[key]
        accepted, wanted = _JSON_TYPES.get(kind, (str, "a string"))
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
            parser.error(f"--config: field {key!r} must be {wanted}")
        if kind is float:
            try:
                value = float(value)
            except OverflowError:
                parser.error(f"--config: field {key!r} is out of range")
        if choices and value not in choices:
            parser.error(f"--config: field {key!r} must be one of {choices}")
        values[key] = value
    return values


def parse_args(argv=None) -> SimpleNamespace:
    """Flags override the config file, which overrides the library defaults.

    Returns ``command`` plus one attribute per table field (``env`` as
    ``environment``), enum fields as members.  A field the command does not
    take keeps its table default; the config file cannot set it.  Only the
    named command's flags are built: top-level help and usage errors list
    command names and summaries, never a subcommand's flags.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv else None)
    flags = {k: v for k, v in vars(parser.parse_args(argv)).items() if v is not None}
    command, path = flags.pop("command"), flags.pop("config", None)
    config = _load_config_file(parser, path) if path else {}

    taken = {name: default for name, _, default, _, _ in _command_fields(command)}
    values = {**{name: default for name, _, default, _, _ in _FIELDS}, **taken,
              **{key: value for key, value in config.items() if key in taken}, **flags}
    for name, kind, _, _, _ in _FIELDS:
        if values[name] is _REQUIRED:
            if name in taken:
                parser.error(f"--{name.replace('_', '-')} is required")
            values[name] = None
        elif issubclass(kind, Enum):
            values[name] = kind(values[name])
    if values["curves"] is None:
        values["curves"] = os.environ.get(CURVES_ENV_VAR) or None
    return SimpleNamespace(command=command, environment=values.pop("env"), **values)


def _scenario_from(config) -> Scenario:
    wi_los = None if config.wi_condition == "auto" else (config.wi_condition == "los")
    ericsson = EricssonCoefficients(config.a0, config.a1, config.a2, config.a3)
    return default_scenario(config.environment, wi_los=wi_los, ericsson=ericsson, **{
        keyword: getattr(config, name) for name, keyword in _SCENARIO_KEYWORDS.items()})


def _curves_for(config) -> Optional[CurveTable]:
    """The --curves table, parsed only where it is read: by compare and by
    the okumura model."""
    read = config.command == "compare" or config.model is ModelId.OKUMURA
    if not (config.curves and read):
        return None
    from .curves import load_curves
    try:
        fh = open(config.curves, "rb")
    except ValueError as exc:  # a NUL byte, which only a --config string can carry
        raise OSError(errno.EINVAL, str(exc), config.curves) from None
    with fh:
        return load_curves(fh)


_SERIES_HEADER = "distance_m,model,environment,freq_mhz,bs_m,rx_m,mode,path_loss_db\n"


def _result_json_body(result: PathLossResult):
    return {
        "total_db": result.total_db,
        "components": [{"label": label, "db": value} for label, value in result.components],
        "warnings": list(result.warnings),
    }


def _model_json(config):
    return {"model": config.model.value, "environment": config.environment.value,
            "mode": config.mode.value}


def _series(config, points, buffer):
    """Sweep output, also ``pathloss --output csv`` as a one-point series; each
    chunk of points is formatted as ``points`` yields it, so no result is held.
    CSV and table chunks are ``(distances, totals)`` lists, formatted with one
    ``%`` per chunk as two numbers around a tab and handed to ``writelines``,
    which expands each as ``run`` writes it; JSON points are ``(distance, result)``."""
    write = buffer.write
    if config.output == "json":
        import json
        # The envelope's dump, cut where its one-element series goes; each
        # entry, dumped alone and indented to that depth, gives the same
        # bytes as one dump of the whole tree (json escapes newlines).
        head, tail = json.dumps(dict(_model_json(config), series=[None]),
                                indent=2).rsplit("null", 1)
        write(head)
        separator = ""
        for distance, result in points:
            entry = json.dumps(dict(distance_m=distance, **_result_json_body(result)), indent=2)
            write(separator + entry.replace("\n", "\n    "))
            separator = ",\n    "
        write(tail + "\n")
        return
    if config.output == "csv":
        middle = ",".join(["", config.model.value, config.environment.value,
                           f"{config.freq_mhz:.2f}", f"{config.bs_m:.2f}", f"{config.rx_m:.2f}",
                           config.mode.value, ""])
        write(_SERIES_HEADER)
        row = "%.2f\t%.2f\n"
    else:
        write(f"{'distance_m':>12}  {'path_loss_db':>12}\n")
        row, middle = "%12.2f\t%12.2f\n", "  "
    chunks = []
    for distances, totals in points:
        values = distances + totals  # the right length, then interleaved
        values[::2], values[1::2] = distances, totals
        chunks.append(row * len(distances) % tuple(values))
    # a formatted number holds no tab; middle's columns are copied by replace,
    # not by %, which parses a literal in the template on every row
    buffer.writelines(chunk.replace("\t", middle) for chunk in chunks)


def _pathloss(config, buffer):
    result = evaluate(config.model, _scenario_from(config), _curves_for(config))
    if config.output == "csv":
        _series(config, [([config.dist_m], [result.total_db])], buffer)
    elif config.output == "json":
        import json
        body = dict(_model_json(config), inputs={
            "freq_mhz": config.freq_mhz, "distance_m": config.dist_m,
            "bs_m": config.bs_m, "rx_m": config.rx_m}, **_result_json_body(result))
        buffer.write(json.dumps(body, indent=2) + "\n")
    else:
        buffer.write(f"model: {config.model.value}   environment: {config.environment.value}"
                     f"   mode: {config.mode.value}\n")
        buffer.write(f"freq {config.freq_mhz:.2f} MHz   distance {config.dist_m:.2f} m   "
                     f"bs {config.bs_m:.2f} m   rx {config.rx_m:.2f} m\n")
        for label, value in result.components:
            buffer.write(f"  {label:<22}{value:>10.2f}\n")
        buffer.write(f"  {'total':<22}{result.total_db:>10.2f}\n")
        for warning in result.warnings:
            buffer.write(f"warning: {warning}\n")


def _sweep(config, buffer):
    points = iter_sweep if config.output == "json" else _sweep_totals
    _series(config, points(config.model, _scenario_from(config), config.d_min_m,
                           config.d_max_m, config.steps, _curves_for(config),
                           config.spacing), buffer)


def _compare(config, buffer) -> int:
    from .curves import load_default_curves
    from .reference import compare_against_reference, load_reference_rows
    curves = _curves_for(config) or load_default_curves()
    ledger = compare_against_reference(
        load_reference_rows(), config.tolerance_db, curves, config.mode)
    code = 3 if config.strict and ledger.matched < len(ledger.entries) else 0
    if config.output == "json":
        import json
        body = {
            "tolerance_db": ledger.tolerance_db,
            "mode": ledger.mode.value,
            "matched": ledger.matched,
            "entries": [dict(
                model=e.row.model.value, freq_mhz=e.row.freq_mhz, dist_km=e.row.dist_km,
                bs_m=e.row.bs_m, rx_m=e.row.rx_m, environment=e.environment.value,
                printed_db=e.printed_db, computed_db=e.computed_db, delta_db=e.delta_db,
                verdict=e.verdict, notes=list(e.notes)) for e in ledger.entries],
            "summary": ledger.summary,
        }
        buffer.write(json.dumps(body, indent=2) + "\n")
        return code
    if config.output == "csv":
        import csv
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["model", "freq_mhz", "dist_km", "bs_m", "rx_m", "environment",
                         "mode", "printed_db", "computed_db", "delta_db", "verdict", "notes"])
        for e in ledger.entries:
            writer.writerow([
                e.row.model.value, f"{e.row.freq_mhz:.2f}", f"{e.row.dist_km:.2f}",
                f"{e.row.bs_m:.2f}", f"{e.row.rx_m:.2f}", e.environment.value,
                ledger.mode.value,
                f"{e.printed_db:.2f}",
                "" if e.computed_db is None else f"{e.computed_db:.2f}",
                "" if e.delta_db is None else f"{e.delta_db:.2f}",
                e.verdict, "; ".join(e.notes),
            ])
    else:
        for e in ledger.entries:
            computed = "-" if e.computed_db is None else f"{e.computed_db:8.2f}"
            delta = "-" if e.delta_db is None else f"{e.delta_db:+8.2f}"
            buffer.write(f"{e.row.model.value:<18}{e.row.freq_mhz:>7.0f}{e.row.bs_m:>5.0f}"
                         f"  {e.environment.value:<9}{e.printed_db:>8.2f}{computed:>10}"
                         f"{delta:>10}  {e.verdict}\n")
    buffer.write(ledger.summary + "\n")
    return code


def _cell_range(config, buffer):
    distance = invert_cell_range(config.model, _scenario_from(config), config.max_loss_db,
                                 config.d_min_m, config.d_max_m, _curves_for(config))
    if config.output == "csv":
        buffer.write(f"distance_m\n{distance:.2f}\n")
    elif config.output == "json":
        import json
        buffer.write(json.dumps({"distance_m": distance}, indent=2) + "\n")
    else:
        buffer.write(f"{distance:.2f} m\n")


_RUN = {"pathloss": _pathloss, "sweep": _sweep, "compare": _compare, "cell-range": _cell_range}


def run(config, out=None, err=None) -> int:
    """Execute one parsed command; returns the process exit code.  The command
    writes its output into a list of parts, which go to ``out`` only if it
    succeeds and are never joined: a ``write`` string in one ``write``, and a
    ``writelines`` iterable, which only expands formatted text, one ``write``
    per string it yields.  A command that runs out of memory, such as a
    sweep with more points than its output can hold, writes nothing to
    ``out`` and ``error: out of memory`` to ``err``."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parts = []
    buffer = SimpleNamespace(write=parts.append, writelines=parts.append)
    try:
        code = _RUN[config.command](config, buffer) or 0  # only compare sets a code
    except (OSError, PathcastError) as exc:
        print(f"error: {exc}", file=err)
        return 1
    except MemoryError:  # its traceback holds the command's frames until this block ends
        code = None
    if code is None:
        parts.clear()
        print("error: out of memory", file=err)
        return 1
    for part in parts:
        if isinstance(part, str):
            out.write(part)
        else:
            for piece in part:
                out.write(piece)
    return code


def main(argv=None) -> int:
    try:
        config = parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return run(config)
