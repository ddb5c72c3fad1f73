"""Batch command-line front end: pathloss, sweep, compare and cell-range.

Precedence for every setting: command-line flag, then --config JSON (same
field names, snake_case), then the built-in simulation defaults.  CSV/JSON
goes to stdout, diagnostics to stderr.  Exit codes: 0 success, 1 evaluation
error, 2 usage error, 3 compare --strict with mismatches.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional

from .curves import CurveTable, load_curves, load_default_curves
from .errors import PathcastError
from .propagation import Environment, EricssonCoefficients, FidelityMode, PathLossResult
from .scenario import (
    ModelId,
    Scenario,
    compare_against_reference,
    default_scenario,
    evaluate,
    invert_cell_range,
    load_reference_rows,
    sweep,
)

CURVES_ENV_VAR = "PATHCAST_CURVES"

_MODEL_NAMES = [m.value for m in ModelId]
_ENV_NAMES = [e.value for e in Environment]
_MODE_NAMES = [m.value for m in FidelityMode]


@dataclass(frozen=True)
class RunConfig:
    command: str
    model: Optional[ModelId]
    environment: Environment
    mode: FidelityMode
    output: str
    freq_mhz: float
    dist_m: float
    bs_m: float
    rx_m: float
    d0_m: float
    street_width_m: float
    building_sep_m: float
    roof_height_m: float
    orientation_deg: Optional[float]
    metro_k: Optional[float]
    wi_condition: str
    a0: float
    a1: float
    a2: float
    a3: float
    shadow_margin_db: Optional[float]
    apply_shadow_margin: bool
    sui_shadowing: bool
    curve_file: Optional[str]
    tolerance_db: float
    strict: bool
    d_min_m: float
    d_max_m: float
    steps: int
    spacing: str
    max_loss_db: Optional[float]


# name -> (converter, global default); env-dependent defaults stay None and
# resolve inside default_scenario.
_FIELDS = {
    "model": (str, None),
    "env": (str, "urban"),
    "mode": (str, "corrected"),
    "output": (str, "csv"),
    "freq_mhz": (float, 1900.0),
    "dist_m": (float, 5000.0),
    "bs_m": (float, 30.0),
    "rx_m": (float, 3.0),
    "d0_m": (float, 100.0),
    "street_width_m": (float, 25.0),
    "building_sep_m": (float, 50.0),
    "roof_height_m": (float, 15.0),
    "orientation_deg": (float, None),
    "metro_k": (float, None),
    "wi_condition": (str, "auto"),
    "a0": (float, 36.2),
    "a1": (float, 30.2),
    "a2": (float, 12.0),
    "a3": (float, 0.1),
    "shadow_margin_db": (float, None),
    "apply_shadow_margin": (bool, False),
    "sui_shadowing": (bool, True),
    "curves": (str, None),
    "tolerance_db": (float, 0.5),
    "strict": (bool, False),
    "d_min_m": (float, None),
    "d_max_m": (float, None),
    "steps": (int, 50),
    "spacing": (str, "log"),
    "max_loss_db": (float, None),
}

_CHOICES = {
    "model": _MODEL_NAMES,
    "env": _ENV_NAMES,
    "mode": _MODE_NAMES,
    "output": ["csv", "json", "table"],
    "wi_condition": ["auto", "los", "nlos"],
    "spacing": ["log", "linear"],
}


def _add_scenario_flags(parser, with_model=True):
    if with_model:
        parser.add_argument("--model", choices=_MODEL_NAMES,
                            help="propagation model (required)")
    parser.add_argument("--env", choices=_ENV_NAMES,
                        help="environment (default: urban)")
    parser.add_argument("--mode", choices=_MODE_NAMES,
                        help="formula fidelity (default: corrected)")
    parser.add_argument("--freq-mhz", type=float, dest="freq_mhz",
                        help="carrier frequency in MHz (default: 1900)")
    parser.add_argument("--dist-m", type=float, dest="dist_m",
                        help="Tx-Rx distance in meters (default: 5000)")
    parser.add_argument("--bs-m", type=float, dest="bs_m",
                        help="base-station antenna height in meters (default: 30)")
    parser.add_argument("--rx-m", type=float, dest="rx_m",
                        help="receiver antenna height in meters (default: 3)")
    parser.add_argument("--d0-m", type=float, dest="d0_m",
                        help="SUI reference distance in meters (default: 100)")
    parser.add_argument("--street-width-m", type=float, dest="street_width_m",
                        help="street width in meters (default: 25)")
    parser.add_argument("--building-sep-m", type=float, dest="building_sep_m",
                        help="building-to-building distance in meters (default: 50)")
    parser.add_argument("--roof-height-m", type=float, dest="roof_height_m",
                        help="average building height in meters (default: 15)")
    parser.add_argument("--orientation-deg", type=float, dest="orientation_deg",
                        help="street orientation angle in degrees (default: 30 urban / 40 suburban, rural)")
    parser.add_argument("--metro-k", type=float, dest="metro_k",
                        help="metro factor k (default: 1.5 urban / 0.7 suburban, rural)")
    parser.add_argument("--wi-condition", choices=_CHOICES["wi_condition"],
                        dest="wi_condition",
                        help="walfisch_ikegami dispatch (default: auto = LOS for rural, NLOS otherwise)")
    parser.add_argument("--a0", type=float, help="Ericsson a0 (default: 36.2)")
    parser.add_argument("--a1", type=float, help="Ericsson a1 (default: 30.2)")
    parser.add_argument("--a2", type=float, help="Ericsson a2 (default: 12.0)")
    parser.add_argument("--a3", type=float, help="Ericsson a3 (default: 0.1)")
    parser.add_argument("--shadow-margin-db", type=float, dest="shadow_margin_db",
                        help="shadow margin in dB (default: 10.6 urban / 8.2 suburban, rural)")
    parser.add_argument("--apply-shadow-margin", action=argparse.BooleanOptionalAction,
                        dest="apply_shadow_margin", default=None,
                        help="add the shadow margin as a component (default: off)")
    parser.add_argument("--sui-shadowing", action=argparse.BooleanOptionalAction,
                        dest="sui_shadowing", default=None,
                        help="include the SUI closed-form shadowing term (default: on)")
    parser.add_argument("--curves", dest="curves",
                        help=f"curve CSV for the okumura model (default: ${CURVES_ENV_VAR})")
    parser.add_argument("--output", choices=_CHOICES["output"],
                        help="output format (default: csv)")
    parser.add_argument("--config", dest="config",
                        help="JSON config file; flags override it (default: none)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathcast",
        description="Empirical radio path-loss models with scenario comparison.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pathloss", help="evaluate one scenario")
    _add_scenario_flags(p)

    p = sub.add_parser("sweep", help="path loss over a distance sweep")
    _add_scenario_flags(p)
    p.add_argument("--d-min-m", type=float, dest="d_min_m",
                   help="sweep start distance in meters (default: 1000)")
    p.add_argument("--d-max-m", type=float, dest="d_max_m",
                   help="sweep end distance in meters (default: 5000)")
    p.add_argument("--steps", type=int, help="number of samples (default: 50)")
    p.add_argument("--spacing", choices=_CHOICES["spacing"],
                   help="sample spacing (default: log)")

    p = sub.add_parser("compare", help="compare all models against the embedded reference table")
    _add_scenario_flags(p, with_model=False)
    p.add_argument("--tolerance-db", type=float, dest="tolerance_db",
                   help="match tolerance in dB (default: 0.5)")
    p.add_argument("--strict", action=argparse.BooleanOptionalAction, default=None,
                   help="exit 3 when any entry mismatches (default: off)")

    p = sub.add_parser("cell-range", help="invert a maximum loss to a distance")
    _add_scenario_flags(p)
    p.add_argument("--max-loss-db", type=float, dest="max_loss_db",
                   help="maximum tolerable path loss in dB (required)")
    p.add_argument("--d-min-m", type=float, dest="d_min_m",
                   help="bracket start in meters (default: 1000)")
    p.add_argument("--d-max-m", type=float, dest="d_max_m",
                   help="bracket end in meters (default: 10000)")

    return parser


def _load_config_file(parser, path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        parser.error(f"--config: file not found: {path}")
    except json.JSONDecodeError as exc:
        parser.error(f"--config: invalid JSON: {exc}")
    if not isinstance(raw, dict):
        parser.error("--config: top-level value must be an object")
    values = {}
    for key, value in raw.items():
        if key not in _FIELDS:
            parser.error(f"--config: unknown field {key!r}")
        converter = _FIELDS[key][0]
        if converter is bool:
            if not isinstance(value, bool):
                parser.error(f"--config: field {key!r} must be a boolean")
        else:
            try:
                value = converter(value)
            except (TypeError, ValueError):
                parser.error(f"--config: malformed value for field {key!r}")
        if key in _CHOICES and value not in _CHOICES[key]:
            parser.error(f"--config: field {key!r} must be one of {_CHOICES[key]}")
        values[key] = value
    return values


def parse_args(argv=None) -> RunConfig:
    """Flags override the config file, which overrides the built-in defaults."""
    parser = _build_parser()
    namespace = parser.parse_args(argv)
    command = namespace.command

    config_values = {}
    if getattr(namespace, "config", None):
        config_values = _load_config_file(parser, namespace.config)

    def pick(field, command_default=None):
        flag = getattr(namespace, field if field != "env" else "env", None)
        if flag is not None:
            return flag
        if field in config_values:
            return config_values[field]
        default = _FIELDS[field][1]
        return command_default if default is None and command_default is not None else default

    model_name = pick("model") if command != "compare" else None
    if command != "compare" and model_name is None:
        parser.error("--model is required")
    max_loss = pick("max_loss_db")
    if command == "cell-range" and max_loss is None:
        parser.error("--max-loss-db is required")

    sweep_like = command in ("sweep", "cell-range")
    d_min_default = 1000.0 if sweep_like else None
    d_max_default = 5000.0 if command == "sweep" else (10000.0 if command == "cell-range" else None)

    curve_file = pick("curves")
    if curve_file is None:
        curve_file = os.environ.get(CURVES_ENV_VAR) or None

    return RunConfig(
        command=command,
        model=ModelId(model_name) if model_name else None,
        environment=Environment(pick("env")),
        mode=FidelityMode(pick("mode")),
        output=pick("output"),
        freq_mhz=pick("freq_mhz"),
        dist_m=pick("dist_m"),
        bs_m=pick("bs_m"),
        rx_m=pick("rx_m"),
        d0_m=pick("d0_m"),
        street_width_m=pick("street_width_m"),
        building_sep_m=pick("building_sep_m"),
        roof_height_m=pick("roof_height_m"),
        orientation_deg=pick("orientation_deg"),
        metro_k=pick("metro_k"),
        wi_condition=pick("wi_condition"),
        a0=pick("a0"),
        a1=pick("a1"),
        a2=pick("a2"),
        a3=pick("a3"),
        shadow_margin_db=pick("shadow_margin_db"),
        apply_shadow_margin=bool(pick("apply_shadow_margin")),
        sui_shadowing=bool(pick("sui_shadowing")),
        curve_file=curve_file,
        tolerance_db=pick("tolerance_db"),
        strict=bool(pick("strict")),
        d_min_m=pick("d_min_m", d_min_default),
        d_max_m=pick("d_max_m", d_max_default),
        steps=pick("steps"),
        spacing=pick("spacing"),
        max_loss_db=max_loss,
    )


def _scenario_from(config: RunConfig) -> Scenario:
    wi_los = None if config.wi_condition == "auto" else (config.wi_condition == "los")
    return default_scenario(
        config.environment,
        frequency_mhz=config.freq_mhz,
        distance_m=config.dist_m,
        bs_height_m=config.bs_m,
        rx_height_m=config.rx_m,
        sui_reference_distance_m=config.d0_m,
        street_width_m=config.street_width_m,
        building_separation_m=config.building_sep_m,
        roof_height_m=config.roof_height_m,
        orientation_deg=config.orientation_deg,
        metro_factor_k=config.metro_k,
        wi_los=wi_los,
        ericsson=EricssonCoefficients(config.a0, config.a1, config.a2, config.a3),
        mode=config.mode,
        shadow_margin_db=config.shadow_margin_db,
        apply_shadow_margin=config.apply_shadow_margin,
        include_sui_shadowing=config.sui_shadowing,
    )


def _curves_for(config: RunConfig, bundled_fallback: bool) -> Optional[CurveTable]:
    if config.curve_file:
        with open(config.curve_file, "rb") as fh:
            return load_curves(fh)
    if bundled_fallback:
        return load_default_curves()
    return None


_SERIES_HEADER = "distance_m,model,environment,freq_mhz,bs_m,rx_m,mode,path_loss_db"


def _series_csv(config, points):
    middle = ",".join(["", config.model.value, config.environment.value,
                       f"{config.freq_mhz:.2f}", f"{config.bs_m:.2f}", f"{config.rx_m:.2f}",
                       config.mode.value, ""])
    lines = [_SERIES_HEADER]
    lines.extend(f"{distance:.2f}{middle}{result.total_db:.2f}" for distance, result in points)
    return "\n".join(lines) + "\n"


def _result_json_body(result: PathLossResult):
    return {
        "total_db": result.total_db,
        "components": [{"label": label, "db": value} for label, value in result.components],
        "warnings": list(result.warnings),
    }


def _inputs_json(config: RunConfig):
    return {
        "freq_mhz": config.freq_mhz,
        "distance_m": config.dist_m,
        "bs_m": config.bs_m,
        "rx_m": config.rx_m,
    }


def _emit_pathloss(config, result, out):
    if config.output == "csv":
        out.write(_series_csv(config, [(config.dist_m, result)]))
    elif config.output == "json":
        body = {
            "model": config.model.value,
            "environment": config.environment.value,
            "mode": config.mode.value,
            "inputs": _inputs_json(config),
        }
        body.update(_result_json_body(result))
        out.write(json.dumps(body, indent=2) + "\n")
    else:
        out.write(f"model: {config.model.value}   environment: {config.environment.value}"
                  f"   mode: {config.mode.value}\n")
        out.write(f"freq {config.freq_mhz:.2f} MHz   distance {config.dist_m:.2f} m   "
                  f"bs {config.bs_m:.2f} m   rx {config.rx_m:.2f} m\n")
        for label, value in result.components:
            out.write(f"  {label:<22}{value:>10.2f}\n")
        out.write(f"  {'total':<22}{result.total_db:>10.2f}\n")
        for warning in result.warnings:
            out.write(f"warning: {warning}\n")


def _emit_sweep(config, points, out):
    if config.output == "csv":
        out.write(_series_csv(config, points))
    elif config.output == "json":
        body = {
            "model": config.model.value,
            "environment": config.environment.value,
            "mode": config.mode.value,
            "series": [dict(distance_m=distance, **_result_json_body(result))
                       for distance, result in points],
        }
        out.write(json.dumps(body, indent=2) + "\n")
    else:
        out.write(f"{'distance_m':>12}  {'path_loss_db':>12}\n")
        for distance, result in points:
            out.write(f"{distance:>12.2f}  {result.total_db:>12.2f}\n")


def _emit_compare(config, ledger, out):
    if config.output == "json":
        body = {
            "tolerance_db": ledger.tolerance_db,
            "mode": ledger.mode.value,
            "matched": ledger.matched,
            "entries": [{
                "model": e.row.model.value,
                "freq_mhz": e.row.freq_mhz,
                "dist_km": e.row.dist_km,
                "bs_m": e.row.bs_m,
                "rx_m": e.row.rx_m,
                "environment": e.environment.value,
                "printed_db": e.printed_db,
                "computed_db": e.computed_db,
                "delta_db": e.delta_db,
                "verdict": e.verdict,
                "notes": list(e.notes),
            } for e in ledger.entries],
            "summary": ledger.summary,
        }
        out.write(json.dumps(body, indent=2) + "\n")
        return
    if config.output == "csv":
        buffer = io.StringIO()
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
        out.write(buffer.getvalue())
    else:
        for e in ledger.entries:
            computed = "-" if e.computed_db is None else f"{e.computed_db:8.2f}"
            delta = "-" if e.delta_db is None else f"{e.delta_db:+8.2f}"
            out.write(f"{e.row.model.value:<18}{e.row.freq_mhz:>7.0f}{e.row.bs_m:>5.0f}"
                      f"  {e.environment.value:<9}{e.printed_db:>8.2f}{computed:>10}"
                      f"{delta:>10}  {e.verdict}\n")
    out.write(ledger.summary + "\n")


def _emit_cell_range(config, distance, out):
    if config.output == "csv":
        out.write(f"distance_m\n{distance:.2f}\n")
    elif config.output == "json":
        out.write(json.dumps({"distance_m": distance}, indent=2) + "\n")
    else:
        out.write(f"{distance:.2f} m\n")


def run(config: RunConfig, out=None, err=None) -> int:
    """Execute one parsed command; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        if config.command == "compare":
            curves = _curves_for(config, bundled_fallback=True)
            ledger = compare_against_reference(
                load_reference_rows(), config.tolerance_db, curves, config.mode)
            _emit_compare(config, ledger, out)
            if config.strict and ledger.matched < len(ledger.entries):
                return 3
            return 0

        scenario = _scenario_from(config)
        curves = _curves_for(config, bundled_fallback=False)
        if config.command == "pathloss":
            result = evaluate(config.model, scenario, curves)
            _emit_pathloss(config, result, out)
        elif config.command == "sweep":
            points = sweep(config.model, scenario, config.d_min_m, config.d_max_m,
                           config.steps, curves, config.spacing)
            _emit_sweep(config, points, out)
        elif config.command == "cell-range":
            distance = invert_cell_range(config.model, scenario, config.max_loss_db,
                                         config.d_min_m, config.d_max_m, curves)
            _emit_cell_range(config, distance, out)
        else:
            raise PathcastError(f"unknown command {config.command!r}")
        return 0
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=err)
        return 1
    except PathcastError as exc:
        print(f"error: {exc}", file=err)
        return 1


def main(argv=None) -> int:
    try:
        config = parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return run(config)
