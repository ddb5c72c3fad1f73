"""The four seeded workloads.

Each workload turns a seed into an endless, deterministic stream of
operations.  A CLI operation is an argv (plus environment) and a checker of
(exit code, stdout, stderr); a library operation is one ``default_scenario``
-> ``invert_cell_range`` call and a checker of the returned distance.  Inputs
are drawn so that no operation fails: every target lies inside its bracket,
every frequency and distance inside the curve grid, every WI NLOS receiver
below the rooftops.  Case kinds rotate in a fixed order, so that a run that
stops part-way through holds nearly the same mix for every seed.
"""

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from checks import (ENVS, check_cell_range, check_compare, check_inversion, check_pathloss,
                    check_series, check_usage_error, resolve, sweep_distances)

CURVES_ENV_VAR = "PATHCAST_CURVES"
CURVES_ARG = "src/pathcast/data/okumura_curves.csv"  # relative to the checkout

SWEEP_STEPS, QUICK_SWEEP_STEPS = 40_000, 300
SWEEP_SAMPLES = 400  # rows per sweep checked against the oracle
USAGE_ERRORS = [
    ["pathloss", "--env", "urban"],
    ["pathloss", "--model", "sui", "--env", "downtown"],
    ["cell-range", "--model", "sui", "--env", "rural"],
    ["pathloss", "--model", "cost231_hata", "--freq-mhz", "fast"],
    ["sweep", "--model", "hata"],
]


@dataclass
class Op:
    kind: str
    check: Callable
    argv: list = field(default_factory=list)
    env: dict = field(default_factory=dict)
    items: int = 1
    call: Optional[dict] = None  # library operations: invert_cell_range arguments


def _u(rng, lo, hi, digits=1):
    """Uniform draw rounded so that str(value) round-trips through argv."""
    return round(rng.uniform(lo, hi), digits)


# flag, config field, case field
FIELDS = [
    ("--env", "env", "env"), ("--mode", "mode", "mode"),
    ("--freq-mhz", "freq_mhz", "freq"), ("--dist-m", "dist_m", "dist"),
    ("--bs-m", "bs_m", "bs"), ("--rx-m", "rx_m", "rx"),
    ("--street-width-m", "street_width_m", "width"),
    ("--building-sep-m", "building_sep_m", "sep"),
    ("--roof-height-m", "roof_height_m", "roof"),
    ("--orientation-deg", "orientation_deg", "orientation"),
    ("--metro-k", "metro_k", "metro_k"),
]


def case_fields(rng, kind):
    """Scenario fields for one case kind, without distances.

    Kinds: sui, okumura, cost231_hata, wi_los, wi_nlos (BS above the
    rooftops), wi_nlos_below (BS below them), ericsson9999.
    """
    env = rng.choice(ENVS)
    mode = rng.choice(("corrected", "as_printed"))
    rx = _u(rng, 1.5, 8.0)
    if kind == "sui":
        return dict(model="sui", env=env, mode=mode, freq=_u(rng, 1500, 3500),
                    bs=_u(rng, 15, 80), rx=rx)
    if kind == "okumura":
        return dict(model="okumura", env=env, mode=mode, freq=_u(rng, 150, 2950),
                    bs=_u(rng, 20, 200), rx=rx)
    if kind == "cost231_hata":
        return dict(model="cost231_hata", env=env, mode=mode, freq=_u(rng, 1500, 2000),
                    bs=_u(rng, 30, 200), rx=rx)
    if kind == "ericsson9999":
        return dict(model="ericsson9999", env=env, mode=mode, freq=_u(rng, 150, 2900),
                    bs=_u(rng, 20, 200), rx=rx)
    if kind == "wi_los":
        return dict(model="walfisch_ikegami", env=env, mode=mode, los=True,
                    freq=_u(rng, 800, 2000), bs=_u(rng, 10, 60), rx=rx)
    rx = _u(rng, 1.5, 3.0)
    roof = _u(rng, 20, 40) if kind == "wi_nlos_below" else _u(rng, 10, 30)
    bs = _u(rng, rx + 2, roof - 1) if kind == "wi_nlos_below" else _u(rng, roof + 2, roof + 40)
    return dict(model="walfisch_ikegami", env=env, los=False, roof=roof, bs=bs, rx=rx,
                # the printed multi-screen branches jump at 0.5 km below the roofs
                mode="corrected" if kind == "wi_nlos_below" else mode,
                freq=_u(rng, 800, 2000), width=_u(rng, 10, 40), sep=_u(rng, 20, 80),
                orientation=_u(rng, 0, 90), metro_k=rng.choice((0.7, 1.5)))


# (d_min range, d_max range) per kind, inside every model's domain: SUI above
# d0 = 100 m, Okumura on the 1-100 km grid, WI NLOS at or beyond 0.5 km.
BRACKETS = {
    "sui": ((200, 1000), (10_000, 40_000)),
    "okumura": ((1000, 3000), (20_000, 95_000)),
    "cost231_hata": ((500, 1500), (10_000, 30_000)),
    "ericsson9999": ((300, 1000), (10_000, 30_000)),
    "wi_los": ((100, 500), (3000, 8000)),
    "wi_nlos": ((500, 800), (3000, 8000)),
    "wi_nlos_below": ((500, 800), (3000, 8000)),
}


def bracket(rng, kind):
    (a, b), (c, d) = BRACKETS[kind]
    return float(_u(rng, a, b, 0)), float(_u(rng, c, d, 0))


def case_argv(fields):
    """Flags for the fields the case sets, in a fixed order."""
    argv = ["--model", fields["model"]]
    for flag, _, key in FIELDS:
        if key in fields:
            argv += [flag, str(fields[key])]
    if "los" in fields:
        argv += ["--wi-condition", "los" if fields["los"] else "nlos"]
    return argv


def curves_route(rng, fields):
    """Okumura reads its table from --curves or from $PATHCAST_CURVES."""
    if fields["model"] != "okumura":
        return [], {}
    if rng.random() < 0.5:
        return ["--curves", CURVES_ARG], {}
    return [], {CURVES_ENV_VAR: CURVES_ARG}


def _checked(check):
    """Adapt a stdout checker to (code, out, err): success needs exit 0 and
    an empty stderr."""
    def run(code, out, err):
        if code != 0:
            return f"exit {code}: {err.strip()[-300:]}"
        if err:
            return f"unexpected stderr {err.strip()[-300:]!r}"
        return check(out)
    return run


class Workload:
    name = ""
    runner = "cli"         # "cli": one process per operation; "library": in-process
    item = "operation"     # what items_per_ref counts
    labels = ("ops_per_s", "op_ms")  # report names of the raw rate and the median op time
    trace_ops = 1          # operations in a traced pass (fixed, so counters repeat)
    quick_ops = 1          # operations in a --quick untraced run
    quick_trace_ops = 1

    def __init__(self, oracle, scratch, quick):
        self.oracle, self.scratch, self.quick = oracle, scratch, quick

    def ops(self, seed):
        raise NotImplementedError


class SweepWorkload(Workload):
    item = "sweep row"
    labels = ("sweep_points_per_s", "sweep_ms")
    kinds = ()

    def ops(self, seed):
        rng = random.Random(seed)
        steps = QUICK_SWEEP_STEPS if self.quick else SWEEP_STEPS
        for kind in itertools.cycle(self.kinds):
            fields = case_fields(rng, kind)
            d_min, d_max = bracket(rng, kind)
            spacing = "log" if rng.random() < 0.75 else "linear"
            extra, env = curves_route(rng, fields)
            argv = (["sweep"] + case_argv(fields) + extra
                    + ["--d-min-m", str(d_min), "--d-max-m", str(d_max),
                       "--steps", str(steps), "--spacing", spacing])
            case = resolve(**fields)
            distances = sweep_distances(d_min, d_max, steps, spacing)
            yield Op(kind, _checked(lambda out, case=case, distances=distances: check_series(
                self.oracle, case, out, distances, SWEEP_SAMPLES)), argv, env, steps)


class SweepAffine(SweepWorkload):
    name = "sweep_affine"
    kinds = ("sui", "cost231_hata", "wi_los", "wi_nlos", "ericsson9999")
    trace_ops = quick_ops = quick_trace_ops = 5


class SweepOkumura(SweepWorkload):
    name = "sweep_okumura"
    kinds = ("okumura",)
    trace_ops = 4
    quick_ops = quick_trace_ops = 2


class CellPlanning(Workload):
    name = "cell_planning"
    runner = "library"
    item = "inversion"
    labels = ("inversions_per_s", "inversion_ms")
    kinds = ("sui", "okumura", "cost231_hata", "wi_los", "wi_nlos", "ericsson9999")
    trace_ops, quick_ops, quick_trace_ops = 4800, 24, 12

    def ops(self, seed):
        rng = random.Random(seed)
        for kind in itertools.cycle(self.kinds):
            if kind == "wi_nlos" and rng.random() < 0.5:
                kind = "wi_nlos_below"
            fields = case_fields(rng, kind)
            d_min, d_max = bracket(rng, kind)
            case = resolve(**fields)
            target = self.oracle.target_in_bracket(case, d_min, d_max, rng.uniform(0.05, 0.95))
            call = dict(case=case, target=target, d_min=d_min, d_max=d_max)
            yield Op(kind, lambda d, c=call: check_inversion(
                self.oracle, c["case"], d, c["target"], c["d_min"], c["d_max"]), call=call)


class CliOneshot(Workload):
    name = "cli_oneshot"
    item = "command"
    labels = ("commands_per_s", "oneshot_ms")
    trace_ops, quick_ops, quick_trace_ops = 40, 20, 8
    # One block of 20 commands, shuffled per block by the seed.
    BLOCK = (["pathloss"] * 8 + ["pathloss_defaults", "cell_range", "cell_range",
                                 "cell_range", "compare", "compare", "compare_as_printed",
                                 "config_pathloss", "config_pathloss", "config_cell_range",
                                 "usage_error", "usage_error"])
    PATHLOSS_KINDS = ("sui", "okumura", "cost231_hata", "wi_los", "wi_nlos", "ericsson9999")
    OUTPUTS = ("csv", "json", "table")

    def ops(self, seed):
        rng = random.Random(seed)
        kinds = itertools.cycle(self.PATHLOSS_KINDS)
        outputs = itertools.cycle(self.OUTPUTS)
        usage = itertools.cycle(USAGE_ERRORS)
        makers = {
            "pathloss": self._pathloss,
            "pathloss_defaults": self._pathloss_defaults,
            "config_pathloss": self._config_pathloss,
            "cell_range": lambda rng, kind, output, tag: self._cell_range(rng, kind, output),
            "config_cell_range": self._cell_range,
        }
        for block in itertools.count():
            slots = list(self.BLOCK)
            rng.shuffle(slots)
            for i, slot in enumerate(slots):
                if slot == "usage_error":
                    yield Op(slot, check_usage_error, list(next(usage)))
                elif slot.startswith("compare"):
                    yield self._compare(rng, slot)
                else:
                    yield makers[slot](rng, next(kinds), next(outputs), f"{seed}_{block}_{i}")

    def _compare(self, rng, slot):
        mode = "as_printed" if slot == "compare_as_printed" else "corrected"
        argv = ["compare"] + (["--mode", mode] if mode != "corrected" else [])
        if rng.random() < 0.5:
            argv += ["--tolerance-db", "0.5", "--output", "csv"]
        return Op(slot, _checked(lambda out: check_compare(self.oracle, mode, out)), argv)

    def _pathloss(self, rng, kind, output, tag):
        fields = case_fields(rng, kind)
        (a, _), (_, d) = BRACKETS[kind]
        fields["dist"] = _u(rng, a, d, 0)
        extra, env = curves_route(rng, fields)
        argv = ["pathloss"] + case_argv(fields) + extra + ["--output", output]
        case = resolve(**fields)
        return Op("pathloss", _checked(
            lambda out: check_pathloss(self.oracle, case, output, out)), argv, env)

    def _pathloss_defaults(self, rng, kind, output, tag):
        """Only model and environment given: every other field at its default."""
        model = rng.choice(("sui", "cost231_hata", "walfisch_ikegami", "ericsson9999"))
        env = rng.choice(ENVS)
        case = resolve(model=model, env=env)
        argv = ["pathloss", "--model", model, "--env", env, "--output", output]
        return Op("pathloss_defaults", _checked(
            lambda out: check_pathloss(self.oracle, case, output, out)), argv)

    def _cell_range(self, rng, kind, output, config=None):
        """A cell-range command; with a ``config`` tag, the scenario and the
        bracket come from a --config file instead of flags."""
        kind = "wi_nlos_below" if kind == "wi_nlos" and rng.random() < 0.5 else kind
        fields = case_fields(rng, kind)
        d_min, d_max = bracket(rng, kind)
        case = resolve(**fields)
        target = self.oracle.target_in_bracket(case, d_min, d_max, rng.uniform(0.05, 0.95))
        extra, env = curves_route(rng, fields)
        bounds = ["--d-min-m", str(d_min), "--d-max-m", str(d_max)]
        argv = ["cell-range"] + extra + ["--max-loss-db", repr(target), "--output", output]
        if config is None:
            argv += case_argv(fields) + bounds
        else:
            argv += ["--config", self._write_config(
                config, fields, {"d_min_m": d_min, "d_max_m": d_max})]
        return Op("cell_range" if config is None else "config_cell_range", _checked(
            lambda out: check_cell_range(self.oracle, case, output, out, target, d_min, d_max)),
            argv, env)

    def _config_pathloss(self, rng, kind, output, tag):
        """Fields split between --config and flags; a flag also overrides one
        config field, as flags take precedence."""
        fields = case_fields(rng, kind)
        (a, _), (_, d) = BRACKETS[kind]
        fields["dist"] = _u(rng, a, d, 0)
        keys = [k for _, _, k in FIELDS if k in fields]
        in_config = [k for k in keys if rng.random() < 0.6 or k == "freq"]
        config = {k: fields[k] for k in in_config}
        config["freq"] = round(fields["freq"] * 0.9, 1)  # overridden by the flag below
        flags = {k: fields[k] for k in keys if k not in in_config or k == "freq"}
        flags["model"] = fields["model"]
        if "los" in fields:
            flags["los"] = fields["los"]
        extra, env = curves_route(rng, fields)
        argv = (["pathloss", "--config", self._write_config(tag, config, {"output": output})]
                + case_argv(flags) + extra)
        case = resolve(**fields)
        return Op("config_pathloss", _checked(
            lambda out: check_pathloss(self.oracle, case, output, out)), argv, env)

    def _write_config(self, tag, fields, extra):
        names = {key: name for _, name, key in FIELDS}
        body = {names.get(k, k): v for k, v in fields.items() if k != "los"}
        if "los" in fields:
            body["wi_condition"] = "los" if fields["los"] else "nlos"
        body.update(extra)
        path = self.scratch / f"config_{tag}.json"
        path.write_text(json.dumps(body), "utf-8")
        return str(path.relative_to(self.scratch.parent))


WORKLOADS = {w.name: w for w in (SweepAffine, SweepOkumura, CellPlanning, CliOneshot)}
