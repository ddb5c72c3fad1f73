"""Output checks against the straight-line oracle (tests/oracle.py) and the
golden files (tests/golden/).

A case is a dict of fully resolved scenario fields (see ``resolve``).  Every
checker returns None when the output is right, or a one-line reason.
"""

import csv
import importlib.util
import io
import json

ENVS = ("urban", "suburban", "rural")

# The documented simulation defaults (README, `pathcast --help`).
DEFAULTS = {
    "model": None, "env": "urban", "mode": "corrected", "freq": 1900.0,
    "dist": 5000.0, "bs": 30.0, "rx": 3.0, "d0": 100.0, "width": 25.0,
    "sep": 50.0, "roof": 15.0, "orientation": None, "metro_k": None, "los": None,
    "a0": 36.2, "a1": 30.2, "a2": 12.0, "a3": 0.1, "sui_shadowing": True,
}
ENV_DEFAULTS = {
    "orientation": {"urban": 30.0, "suburban": 40.0, "rural": 40.0},
    "metro_k": {"urban": 1.5, "suburban": 0.7, "rural": 0.7},
    "los": {"urban": False, "suburban": False, "rural": True},
}

SERIES_HEADER = "distance_m,model,environment,freq_mhz,bs_m,rx_m,mode,path_loss_db"


def resolve(**fields):
    """A case with every unset field at its documented default."""
    unknown = set(fields) - set(DEFAULTS)
    if unknown:
        raise KeyError(f"unknown case fields {sorted(unknown)}")
    case = dict(DEFAULTS, **fields)
    for key, by_env in ENV_DEFAULTS.items():
        if case[key] is None:
            case[key] = by_env[case["env"]]
    return case


class Oracle:
    """Path loss of a case from tests/oracle.py and the bundled curve CSV,
    parsed here without the library."""

    def __init__(self, root):
        spec = importlib.util.spec_from_file_location("pathcast_oracle",
                                                      root / "tests" / "oracle.py")
        self.o = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.o)
        curves = root / "src" / "pathcast" / "data" / "okumura_curves.csv"
        self._parse_curves(curves.read_text("utf-8"))
        self.golden_compare = (root / "tests" / "golden" / "compare_default.csv").read_text("utf-8")
        table = (root / "src" / "pathcast" / "data" / "table3.csv").read_text("utf-8")
        self.reference = list(csv.DictReader(io.StringIO(table)))

    def _parse_curves(self, text):
        self.freqs, self.grid, self.garea = [], [], {env: [] for env in ENVS}
        section = None
        for line in text.splitlines():
            fields = [f.strip() for f in line.split(",")]
            if not line.strip() or line.startswith("#"):
                continue
            if fields[0] == "AMU":
                self.dists_km, section = [float(f) for f in fields[1:]], "amu"
            elif fields[0] == "GAREA":
                section = "garea"
            elif section == "amu":
                self.freqs.append(float(fields[0]))
                self.grid.append([float(f) for f in fields[1:]])
            else:
                self.garea[fields[1]].append((float(fields[0]), float(fields[2])))
        for pairs in self.garea.values():
            pairs.sort()

    def loss(self, case, d):
        o, m, f, env = self.o, case["model"], case["freq"], case["env"]
        bs, rx, mode = case["bs"], case["rx"], case["mode"]
        if m == "sui":
            return o.sui_total(f, d, bs, rx, env, case["sui_shadowing"], case["d0"])
        if m == "okumura":
            amu = o.bilinear_log(self.freqs, self.dists_km, self.grid, f, d / 1000.0)
            return o.okumura_total(f, d, bs, rx, amu, o.loglinear(self.garea[env], f))
        if m == "cost231_hata":
            return o.cost231_total(f, d, bs, rx, env, mode)
        if m == "walfisch_ikegami":
            if case["los"]:
                return o.wi_los_total(f, d)
            return o.wi_nlos_total(f, d, bs, rx, case["width"], case["sep"], case["roof"],
                                   case["orientation"], case["metro_k"], mode)
        if m == "ericsson9999":
            return o.ericsson_total(f, d, bs, rx, case["a0"], case["a1"], case["a2"],
                                    case["a3"], mode)
        raise ValueError(f"no oracle for model {m!r}")

    def target_in_bracket(self, case, d_min, d_max, share):
        """Target loss at ``share`` of the way from PL(d_min) to PL(d_max)."""
        lo, hi = self.loss(case, d_min), self.loss(case, d_max)
        return lo + share * (hi - lo)


# Printed values carry two decimals: half a unit in the last place, plus room
# for the library and the oracle to differ in the last bits.
HALF_CENT = 0.005 + 1e-6
ROUND_TRIP_DB = 1e-6 + 1e-9


def sweep_distances(d_min, d_max, steps, spacing):
    if spacing == "log":
        points = [d_min * (d_max / d_min) ** (i / (steps - 1)) for i in range(steps)]
    else:
        points = [d_min + (d_max - d_min) * i / (steps - 1) for i in range(steps)]
    points[0], points[-1] = d_min, d_max
    return points


def _series_row(oracle, case, fields, d):
    want = [case["model"], case["env"], f"{case['freq']:.2f}", f"{case['bs']:.2f}",
            f"{case['rx']:.2f}", case["mode"]]
    if len(fields) != 8 or fields[1:7] != want:
        return f"row {','.join(fields)!r} does not carry {','.join(want)!r}"
    try:
        dist, loss = float(fields[0]), float(fields[7])
    except ValueError:
        return f"row {','.join(fields)!r} is not numeric"
    if abs(dist - d) > HALF_CENT:
        return f"distance {fields[0]} != {d:.4f}"
    want_loss = oracle.loss(case, d)
    if not abs(loss - want_loss) <= HALF_CENT:
        return f"loss {fields[7]} at {d:.2f} m != oracle {want_loss:.6f}"
    return None


def check_series(oracle, case, out, distances, samples):
    """CSV series: header, one row per distance, ``samples`` rows vs oracle."""
    if not out.endswith("\n"):
        return "output does not end with a newline"
    lines = out[:-1].split("\n")
    if lines[0] != SERIES_HEADER:
        return f"header {lines[0]!r}"
    if len(lines) - 1 != len(distances):
        return f"{len(lines) - 1} rows, expected {len(distances)}"
    n = len(distances)
    stride = max(1, n // samples)
    for i in sorted(set(range(0, n, stride)) | {n - 1}):
        reason = _series_row(oracle, case, lines[i + 1].split(","), distances[i])
        if reason:
            return f"row {i}: {reason}"
    return None


def check_pathloss(oracle, case, output, out):
    want = oracle.loss(case, case["dist"])
    if output == "csv":
        return check_series(oracle, case, out, [case["dist"]], 1)
    if output == "json":
        try:
            body = json.loads(out)
        except json.JSONDecodeError as exc:
            return f"invalid JSON: {exc}"
        head = (body.get("model"), body.get("environment"), body.get("mode"))
        if head != (case["model"], case["env"], case["mode"]):
            return f"JSON header {head}"
        inputs = {"freq_mhz": case["freq"], "distance_m": case["dist"],
                  "bs_m": case["bs"], "rx_m": case["rx"]}
        if body.get("inputs") != inputs:
            return f"JSON inputs {body.get('inputs')}"
        total = body.get("total_db")
        parts = sum(c["db"] for c in body.get("components", []))
        if not isinstance(total, float) or abs(total - want) > 1e-9 or abs(parts - total) > 1e-9:
            return f"JSON total {total} (components {parts}) != oracle {want}"
        return None
    lines = out.splitlines()
    head = (f"model: {case['model']}   environment: {case['env']}"
            f"   mode: {case['mode']}")
    if not lines or lines[0] != head:
        return f"table header {lines[:1]}"
    totals = [line.split() for line in lines if line.startswith("  total ")]
    if len(totals) != 1 or abs(float(totals[0][1]) - want) > HALF_CENT:
        return f"table total {totals} != oracle {want:.6f}"
    return None


def check_cell_range(oracle, case, output, out, target, d_min, d_max):
    """The printed distance d must satisfy PL(d) <= target <= PL(d) + 1e-6 dB;
    with two printed decimals the loss is increasing, so the check widens d
    by half a cent on each side."""
    try:
        if output == "json":
            d = json.loads(out)["distance_m"]
            low = high = d
        else:
            text = out.removeprefix("distance_m\n") if output == "csv" else out
            text = text.removesuffix(" m\n") if output == "table" else text.removesuffix("\n")
            d = float(text)
            low, high = d - HALF_CENT, d + HALF_CENT
    except (ValueError, KeyError, TypeError, json.JSONDecodeError):
        return f"unreadable {output} output {out!r}"
    if not d_min <= d <= d_max:
        return f"distance {d} outside bracket [{d_min}, {d_max}]"
    if oracle.loss(case, max(low, d_min)) > target + 1e-9:
        return f"PL({low:.4f} m) exceeds target {target:.6f}"
    if oracle.loss(case, min(high, d_max)) < target - ROUND_TRIP_DB:
        return f"PL({high:.4f} m) is more than 1e-6 dB below target {target:.6f}"
    return None


def check_inversion(oracle, case, d, target, d_min, d_max):
    if not d_min <= d <= d_max:
        return f"distance {d} outside bracket [{d_min}, {d_max}]"
    got = oracle.loss(case, d)
    if not abs(got - target) <= ROUND_TRIP_DB:
        return f"round trip PL({d:.6f} m) = {got:.9f} != target {target:.9f}"
    return None


def check_compare(oracle, mode, out):
    """corrected: byte-equal to the golden ledger.  as_printed: every cell
    against the oracle, and the summary recounted from the oracle."""
    if mode == "corrected":
        return None if out == oracle.golden_compare else "compare output differs from golden"
    lines = out.splitlines()
    rows = list(csv.reader(lines[:-1]))
    if rows[:1] != [next(csv.reader([oracle.golden_compare.splitlines()[0]]))]:
        return f"compare header {rows[:1]}"
    cells = [(row, env) for row in oracle.reference for env in ENVS]
    if len(rows) - 1 != len(cells):
        return f"{len(rows) - 1} ledger entries, expected {len(cells)}"
    matched = 0
    for got, (ref, env) in zip(rows[1:], cells):
        printed = float(ref[f"{env}_db"])
        case = resolve(model=ref["model"], env=env, mode=mode, freq=float(ref["freq_mhz"]),
                       dist=float(ref["dist_km"]) * 1000.0, bs=float(ref["bs_m"]),
                       rx=float(ref["rx_m"]))
        want = oracle.loss(case, case["dist"])
        verdict = "match" if abs(want - printed) <= 0.5 else "mismatch"
        matched += verdict == "match"
        head = [ref["model"], f"{case['freq']:.2f}", f"{float(ref['dist_km']):.2f}",
                f"{case['bs']:.2f}", f"{case['rx']:.2f}", env, mode, f"{printed:.2f}"]
        if got[:8] != head or got[10] != verdict:
            return f"ledger row {got} != {head} ... {verdict}"
        if abs(float(got[8]) - want) > HALF_CENT or abs(float(got[9]) - (want - printed)) > HALF_CENT:
            return f"ledger row {got[:10]} != oracle {want:.4f}"
    summary = f"matched {matched}/{len(cells)} within 0.50 dB"
    return None if lines[-1] == summary else f"summary {lines[-1]!r} != {summary!r}"


def check_usage_error(code, out, err):
    if code != 2 or out or "error" not in err:
        return f"expected a usage error (exit 2, empty stdout), got exit {code}"
    return None
