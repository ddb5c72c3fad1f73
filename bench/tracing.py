"""In-memory span recorder, attached to pathcast from outside the package.

Spans (name, start, end, parent) are recorded at command boundaries such as
``cli.parse_args``, ``cli.run`` and ``scenario.invert_cell_range``.  Calls made
once per point (``scenario.evaluate``, the model kernels, the curve lookups)
are only counted and timed, under the nearest enclosing span, so tracing a
long sweep stays cheap.  Nothing is written until the caller serialises it.
"""

import importlib
import time

perf = time.perf_counter

SPAN, POINT = True, False

# (home module, attribute, kind).  A name is wrapped in its home module and,
# when pathcast.cli imported it, in pathcast.cli too, because each caller
# resolves it through its own module globals: cli.main looks up parse_args and
# run, cli.run looks up the scenario and curve entry points, sweep,
# invert_cell_range and compare_against_reference look up evaluate and
# default_scenario, evaluate looks up the kernels, and okumura_path_loss
# imports the curve lookups from pathcast.curves on every call.
TARGETS = [
    ("pathcast.cli", "parse_args", SPAN),
    ("pathcast.cli", "run", SPAN),
    ("pathcast.scenario", "sweep", SPAN),
    ("pathcast.scenario", "invert_cell_range", SPAN),
    ("pathcast.scenario", "compare_against_reference", SPAN),
    ("pathcast.scenario", "load_reference_rows", SPAN),
    ("pathcast.curves", "load_curves", SPAN),
    ("pathcast.curves", "load_default_curves", SPAN),
    ("pathcast.scenario", "default_scenario", POINT),
    ("pathcast.scenario", "evaluate", POINT),
    ("pathcast.scenario", "sui_path_loss", POINT),
    ("pathcast.scenario", "okumura_path_loss", POINT),
    ("pathcast.scenario", "cost231_hata_path_loss", POINT),
    ("pathcast.scenario", "wi_los_path_loss", POINT),
    ("pathcast.scenario", "wi_nlos_path_loss", POINT),
    ("pathcast.scenario", "ericsson_path_loss", POINT),
    ("pathcast.curves", "amu_lookup", POINT),
    ("pathcast.curves", "garea_lookup", POINT),
]

# Kernel attribute -> short model name used in metric names.
KERNELS = {
    "sui_path_loss": "sui",
    "okumura_path_loss": "okumura",
    "cost231_hata_path_loss": "cost231_hata",
    "wi_los_path_loss": "wi_los",
    "wi_nlos_path_loss": "wi_nlos",
    "ericsson_path_loss": "ericsson",
}


def metric_name(module, attr):
    """'pathcast.scenario', 'sui_path_loss' -> 'propagation.sui_path_loss'."""
    layer = "propagation" if attr in KERNELS else module.split(".")[-1]
    return f"{layer}.{attr}"


class Tracer:
    """Spans and per-name totals ``[calls, total_s, self_s]``.

    Self time is a call's duration minus the time of wrapped calls nested in
    it.  Times are seconds from the tracer's creation.
    """

    def __init__(self):
        self.epoch = perf()
        self.spans = []    # dicts: name, op, parent, start, end, points
        self.totals = {}
        self.op = 0
        self._frames = []  # [child_s] per open wrapped call
        self._open = []    # indices of open spans
        self._saved = []

    def call(self, name, is_span, fn, args, kwargs):
        frame = [0.0]
        span = None
        if is_span:
            span = {"name": name, "op": self.op,
                    "parent": self._open[-1] if self._open else None,
                    "start": 0.0, "end": 0.0, "points": {}}
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
        self._frames.append(frame)
        start = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf()
            self._frames.pop()
            elapsed = end - start
            if self._frames:
                self._frames[-1][0] += elapsed
            self._add(self.totals, name, elapsed, elapsed - frame[0])
            if span is not None:
                self._open.pop()
                span["start"], span["end"] = start - self.epoch, end - self.epoch
            elif self._open:
                self._add(self.spans[self._open[-1]]["points"], name,
                          elapsed, elapsed - frame[0])

    @staticmethod
    def _add(table, name, elapsed, self_s):
        entry = table.get(name)
        if entry is None:
            table[name] = [1, elapsed, self_s]
        else:
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += self_s

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        return self.call(name, SPAN, fn, args, kwargs)

    def wrapper(self, name, is_span, fn):
        def traced(*args, **kwargs):
            return self.call(name, is_span, fn, args, kwargs)
        return traced

    def install(self):
        """Replace every target with a recording wrapper; undo with uninstall."""
        cli = importlib.import_module("pathcast.cli")
        for module_name, attr, is_span in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            name = metric_name(module_name, attr)
            for owner in dict.fromkeys((module, cli)):
                if getattr(owner, attr, None) is original:
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, self.wrapper(name, is_span, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self):
        return {"spans": self.spans, "totals": self.totals}


def merge(into, dump, op):
    """Append one traced operation's spans and totals to ``into``."""
    offset = len(into["spans"])
    for span in dump["spans"]:
        span = dict(span, op=op)
        if span["parent"] is not None:
            span["parent"] += offset
        into["spans"].append(span)
    for name, (calls, total, self_s) in dump["totals"].items():
        entry = into["totals"].setdefault(name, [0, 0.0, 0.0])
        entry[0] += calls
        entry[1] += total
        entry[2] += self_s


def layer_metrics(trace, wall_s, untraced_wall_s, stdout_bytes, ops):
    """Per-layer metrics of one traced pass.

    Times are shares of the traced wall time (self time unless the name says
    otherwise), so a layer that a workload never enters reads 0 rather than
    a constant time; ``trace.wall_s`` converts a share back to seconds.
    """
    totals = trace["totals"]

    def calls(*names):
        return sum(totals.get(n, (0, 0, 0))[0] for n in names)

    def share(field, *names):
        return sum(totals.get(n, (0, 0, 0))[field] for n in names) / wall_s

    evals = [span["points"].get("scenario.evaluate", (0,))[0]
             for span in trace["spans"] if span["name"] == "scenario.invert_cell_range"]
    metrics = {
        "cli.stdout_bytes": (stdout_bytes, "count"),
        "curves.lookup_calls": (calls("curves.amu_lookup", "curves.garea_lookup"), "count"),
        "scenario.default_scenario_calls": (calls("scenario.default_scenario"), "count"),
        "scenario.evaluate_calls": (calls("scenario.evaluate"), "count"),
        "scenario.evals_per_inversion_mean": (sum(evals) / len(evals) if evals else 0, "count"),
        "scenario.evals_per_inversion_max": (max(evals, default=0), "count"),
    }
    for attr, model in KERNELS.items():
        metrics[f"propagation.{model}_calls"] = (calls(f"propagation.{attr}"), "count")
    shares = {
        "cli.import_share": share(1, "cli.import"),
        "cli.parse_args_share": share(1, "cli.parse_args"),
        "cli.run_self_share": share(2, "cli.run"),
        "curves.load_share": share(2, "curves.load_curves", "curves.load_default_curves"),
        "curves.lookup_self_share": share(2, "curves.amu_lookup", "curves.garea_lookup"),
        "scenario.sweep_self_share": share(2, "scenario.sweep"),
        "scenario.evaluate_self_share": share(2, "scenario.evaluate"),
        "scenario.invert_self_share": share(2, "scenario.invert_cell_range"),
        "scenario.compare_share": share(1, "scenario.compare_against_reference",
                                        "scenario.load_reference_rows"),
    }
    for attr, model in KERNELS.items():
        shares[f"propagation.{model}_self_share"] = share(2, f"propagation.{attr}")
    metrics.update({name: (value, "ratio") for name, value in shares.items()})
    metrics["trace.ops"] = (ops, "count")
    metrics["trace.wall_s"] = (wall_s, "s")
    metrics["trace.overhead_ratio"] = (wall_s / untraced_wall_s, "ratio")
    return metrics
