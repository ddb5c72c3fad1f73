#!/usr/bin/env python3
"""pathcast benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the root of a pathcast checkout (it needs ``src/`` and ``tests/``).
Workloads: sweep_affine, sweep_okumura, cell_planning, cli_oneshot, or ``all``.

--trace 0 measures end-to-end metrics with tracing off: operations run
back to back (a closed loop, one at a time) for S seconds, and every output
is checked against tests/oracle.py or tests/golden/.  Throughput is counted
in reference units, the wall time of a fixed reference process (reference.py)
run next to the operations on the same CPU, so that it follows the program's
speed and not the machine's.  --trace 1 runs a fixed,
seed-determined list of operations twice, untraced and traced, and reports
per-layer metrics; the fixed list makes every count repeat exactly for a
seed.  --quick shrinks every workload to a few small operations, with every
check still on.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REQUIRED = ("src/pathcast/cli.py", "tests/oracle.py", "tests/golden/compare_default.csv")

SETUP_CODE = ("import pathcast.cli, pathcast; "
              "pathcast.load_default_curves(); pathcast.load_reference_rows()")
SETUP_REPEATS, QUICK_SETUP_REPEATS = 15, 3
CHILD_TIMEOUT_S = 60
REF_ROUNDS, REF_WARMUP = 60000, 1
BATCH_S = 0.5  # least operation wall time between two reference runs

perf = time.perf_counter


def child_env(extra=None):
    env = {k: v for k, v in os.environ.items() if k != "PATHCAST_CURVES"}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


def spawn(cmd, env):
    """Run one child to completion; returns (exit code, stdout, stderr, wall s).
    The child leads its own process group, so that a timeout also ends any
    process it started."""
    start = perf()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None, "", f"timed out after {CHILD_TIMEOUT_S} s", perf() - start
    wall = perf() - start
    return proc.returncode, out.decode("utf-8", "replace"), err.decode("utf-8", "replace"), wall


class Tally:
    def __init__(self):
        self.attempted, self.failures = 0, []

    def record(self, label, reason):
        self.attempted += 1
        if reason:
            self.failures.append(f"{label}: {reason}")


def checked(op, *outcome):
    try:
        return op.check(*outcome)
    except Exception as exc:  # a checker crash is a failed check, never a skipped one
        return f"check raised {exc!r}"


class CliRunner:
    """One ``python -m pathcast`` process per operation."""

    def __init__(self, scratch):
        self.scratch = scratch
        self.peak_rss_kib = 0

    def execute(self, op):
        """Run through rss_launcher.py, which reports the command's own peak RSS."""
        rss_out = self.scratch / f"rss_{os.getpid()}.txt"
        rss_out.unlink(missing_ok=True)
        code, out, err, wall = spawn(
            [sys.executable, "-I", "-S", str(BENCH / "rss_launcher.py"), str(rss_out),
             sys.executable, "-m", "pathcast", *op.argv], child_env(op.env))
        reason = checked(op, code, out, err)
        if rss_out.exists():
            self.peak_rss_kib = max(self.peak_rss_kib, int(rss_out.read_text("utf-8")))
            rss_out.unlink()
        else:
            reason = reason or "launcher reported no RSS"
        return wall, reason

    def execute_traced(self, op, tracer_dump):
        trace_out = self.scratch / f"child_{os.getpid()}.json"
        trace_out.unlink(missing_ok=True)
        code, out, err, wall = spawn(
            [sys.executable, str(BENCH / "traced_child.py"), str(trace_out), *op.argv],
            child_env(op.env))
        reason = checked(op, code, out, err)
        if trace_out.exists():
            tracer_dump(json.loads(trace_out.read_text("utf-8")))
            trace_out.unlink()
        else:
            reason = reason or "traced child wrote no trace"
        return wall, reason

    def peak_rss_mib(self):
        return self.peak_rss_kib / 1024.0


class LibraryRunner:
    """``default_scenario`` -> ``invert_cell_range`` in this process; every
    name is looked up on its module at call time, so installed wrappers see it."""

    def __init__(self, scratch):
        sys.path.insert(0, str(ROOT / "src"))
        import pathcast.curves
        import pathcast.propagation
        import pathcast.scenario
        self.curves_mod, self.scenario = pathcast.curves, pathcast.scenario
        self.p = pathcast.propagation
        self.curves = None

    def load_curves(self):
        self.curves = self.curves_mod.load_default_curves()

    def prepare(self, op):
        c, p = op.call["case"], self.p
        kwargs = dict(
            frequency_mhz=c["freq"], bs_height_m=c["bs"], rx_height_m=c["rx"],
            sui_reference_distance_m=c["d0"], street_width_m=c["width"],
            building_separation_m=c["sep"], roof_height_m=c["roof"],
            orientation_deg=c["orientation"], metro_factor_k=c["metro_k"], wi_los=c["los"],
            ericsson=p.EricssonCoefficients(c["a0"], c["a1"], c["a2"], c["a3"]),
            mode=p.FidelityMode(c["mode"]), include_sui_shadowing=c["sui_shadowing"])
        return (self.scenario.ModelId(c["model"]), p.Environment(c["env"]), kwargs,
                op.call["target"], op.call["d_min"], op.call["d_max"])

    def execute(self, op, tracer=None):
        model, env, kwargs, target, d_min, d_max = self.prepare(op)
        scenario, curves = self.scenario, self.curves

        def invert():
            bound = scenario.default_scenario(env, **kwargs)
            return scenario.invert_cell_range(model, bound, target, d_min, d_max, curves)

        start = perf()
        try:
            distance = invert() if tracer is None else tracer.span("op", invert)
        except Exception as exc:  # an error from the library is a failed operation
            return perf() - start, f"raised {exc!r}"
        wall = perf() - start
        return wall, checked(op, distance)

    @staticmethod
    def peak_rss_mib():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(repeats, tally):
    """Wall times from spawning a fresh interpreter until pathcast.cli is
    imported and the bundled curve and reference tables are loaded."""
    walls = []
    for _ in range(repeats):
        code, _, err, wall = spawn([sys.executable, "-c", SETUP_CODE], child_env())
        tally.record("setup", None if code == 0 else f"exit {code}: {err.strip()[-300:]}")
        walls.append(wall)
    return walls


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def tail(values):
    """(p, value, samples beyond) for the highest of p99.9/p99/p90 that has
    at least ten samples beyond it, or None."""
    for p in (99.9, 99, 90):
        value = percentile(values, p)
        beyond = sum(1 for v in values if v > value)
        if beyond >= 10:
            return p, value, beyond
    return None


def pin_to_one_cpu():
    """Run this process and every child it spawns on one CPU, so that the
    reference run and the operations next to it see the same CPU state."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def reference():
    """Wall time of the reference work (reference.py), spawn to exit."""
    code, _, err, wall = spawn([sys.executable, str(BENCH / "reference.py"), str(REF_ROUNDS)],
                               child_env())
    if code != 0:
        raise RuntimeError(f"reference run failed with exit {code}: {err.strip()[-300:]}")
    return wall


def run_untraced(workload, runner, seed, seconds, quick, tally, report):
    """Operations back to back for ``seconds``, in batches of at least
    BATCH_S of operation wall time.  The reference process runs before the
    first batch and after every batch.  A batch's wall time divided by the
    mean of the two reference times around it is its cost in reference
    units, and items_per_ref is items / total cost: it follows the program's
    speed, while a change of CPU speed moves both sides of the ratio.  The
    setup spawns are spread evenly over the run."""
    repeats = QUICK_SETUP_REPEATS if quick else SETUP_REPEATS
    measure_setup(1, tally)  # lets the bytecode cache fill; not measured
    setup_walls = []
    if isinstance(runner, LibraryRunner):
        runner.load_curves()
    for _ in range(REF_WARMUP):
        reference()
    walls, refs, items, cost = [], [], 0, 0.0
    ref_before = None
    ops = workload.ops(seed)
    start = perf()
    deadline = start + seconds
    done = False
    while not done:
        if len(setup_walls) < repeats and perf() >= start + len(setup_walls) * seconds / repeats:
            setup_walls += measure_setup(1, tally)
            ref_before = None
        if ref_before is None:
            ref_before = reference()
            refs.append(ref_before)
        batch_wall = 0.0
        while not done and batch_wall < BATCH_S:
            op = next(ops)
            wall, reason = runner.execute(op)
            tally.record(op.kind, reason)
            walls.append(wall)
            batch_wall += wall
            items += 0 if reason else op.items
            done = len(walls) >= workload.quick_ops if quick else perf() >= deadline
        ref_after = reference()
        refs.append(ref_after)
        cost += batch_wall / ((ref_before + ref_after) / 2.0)
        ref_before = ref_after
    setup_walls += measure_setup(repeats - len(setup_walls), tally)
    setup_s = statistics.median(setup_walls)
    rate_name, op_name = workload.labels
    op_wall = sum(walls)
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_ref": (items / cost, "1/ref"),
        "peak_rss_mib": (runner.peak_rss_mib(), "MiB"),
    }
    report(f"  {'setup_s':<24}{setup_s:12.4f} s     median of {repeats} fresh interpreters")
    report(f"  {'items_per_ref':<24}{metrics['items_per_ref'][0]:12.2f} 1/ref {items} "
           f"{workload.item}s in {cost:.1f} reference units ({len(refs)} reference runs, "
           f"median {statistics.median(refs) * 1000.0:.2f} ms)")
    report(f"  {rate_name:<24}{items / op_wall:12.1f} 1/s   {items} {workload.item}s in "
           f"{op_wall:.2f} s of operation wall time (not gated)")
    report(f"  {op_name + '_p50':<24}{statistics.median(walls) * 1000.0:12.3f} ms    "
           f"n={len(walls)} (not gated)")
    high = tail(walls)
    if high:
        p, value, beyond = high
        report(f"  {op_name}_p{p:g}".ljust(26) + f"{value * 1000.0:12.3f} ms    n={len(walls)}, "
               f"{beyond} beyond (not gated)")
    else:
        report(f"  {op_name} tail: no percentile above p50 has 10 samples beyond it (n={len(walls)})")
    report(f"  {'peak_rss_mib':<24}{metrics['peak_rss_mib'][0]:12.1f} MiB")
    return metrics


def run_traced(workload, runner, seed, quick, tally, report, scratch):
    """The first ``trace_ops`` operations, each untraced then traced."""
    import tracing

    count = workload.quick_trace_ops if quick else workload.trace_ops
    ops = [op for op, _ in zip(workload.ops(seed), range(count))]
    trace = {"spans": [], "totals": {}}
    stdout_bytes = 0
    untraced = traced = 0.0

    if isinstance(runner, LibraryRunner):
        # The wrappers go on and off around each traced call, so that untraced
        # and traced calls alternate and see the same machine speed.
        tracer = tracing.Tracer()
        start = perf()
        runner.load_curves()
        untraced += perf() - start
        tracer.install()
        try:
            start = perf()
            tracer.span("op", runner.load_curves)
            traced += perf() - start
        finally:
            tracer.uninstall()
        for i, op in enumerate(ops, start=1):
            wall, reason = runner.execute(op)
            tally.record(op.kind, reason)
            untraced += wall
            tracer.op = i
            tracer.install()
            try:
                wall, reason = runner.execute(op, tracer)
            finally:
                tracer.uninstall()
            tally.record(op.kind, reason)
            traced += wall
        trace = tracer.dump()
    else:
        for i, op in enumerate(ops):
            wall, reason = runner.execute(op)
            tally.record(op.kind, reason)
            untraced += wall
            dumps = []
            wall, reason = runner.execute_traced(op, dumps.append)
            tally.record(op.kind, reason)
            traced += wall
            for dump in dumps:
                stdout_bytes += dump.pop("stdout_bytes")
                tracing.merge(trace, dump, i)

    metrics = tracing.layer_metrics(trace, traced, untraced, stdout_bytes, len(ops))
    report(f"  traced pass: {len(ops)} operations, {traced:.3f} s traced, "
           f"{untraced:.3f} s untraced")
    report(f"  {'name':<40}{'calls':>10}{'total_s':>12}{'self_s':>12}{'ms/call':>10}")
    for name, (calls, total, self_s) in sorted(trace["totals"].items()):
        report(f"  {name:<40}{calls:>10}{total:>12.4f}{self_s:>12.4f}"
               f"{total / calls * 1000.0:>10.4f}")
    for name, (value, unit) in metrics.items():
        report(f"  {name:<40}{value:>14.6g} {unit}")
    out = scratch / f"trace_{workload.name}_seed{seed}.json"
    out.write_text(json.dumps({"workload": workload.name, "seed": seed, **trace,
                               "metrics": {k: v for k, (v, _) in metrics.items()}}), "utf-8")
    report(f"  spans written to {out.relative_to(ROOT)}")
    return metrics


def run_workload(name, seed, seconds, trace, quick, report):
    from checks import Oracle
    from workloads import WORKLOADS

    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    workload = WORKLOADS[name](Oracle(ROOT), scratch, quick)
    runner = (LibraryRunner if workload.runner == "library" else CliRunner)(scratch)
    tally = Tally()
    report(f"pathcast benchmark: workload={name} seed={seed} seconds={seconds:g} "
           f"trace={trace} quick={int(quick)} python={platform.python_version()} "
           f"nproc={os.cpu_count()}")
    if trace:
        metrics = run_traced(workload, runner, seed, quick, tally, report, scratch)
    else:
        metrics = run_untraced(workload, runner, seed, seconds, quick, tally, report)
    failed = len(tally.failures)
    report(f"  {'failed_ops_ratio':<24}{failed / tally.attempted:12.4f}       "
           f"{failed}/{tally.attempted} operations failed")
    for failure in tally.failures[:10]:
        report(f"  FAILED {failure}")
    return {"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="a few small operations per workload, every check on")
    args = parser.parse_args(argv)
    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"error: {ROOT} is not a pathcast checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    cpu = pin_to_one_cpu()
    print(f"pinned to CPU {cpu}" if cpu is not None else "not pinned: no CPU affinity",
          flush=True)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace, args.quick,
                              lambda line: print(line, flush=True))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
