"""Self-test of the benchmark, on the --quick workloads.

    python3 bench/selftest.py

Kept out of the repository's pytest run on purpose (the file name does not
match pytest's test_*.py pattern): it spawns about a hundred interpreters and
takes under a minute.  It checks that every workload passes its output checks,
that the metric names and units match BENCHMARK.json, that two traced runs
with one seed give identical counts, that the checkers reject wrong output,
and that the benchmark refuses to run without the program.
"""

import json
import random
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


class QuickRuns(unittest.TestCase):
    def test_declared_workloads_exist(self):
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(workloads.WORKLOADS))

    def test_every_workload_is_correct_with_the_declared_metrics(self):
        declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                result = result_of(bench("--workload", name, "--seed", "3", "--quick"))
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, declared)
                self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_traced_counts_repeat_exactly(self):
        declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first, second = (result_of(bench("--workload", name, "--seed", "5",
                                                 "--quick", "--trace", "1"))
                                 for _ in range(2))
                self.assertTrue(first["correct"] and second["correct"])
                self.assertEqual({k: v["unit"] for k, v in first["metrics"].items()}, declared)
                counts = {k for k, unit in declared.items() if unit == "count"}
                self.assertEqual({k: first["metrics"][k]["value"] for k in counts},
                                 {k: second["metrics"][k]["value"] for k in counts})

    def test_refuses_to_run_without_the_program(self):
        bare = ROOT / ".bench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench("--workload", "sweep_affine", "--seed", "1", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


class Checkers(unittest.TestCase):
    """Every checker must reject a corrupted copy of a correct output."""

    @classmethod
    def setUpClass(cls):
        scratch = ROOT / ".bench_out"
        scratch.mkdir(exist_ok=True)
        cls.oracle = checks.Oracle(ROOT)
        cls.scratch = scratch

    def cli(self, op):
        code, out, err, _ = run.spawn([sys.executable, "-m", "pathcast", *op.argv],
                                      run.child_env(op.env))
        self.assertIsNone(op.check(code, out, err))
        return code, out, err

    def test_sweep_rows_are_checked(self):
        op = next(workloads.SweepAffine(self.oracle, self.scratch, quick=True).ops(1))
        code, out, err = self.cli(op)
        lines = out.split("\n")
        row = lines[150].split(",")
        row[7] = f"{float(row[7]) + 0.02:.2f}"
        for bad in ("\n".join(lines[:150] + [",".join(row)] + lines[151:]),
                    "\n".join(lines[:150] + lines[151:]),
                    out.replace("distance_m,", "distance,", 1)):
            self.assertIsNotNone(op.check(code, bad, err))
        self.assertIsNotNone(op.check(1, out, err))
        self.assertIsNotNone(op.check(code, out, "warning\n"))

    def test_compare_is_checked_in_both_modes(self):
        golden = self.oracle.golden_compare
        self.assertIsNone(checks.check_compare(self.oracle, "corrected", golden))
        self.assertIsNotNone(checks.check_compare(
            self.oracle, "corrected", golden.replace("4/57", "5/57")))
        op = workloads.CliOneshot(self.oracle, self.scratch, True)._compare(
            random.Random(0), "compare_as_printed")
        code, out, err = self.cli(op)
        self.assertIsNotNone(op.check(code, out.replace("199.18", "199.28", 1), err))

    def test_cell_range_is_checked(self):
        oneshot = workloads.CliOneshot(self.oracle, self.scratch, True)
        for output in ("csv", "json", "table"):
            op = oneshot._cell_range(random.Random(4), "cost231_hata", output)
            code, out, err = self.cli(op)
            number = out.split()[-1 if output == "csv" else -2]
            moved = str(round(float(number) + 0.5, 2))
            self.assertIsNotNone(op.check(code, out.replace(number, moved), err))

    def test_inversions_are_checked(self):
        op = next(workloads.CellPlanning(self.oracle, self.scratch, True).ops(2))
        runner = run.LibraryRunner(self.scratch)
        runner.load_curves()
        _, reason = runner.execute(op)
        self.assertIsNone(reason)
        c = op.call
        self.assertIsNotNone(checks.check_inversion(
            self.oracle, c["case"], c["d_min"] * 1.01, c["target"], c["d_min"], c["d_max"]))

    def test_usage_errors_need_exit_two(self):
        self.assertIsNone(checks.check_usage_error(2, "", "pathcast: error: x"))
        self.assertIsNotNone(checks.check_usage_error(1, "", "error: x"))
        self.assertIsNotNone(checks.check_usage_error(2, "out", "error: x"))


if __name__ == "__main__":
    unittest.main()
