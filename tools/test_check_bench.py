#!/usr/bin/env python3
"""Tests of check_bench.py's trajectory mode, against the repo's BENCHMARK.json.

    python3 tools/test_check_bench.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
CHECK = os.path.join(HERE, "check_bench.py")

with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]


def side(setup_s, ops_per_s, correct=True, failed=0):
    """One side of a workload: every end-to-end metric at 1.0 but these."""
    values = {"setup_s": setup_s, "ops_per_s": ops_per_s}
    doc = {"attempted": [1000, 1000], "failed": [0, failed],
           "correct": correct}
    for name in METRICS:
        value = values.get(name, 1.0)
        doc[name] = {"median": value, "q1": value, "q3": value}
    return doc


def bench(pr, setup_s, ops_per_s, change=None):
    """A BENCH_<pr>.json whose sides agree unless `change` replaces one."""
    return {"pr": pr, "workloads": {
        w: {"parent": side(setup_s, ops_per_s),
            "change": change or side(setup_s, ops_per_s)}
        for w in WORKLOADS}}


class Trajectory(unittest.TestCase):
    def run_check(self, docs):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, doc in docs.items():
                paths.append(os.path.join(tmp, name))
                with open(paths[-1], "w") as f:
                    json.dump(doc, f)
            proc = subprocess.run([sys.executable, CHECK, "--trajectory"]
                                  + paths, capture_output=True, text=True)
            return proc.returncode, proc.stdout + proc.stderr

    def test_single_complete_file_passes(self):
        code, out = self.run_check({"BENCH_16.json": bench(16, 0.3, 28e3)})
        self.assertEqual(code, 0, out)
        self.assertIn("every trajectory gate holds", out)

    def test_within_bounds_passes(self):
        code, out = self.run_check({
            "BENCH_16.json": bench(16, 0.30, 28e3),
            "BENCH_17.json": bench(17, 0.37, 22e3)})
        self.assertEqual(code, 0, out)

    def test_lower_is_better_metric_past_bound_fails(self):
        code, out = self.run_check({
            "BENCH_16.json": bench(16, 0.30, 28e3),
            "BENCH_17.json": bench(17, 0.38, 28e3)})
        self.assertEqual(code, 1, out)
        self.assertIn("churn.setup_s: 0.3 -> 0.38 FAIL", out)

    def test_higher_is_better_metric_past_bound_fails(self):
        code, out = self.run_check({
            "BENCH_16.json": bench(16, 0.30, 28e3),
            "BENCH_17.json": bench(17, 0.30, 20e3)})
        self.assertEqual(code, 1, out)
        self.assertIn("churn.ops_per_s: 28000 -> 20000 FAIL", out)

    def test_change_worse_than_its_own_parent_fails(self):
        code, out = self.run_check({"BENCH_16.json": bench(
            16, 0.30, 28e3, change=side(0.40, 28e3))})
        self.assertEqual(code, 1, out)
        self.assertIn("churn.setup_s: parent 0.3 -> change 0.4 FAIL", out)

    def test_orders_by_pr_number_not_file_name(self):
        # Lexically BENCH_100 < BENCH_99; by PR number 99 comes first and
        # the later file improved, so nothing fails.
        code, out = self.run_check({
            "BENCH_100.json": bench(100, 0.30, 28e3),
            "BENCH_99.json": bench(99, 0.60, 14e3)})
        self.assertEqual(code, 0, out)
        self.assertIn("PR 99 -> PR 100", out)

    def test_only_consecutive_pairs_are_compared(self):
        # Each step is inside the 25% bound although 16 -> 18 is not.
        code, out = self.run_check({
            "BENCH_16.json": bench(16, 0.30, 28e3),
            "BENCH_17.json": bench(17, 0.36, 28e3),
            "BENCH_18.json": bench(18, 0.44, 28e3)})
        self.assertEqual(code, 0, out)

    def test_workload_missing_from_a_file_fails(self):
        later = bench(17, 0.30, 28e3)
        del later["workloads"]["churn"]
        code, out = self.run_check({"BENCH_16.json": bench(16, 0.30, 28e3),
                                    "BENCH_17.json": later})
        self.assertEqual(code, 1, out)
        self.assertIn("churn: FAIL (needs a parent and a change side)", out)

    def test_metric_missing_from_a_file_fails(self):
        later = bench(17, 0.30, 28e3)
        del later["workloads"]["lookup"]["change"]["setup_s"]
        code, out = self.run_check({"BENCH_16.json": bench(16, 0.30, 28e3),
                                    "BENCH_17.json": later})
        self.assertEqual(code, 1, out)
        self.assertIn("lookup: FAIL (missing setup_s)", out)

    def test_incorrect_change_side_fails(self):
        code, out = self.run_check({"BENCH_16.json": bench(
            16, 0.30, 28e3, change=side(0.30, 28e3, correct=False))})
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL (change side not correct)", out)

    def test_more_failed_ops_on_change_side_fails(self):
        code, out = self.run_check({"BENCH_16.json": bench(
            16, 0.30, 28e3, change=side(0.30, 28e3, failed=3))})
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL (change failed 3 ops, parent 0)", out)

    def test_file_without_pr_key_is_an_error(self):
        doc = bench(16, 0.30, 28e3)
        del doc["pr"]
        code, out = self.run_check({"BENCH_16.json": doc})
        self.assertNotEqual(code, 0, out)
        self.assertIn("no 'pr' key", out)


if __name__ == "__main__":
    unittest.main()
