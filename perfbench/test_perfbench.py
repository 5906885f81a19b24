#!/usr/bin/env python3
"""Tests of the benchmark itself: determinism, traced/untraced agreement,
the held-out seed, the result-line contract and the refusal to run outside
a source tree.

    python3 perfbench/test_perfbench.py          # from the tree's root

Runs short (--seconds 2) runs of both workloads, about two minutes in all.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SECONDS = "2"
SEED = 1
HELD_OUT_SEED = 7  # never used while the benchmark was tuned; see README.md
WORKLOADS = ("lookup", "churn")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)

_cache = {}


def run(workload, seed, trace, raw=True, cwd=ROOT, script=RUN):
    """Runs the benchmark once; returns (exit code, stdout)."""
    cmd = [sys.executable, script, "--workload", workload, "--seed",
           str(seed), "--seconds", SECONDS, "--trace", str(trace)]
    if raw:
        cmd.append("--raw")
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    return proc.returncode, proc.stdout


def raw_result(workload, seed, trace, tag=0):
    """Full result (--raw) of one run; `tag` distinguishes repeated runs."""
    key = (workload, seed, trace, tag)
    if key not in _cache:
        code, out = run(workload, seed, trace)
        assert code == 0, f"{key}: exit {code}"
        _cache[key] = json.loads(out.strip().splitlines()[-1])
    return _cache[key]


def deterministic(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["deterministic"]}


class Determinism(unittest.TestCase):
    def test_same_seed_repeats_every_deterministic_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = deterministic(raw_result(w, SEED, 0, tag=0))
                b = deterministic(raw_result(w, SEED, 0, tag=1))
                for name in ("locate_found_frac", "hops_mean", "stretch_mean",
                             "msgs_per_op", "sim.events_fired",
                             "transport.msgs.route_hop"):
                    self.assertIn(name, a)
                self.assertEqual(a, b)

    def test_traced_run_matches_untraced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                untraced = deterministic(raw_result(w, SEED, 0))
                traced = deterministic(raw_result(w, SEED, 1))
                for name, value in untraced.items():
                    self.assertEqual(traced.get(name), value, name)

    def test_held_out_seed_runs_clean(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = raw_result(w, HELD_OUT_SEED, 0)
                self.assertTrue(r["correct"], r["errors"])
                self.assertEqual(r["failed"], 0)
                self.assertNotEqual(deterministic(r),
                                    deterministic(raw_result(w, SEED, 0)))


class Contract(unittest.TestCase):
    def test_every_run_passes_its_output_checks(self):
        for w in WORKLOADS:
            for seed, trace, tag in ((SEED, 0, 0), (SEED, 0, 1), (SEED, 1, 0),
                                     (HELD_OUT_SEED, 0, 0)):
                r = raw_result(w, seed, trace, tag)
                with self.subTest(workload=w, seed=seed, trace=trace,
                                  tag=tag):
                    self.assertTrue(r["correct"], r["errors"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreater(r["attempted"], 0)

    def test_result_line_lists_exactly_the_declared_metrics(self):
        for w in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    code, out = run(w, SEED, trace, raw=False)
                    self.assertEqual(code, 0)
                    line = json.loads(out.strip().splitlines()[-1])
                    self.assertEqual(set(line),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(line["correct"])
                    self.assertEqual(set(line["metrics"]),
                                     {m["name"] for m in SPEC[key]})

    def test_churn_self_shares_account_for_the_measured_phase(self):
        m = raw_result("churn", SEED, 1)["metrics"]
        shares = sum(m[k]["value"] for k in (
            "maintenance.self_share", "directory.self_share",
            "directory.async_step.share", "sim.self_share"))
        self.assertGreater(shares, 0.95)
        self.assertLess(m["trace.unattributed_share"]["value"], 0.05)

    def test_refuses_to_run_without_the_source_tree(self):
        stripped = os.path.join(ROOT, ".bench_build", "stripped")
        shutil.rmtree(stripped, ignore_errors=True)
        os.makedirs(stripped)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(stripped, path))
        try:
            code, out = run("lookup", SEED, 0, raw=False, cwd=stripped,
                            script=os.path.join(stripped, "perfbench",
                                                "run.py"))
            self.assertNotEqual(code, 0)
            self.assertNotIn('"correct"', out)
        finally:
            shutil.rmtree(stripped)


if __name__ == "__main__":
    unittest.main(verbosity=2)
