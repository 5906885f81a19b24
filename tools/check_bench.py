#!/usr/bin/env python3
"""Gate benchmark --json output against a checked-in baseline.

Usage:
    check_bench.py BASELINE.json RESULT.json [--default-tolerance 0.25]

BASELINE is committed under bench/baselines/ and declares, per metric, the
expected value, the direction a regression moves it, and an optional
per-metric tolerance:

    {"bench": "bench_routing",
     "metrics": {
        "hops_mean_n2048_native": {"value": 2.83, "better": "lower",
                                   "tolerance": 0.05},
        "unique_roots_n2048_native": {"value": 1, "better": "exact"},
        "build_speedup": {"value": 2.0, "better": "higher",
                          "tolerance": 0.5}}}

RESULT is what the bench binary printed with --json:

    {"bench": "bench_routing", "metrics": {"hops_mean_n2048_native": 2.84}}

Semantics per `better`:
    lower  — fail when result > value * (1 + tolerance)   (times, hops)
    higher — fail when result < value * (1 - tolerance)   (speedups)
    exact  — fail when |result - value| > tolerance * max(|value|, 1)
             (deterministic counters; tolerance defaults to 0)

Metrics present in the baseline but missing from the result fail (a bench
that silently stops reporting a gated number is itself a regression);
result metrics with no baseline entry are informational only.  Exit code 0
when every gate holds, 1 otherwise.

Trajectory mode:
    check_bench.py --trajectory BENCH_*.json

Each BENCH_<pr>.json at the repo root records one change's perfbench
result (tools/bench_pairs.py writes it): per workload, the op counts and
the median and quartiles of every end-to-end metric over its alternating
parent/change runs,

    {"pr": 16, "workloads": {"churn": {
        "parent": {"attempted": [...], "failed": [...], "correct": true,
                   "setup_s": {"median": 0.62, "q1": 0.60, "q3": 0.66}},
        "change": {...}}}}

The workloads and the end-to-end metrics with their bounds come from the
repo's BENCHMARK.json.  Each file fails when it lacks a workload, a side
or a metric, when its change side is not correct or fails a larger share
of ops than its parent side, or when a change median is worse than the
parent median of the same file past the metric's bound (`lower`: fail
when change > parent * (1 + bound); `higher`: fail when change < parent *
(1 - bound)).  Then the files are ordered by their "pr" key, and each
later file's change medians are gated the same way against the earlier
file's; those runs come from different sessions, so host drift is mixed
into that step.
"""

import argparse
import json
import os
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "BENCHMARK.json")


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if "metrics" not in doc:
        sys.exit(f"{path}: no 'metrics' key")
    return doc


def check_metric(name, spec, result_value, default_tolerance):
    value = float(spec["value"])
    better = spec.get("better", "lower")
    if better == "exact":
        tolerance = float(spec.get("tolerance", 0.0))
        bound = tolerance * max(abs(value), 1.0) + 1e-9
        ok = abs(result_value - value) <= bound
        detail = f"expected {value:g} ±{bound:g}"
    elif better == "lower":
        tolerance = float(spec.get("tolerance", default_tolerance))
        limit = value * (1.0 + tolerance)
        ok = result_value <= limit
        detail = f"limit <= {limit:g} (baseline {value:g} +{tolerance:.0%})"
    elif better == "higher":
        tolerance = float(spec.get("tolerance", default_tolerance))
        limit = value * (1.0 - tolerance)
        ok = result_value >= limit
        detail = f"limit >= {limit:g} (baseline {value:g} -{tolerance:.0%})"
    else:
        sys.exit(f"metric {name}: unknown 'better' kind {better!r}")
    return ok, detail


def pr_number(path, doc):
    if "pr" not in doc:
        sys.exit(f"{path}: no 'pr' key")
    return int(doc["pr"])


def within_bound(spec, old, new):
    bound = float(spec["bound"])
    if spec["better"] == "lower":
        return new <= old * (1.0 + bound)
    return new >= old * (1.0 - bound)


def failed_share(side):
    attempted = sum(side["attempted"])
    return sum(side["failed"]) / attempted if attempted else 0.0


def check_record(doc, workloads, bounds):
    """Gates one BENCH_<pr>.json on its own; returns the failure count.

    Every workload needs a parent and a change side holding every bounded
    metric and the op counts; the change side must be correct, fail no
    larger share of ops than the parent side, and keep every median within
    its bound of the parent's (both sides ran in one session)."""
    failures = 0
    for workload in workloads:
        sides = doc["workloads"].get(workload, {})
        parent, change = sides.get("parent"), sides.get("change")
        if parent is None or change is None:
            print(f"  {workload}: FAIL (needs a parent and a change side)")
            failures += 1
            continue
        missing = [key for key in ["attempted", "failed", "correct"]
                   + list(bounds) if key not in parent or key not in change]
        if missing:
            print(f"  {workload}: FAIL (missing {', '.join(missing)})")
            failures += 1
            continue
        if not change["correct"]:
            print(f"  {workload}: FAIL (change side not correct)")
            failures += 1
        if failed_share(change) > failed_share(parent):
            print(f"  {workload}: FAIL (change failed "
                  f"{sum(change['failed'])} ops, parent "
                  f"{sum(parent['failed'])})")
            failures += 1
        for name, spec in bounds.items():
            old = float(parent[name]["median"])
            new = float(change[name]["median"])
            ok = within_bound(spec, old, new)
            print(f"  {workload}.{name}: parent {old:g} -> change {new:g} "
                  f"{'ok' if ok else 'FAIL'}")
            failures += not ok
    return failures


def check_trajectory(paths):
    """Gates the BENCH_<pr>.json files; returns the failure count."""
    with open(BENCHMARK) as f:
        benchmark = json.load(f)
    workloads = [w["name"] for w in benchmark["workloads"]]
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    runs = []
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        if "workloads" not in doc:
            sys.exit(f"{path}: no 'workloads' key")
        runs.append((pr_number(path, doc), doc))
    runs.sort(key=lambda r: r[0])

    failures = 0
    for pr, doc in runs:
        print(f"PR {pr}: change against its own parent")
        failures += check_record(doc, workloads, bounds)
    for (pr_a, a), (pr_b, b) in zip(runs, runs[1:]):
        print(f"PR {pr_a} -> PR {pr_b}: change medians")
        for workload in workloads:
            before = a["workloads"].get(workload, {}).get("change", {})
            after = b["workloads"].get(workload, {}).get("change", {})
            for name, spec in bounds.items():
                if name not in before or name not in after:
                    continue  # counted as missing above
                old = float(before[name]["median"])
                new = float(after[name]["median"])
                ok = within_bound(spec, old, new)
                print(f"  {workload}.{name}: {old:g} -> {new:g} "
                      f"{'ok' if ok else 'FAIL'}")
                failures += not ok
    if failures:
        print(f"\n{failures} trajectory gate(s) failed")
    else:
        print("\nevery trajectory gate holds")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("result", nargs="?")
    parser.add_argument("--default-tolerance", type=float, default=0.25,
                        help="relative tolerance when a metric declares "
                             "none (default: 0.25 = fail on >25%% regression)")
    parser.add_argument("--trajectory", nargs="+", metavar="BENCH_PR.json",
                        help="gate consecutive BENCH_<pr>.json files "
                             "instead of a baseline/result pair")
    args = parser.parse_args()
    if args.trajectory:
        if args.baseline is not None:
            parser.error("--trajectory takes no baseline/result pair")
        return 1 if check_trajectory(args.trajectory) else 0
    if args.result is None:
        parser.error("BASELINE and RESULT are required")

    baseline = load(args.baseline)
    result = load(args.result)
    if baseline.get("bench") != result.get("bench"):
        print(f"WARNING: bench names differ: baseline "
              f"{baseline.get('bench')!r} vs result {result.get('bench')!r}")

    result_metrics = {
        k: (v["value"] if isinstance(v, dict) else v)
        for k, v in result["metrics"].items()
    }

    failures = 0
    width = max((len(k) for k in baseline["metrics"]), default=10)
    print(f"{'metric':<{width}}  {'result':>12}  verdict")
    for name, spec in baseline["metrics"].items():
        if name not in result_metrics:
            print(f"{name:<{width}}  {'MISSING':>12}  FAIL (not reported)")
            failures += 1
            continue
        got = float(result_metrics[name])
        ok, detail = check_metric(name, spec, got,
                                  args.default_tolerance)
        print(f"{name:<{width}}  {got:>12g}  {'ok' if ok else 'FAIL'} "
              f"[{detail}]")
        if not ok:
            failures += 1

    informational = sorted(set(result_metrics) - set(baseline["metrics"]))
    if informational:
        print("ungated (informational): "
              + ", ".join(f"{k}={result_metrics[k]:g}" for k in informational))

    if failures:
        print(f"\n{failures} gated metric(s) regressed beyond tolerance")
        return 1
    print("\nall gated metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
