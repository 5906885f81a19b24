#!/usr/bin/env python3
"""Run alternating parent/change perfbench pairs and write BENCH_<pr>.json.

Usage:
    bench_pairs.py --parent DIR --change DIR --pr N [--seed 1]
                   [--out BENCH_N.json]

DIR is a checkout of each commit (for example `git clone` of the parent into
a scratch directory).  For every workload in the change's BENCHMARK.json,
each of ten pairs runs `python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0` once in each checkout, with T the file's
`run_seconds`; even pairs run the parent first, odd pairs the change.
perfbench builds itself in each checkout's own `.bench_build/`.  A
held-out seed's pairs belong in a file of their own (--out), not in the
BENCH_<pr>.json of the trajectory.

The output has, per workload and side, every end-to-end metric's runs,
median and quartiles (statistics.quantiles, inclusive method), plus the
attempted/failed operation counts; `tools/check_bench.py --trajectory`
reads it.  The summary printed per metric gives the pairs the change won
(ties count for neither side), the medians and the parent's q3 - q1.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

PAIRS = 10


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, check=True, text=True,
                         stdout=subprocess.PIPE).stdout
    return json.loads(out.strip().splitlines()[-1])


def summarize(runs):
    names = runs[0]["metrics"].keys()
    side = {"attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs)}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        side[name] = {"median": median, "q1": q1, "q3": q3, "runs": values}
    return side


def dumps(doc):
    """Indented JSON with each list of numbers on one line."""
    text = json.dumps(doc, indent=1)
    return re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]",
                  text) + "\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]

    doc = {"pr": args.pr, "seed": args.seed, "seconds": seconds,
           "pairs": PAIRS, "workloads": {}}
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                runs[side].append(
                    run_once(checkout, workload, args.seed, seconds))
            print(f"{workload} pair {i + 1}/{PAIRS} done", flush=True)
        parent, change = summarize(runs["parent"]), summarize(runs["change"])
        doc["workloads"][workload] = {"parent": parent, "change": change}

        print(f"\n{workload} (seed {args.seed}, {PAIRS} pairs)")
        for name, kind in better.items():
            p, c = parent[name], change[name]
            sign = -1.0 if kind == "lower" else 1.0
            wins = sum(sign * (b - a) > 0 for a, b in zip(p["runs"], c["runs"]))
            print(f"  {name}: parent {p['median']:g} -> change {c['median']:g}"
                  f"  change wins {wins}/{PAIRS}"
                  f"  parent q3-q1 {p['q3'] - p['q1']:g}")
        print(f"  failed ops: parent {sum(parent['failed'])}, "
              f"change {sum(change['failed'])}; correct: "
              f"{parent['correct']} / {change['correct']}")

    out = args.out or f"BENCH_{args.pr}.json"
    with open(out, "w") as f:
        f.write(dumps(doc))
    print(f"\nwrote {out}")


if __name__ == "__main__":
    main()
