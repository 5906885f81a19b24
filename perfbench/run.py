#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload lookup|churn --seed N \
        --seconds S --trace 0|1 [--raw]

Builds the perfbench binary from the source tree around this directory
(Release, into .bench_build/ at the tree's root), runs one workload once in
its own process and prints, as the last line of standard output, one JSON
object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end_to_end list of BENCHMARK.json, with
--trace 1 the per_layer list.  --raw prints the binary's full result
instead (every metric with its sample count and determinism flag).

Exits 1 without a result when the tree cannot be built or the binary does
not finish.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
# Per-layer metrics that the traced binary reports under another name.
ALIASES = {"trace.ops_per_s": "ops_per_s"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, stdout):
    """Runs `cmd` in its own process group and waits for it.  On timeout
    the whole group (compilers under cmake included) is killed and reaped.
    Returns (exit code, captured stdout or None); exit code None on
    timeout."""
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, env=env,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None


def run_logged(cmd, deadline):
    """Runs a build step with its output on stderr; True on success."""
    try:
        code, _ = run_group(cmd, max(1.0, deadline - time.monotonic()),
                            sys.stderr)
    except OSError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return False
    return code == 0


def build(deadline):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no overlay source tree around {HERE}")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            if not run_logged(["cmake", "-S", HERE, "-B", BUILD,
                               "-DCMAKE_BUILD_TYPE=Release"], deadline):
                fail("cmake configure failed")
        if not run_logged(["cmake", "--build", BUILD, "--target", "perfbench",
                           "-j", "4"], deadline):
            fail("build failed")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return spec


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--raw", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    build(time.monotonic() + BUILD_TIMEOUT_S)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(BUILD, f"spans-{args.workload}.tsv")]
    code, out = run_group(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    if code is None:
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    if code != 0 or not out.strip():
        fail(f"perfbench exited with code {code}")
    raw = json.loads(out.strip().splitlines()[-1])
    if args.raw:
        print(json.dumps(raw))
        return

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    correct = bool(raw["correct"])
    for m in wanted:
        got = raw["metrics"].get(ALIASES.get(m["name"], m["name"]))
        if got is None or got["unit"] != m["unit"]:
            print(f"perfbench: metric {m['name']} missing or in another unit",
                  file=sys.stderr)
            correct = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        samples = f" ({got['samples']} samples)" if got["samples"] else ""
        print(f"{m['name']} = {got['value']} {m['unit']}{samples}")
    for err in raw["errors"]:
        print(f"check failed: {err}")
    print(json.dumps({"correct": correct, "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
