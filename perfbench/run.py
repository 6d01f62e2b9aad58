#!/usr/bin/env python3
"""Time-to-verdict benchmark for the RC11 model checker.

Run from the root of a checkout:

    python3 perfbench/run.py --workload litmus_suite --seed 1 --seconds 20 --trace 0

Builds the harness (perfbench/CMakeLists.txt, which compiles the checker
from src/) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
then runs the workload in its own process. --trace 0 reports the end-to-end
metrics with telemetry off; --trace 1 reports the per-layer metrics and
writes the recorded spans (Chrome trace-event JSON) next to the build.
--workload all runs every workload, each in its own process.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ["litmus_suite", "peterson_proof", "fuzz_rmw"]
DEADLINE_S = 175  # every run must end within 180 s


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return base.resolve() / "perfbench"


def build(out):
    """Configures (once) and builds the harness; exits 1 on failure."""
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(1)
    exe = out / "ttv"
    if not exe.is_file():
        sys.stderr.write("perfbench: build produced no %s\n" % exe)
        sys.exit(1)
    return exe


def run_one(exe, out, workload, seed, seconds, trace, deadline):
    """Runs one workload in its own process; returns (stdout, result)."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--corpus", str(HERE / "corpus")]
    if trace:
        cmd += ["--spans-out", str(out / ("spans-%s-%d.json" % (workload, seed)))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s did not finish in time\n" % workload)
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: %s exited with %d\n" % (workload, proc.returncode))
        sys.exit(1)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write("perfbench: malformed result line\n")
        sys.exit(1)
    return "\n".join(lines[:-1]), result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (HERE.parent / "src").is_dir() or not (HERE / "corpus").is_dir():
        sys.stderr.write("perfbench: run from the root of a full checkout\n")
        sys.exit(1)
    out = build_dir()
    exe = build(out)

    if args.workload != "all":
        text, result = run_one(exe, out, args.workload, args.seed,
                               args.seconds, args.trace, deadline)
        print(text)
        print(json.dumps(result))
        return

    # Every workload in its own process, one after the other; the summary
    # line prefixes each metric with its workload.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        text, result = run_one(exe, out, w, args.seed, args.seconds,
                               args.trace, float("inf"))
        print(text)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"]["%s/%s" % (w, name)] = m
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
