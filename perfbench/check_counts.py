#!/usr/bin/env python3
"""Checks that the traced run's exact counts are deterministic.

Run from the root of a checkout:

    python3 perfbench/check_counts.py [--workload NAME ...] [--seconds S]

For each workload it makes three traced runs (--trace 1): two with seed 1
and one with seed 2. Every exact count (states, transitions, finals,
sleep_blocked, candidates, rule_instances and the ratios built from them)
must be identical across the two seed-1 runs. Under seed 2 the counts of
fuzz_rmw, whose programs come from the seed, must change; litmus_suite and
peterson_proof have fixed inputs (the seed only reorders their queries),
so their counts must stay the same. Exits 1 on any violation.
"""

import argparse
import json
import pathlib
import subprocess
import sys

RUN = pathlib.Path(__file__).resolve().parent / "run.py"
EXACT_PREFIXES = ("mc.states.", "mc.transitions.", "mc.useful_frac.")
EXACT = {
    "mc.finals", "mc.sleep_blocked", "mc.backtracks", "mc.por_pruned",
    "mc.max_depth", "mc.truncated_queries", "axiomatic.candidates",
    "vcgen.rule_instances", "mc.dedup_frac", "axiomatic.valid_frac",
    "interp.enum_reuse_frac", "mc.peak_seen_mb", "lang.parse_calls",
}
SEEDED = {"fuzz_rmw"}


def exact_counts(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print("%s seed %d: run reported wrong answers" % (workload, seed))
    return {k: m["value"] for k, m in result["metrics"].items()
            if k in EXACT or k.startswith(EXACT_PREFIXES)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", action="append",
                    default=None, help="default: every workload")
    ap.add_argument("--seconds", type=float, default=1)
    args = ap.parse_args()
    ok = True
    for w in args.workload or ["litmus_suite", "peterson_proof", "fuzz_rmw"]:
        a = exact_counts(w, 1, args.seconds)
        b = exact_counts(w, 1, args.seconds)
        c = exact_counts(w, 2, args.seconds)
        same = [k for k in a if a[k] != b[k]]
        moved = [k for k in a if a[k] != c[k]]
        print("%s: %d exact counts; seed 1 vs seed 1 differ on %d; "
              "seed 1 vs seed 2 differ on %d" % (w, len(a), len(same), len(moved)))
        for k in sorted(a):
            print("  %-32s %-14s %-14s %s" % (k, a[k], b[k], c[k]))
        if same:
            ok = False
            print("  NOT REPEATABLE: " + ", ".join(same))
        if (w in SEEDED) != bool(moved):
            ok = False
            print("  seed 2 %s the counts" % ("did not change" if w in SEEDED else "changed"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
