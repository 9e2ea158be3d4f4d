#!/usr/bin/env python3
"""Check that a workload's figures do not depend on what ran before it.

VarIDs are interned per process, so each benchmark run is a fresh
process. This script runs q1-count alone and q1-count after serve-store
in the same process (the benchmark's --after flag), over the same seeds,
and compares the two medians of every end-to-end metric against its bound
in BENCHMARK.json. Usage, from the repository root:

    python3 perfbench/isolation.py [--seeds 1-5] [--seconds S]

It exits non-zero when a median moves by more than its bound.
"""
import argparse
import statistics
import sys

from spread import collect, load_bench, seeds

WORKLOAD, AFTER = "q1-count", "serve-store"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    bench = load_bench()
    alone = collect(bench, WORKLOAD, seeds(args.seeds), seconds=args.seconds)
    after = collect(bench, WORKLOAD, seeds(args.seeds), seconds=args.seconds, after=AFTER)
    ok = True
    for m in bench["end_to_end"]:
        a, b = statistics.median(alone[m["name"]]), statistics.median(after[m["name"]])
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        verdict = "ok" if abs(worse) <= m["bound"] else "DIFFERS"
        ok = ok and verdict == "ok"
        print("%-20s alone %10.4f  after %s %10.4f  change %+7.4f  bound %.2f  %s" %
              (m["name"], a, AFTER, b, worse, m["bound"], verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
