#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload serve-store --seeds 1-10 [--trace 1]

For every metric it prints the median of the runs and, for end-to-end
metrics, the interquartile range as a share of the median next to the
metric's bound in BENCHMARK.json (the spread should stay below a third
of the bound). Run times default to BENCHMARK.json's run_seconds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def collect(bench, workload, seed_list, trace="0", seconds=None, after=None):
    """Runs the benchmark once per seed; returns {metric: [values]}."""
    values = {}
    for seed in seed_list:
        cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(seconds or bench["run_seconds"]),
                                  "--trace", trace]
        if after:
            cmd += ["--after", after]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            raise SystemExit("%s seed %d: exit %d" % (workload, seed, out.returncode))
        res = json.loads(lines[-1])
        print("%s seed %d: attempted %d failed %d correct %s" %
              (workload, seed, res["attempted"], res["failed"], res["correct"]), flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return values


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    bench = load_bench()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = collect(bench, args.workload, seeds(args.seeds), args.trace, args.seconds)

    summary = {}
    for name in sorted(values):
        vs = values[name]
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"median": med, "spread": spread, "values": vs}
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "ok" if spread < bound / 3 else ("WITHIN BOUND" if spread <= bound else "TOO WIDE")
        print("%-28s median %12.4f  spread %7.4f  bound %-5s %s" %
              (name, med, spread, bound if bound is not None else "-", flag))
    print(json.dumps({"workload": args.workload, "summary": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
