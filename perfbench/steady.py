#!/usr/bin/env python3
"""Steadiness report for the platform benchmark.

    python3 perfbench/steady.py [--runs 10] [--first-seed 101] [--trace 0]
                                [--workload NAME ...] [--json OUT]

Runs each workload --runs times through perfbench/run.py, each run with its
own seed, and prints per metric the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, (q3 - q1) /
median, against the metric's bound in BENCHMARK.json. A spread at or below
a third of the bound is marked "steady"; one above the bound "UNSTEADY".
Use it to set bounds and to decide which workload or metric cannot be made
steady. Every run must also report correct: true.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d: run.py exited %d" %
                           (workload, seed, proc.returncode))
    steal = [float(line.split()[2]) for line in lines
             if line.startswith("info host_steal_frac")]
    return json.loads(lines[-1]), steal[0] if steal else float("nan")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--json", help="also write every value to this file")
    args = parser.parse_args()

    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metric_specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    report = {}
    all_correct = True
    for workload in workloads:
        values = {m["name"]: [] for m in metric_specs}
        steals = []
        for i in range(args.runs):
            result, steal = run_once(workload, args.first_seed + i,
                                     args.seconds, args.trace)
            all_correct = all_correct and result["correct"]
            steals.append(steal)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print("%s run %d/%d seed %d correct=%s host_steal=%.4f" %
                  (workload, i + 1, args.runs, args.first_seed + i,
                   result["correct"], steal), file=sys.stderr)
        report[workload] = dict(values, host_steal_frac=steals)
        print("\n%s (%d runs, seeds %d..%d; host steal per run %s)" %
              (workload, args.runs, args.first_seed,
               args.first_seed + args.runs - 1,
               " ".join("%.3f" % s for s in steals)))
        print("  %-34s %14s %14s %14s %8s %6s  %s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for spec in metric_specs:
            v = values[spec["name"]]
            median = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            spread = (q3 - q1) / median if median else float("inf")
            bound = spec.get("bound")
            verdict = ""
            if bound is not None:
                verdict = ("steady" if spread <= bound / 3 else
                           "within bound" if spread <= bound else "UNSTEADY")
            print("  %-34s %14.4f %14.4f %14.4f %8.4f %6s  %s" %
                  (spec["name"], median, q1, q3, spread,
                   "-" if bound is None else "%.2f" % bound, verdict))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    if not all_correct:
        print("\nsome runs reported correct: false")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
