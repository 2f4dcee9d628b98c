#!/usr/bin/env python3
"""Runs one workload of the platform benchmark.

    python3 perfbench/run.py --workload browse_hot --seed 1 --seconds 10 --trace 0

Builds the load generator (CMake, Release) into .bench_build on first use,
runs the named workload from perfbench/workloads.json, and prints its
metrics. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1. Exits non-zero, printing no result,
when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the mtdb sources (src/) are not in this checkout")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4", "--target", "perfbench"])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as error:
        fail("cannot read %s: %s" % (path, error))


def expectation_holds(value, op, bound):
    return {"==": value == bound, ">": value > bound, "<": value < bound}[op]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    config = load_json(os.path.join(HERE, "workloads.json"))
    workload = config["workloads"].get(args.workload)
    if workload is None:
        fail("unknown workload " + args.workload)

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", os.path.join(build_dir(), "run")]
    for key, value in workload["flags"].items():
        command += ["--" + key, str(value)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("load generator timed out after %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("load generator exited with code %d" % proc.returncode)
    raw = json.loads(lines[-1])

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for metric in wanted:
        measured = raw["metrics"].get(metric["name"])
        if measured is None:
            fail("load generator did not report " + metric["name"])
        if measured["unit"] != metric["unit"]:
            fail("unit mismatch for %s: %s" % (metric["name"], measured["unit"]))
        metrics[metric["name"]] = measured

    correct = bool(raw["correct"])
    if args.trace:
        # The traced run confirms that the workload exercises (or bypasses)
        # the layers it claims to.
        for name, (op, bound) in workload.get("expect_traced", {}).items():
            value = metrics[name]["value"]
            ok = expectation_holds(value, op, bound)
            print("expect %s %s %s: %s (%g)" % (name, op, bound,
                                               "ok" if ok else "FAILED", value))
            correct = correct and ok

    print("samples: read %d, write %d" % (raw["samples"]["read"],
                                          raw["samples"]["write"]))
    print("info txn_per_s in each tenth of the window: %s" %
          ", ".join(str(v) for v in raw["sub_window_txn_per_s"]))
    # The share of CPU time the hypervisor gave to other guests during the
    # window: a slow run with a high share was slowed by the host.
    print("info %-31s %16.4f ratio" % ("host_steal_frac", raw["host_steal_frac"]))
    for name, measured in metrics.items():
        print("%-36s %16.4f %s" % (name, measured["value"], measured["unit"]))
    if not args.trace:
        # Reported but not bounded (see workloads.json, "unbounded").
        for name, measured in raw["metrics"].items():
            if name not in metrics:
                print("info %-31s %16.4f %s" % (name, measured["value"],
                                                measured["unit"]))
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
