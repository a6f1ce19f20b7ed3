#!/usr/bin/env python3
"""Entry point of the repository's end-to-end benchmark.

Builds perfbench with CMake (the dmt library from src/ plus the
benchmark's own sources in this directory), runs one workload, and relays
its output. The last line of stdout is the result:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

with every end-to-end metric (--trace 0) or every per-layer metric from
the traced pass (--trace 1). Examples, from the repository root:

    python3 perfbench/run.py --workload mp1_pamap --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

`--workload all` runs every workload, each in its own process so that
peak_rss_mb is per workload, and ends with one combined result line whose
metric names are prefixed by the workload. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and traced
runs write their spans to .bench_out/; both are under the repository root.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mp1_pamap", "p2_zipf", "serve_mp1_pamap", "wire_p1_zipf")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds perfbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "stream",
                                       "simulation_driver.h")):
        fail("library sources (src/) not found beside perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def run_workload(binary, workload, args):
    """Runs one workload; returns its parsed result and its stdout lines."""
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-dir", trace_dir]
    try:
        # run() kills and reaps the child if it overruns.
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload}: exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: last output line is not a result")
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        fail(f"{workload}: malformed result line")
    return result, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test stream sizes")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if args.workload != "all":
        _, lines = run_workload(binary, args.workload, args)
        print("\n".join(lines), flush=True)
        return

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result, lines = run_workload(binary, workload, args)
        print("\n".join(lines[:-1]), flush=True)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined), flush=True)


if __name__ == "__main__":
    main()
