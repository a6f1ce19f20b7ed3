#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark at tiny stream sizes.

For every workload in BENCHMARK.json, untraced and traced, checks that
perfbench/run.py exits 0 with a correct result whose metrics are exactly
the end-to-end (untraced) or per-layer (traced) metrics BENCHMARK.json
names, each with its unit, each also printed as a "name value unit" line,
and every end-to-end value non-zero. Then checks that the benchmark fails
without a result in a directory holding only BENCHMARK.json and
perfbench/. Run from anywhere:

    python3 perfbench/smoke_test.py
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def check_workload(workload, trace, expected):
    """Returns a list of problems with one tiny run."""
    proc = run(["--workload", workload, "--seed", "7", "--seconds", "0.5",
                "--trace", str(trace), "--size", "tiny"], ROOT)
    where = f"{workload} --trace {trace}"
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(lines[-1])
    problems = []
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"{where}: incorrect\n{proc.stderr[-2000:]}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(expected) - set(got))}, "
                        f"extra {sorted(set(got) - set(expected))}, "
                        f"units {[(n, u) for n, u in got.items() if expected.get(n, u) != u]}")
    table = {tuple(line.split()[::2]) for line in lines[:-1]
             if len(line.split()) == 3}
    for name, unit in expected.items():
        if (name, unit) not in table:
            problems.append(f"{where}: no printed line for {name} [{unit}]")
        if trace == 0 and result["metrics"].get(name, {}).get("value") == 0:
            problems.append(f"{where}: end-to-end metric {name} is 0")
    return problems


def check_without_sources():
    """The benchmark must fail, printing no result, without src/."""
    isolated = os.path.join(ROOT, ".bench_out", "isolated")
    shutil.rmtree(isolated, ignore_errors=True)
    os.makedirs(isolated)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), isolated)
    shutil.copytree(HERE, os.path.join(isolated, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", "mp1_pamap", "--seed", "1", "--seconds", "1",
                "--trace", "0"], isolated)
    shutil.rmtree(isolated)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["run without src/ did not fail cleanly"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            found = check_workload(workload, trace, expected)
            print(f"{workload} --trace {trace}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    found = check_without_sources()
    print(f"without src/: {'ok' if not found else 'FAILED'}", flush=True)
    problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
