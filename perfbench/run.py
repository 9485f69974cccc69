#!/usr/bin/env python3
"""Builds and runs the IUAD benchmark.

    python3 perfbench/run.py --workload fit --seed 1 --seconds 20 --trace 0

Run from the root of an IUAD checkout. The first run configures and builds
the program and the benchmark from source (CMake, Release) under
.bench_build/perfbench; later runs only rebuild what changed. Build output
and the benchmark's progress go to stderr; the last line of stdout is the
result JSON, checked here against the metric lists in BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("fit", "serve_mixed")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no IUAD sources under {ROOT}; run from an IUAD checkout")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "iuad_perfbench",
                  "--parallel", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "iuad_perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    expected = expected_metrics(args.trace == 1)
    binary = build()
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", BUILD],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"benchmark printed no result (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if result["correct"]:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            fail("metrics differ from BENCHMARK.json: "
                 f"{sorted(set(got.items()) ^ set(expected.items()))}")
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
