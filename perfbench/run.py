#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: train_cq_large, serve_decide, sim_tenants_diurnal. The first run
configures and builds perfbench/ (which compiles ../src) under
$CARGO_TARGET_DIR, default .bench_build; later runs rebuild incrementally.
Build output goes to stderr. The benchmark binary prints its report and, as
the last line of stdout, one JSON object; this script checks that line and
exits non-zero when the build, the run or the result is broken.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("train_cq_large", "serve_decide", "sim_tenants_diurnal")
RUN_TIMEOUT_S = 175
BUILD_JOBS = "2"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            fail("cmake configure failed")
    compiled = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench",
         "-j", BUILD_JOBS],
        stdout=sys.stderr, stderr=sys.stderr)
    if compiled.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def check_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last line of output is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has the wrong keys")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        fail("failed must be a whole number >= 0")
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    return result, spec


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_root)
    out_dir = os.path.join(build_root, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--out-dir", out_dir],
            stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
            universal_newlines=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("benchmark exited with code %d" % proc.returncode)
    result, spec = check_result(lines[-1])
    group = "per_layer" if args.trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[group]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != expected:
        fail("metrics do not match BENCHMARK.json %s" % group)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
