#!/usr/bin/env python3
"""Builds and runs one workload of the ustdb end-to-end benchmark.

Usage (from the root of a ustdb checkout):

    python3 e2ebench/run.py --workload dashboard|backfill|monitor \
        --seed N --seconds S --trace 0|1

The first call configures and builds a Release copy of the library and the
ustdb_e2e driver under $CARGO_TARGET_DIR (default .bench_build); later calls
only re-check the build. Build output goes to stderr. The driver's report
goes to stdout; its last line is one JSON object with the keys correct,
attempted, failed and metrics, whose metric names and units must match
BENCHMARK.json (end_to_end for --trace 0, per_layer for --trace 1). Any
failure exits non-zero without printing that line.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dashboard", "backfill", "monitor")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"{ROOT} is not a ustdb checkout (no CMakeLists.txt and src/)")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if (shutil.which("ninja")
            and not os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, os.cpu_count() or 1))
    for step in (configure,
                 ["cmake", "--build", build_dir, "--target", "ustdb_e2e",
                  "-j", jobs]):
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {step[:3]} failed: {err}")
        if done.returncode != 0:
            fail(f"build step {step[:3]} exited {done.returncode}")
    exe = os.path.join(build_dir, "ustdb_e2e")
    if not os.path.isfile(exe):
        fail(f"build produced no {exe}")
    return exe


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
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
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be within 1..60")
    if args.seed < 0:
        fail("--seed must be non-negative")

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = build(build_dir)
    command = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, f"{args.workload}-{args.seed}.jsonl")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              check=False, text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"ustdb_e2e exited {done.returncode}", code=1)

    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(done.stdout)
        fail("ustdb_e2e printed no result line", code=1)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)} are not the contract's", code=1)
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: got {got}, want {want}",
             code=1)
    if result["correct"] is not True or result["attempted"] < 1:
        fail("run reported incorrect answers or no attempts", code=1)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
