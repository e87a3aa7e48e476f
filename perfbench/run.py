#!/usr/bin/env python3
"""Builds and runs the perfbench binary (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. Each run configures and builds the library
(../src) and the binary into <build root>/perfbench, where the build root is
$CARGO_TARGET_DIR when set and .bench_build otherwise, relative to the
repository root; an unchanged tree rebuilds nothing. The binary's stdout is
passed through: a report line with the env block, checks and exact counters,
then the result line {correct, attempted, failed, metrics}. Build output goes
to stderr. Any failure exits non-zero without printing a result line.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("wire_fip", "wire_durable", "sweep_go", "synth_kbp")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--parallel", jobs],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail(f"build step timed out: {' '.join(cmd)}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    exe = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(exe):
        fail(f"binary missing after build: {exe}")
    return exe


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                              ".bench_build")
    exe = build(os.path.join(build_root, "perfbench"))
    spans_dir = os.path.join(build_root, "spans")
    os.makedirs(spans_dir, exist_ok=True)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", os.path.join(spans_dir, f"{args.workload}.csv"),
           "--git-sha", git_sha()]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"binary exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"binary exited with {done.returncode}", done.returncode or 2)

    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stdout)
        fail("binary printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line: {lines[-1]}")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
