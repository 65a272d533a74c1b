#!/usr/bin/env python3
"""Campaign benchmark entry point.

Builds the simulator library and campaign_bench from the sources in
this checkout, runs one workload and passes campaign_bench's output
through; the last line is the JSON result.

    python3 campaignbench/run.py --workload trial-loop --seed 1 \
        --seconds 10 --trace 0

Run it from the root of the checkout. The build goes to
$CARGO_TARGET_DIR/campaignbench (default .bench_build/campaignbench).
Exit status is 0 only when the run completed and every outcome record
matched the pinned reference.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("trial-loop", "profile-heavy", "trial-loop-parallel")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"campaignbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure and build incrementally, logging to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", BENCH_DIR, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "--target", "campaign_bench",
              "-j", jobs]]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in 1..60")

    root = os.path.dirname(BENCH_DIR)
    if not os.path.isdir(os.path.join(root, "src")):
        log(f"no simulator sources in {root}/src")
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "campaignbench")
    if not build(build_dir):
        return 1

    cmd = [os.path.join(build_dir, "campaign_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference-dir", os.path.join(BENCH_DIR, "reference")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict):
        sys.stderr.write(done.stdout)
        log(f"{args.workload} failed (exit {done.returncode})")
        return 1
    sys.stdout.write(done.stdout)
    if done.returncode != 0 or result.get("correct") is not True:
        log(f"{args.workload}: outputs differ from the pinned reference")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
