#!/usr/bin/env python3
"""Builds the opdelta benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                             --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
repository's libraries and the benchmark binary (Release) under
$CARGO_TARGET_DIR (default .bench_build) in the checkout; later runs only
check that the build is up to date. Build output goes to standard error.

Standard output ends with one JSON line:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The exit status is 0 only when the run finished and every correctness
check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("oltp_keyed", "bulk_window", "fleet_bootstrap")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out_dir):
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out_dir, "--target", "opdelta_perf", "-j", "4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out_dir, "opdelta_perf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    # A run ends on a whole traffic cycle or bootstrap, so it overshoots
    # --seconds; set-up and the final checks come on top.
    timeout_s = 2 * args.seconds + 60
    data_dir = os.path.join(out_dir, "data-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=timeout_s, text=True)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("perfbench: run exceeded %d s" % timeout_s, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print("perfbench: opdelta_perf exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if (not isinstance(result, dict) or
            sorted(result) != ["attempted", "correct", "failed", "metrics"]):
        sys.stdout.write(proc.stdout)
        print("perfbench: opdelta_perf printed no result", file=sys.stderr)
        return 1
    # Everything opdelta_perf printed, its result line last.
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if not result["correct"]:
        print("perfbench: correctness checks failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
