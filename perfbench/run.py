#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload eval-batch --seed 1 --seconds 10 --trace 0

The program is built from source into .bench_build/ (CMake, Release) on
every call; an up-to-date build costs well under a second. The last line of
standard output is the result: one JSON object with the keys correct,
attempted, failed and metrics. The exit code is non-zero when the build or
the run fails, when a ranking differs from its oracle, or when a request
fails.

    python3 perfbench/run.py --smoke

builds a separate ASan + UBSan configuration and runs every workload at a
tiny size with tracing on, checking their outputs. It reports no timings.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("eval-batch", "serve-zipf", "serve-swap")
BUILD_ROOT = ".bench_build"
DATA_DIR = os.path.join(BUILD_ROOT, "data")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must end within 180 s; leave room for start-up and the build check.
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build(build_dir, extra_args):
    """Configures (once) and builds the benchmark; returns the binary path."""
    source_dir = os.path.dirname(os.path.abspath(__file__))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", source_dir, "-B", build_dir] +
                       generator + extra_args,
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def run_workload(binary, args, timeout_s):
    """Runs one workload; echoes its output and returns (exit code, lines)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", DATA_DIR] + (["--size", args.size] if args.size else [])
    # Inputs are generated (once per seed) in a process of their own.
    start = time.monotonic()
    try:
        subprocess.run(cmd + ["--prepare", "1"], check=True,
                       stdout=sys.stderr, timeout=timeout_s)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log("preparing inputs for %s failed: %s" % (args.workload, e))
        return 1, []
    timeout_s -= time.monotonic() - start
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired as e:
        # subprocess.run kills the child and waits for it before raising.
        sys.stdout.write(e.stdout or "")
        log("%s timed out after %d s" % (args.workload, timeout_s))
        return 1, []
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode, proc.stdout.splitlines()


def check_result(line):
    """True when `line` is a well-formed result object."""
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict) and set(result) == RESULT_KEYS and
            isinstance(result["attempted"], int) and result["attempted"] >= 1)


def smoke():
    binary = build(os.path.join(BUILD_ROOT, "asan"),
                   ["-DCMAKE_BUILD_TYPE=Debug", "-DPERFBENCH_SANITIZE=ON"])
    ok = True
    for workload in WORKLOADS:
        args = argparse.Namespace(workload=workload, seed=1, seconds=1,
                                  trace=1, size="tiny")
        code, _ = run_workload(binary, args, 600)
        log("smoke %s: exit %d" % (workload, code))
        ok = ok and code == 0
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="sanitizer smoke run of every workload")
    args = parser.parse_args()
    args.size = None

    # The benchmark builds the library from the checkout it runs in.
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        log("no library sources (src/CMakeLists.txt) in %s" % os.getcwd())
        return 2
    start = time.monotonic()
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        binary = build(os.path.join(BUILD_ROOT, "release"),
                       ["-DCMAKE_BUILD_TYPE=Release"])
    except (subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 2
    build_s = time.monotonic() - start
    # A fresh checkout's first run may spend most of its budget building.
    timeout_s = RUN_TIMEOUT_S if build_s < 30 else 900 - build_s - 10
    code, lines = run_workload(binary, args, timeout_s)
    if code == 0 and not (lines and check_result(lines[-1])):
        log("the program printed no result line")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
