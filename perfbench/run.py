#!/usr/bin/env python3
"""Builds and runs the end-to-end TMEDB solve benchmark.

    python3 perfbench/run.py --workload steiner-n20 --seed 1 --seconds 20 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file). The first run configures and builds the library sources and the
benchmark program into .bench_build/perfbench with the repository's default
build type; later runs rebuild only what changed. Build output goes to
stderr. The program's stdout is passed through: a host-record line, then one
JSON result line. See README.md for the workloads and metrics.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "tmedb_perfbench")
WORKLOADS = ("steiner-n20", "cold-n30", "sweep-n20-pool")
BUILD_TYPE = "RelWithDebInfo"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_checked(cmd, timeout):
    """Runs a build step with its output on stderr; exits on failure."""
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=timeout, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        fail("build step failed: %s" % e)


def build():
    """Configures (once) and builds the benchmark program; returns its path."""
    for required in ("src/CMakeLists.txt", "data/haggle_like_n20.trace"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail("%s not found; run from a checkout of the repository"
                 % required, 2)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE], BUILD_TIMEOUT_S)
    run_checked(["cmake", "--build", BUILD_DIR, "--target", "tmedb_perfbench",
                 "-j", jobs], BUILD_TIMEOUT_S)
    return BINARY


def run_benchmark(binary, workload, seed, seconds, trace):
    """Runs one measurement; returns the program's stdout lines."""
    cmd = [binary, "--root", ROOT, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode)
    lines = out.splitlines()
    if not lines:
        fail("benchmark printed no result")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)
    binary = build()
    for line in run_benchmark(binary, args.workload, args.seed, args.seconds,
                              args.trace):
        print(line)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
