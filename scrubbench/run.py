#!/usr/bin/env python3
"""Builds and runs the scrub benchmark from the root of a checkout.

    python3 scrubbench/run.py --workload mixed_flat --seed 1 --seconds 10 --trace 0

The benchmark program (scrub_bench) is compiled with the checkout's own
library sources into .bench_build/scrubbench; the last line of standard
output is the JSON result. Spans of the last traced pass are written to
.bench_build/scrubbench/trace-<workload>-<seed>.tsv. Exits non-zero, without
a result, when the checkout has no sources to build.
"""

import argparse
import fcntl
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "scrubbench")
BINARY = os.path.join(BUILD_DIR, "scrub_bench")
WORKLOADS = ("mixed_flat", "fanout_churn", "fleet_hier")


def build():
    """Configures and builds scrub_bench; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("scrubbench: no scrub sources next to %s; nothing to build"
                 % BENCH_DIR)
    os.makedirs(BUILD_DIR, exist_ok=True)
    # One build at a time per checkout.
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        # An existing tree re-configures itself when a CMakeLists changes.
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "scrub_bench",
                      "-j", str(min(4, os.cpu_count() or 1))])
        # Compiler temporaries stay inside the checkout too.
        tmp = os.path.join(BUILD_DIR, "tmp")
        os.makedirs(tmp, exist_ok=True)
        env = dict(os.environ, TMPDIR=tmp)
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=870)
            if done.returncode != 0:
                sys.exit("scrubbench: build step failed: %s" % " ".join(step))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD_DIR, "trace-%s-%d.tsv" % (args.workload, args.seed))]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=170)
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    if done.returncode != 0:
        sys.exit("scrubbench: scrub_bench exited with %d" % done.returncode)


if __name__ == "__main__":
    main()
