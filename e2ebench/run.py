#!/usr/bin/env python3
"""Builds and runs the bsaa end-to-end benchmark.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload cold_cascade --seed 1 --seconds 30 --trace 0

The first run configures and builds the libraries under src/ plus the
benchmark program into .bench_build/e2ebench (a Release build); later
runs only re-check the build. The program prints the run's tails and
work counts and, as the last line of standard output, one JSON object
with the keys "correct", "attempted", "failed" and "metrics". Build
output goes to standard error. The exit code is non-zero when the build
fails, an output check fails, or the run overstays its time limit.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cold_cascade", "warm_restart", "edit_serve")
# A run must end well inside this many seconds; the benchmark program
# stops itself after --seconds plus one unit of work, this is only the
# backstop.
RUN_TIMEOUT_S = 170


def build(build_dir, tmp_dir):
    env = dict(os.environ, TMPDIR=tmp_dir)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--minimal", action="store_true",
                    help="shrink the workload to a smoke-test size")
    args = ap.parse_args()

    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(root, "e2ebench"))
    tmp_dir = os.path.join(build_dir, "tmp")
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(tmp_dir, exist_ok=True)
    os.makedirs(work_dir, exist_ok=True)
    if not build(build_dir, tmp_dir):
        print("error: benchmark build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "e2ebench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    if args.minimal:
        cmd.append("--minimal")
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              env=dict(os.environ, TMPDIR=tmp_dir))
    except subprocess.TimeoutExpired:
        print("error: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
