#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source tree of this repository.  Builds the
benchmark and the `ftrsn-tool` daemon from source with dune, runs one
workload in a fresh process and forwards its result: the last line of
standard output is one JSON object (correct, attempted, failed, metrics).
Exits non-zero without printing a result if the tree is incomplete, the
build fails, the workload fails or it overruns its time limit.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("serve_mix", "table1", "certify", "pairs")
# What the workloads need from the tree besides this directory.
REQUIRED = ("dune-project", "lib", "bin/ftrsn_tool.ml", "table1_full.txt")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("not a source tree of this repository (missing %s)" % ", ".join(missing), 2)

    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/bench.exe", "./bin/ftrsn_tool.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        fail("build failed", 3)

    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Own process group, so that a timeout also stops the serve daemon.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("workload %s exceeded %d s" % (args.workload, RUN_TIMEOUT_S), 4)
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail("workload %s exited with code %d" % (args.workload, proc.returncode), 5)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
