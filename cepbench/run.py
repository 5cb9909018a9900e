#!/usr/bin/env python3
"""Builds the CepService benchmark from source and runs one workload.

    python3 cepbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 cepbench/run.py --self-test

Run from the repository root. The benchmark is configured and built
(Release) under $CARGO_TARGET_DIR, or .bench_build when that is unset,
on first use and re-built incrementally afterwards; checkpoints and the
span file go to <build dir>/cepbench/work. Build output goes to stderr,
so the last line of stdout is the benchmark's JSON result line. Exits
non-zero without a result line when the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark itself stops well within this; the margin covers a hang.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "cepbench")


def run_checked(cmd, timeout):
    """Runs a build step with its output on stderr; returns its exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode
    except subprocess.TimeoutExpired:
        print("cepbench: timed out: " + " ".join(cmd), file=sys.stderr)
        return 1
    except OSError as e:
        print("cepbench: cannot run %s: %s" % (cmd[0], e), file=sys.stderr)
        return 1


def build(targets):
    out = build_dir()
    if shutil.which("cmake") is None:
        print("cepbench: cmake not found", file=sys.stderr)
        return False
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if run_checked(configure, BUILD_TIMEOUT_S) != 0:
            shutil.rmtree(out, ignore_errors=True)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "-j", jobs, "--target"] + targets
    return run_checked(cmd, BUILD_TIMEOUT_S) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the helper unit tests")
    args = parser.parse_args()

    if args.self_test:
        if not build(["cepbench_util_test"]):
            return 2
        return run_checked([os.path.join(build_dir(), "cepbench_util_test")],
                           RUN_TIMEOUT_S)
    if args.workload is None or args.seed is None or args.seed < 0:
        parser.error("--workload and a non-negative --seed are required")
    if not build(["cepbench"]):
        return 2
    work_dir = os.path.join(build_dir(), "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(build_dir(), "cepbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        print("cepbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
