#!/usr/bin/env python3
"""Build Cooper's end-to-end benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload churn --seed 1 --seconds 10 --trace 0

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt)
that compiles the library from src/. It is configured once into
.bench_build/perfbench and rebuilt incrementally before every run, so a
source change is always measured. Each workload runs in its own process,
so peak memory and set-up time are never shared between workloads.

With --trace 0 the last line of standard output is the JSON result with
every end-to-end metric; with --trace 1 it carries every per-layer metric
of a traced run. Build output goes to standard error. The exit code is
non-zero, and no result line is printed, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH_DIR = os.path.join(ROOT, ".bench_build", "tmp")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("churn", "fleet", "coalition", "served")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def configured_for_here():
    """True when the build tree was configured from this checkout."""
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.isfile(cache):
        return False
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip() == HERE
    return False


def build():
    """Configure (once) and build the benchmark; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no Cooper sources under %s/src; nothing to build" % ROOT)
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    if not configured_for_here():
        shutil.rmtree(BUILD_DIR, ignore_errors=True)
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S) != 0:
            log("configure failed")
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.call(["cmake", "--build", BUILD_DIR, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S) != 0:
        log("build failed")
        return False
    return os.path.isfile(BINARY)


def parse_result(line):
    """The result object if `line` is a well-formed result, else None."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict):
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 1
    os.makedirs(SCRATCH_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", SCRATCH_DIR]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        sys.stdout.write((err.stdout or b"").decode(errors="replace")
                         if isinstance(err.stdout, bytes)
                         else (err.stdout or ""))
        log("%s did not finish within %d s" % (args.workload,
                                               RUN_TIMEOUT_S))
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    result = parse_result(lines[-1]) if lines else None
    body = lines[:-1] if result is not None else lines
    if body:
        print("\n".join(body))
    if proc.returncode != 0 or result is None:
        log("%s failed (exit code %d)" % (args.workload, proc.returncode))
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
