#!/usr/bin/env python3
"""Build and run the serving benchmark.

    python3 servebench/run.py --workload overload_sla --seed 1 --seconds 10 --trace 0

Configures and builds servebench/ (which compiles the repository's src/)
into .bench_build/servebench at the repository root, then runs one
workload. The last line of stdout is the result JSON that serve_bench
prints. On top of the binary's own checks, the output digest and the
content-determined cycle totals of every run are kept per (binary,
workload, seed) in the build directory: a later run of the same seed
that disagrees fails.
"""
import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
BINARY = os.path.join(BUILD, "serve_bench")
WORKLOADS = ("fleet_churn", "overload_sla")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[servebench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then bring serve_bench up to date; logs go to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "serve_bench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(cmd)}")
            return False
    return True


def binary_digest():
    with open(BINARY, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def check_repeatable(key, check):
    """Compare this run's content-determined outputs with earlier runs of
    the same binary, workload and seed; remember them on first sight."""
    path = os.path.join(BUILD, "digests.json")
    seen = {}
    if os.path.exists(path):
        with open(path) as f:
            seen = json.load(f)
    if key in seen:
        return seen[key] == check
    seen[key] = check
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"no result line (exit {done.returncode})")
        return 1

    match = re.search(r"^check: output_digest=(\S+) me\.array_kcycles=(\S+) "
                      r"dct\.array_kcycles=(\S+)", done.stdout, re.M)
    if match is None:
        log("no check line")
        return 1
    key = f"{binary_digest()}:{args.workload}:{args.seed}"
    if not check_repeatable(key, list(match.groups())):
        log("output digest or array cycles differ from an earlier run of this seed")
        result["correct"] = False
        result["failed"] += 1
    print(json.dumps(result), flush=True)
    if not result["correct"]:
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
