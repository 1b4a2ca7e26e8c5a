#!/usr/bin/env python3
"""Builds the tap benchmark from source and runs one measurement.

    python3 perfbench/run.py --workload campus_mix --seed 1 --seconds 20 --trace 0

Run from the repository root. The build tree lives in .bench_build/perfbench
(CMake, Release); build output goes to stderr so the last line of stdout is
the benchmark's result object. Exits non-zero without a result when the
build or the run fails.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def run(cmd):
    """Runs cmd to completion with its stdout sent to our stderr."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        if run(["cmake", "-S", HERE, "-B", BUILD,
                "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            return False
    return run(["cmake", "--build", BUILD, "--target", "perfbench",
                "-j", jobs]) == 0


def binary_digest():
    digest = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # Trained bundles are cached per seed and per binary: training costs
    # ~15 s and sits outside every metric.
    bundles = os.path.join(BUILD, "bundles", binary_digest())
    os.makedirs(bundles, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bundle-cache", bundles,
           "--span-file", os.path.join(BUILD, "spans-%s.json" % args.workload)]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
