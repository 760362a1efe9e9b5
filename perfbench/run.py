#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which builds the monomap library from
source) in .bench_build/perfbench, then runs the harness. Build output goes
to stderr; the harness's stdout is passed through, and its last line is the
JSON result. Exits non-zero, without a result, when the build fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
STATE = os.path.join(BUILD, "state")
BUILD_JOBS = "4"


def build():
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(
            ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "monobench", "-j", BUILD_JOBS],
        stdout=sys.stderr, check=True)


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    os.makedirs(STATE, exist_ok=True)
    cmd = [os.path.join(BUILD, "monobench"), *sys.argv[1:],
           "--spec", os.path.join(ROOT, "BENCHMARK.json"),
           "--commit", commit(), "--state-dir", STATE]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
