#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

Every argument is passed to the perfbench binary (see main.cpp). The build
(CMake, Release) goes to perfbench/build and its output to standard error,
so the last line of standard output is the binary's JSON result. Results
and traces are written under perfbench/out.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(HERE, "build")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"], stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--out" not in args:
        args += ["--out", os.path.join(HERE, "out")]
    return subprocess.run([BINARY] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
