#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout's sources and runs it.

    python3 bench_e2e/run.py --workload search_ivf --seed 1 --seconds 20 --trace 0
    python3 bench_e2e/run.py --quick            # every workload, small scale

Run from the repository root. The build goes to
$CARGO_TARGET_DIR/bench_e2e (default .bench_build/bench_e2e); build output
goes to stderr so that stdout carries only the benchmark's result lines.
All arguments are passed on to the bench_e2e binary (see main.cc).
"""
import os
import shutil
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(root, target, "bench_e2e")
    binary = os.path.join(build, "bench_e2e")

    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", here, "-B", build,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            print("bench_e2e: configure failed", file=sys.stderr)
            return 2
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", build, "--target", "bench_e2e",
                        "-j", jobs], stdout=sys.stderr) != 0:
        print("bench_e2e: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
