#!/usr/bin/env python3
"""Build the rtrsim benchmark from source and run one workload.

    python3 rtrbench/run.py --workload swap-thrash --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The benchmark is built (Release) into
.bench_build/rtrbench under that root on first use; later runs only re-check
the build. Build output goes to stderr, so the last stdout line is the
benchmark's JSON result. The exit code is the benchmark's own, or the
build's when the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "rtrbench")


def build():
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--parallel", "4"],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print("rtrbench: build failed: %s" % e, file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, "rtrbench")] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
