#!/usr/bin/env python3
"""Builds and runs the end-to-end UTK benchmark (see README.md here).

    python3 bench/e2e/run.py --workload utk1_filter --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout. The first run configures and
builds the benchmark with CMake into $CARGO_TARGET_DIR/e2e (default
.bench_build/e2e at the checkout root); later runs rebuild only what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. UTK_THREADS, UTK_SIMD and UTK_PLANNER_MODEL are
removed from the environment of the measured process.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ("utk1_filter", "utk2_arrangement", "live_updates")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "e2e")


def build(out):
    """Configures (once) and builds utk_e2e; returns the binary's path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "utk_e2e",
                    "--parallel", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "utk_e2e")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print("run.py: %s not found at %s; run from a full source checkout"
                  % (need, ROOT), file=sys.stderr)
            return 2
    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 2

    workdir = os.path.join(out, "work")
    os.makedirs(workdir, exist_ok=True)
    env = {k: v for k, v in os.environ.items()
           if k not in ("UTK_THREADS", "UTK_SIMD", "UTK_PLANNER_MODEL")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
