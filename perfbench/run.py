#!/usr/bin/env python3
"""Builds the benchmark from the repository sources, then runs one workload.

    python3 perfbench/run.py --workload adhoc --seed 1 --seconds 15 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench
under the repository root) and is incremental after the first run. Build
output goes to stderr, so the last stdout line is the benchmark's JSON
result. PDW_* environment knobs are cleared for the benchmark process: every
run measures the appliance's defaults.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "pdwbench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "pdwbench")


def main():
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env = {k: v for k, v in os.environ.items() if not k.startswith("PDW_")}
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], env=env, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
