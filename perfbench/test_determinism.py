#!/usr/bin/env python3
"""The benchmark's own test: its deterministic counts repeat exactly.

On the single-session workloads, two traced runs with the same seed must
report identical DMS bytes, memo sizes, optimizer option counts and cache
ratios (all counted over the gate prefix, which every run of a seed
repeats), and the untraced report and refresh runs identical
dms_kb_per_query (they stop only at whole rounds or epochs). These are the
exact gates; timings are never compared here.

    python3 perfbench/test_determinism.py [--seed N]

Exits 0 when every count repeats, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

EXACT_LAYER_COUNTS = [
    "dms.bytes",
    "optimizer.memo_exprs",
    "pdw.options_considered",
    "xmlio.memo_kb",
    "plan_cache.hit_ratio",
    "plan_cache.invalidations",
    "result_cache.hit_ratio",
]


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: {result['failed']} wrong answers")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=7)
    seed = parser.parse_args().seed
    checks = [(w, 1, EXACT_LAYER_COUNTS) for w in ("adhoc", "report", "refresh")]
    checks += [(w, 0, ["dms_kb_per_query"]) for w in ("report", "refresh")]
    failures = 0
    for workload, trace, names in checks:
        first, second = run(workload, seed, trace), run(workload, seed, trace)
        for name in names:
            same = first[name] == second[name]
            failures += not same
            print(f"{'ok  ' if same else 'FAIL'} {workload:8s} {name:26s} "
                  f"{first[name]!r} {second[name]!r}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
