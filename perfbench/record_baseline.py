#!/usr/bin/env python3
"""Records perfbench/baseline.json: every workload BENCHMARK.json lists, at
seed 42 and at the held-out seed 7, untraced (--trace 0) and traced
(--trace 1).

    python3 perfbench/record_baseline.py [--seconds 40]

Entries are keyed workload/seed/trace and have the shape `run.py --out`
writes, so `run.py compare perfbench/baseline.json#paper_day/7/0 new.json`
checks a later result against them.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (42, 7)  # 7 is held out: never used while writing a change


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=40.0)
    args = ap.parse_args()
    out = os.path.join(ROOT, ".bench_build", "baseline-entry.json")
    baseline = {}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    for workload in workloads:
        for seed in SEEDS:
            for trace in (0, 1):
                key = f"{workload}/{seed}/{trace}"
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace),
                     "--out", out], cwd=ROOT, stdout=subprocess.DEVNULL)
                if proc.returncode != 0:
                    print(f"{key}: run failed ({proc.returncode})", file=sys.stderr)
                    return 1
                with open(out) as f:
                    baseline[key] = json.load(f)
                print(f"{key}: recorded", file=sys.stderr)
    os.remove(out)
    with open(os.path.join(HERE, "baseline.json"), "w") as f:
        json.dump(baseline, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
