#!/usr/bin/env python3
"""Self-test of the benchmark's own checks.

    python3 perfbench/test_bench.py

Runs a short (0.5 simulated hours) paper_day and shows that:
  1. a clean run is correct with no failed land-runs;
  2. one injected digest mismatch is caught: correct=false, failed=1, exit 1;
  3. `compare` refuses results whose environment stamps differ;
  4. without the slmob sources next to it the benchmark exits non-zero and
     prints no result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")


def bench(*extra, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run([sys.executable, script, "--workload", "paper_day", "--hours", "0.5",
                           "--seconds", "0", *extra], capture_output=True, text=True, cwd=cwd)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def main():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    a, b = os.path.join(SCRATCH, "a.json"), os.path.join(SCRATCH, "b.json")

    rc, clean = bench("--seed", "42", "--out", a)
    assert rc == 0, rc
    assert clean["correct"] and clean["failed"] == 0 and clean["attempted"] == 12, clean
    print("ok: clean run is correct")

    rc, bad = bench("--seed", "42", "--inject-mismatch")
    assert rc == 1, rc
    assert not bad["correct"] and bad["failed"] == 1, bad
    print("ok: injected mismatch caught (failed=1)")

    rc, _ = bench("--seed", "43", "--out", b)
    assert rc == 0, rc
    same = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "compare", a, a])
    assert same.returncode == 0
    refused = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "compare", a, b],
                             capture_output=True, text=True)
    assert refused.returncode == 2 and "seed" in refused.stderr, refused.stderr
    print("ok: compare refuses differing stamps")

    bare = os.path.join(SCRATCH, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    rc, out = bench(cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
    assert rc != 0 and out is None, (rc, out)
    print("ok: no sources, no result")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
