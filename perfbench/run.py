#!/usr/bin/env python3
"""Outside-in benchmark of the slmob paper pipeline.

    python3 perfbench/run.py --workload paper_day --seed 42 --seconds 40 --trace 0
    python3 perfbench/run.py compare old.json new.json
    python3 perfbench/run.py compare perfbench/baseline.json#paper_day/42/0 new.json

Builds perfbench/ (which builds the slmob libraries from src/) into
.bench_build/, then measures one workload:

  * untraced runs, one pipeline per process, repeated until --seconds have
    passed: the end-to-end metrics (medians over the processes, times
    scaled to a reference machine speed by each process's calibration);
  * one traced run: the rig wired by hand with a timer on every layer,
    which yields the per-layer metrics (--trace 1) and, on every run, the
    reference digests and fingerprints each untraced run is checked
    against.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The line before it is the environment stamp. --out
writes both to a file that `compare` accepts. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_day", "crawl_week", "chaos_live")
DEFAULT_HOURS = {"paper_day": 24.0, "crawl_week": 168.0, "chaos_live": 24.0}
MIN_RUNS = 3
CHILD_TIMEOUT_S = 170
# Untraced runs stop by here at the latest, which leaves room for the
# traced run inside the 180 s a whole run may take.
RUN_BUDGET_S = 120
# Per-thread CPU seconds of one calibration pass on the reference machine
# (a 4-vCPU 2.1 GHz Xeon KVM guest). Times are reported at this speed.
REFERENCE_CALIBRATION_S = 0.085
# Stamp fields that must match for two results to be compared.
LIKE_FOR_LIKE = ("workload", "seed", "hours", "threads", "nproc",
                 "hardware_concurrency", "compiler", "build_type")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(threads):
    """Configures and builds the benchmark; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("slmob sources (src/) not found next to perfbench/")
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", str(threads)],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "slmob_perfbench")


def child(binary, args):
    """Runs one measurement process; returns its JSON result or None."""
    try:
        proc = subprocess.run([binary] + args, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {' '.join(args[:3])} timed out")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    log(f"perfbench: {' '.join(args[:3])} exited {proc.returncode}")
    log("\n".join(proc.stderr.strip().splitlines()[-5:]))
    return None


def source_digest():
    """SHA-256 over the library and benchmark code (path + content); the
    benchmark's documents and recorded results are left out."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".pyc", ".json", ".md")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def make_stamp(binary, args, threads, nproc):
    built = child(binary, ["stamp"])
    if built is None:
        raise RuntimeError("benchmark binary does not start")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "hours": args.hours or DEFAULT_HOURS[args.workload],
        "threads": threads,
        "nproc": nproc,
        "hardware_concurrency": built["hardware_concurrency"],
        "compiler": built["compiler"],
        "build_type": built["build_type"],
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def measure(binary, args, threads):
    """Untraced runs for --seconds, then the traced run."""
    work = os.path.join(build_dir(), "work", args.workload)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--threads", str(threads), "--dir", work]
    if args.hours:
        common += ["--hours", str(args.hours)]

    def fresh_dir():
        # Start every process from a clean disk: no earlier process's
        # writeback or discards overlap the next timed pipeline.
        shutil.rmtree(work, ignore_errors=True)
        os.sync()

    def calibrated_run():
        # The machine's speed right before and right after the pipeline;
        # a run without both counts as failed.
        fresh_dir()
        before = child(binary, ["calibrate"] + common)
        run = child(binary, ["run"] + common)
        after = child(binary, ["calibrate"] + common)
        if run is None or before is None or after is None:
            return None
        run["calibration_s"] = before["calibration_s"] + after["calibration_s"]
        return run

    runs = []
    t0 = time.monotonic()
    while True:
        runs.append(calibrated_run())
        elapsed = time.monotonic() - t0
        per_run = elapsed / len(runs)
        if len(runs) >= MIN_RUNS and elapsed >= args.seconds:
            break
        if elapsed + per_run > RUN_BUDGET_S:
            break
    fresh_dir()
    reference = child(binary, ["traced"] + common)
    fresh_dir()
    return runs, reference


def check(runs, reference, inject_mismatch):
    """Counts failed land-runs; returns (attempted, failed, notes)."""
    notes = []
    first = next((r for r in runs if r is not None), None)
    lands = len(first["lands"]) if first else 3
    if inject_mismatch and first is not None:
        # Self-test hook: corrupt one land's digest in the last run.
        victim = next(r for r in reversed(runs) if r is not None)
        victim["lands"][0]["digest"] ^= 1
    attempted = lands * (len(runs) + 1)
    failed = 0
    for k, run in enumerate(runs + [reference]):
        name = "traced run" if k == len(runs) else f"run {k + 1}"
        if run is None:
            failed += lands
            notes.append(f"{name}: crashed")
            continue
        for i, land in enumerate(run["lands"]):
            why = []
            if first is None or land["digest"] != first["lands"][i]["digest"]:
                why.append("trace digest differs from run 1")
            if reference is not None and k < len(runs) and \
                    land["fingerprint"] != reference["lands"][i]["fingerprint"]:
                why.append("fingerprint differs from the traced run")
            if land.get("error"):
                why.append(land["error"])
            if why:
                failed += 1
                notes.append(f"{name} {land['land']}: " + "; ".join(why))
    return attempted, failed, notes


def speed(run):
    """How much faster than the reference machine the CPU ran around this
    pipeline: REFERENCE_CALIBRATION_S over the median of the calibration
    passes made just before and just after it."""
    return REFERENCE_CALIBRATION_S / statistics.median(run["calibration_s"])


def end_to_end(runs, units):
    ok = [r for r in runs if r is not None]
    if not ok:
        return {}
    covered = [sum(l["covered_s"] for l in r["lands"]) /
               sum(l["crawled_s"] for l in r["lands"]) for r in ok]
    # Times are at the reference speed: each process's own times scaled by
    # its calibration (on a shared VM the CPU's speed drifts by a third over
    # tens of minutes), then the median over the processes.
    values = {
        "setup_s": statistics.median(statistics.median(r["setup_s"]) * speed(r) for r in ok),
        "pipeline_s": statistics.median(r["pipeline_s"] * speed(r) for r in ok),
        "cpu_s": statistics.median(r["cpu_s"] * speed(r) for r in ok),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in ok),
        "bytes_written_mib": statistics.median(r["bytes_written_mib"] for r in ok),
        "covered_frac": statistics.median(covered),
    }
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def per_layer(runs, reference, units):
    ok = [r for r in runs if r is not None]
    if reference is None or not ok:
        return {}
    values = dict(reference["layers"])
    values["trace_overhead"] = reference["pipeline_s"] / statistics.median(
        r["pipeline_s"] for r in ok)
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def load_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def load_result(spec):
    """A result written by --out, or one entry of a baseline file given as
    FILE#workload/seed/trace (e.g. perfbench/baseline.json#paper_day/42/0)."""
    path, _, key = spec.partition("#")
    with open(path) as f:
        data = json.load(f)
    return data[key] if key else data


def compare(a_spec, b_spec):
    a, b = load_result(a_spec), load_result(b_spec)
    diff = [k for k in LIKE_FOR_LIKE if a["stamp"].get(k) != b["stamp"].get(k)]
    if diff:
        for k in diff:
            log(f"refusing to compare: stamp field {k} differs "
                f"({a['stamp'].get(k)!r} vs {b['stamp'].get(k)!r})")
        return 2
    print(f"{'metric':36} {'A':>14} {'B':>14} {'B/A':>8}")
    for name, m in a["metrics"].items():
        if name not in b["metrics"]:
            continue
        va, vb = m["value"], b["metrics"][name]["value"]
        ratio = f"{vb / va:8.3f}" if va else "       -"
        print(f"{name:36} {va:14.6g} {vb:14.6g} {ratio} {m['unit']}")
    return 0


def main(argv):
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            log("usage: run.py compare A.json B.json")
            return 2
        return compare(argv[1], argv[2])

    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--hours", type=float, default=0.0,
                    help="override the workload's simulated hours (tests only)")
    ap.add_argument("--out", help="also write stamp + result to this JSON file")
    ap.add_argument("--inject-mismatch", action="store_true",
                    help="self-test: corrupt one land's digest to prove checks fail")
    args = ap.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    threads = min(nproc, 4)
    try:
        units_e2e, units_layer = load_units()
        binary = build(threads)
        stamp = make_stamp(binary, args, threads, nproc)
    except (OSError, RuntimeError, subprocess.CalledProcessError, KeyError,
            json.JSONDecodeError) as e:
        log(f"perfbench: {e}")
        return 2

    runs, reference = measure(binary, args, threads)
    attempted, failed, notes = check(runs, reference, args.inject_mismatch)
    for note in notes:
        log(f"perfbench: FAILED {note}")
    metrics = per_layer(runs, reference, units_layer) if args.trace else \
        end_to_end(runs, units_e2e)
    wanted = units_layer if args.trace else units_e2e
    correct = failed == 0 and reference is not None and set(metrics) == set(wanted)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    info = {"stamp": stamp, "samples": sum(r is not None for r in runs),
            "pipeline_s_each": [r["pipeline_s"] for r in runs if r is not None],
            "speed_each": [speed(r) for r in runs if r is not None],
            "failed_frac": failed / attempted}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(dict(info, **result), f, indent=1)
    print(json.dumps(info))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
