#!/usr/bin/env python3
"""Repeatability check for the dwm_bench workloads.

usage (from the repository root):
  python3 dwmbench/bench_repeat.py [-k 3] [--first-seed 1]
                                   [--workloads w1,w2] [--save FILE]
                                   [--baseline FILE]

Runs every workload of BENCHMARK.json K times through run.py, each run with
its own seed (first-seed + rep), alternating the workload order between
reps. For every end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread: (q3 - q1) / median. It exits 1
when any run fails or is incorrect, when any spread exceeds the metric's
bound, or, with --baseline (a file written by --save), when a median is
worse than the baseline's by more than the bound. Spreads above a third of
the bound are flagged as noisy.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(ROOT, "dwmbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise RuntimeError("%s seed %d exited %d" %
                           (workload, seed, done.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError("%s seed %d: correct=%s failed=%d" %
                           (workload, seed, result["correct"], result["failed"]))
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse_by(metric, value, base):
    """Relative amount by which `value` is worse than `base`."""
    change = (value - base) / base
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-k", type=int, default=3, help="runs per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--save", help="write every run's metrics here")
    parser.add_argument("--baseline", help="compare medians with a --save file")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]
    metrics = bench["end_to_end"]

    values = {w: {m["name"]: [] for m in metrics} for w in workloads}
    for rep in range(args.k):
        order = workloads if rep % 2 == 0 else workloads[::-1]
        for workload in order:
            seed = args.first_seed + rep
            result = run_once(workload, seed, bench["run_seconds"])
            print("run %d %-14s seed %-4d %s" % (rep, workload, seed, " ".join(
                "%s=%.6g" % (m["name"], result[m["name"]]) for m in metrics)),
                flush=True)
            for m in metrics:
                values[workload][m["name"]].append(result[m["name"]])
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    baseline = None
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)

    ok = True
    print("\n%-14s %-12s %12s %12s %12s %8s %6s %s" %
          ("workload", "metric", "median", "q1", "q3", "spread", "bound",
           "verdict"))
    for workload in workloads:
        for m in metrics:
            v = values[workload][m["name"]]
            median = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v * 3)
            spread = (q3 - q1) / median
            verdict = "ok"
            if spread > m["bound"]:
                verdict, ok = "SPREAD>BOUND", False
            elif spread > m["bound"] / 3:
                verdict = "noisy"
            if baseline is not None:
                base = statistics.median(baseline[workload][m["name"]])
                shift = worse_by(m, median, base)
                verdict += " shift %+.1f%%" % (100 * shift)
                if shift > m["bound"]:
                    verdict, ok = verdict + " WORSE>BOUND", False
            print("%-14s %-12s %12.6g %12.6g %12.6g %7.2f%% %5.0f%% %s" %
                  (workload, m["name"], median, q1, q3, 100 * spread,
                   100 * m["bound"], verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
