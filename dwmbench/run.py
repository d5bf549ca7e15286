#!/usr/bin/env python3
"""Builds dwm_bench from source and runs one of its workloads.

usage (from the repository root):
  python3 dwmbench/run.py --workload W --seed N --seconds T --trace 0|1

The first run configures and builds the library and the benchmark with CMake
(Release) into .bench_build/dwmbench; later runs rebuild only what changed.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result. A failed build exits 1 without a result. With --trace 1 the
Chrome trace goes to .bench_build/run/trace-<workload>.json and the result
holds the per-layer metrics instead of the end-to-end ones.

Before the benchmark starts, a header line records the machine: nproc, CPU
model and git SHA (or "unknown" outside a git checkout). The benchmark itself
adds a machine-speed reference and removes every DWM_* variable from its
environment.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "dwmbench")
BUILD = os.path.join(ROOT, ".bench_build", "dwmbench")
SCRATCH = os.path.join(ROOT, ".bench_build", "run")
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 170


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def build():
    """Configures (once) and builds dwm_bench; returns the binary or None."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "dwm_bench",
                  "--parallel", BUILD_JOBS])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(BUILD, "dwm_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    os.makedirs(SCRATCH, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--scratch", SCRATCH]
    if args.trace:
        command += ["--trace",
                    os.path.join(SCRATCH, "trace-%s.json" % args.workload)]
    print("header     : nproc=%d cpu=%s git=%s" %
          (os.cpu_count() or 0, cpu_model(), git_sha()), flush=True)
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: %s timed out after %d s" % (args.workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
