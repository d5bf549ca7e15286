#!/usr/bin/env python3
"""Deterministic chaos sweep over the distributed drivers.

Runs every `dwm_cli dbuild` algorithm against a fixed grid of DWM_FAULTS
plans and asserts the engine's headline robustness invariant: a faulted run
either

  * exits 0 with output bytes identical to the fault-free baseline (the
    fault plan was recoverable), or
  * exits 1 with a Status that names the job that died ("job '<name>': ..."),
    never a crash, hang, or silently-different synopsis.

A kill-and-resume leg additionally runs each driver under a plan that kills
every attempt while checkpointing (`--checkpoint`), then restarts it
fault-free from the same directory and requires the resumed synopsis to be
byte-identical to the baseline.

DIH gets a deferred leg: only its winning probe runs the top-down sweep,
after the binary search. The leg kills a checkpointed run inside that
sweep and resumes it.

A restore leg, run for all nine algorithms even under --quick, exercises
every stage's restore path: a fault-free `--checkpoint` build commits every
stage, then a rerun over the same directory under the kill-every-attempt
plan must exit 0 with the baseline bytes. Any stage that failed to restore
would run a live job and die.

A bad-flag leg, also run under --quick, feeds `--base-leaves` values that
no algorithm can use, and DP knobs out of their kernels' domain (--quantum
<= 0 for dmhs, dih and `build --algo indirect-haar`; --eps < 0 for dmhs):
each must exit 2 with a usage error naming the flag, never end on a signal.
For dcon and dmmv, a value above n/2 must build the same bytes as n/2.

Everything is seeded: the sweep is reproducible bit-for-bit, so it runs as
a ctest (`chaos_sweep`, quick grid) and as a CI leg (full grid).
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile

# (algo, extra dbuild flags). eps/quantum for the error-bounded algorithms
# are chosen feasible for the zipf07/max=1000 dataset below.
ALGOS = [
    ("dcon", []),
    ("send-v", []),
    ("send-coef", []),
    ("hwtopk", []),
    ("dgreedy-abs", []),
    ("dgreedy-rel", ["--sanity", "1"]),
    ("dmhs", ["--eps", "50", "--quantum", "0.5"]),
    ("dmmv", []),
    ("dih", ["--quantum", "0.5"]),
]

# (label, DWM_FAULTS-format plan). Seeds are fixed; every plan is a pure
# hash so reruns reproduce the same kills, stragglers and node losses.
FAULT_GRID = [
    ("recoverable-failstop", "1:fail=0.05"),
    ("recoverable-straggle", "2:straggle=0.3,slowdown=4"),
    ("node-loss-heavy", "3:node_loss=0.25,nodes=8"),
    ("mixed-chaos", "4"),  # the default chaos profile
    ("retry-exhausting", "5:fail=0.9"),
]

# The kill plan for the resume leg: every attempt dies, so the first live
# job always exhausts its retries and the run commits nothing past the
# already-checkpointed prefix.
LETHAL_PLAN = "9:fail=1"

# Flag overrides for the restore leg and the whole --quick grid. DIH's
# probe count grows as the quantum shrinks: at n=4096 with 4 threads it
# takes ~0.2 s at quantum 5 and ~17 s at 0.5.
FAST_FLAGS = {"dih": ["--quantum", "5"]}

# dih is here for its deferred top-down sweep: the winning probe's down
# jobs run after the search, so faults there must still end in a clean
# named-job exit or a byte-identical recovery. Both dgreedy variants are
# here, so the relative metric's histogram records (one per candidate and
# base) also go through the fault and resume legs.
QUICK_ALGOS = ["dcon", "dgreedy-abs", "dgreedy-rel", "dmhs", "dih"]
QUICK_FAULTS = ["recoverable-failstop", "retry-exhausting"]

# DP knob values outside the kernels' domain, per algorithm: usage errors.
BAD_DP_FLAGS = {
    "dmhs": [("--eps", "-1"), ("--quantum", "0"), ("--quantum", "-0.5")],
    "dih": [("--quantum", "0"), ("--quantum", "-5")],
}

# Algorithms whose --base-leaves is the tree partition's leaves per base
# sub-tree (a power of two >= 2); the rest read it as a mapper count.
PARTITIONED = ["dcon", "dmmv", "dgreedy-abs", "dgreedy-rel"]


def scrubbed_env():
    """Subprocess environment with every DWM_* knob removed: the sweep's
    own flags are the only fault/checkpoint/thread configuration."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DWM_")}
    return env


def run(cmd, env):
    return subprocess.run(cmd, env=env, capture_output=True, text=True)


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


class Sweep:
    def __init__(self, cli, workdir, n):
        self.cli = cli
        self.n = n
        self.workdir = workdir
        self.env = scrubbed_env()
        self.failures = []
        self.runs = 0
        self.data = os.path.join(workdir, "data.bin")
        gen = run(
            [cli, "gen", "--dataset", "zipf07", "--n", str(n), "--seed", "7",
             "--output", self.data],
            self.env)
        if gen.returncode != 0:
            sys.exit(f"data generation failed:\n{gen.stderr}")

    def fail(self, message):
        self.failures.append(message)
        print(f"FAIL {message}")

    def dbuild(self, algo, extra, out, faults=None, checkpoint=None,
               threads=1):
        cmd = [self.cli, "dbuild", "--algo", algo, "--input", self.data,
               "--budget", "24", "--output", out, "--threads", str(threads)]
        cmd += extra
        if faults:
            cmd += ["--faults", faults]
        if checkpoint:
            cmd += ["--checkpoint", checkpoint]
        self.runs += 1
        return run(cmd, self.env)

    def build(self, algo, extra, out):
        cmd = [self.cli, "build", "--algo", algo, "--input", self.data,
               "--budget", "24", "--output", out] + extra
        self.runs += 1
        return run(cmd, self.env)

    def check_usage_error(self, label, flag, value, proc):
        """A bad flag value must exit 2 naming the flag."""
        if proc.returncode != 2 or flag not in proc.stderr:
            self.fail(f"{label}: {flag} {value} gave exit {proc.returncode}, "
                      f"expected 2 naming the flag:\n{proc.stderr}")
        else:
            print(f"ok   {label}: {flag} {value} is a usage error")

    def check_failed_cleanly(self, algo, label, proc):
        """A dead run must exit 1 (not a signal/abort) and name its job."""
        if proc.returncode != 1:
            self.fail(f"{algo}/{label}: exit {proc.returncode}, expected 1 "
                      f"(clean named-job failure)\n{proc.stderr}")
            return False
        if "job '" not in proc.stderr + proc.stdout:
            self.fail(f"{algo}/{label}: failure does not name the dead job:\n"
                      f"{proc.stderr}")
            return False
        return True

    def sweep_algo(self, algo, extra, fault_labels):
        base_out = os.path.join(self.workdir, f"{algo}.base.dwm")
        base = self.dbuild(algo, extra, base_out)
        if base.returncode != 0:
            self.fail(f"{algo}: fault-free baseline failed:\n{base.stderr}")
            return
        golden = read_bytes(base_out)

        for label, plan in FAULT_GRID:
            if label not in fault_labels:
                continue
            out = os.path.join(self.workdir, f"{algo}.{label}.dwm")
            proc = self.dbuild(algo, extra, out, faults=plan, threads=4)
            if proc.returncode == 0:
                if read_bytes(out) != golden:
                    self.fail(f"{algo}/{label}: recovered run diverged from "
                              "the fault-free baseline")
                else:
                    print(f"ok   {algo}/{label}: recovered, byte-identical")
            elif self.check_failed_cleanly(algo, label, proc):
                print(f"ok   {algo}/{label}: died cleanly, named the job")

        # Kill-and-resume: the lethal plan kills the run at its first live
        # job; the fault-free restart resumes from the committed prefix and
        # must reproduce the baseline bytes exactly.
        ckpt = os.path.join(self.workdir, f"{algo}.ckpt")
        os.makedirs(ckpt, exist_ok=True)
        out = os.path.join(self.workdir, f"{algo}.resume.dwm")
        killed = self.dbuild(algo, extra, out, faults=LETHAL_PLAN,
                             checkpoint=ckpt, threads=4)
        if not self.check_failed_cleanly(algo, "kill", killed):
            return
        resumed = self.dbuild(algo, extra, out, checkpoint=ckpt, threads=3)
        if resumed.returncode != 0:
            self.fail(f"{algo}/resume: restart from checkpoint failed:\n"
                      f"{resumed.stderr}")
        elif read_bytes(out) != golden:
            self.fail(f"{algo}/resume: resumed synopsis diverged from the "
                      "fault-free baseline")
        else:
            print(f"ok   {algo}/resume: killed, resumed byte-identical")

    def deferred_leg(self, algo, extra):
        """DIH materializes only its winning probe, after the search: that
        probe's down stages commit last, in its own chain. Dropping their
        frames leaves a checkpoint from which the lethal plan's first live
        job is a deferred down job. The run must die cleanly naming it, and
        a fault-free restart must resume byte-identical."""
        base_out = os.path.join(self.workdir, f"{algo}.deferred-base.dwm")
        base = self.dbuild(algo, extra, base_out)
        if base.returncode != 0:
            self.fail(f"{algo}/deferred: fault-free baseline failed:\n"
                      f"{base.stderr}")
            return
        golden = read_bytes(base_out)
        ckpt = os.path.join(self.workdir, f"{algo}.deferred.ckpt")
        out = os.path.join(self.workdir, f"{algo}.deferred.dwm")
        first = self.dbuild(algo, extra, out, checkpoint=ckpt, threads=4)
        if first.returncode != 0:
            self.fail(f"{algo}/deferred: checkpointed build failed:\n"
                      f"{first.stderr}")
            return
        # Frames per probe chain ("dih_probe<k>_dmhs-<stage>.ckpt"): every
        # probe commits its up stages, the winner also its down stages.
        frames = {}
        for name in os.listdir(ckpt):
            match = re.fullmatch(r"(dih_probe\d+_dmhs)-(\d+)\.ckpt", name)
            if match:
                frames.setdefault(match.group(1), []).append(
                    int(match.group(2)))
        counts = sorted(len(stages) for stages in frames.values())
        if len(counts) < 2 or counts[-1] <= counts[-2]:
            self.fail(f"{algo}/deferred: expected one probe chain with more "
                      f"frames than the rest, got {counts}")
            return
        up_stages = counts[0]
        winner = max(frames, key=lambda chain: len(frames[chain]))
        for stage in frames[winner]:
            if stage >= up_stages:
                os.remove(os.path.join(ckpt, f"{winner}-{stage}.ckpt"))
        killed = self.dbuild(algo, extra, out, faults=LETHAL_PLAN,
                             checkpoint=ckpt, threads=4)
        if not self.check_failed_cleanly(algo, "deferred-kill", killed):
            return
        if "job 'dmhs_down_" not in killed.stderr + killed.stdout:
            self.fail(f"{algo}/deferred-kill: died outside the deferred "
                      f"down sweep:\n{killed.stderr}")
            return
        resumed = self.dbuild(algo, extra, out, checkpoint=ckpt, threads=1)
        if resumed.returncode != 0:
            self.fail(f"{algo}/deferred: restart from checkpoint failed:\n"
                      f"{resumed.stderr}")
        elif read_bytes(out) != golden:
            self.fail(f"{algo}/deferred: resumed synopsis diverged from the "
                      "fault-free baseline")
        else:
            print(f"ok   {algo}/deferred: killed in the winner's down sweep, "
                  "resumed byte-identical")

    def restore_leg(self, algo, extra):
        """A complete checkpoint must replay every stage: the lethal rerun
        runs no live job, so it exits 0 with the baseline bytes."""
        base_out = os.path.join(self.workdir, f"{algo}.restore-base.dwm")
        base = self.dbuild(algo, extra, base_out)
        if base.returncode != 0:
            self.fail(f"{algo}/restore: fault-free baseline failed:\n"
                      f"{base.stderr}")
            return
        golden = read_bytes(base_out)
        ckpt = os.path.join(self.workdir, f"{algo}.restore.ckpt")
        out = os.path.join(self.workdir, f"{algo}.restore.dwm")
        first = self.dbuild(algo, extra, out, checkpoint=ckpt, threads=4)
        if first.returncode != 0 or read_bytes(out) != golden:
            self.fail(f"{algo}/restore: checkpointed build failed or "
                      f"diverged from the baseline:\n{first.stderr}")
            return
        os.remove(out)
        rerun = self.dbuild(algo, extra, out, faults=LETHAL_PLAN,
                            checkpoint=ckpt, threads=3)
        if rerun.returncode != 0:
            self.fail(f"{algo}/restore: rerun over a complete checkpoint "
                      f"ran a live stage (exit {rerun.returncode}):\n"
                      f"{rerun.stderr}")
        elif read_bytes(out) != golden:
            self.fail(f"{algo}/restore: restored synopsis diverged from the "
                      "fault-free baseline")
        else:
            print(f"ok   {algo}/restore: every stage restored, "
                  "byte-identical")

    def bad_flag_leg(self, algo, extra):
        """--base-leaves 0 (any algorithm) and 1 or 3 (the partitioned
        ones) are usage errors: exit 2 naming the flag, as are the
        BAD_DP_FLAGS values (and, beside dih, the same --quantum values for
        the centralized `build --algo indirect-haar`). For dcon and dmmv,
        2n clamps to n/2 and builds the same bytes."""
        bad = ["0"] + (["1", "3"] if algo in PARTITIONED else [])
        out = os.path.join(self.workdir, f"{algo}.bad-flag.dwm")
        label = f"{algo}/bad-flag"
        for value in bad:
            proc = self.dbuild(algo, extra + ["--base-leaves", value], out)
            self.check_usage_error(label, "--base-leaves", value, proc)
        for flag, value in BAD_DP_FLAGS.get(algo, []):
            proc = self.dbuild(algo, extra + [flag, value], out)
            self.check_usage_error(label, flag, value, proc)
            if algo == "dih":
                proc = self.build("indirect-haar", [flag, value], out)
                self.check_usage_error("indirect-haar/bad-flag", flag, value,
                                       proc)
        if algo not in ("dcon", "dmmv"):
            return
        built = []
        for value in (self.n // 2, 2 * self.n):
            path = os.path.join(self.workdir, f"{algo}.leaves-{value}.dwm")
            proc = self.dbuild(algo, extra + ["--base-leaves", str(value)],
                               path)
            if proc.returncode != 0:
                self.fail(f"{algo}/bad-flag: --base-leaves {value} failed "
                          f"(exit {proc.returncode}):\n{proc.stderr}")
                return
            built.append(read_bytes(path))
        if built[0] != built[1]:
            self.fail(f"{algo}/bad-flag: --base-leaves {2 * self.n} did not "
                      f"build the bytes of {self.n // 2}")
        else:
            print(f"ok   {algo}/bad-flag: --base-leaves {2 * self.n} clamps "
                  f"to {self.n // 2}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cli", required=True,
                        help="path to the dwm_cli binary")
    parser.add_argument("--workdir", default=None,
                        help="scratch directory (default: a fresh tempdir)")
    parser.add_argument("--n", type=int, default=4096,
                        help="dataset size (power of two)")
    parser.add_argument("--quick", action="store_true",
                        help="subset grid for the ctest leg")
    args = parser.parse_args()

    workdir = args.workdir or tempfile.mkdtemp(prefix="dwm_chaos_")
    os.makedirs(workdir, exist_ok=True)
    sweep = Sweep(args.cli, workdir, args.n)

    algos = [a for a in ALGOS if not args.quick or a[0] in QUICK_ALGOS]
    fault_labels = {label for label, _ in FAULT_GRID
                    if not args.quick or label in QUICK_FAULTS}
    for algo, extra in algos:
        if args.quick:
            extra = FAST_FLAGS.get(algo, extra)
        sweep.sweep_algo(algo, extra, fault_labels)
        if algo == "dih":
            sweep.deferred_leg(algo, extra)
    for algo, extra in ALGOS:
        sweep.restore_leg(algo, FAST_FLAGS.get(algo, extra))
        sweep.bad_flag_leg(algo, FAST_FLAGS.get(algo, extra))

    print(f"\nchaos_sweep: {sweep.runs} runs, {len(sweep.failures)} "
          f"failure(s)")
    if sweep.failures:
        for message in sweep.failures:
            print(f"  - {message}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
