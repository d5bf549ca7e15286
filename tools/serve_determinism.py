#!/usr/bin/env python3
"""Serve-path determinism gate.

Builds a synopsis with `dwm_cli dbuild`, packs it into the versioned serve
format, and pipes one fixed query script into `dwm_cli serve` under
DWM_THREADS=1 and DWM_THREADS=8. The two transcripts must be byte-identical:
the serving engine is single-threaded by design, but it sits downstream of
the thread-count-sensitive build path, and this gate pins the whole chain —
dbuild output bytes, the packed frame, and every query answer — to be
independent of the worker count.

Each serve leg also writes a structured log (DWM_LOG_FILE, with the
slow-query log forced on so volatile lines are present too); the logs are
schema-validated and their *stable projections* — volatile lines dropped,
measured "m" objects stripped — must be byte-identical across the two
thread counts, pinning the logger's determinism contract alongside the
transcripts (tools/validate_log.py does both checks).

Runs as a ctest (`serve_determinism`) and is reproducible bit-for-bit.
"""

import argparse
import os
import subprocess
import sys
import tempfile

# One fixed script exercising every serve command: single queries, a batch,
# shard listing, stats, and a shard switch. Stats come last so the per-type
# query counters themselves are part of the compared bytes.
QUERY_SCRIPT = """\
shards
point 0
point 1
point 1023
sum 0 1023
sum 17 17
avg 128 255
batch 6
point 5
point 5
point 900
sum 3 40
avg 0 7
point 64
use zipf07 dgreedy-abs 64
point 2
sum 0 63
stats
quit
"""


def scrubbed_env(threads=None):
    """Subprocess environment with every DWM_* knob removed, so the gate's
    own settings are the only thread and fault configuration."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DWM_")}
    if threads is not None:
        env["DWM_THREADS"] = str(threads)
    return env


def run(cmd, env, stdin_text=None):
    proc = subprocess.run(cmd, env=env, input=stdin_text,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"command failed ({' '.join(cmd)}):\n{proc.stderr}")
    return proc


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def build_and_pack(cli, workdir, data, threads):
    """dbuild + pack under a given DWM_THREADS; returns the frame path
    (dbuild's own output is t<threads>.dwm beside it)."""
    env = scrubbed_env(threads)
    synopsis = os.path.join(workdir, f"t{threads}.dwm")
    frame = os.path.join(workdir, f"t{threads}.dwms")
    run([cli, "dbuild", "--algo", "dgreedy-abs", "--input", data,
         "--budget", "64", "--output", synopsis], env)
    run([cli, "pack", "--synopsis", synopsis, "--dataset", "zipf07",
         "--algo", "dgreedy-abs", "--budget", "64", "--output", frame], env)
    return frame


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cli", required=True,
                        help="path to the dwm_cli binary")
    parser.add_argument("--workdir", default=None,
                        help="scratch directory (default: a fresh tempdir)")
    parser.add_argument("--n", type=int, default=1024,
                        help="dataset size (power of two)")
    args = parser.parse_args()

    workdir = args.workdir or tempfile.mkdtemp(prefix="dwm_serve_det_")
    os.makedirs(workdir, exist_ok=True)
    data = os.path.join(workdir, "data.bin")
    run([args.cli, "gen", "--dataset", "zipf07", "--n", str(args.n),
         "--seed", "7", "--output", data], scrubbed_env())

    # Leg 1: the build path. The packed frame must not depend on the worker
    # count (same invariant the MR determinism tests pin, end-to-end).
    frames = {t: build_and_pack(args.cli, workdir, data, t) for t in (1, 8)}
    if read_bytes(frames[1]) != read_bytes(frames[8]):
        sys.exit("FAIL: packed synopsis frames differ between "
                 "DWM_THREADS=1 and DWM_THREADS=8")
    print("ok   dbuild+pack: frames byte-identical at 1 and 8 threads")

    # dbuild's output is already the canonical frame: `pack` without
    # provenance flags rewrites it byte for byte, and the synopsis-reading
    # subcommands accept the packed frame as readily as dbuild's file.
    env = scrubbed_env(1)
    built = os.path.join(workdir, "t1.dwm")
    repacked = os.path.join(workdir, "repacked.dwms")
    run([args.cli, "pack", "--synopsis", built, "--output", repacked], env)
    if read_bytes(repacked) != read_bytes(built):
        sys.exit("FAIL: `pack` with no provenance flags changed the bytes "
                 "of dbuild's output")
    run([args.cli, "info", "--synopsis", frames[1]], env)
    run([args.cli, "eval", "--synopsis", frames[1], "--input", data], env)
    print("ok   dbuild output is a canonical frame; info and eval read "
          "packed frames")

    # Leg 2: the query path. The same script against the same frame must
    # produce byte-identical transcripts at both thread counts. Each leg
    # also writes a structured log for leg 3; the slow-query threshold is
    # forced to 0 so the log carries volatile lines for the projection to
    # strip, not just stable ones.
    transcripts = {}
    logs = {}
    for threads in (1, 8):
        env = scrubbed_env(threads)
        log_path = os.path.join(workdir, f"serve_t{threads}.jsonl")
        if os.path.exists(log_path):  # the logger appends
            os.unlink(log_path)
        env["DWM_LOG_FILE"] = log_path
        env["DWM_SLOW_QUERY_US"] = "0"
        logs[threads] = log_path
        proc = run([args.cli, "serve", "--synopsis", frames[1]],
                   env, stdin_text=QUERY_SCRIPT)
        if "error:" in proc.stdout:
            sys.exit(f"FAIL: serve script reported an error at "
                     f"DWM_THREADS={threads}:\n{proc.stdout}")
        transcripts[threads] = proc.stdout
    if transcripts[1] != transcripts[8]:
        sys.exit("FAIL: serve transcripts differ between DWM_THREADS=1 "
                 "and DWM_THREADS=8")
    # The script must actually have produced answers (a silently-empty
    # transcript would pass the comparison while gating nothing).
    answers = [line for line in transcripts[1].splitlines()
               if line and not line.startswith(("shard ", "stats "))]
    if len(answers) < 12:
        sys.exit(f"FAIL: transcript has only {len(answers)} answer lines; "
                 "the query script did not run to completion:\n"
                 f"{transcripts[1]}")
    print(f"ok   serve: transcripts byte-identical at 1 and 8 threads "
          f"({len(answers)} answer lines)")

    # Leg 3: the structured logs. Schema-valid, and the stable projections
    # must match across thread counts (validate_log.py does both).
    validate_log = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "validate_log.py")
    proc = subprocess.run([sys.executable, validate_log, logs[1], logs[8],
                           "--expect-stable-identical"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("FAIL: structured logs did not validate or their stable "
                 f"projections differ:\n{proc.stdout}{proc.stderr}")
    print("ok   logs: schema-valid, stable projections byte-identical at "
          "1 and 8 threads")
    print("serve_determinism: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
