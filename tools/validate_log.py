#!/usr/bin/env python3
"""validate_log: schema validator for dwmaxerr structured JSONL logs.

Checks that a file produced by the process-wide logger (src/common/log.h,
the DWM_LOG_FILE knob):

  * holds one self-contained JSON object per line, nothing else;
  * leads every record with "lvl" (debug|info|warn|error) and a non-empty
    "event" string, in that order (fixed field order is the logger's
    contract, so logs diff cleanly);
  * ends every record with the "m" measured sub-object, whose "ts_us"
    stamp is a non-negative integer and whose other members are numbers
    or null (measured fields are numeric by construction);
  * keeps top-level values scalar (strings/numbers/bools), with the only
    permitted "stable" value being false — the volatile-line marker.

With --expect-stable-identical FILE..., additionally requires the *stable
projection* of every file — volatile lines dropped, "m" objects stripped;
this script is the one implementation of the projection that
src/common/log.h's determinism contract names — to be byte-identical
across the given files; the serve determinism gate runs the same log
script at DWM_THREADS=1 and 8 and pins the projections equal, and the
validate_log_stable_pair_* ctests pin the projection itself on committed
fixture pairs under tests/data/. Fewer than two logs (counting the --exec
log) is a usage error (exit 2): there would be nothing to compare.

With --exec, the remaining arguments are run as a command with
DWM_LOG_FILE pointed at a temp file, which is then validated (and must be
non-empty): the CI log gate drives serve_bench through this mode.

Exit status is non-zero iff any finding is reported, so the tool can run
as a CI step.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

LEVELS = ("debug", "info", "warn", "error")


def fail(findings, path, message):
    findings.append(f"{path}: {message}")


def validate_line(findings, path, lineno, line):
    where = f"line {lineno}"
    try:
        record = json.loads(line)
    except json.JSONDecodeError as e:
        fail(findings, path, f"{where}: not parseable as JSON: {e}")
        return
    if not isinstance(record, dict):
        fail(findings, path, f"{where}: record is not a JSON object")
        return
    keys = list(record.keys())
    if keys[:2] != ["lvl", "event"]:
        fail(findings, path, f"{where}: records must start with "
             f"'lvl','event', got {keys[:2]!r}")
        return
    if record["lvl"] not in LEVELS:
        fail(findings, path, f"{where}: bad level {record['lvl']!r}")
    if not isinstance(record["event"], str) or not record["event"]:
        fail(findings, path, f"{where}: 'event' must be a non-empty string")
    if keys[-1] != "m" or not isinstance(record["m"], dict):
        fail(findings, path, f"{where}: records must end with the 'm' "
             "measured object")
        return
    measured = record["m"]
    ts = measured.get("ts_us")
    if not isinstance(ts, int) or isinstance(ts, bool) or ts < 0:
        fail(findings, path, f"{where}: m.ts_us must be a non-negative "
             f"integer, got {ts!r}")
    for key, value in measured.items():
        if value is not None and not isinstance(value, (int, float)):
            fail(findings, path, f"{where}: measured field {key!r} must be "
                 f"numeric or null, got {value!r}")
    for key, value in record.items():
        if key == "m":
            continue
        if key == "stable":
            if value is not False:
                fail(findings, path, f"{where}: 'stable' may only be false "
                     "(the volatile-line marker)")
            continue
        if isinstance(value, (dict, list)):
            fail(findings, path, f"{where}: stable field {key!r} must be a "
                 "scalar")


def validate_file(findings, path):
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().split("\n")
    except OSError as e:
        fail(findings, path, f"unreadable: {e}")
        return
    seen = 0
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        seen += 1
        validate_line(findings, path, lineno, line)
    if seen == 0:
        fail(findings, path, "no records (an engine that logged nothing is "
             "a finding, not a pass)")


def stable_projection(path):
    """The stable projection of a log (src/common/log.h's determinism
    contract): drop lines carrying the volatile marker, cut each survivor
    at its ',"m":{' suffix.
    Raw quotes cannot occur inside emitted values (the logger escapes
    them), so the substring markers are unambiguous."""
    out = []
    with open(path, encoding="utf-8") as f:
        for line in f.read().split("\n"):
            if not line or '"stable":false' in line:
                continue
            cut = line.rfind(',"m":{')
            out.append(line[:cut] + "}" if cut != -1 else line)
    return "\n".join(out)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("paths", nargs="*", help="JSONL log files")
    parser.add_argument("--expect-stable-identical", action="store_true",
                        help="require the stable projections of all given "
                             "files to be byte-identical")
    parser.add_argument("--exec", dest="command", nargs=argparse.REMAINDER,
                        help="run COMMAND with DWM_LOG_FILE pointed at a "
                             "temp file, then validate that file")
    args = parser.parse_args()
    if not args.paths and not args.command:
        parser.error("need log files or --exec COMMAND")
    # A lone log has nothing to compare against; passing it would certify
    # nothing, so it is a usage error, not a vacuous pass.
    if (args.expect_stable_identical and
            len(args.paths) + (1 if args.command else 0) < 2):
        parser.error("--expect-stable-identical needs at least two logs "
                     "(counting the --exec log)")

    findings = []
    paths = list(args.paths)
    tmp = None
    if args.command:
        fd, tmp = tempfile.mkstemp(prefix="dwm_log_", suffix=".jsonl")
        os.close(fd)
        env = dict(os.environ, DWM_LOG_FILE=tmp)
        proc = subprocess.run(args.command, env=env,
                              stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            findings.append(f"--exec {' '.join(args.command)}: exit status "
                            f"{proc.returncode}")
        paths.append(tmp)

    for path in paths:
        validate_file(findings, path)
    if args.expect_stable_identical:
        reference = stable_projection(paths[0])
        for path in paths[1:]:
            if stable_projection(path) != reference:
                findings.append(
                    f"{paths[0]} and {path}: stable projections differ "
                    "(stable log fields must be byte-identical across "
                    "worker-thread counts)")
    if tmp is not None:
        os.unlink(tmp)

    for finding in findings:
        print(finding)
    if findings:
        print(f"validate_log: {len(findings)} finding(s)")
        return 1
    print(f"validate_log: {len(paths)} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
