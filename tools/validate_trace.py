#!/usr/bin/env python3
"""validate_trace: structural validator for dwmaxerr Chrome trace files.

Checks that a file produced by `dwm_cli dbuild --trace[-stable]`, the
DWM_TRACE knob, or bench_util's MaybeWriteTrace:

  * parses as JSON with the Chrome trace_event object-format top level
    (`traceEvents` list plus `displayTimeUnit`), so chrome://tracing and
    Perfetto load it;
  * contains only "X" (complete) and "M" (metadata) events with the fields
    each phase requires, numeric where numbers are expected and finite
    (NaN/Infinity are invalid JSON and break viewers);
  * covers the run: at least one job span, the four engine phases
    (overhead/map/shuffle/reduce) for every job, and one attempt span per
    map task — a trace that silently drops a lane is worse than no trace;
  * keeps every attempt span inside [0, total_sim_seconds] on the modeled
    timeline.

Serve traces (the pid-3 lane written by `dwm_cli serve` `trace on` or
`serve_bench --trace`, cat "serve") are validated structurally instead:
at least one request root span (args carry "queries"), root request ids
strictly increasing, and every child span (req<id>/<phase>) attributed to
a known request and contained in its root's interval. A file may hold either kind of span or both
(ServeTraceCollector::Append composes with a build trace); job-level
coverage checks apply only when job spans are present.

With --expect-identical FILE, additionally requires the two files to be
byte-identical — CI uses this to pin the stable export's determinism
across worker-thread counts.

Exit status is non-zero iff any finding is reported, so the tool can run
as a CI step.
"""

import argparse
import json
import math
import sys

REQUIRED_X_FIELDS = ("name", "cat", "ph", "ts", "dur", "pid", "tid")
KNOWN_PHASES = ("overhead", "map", "shuffle", "reduce")


def fail(findings, path, message):
    findings.append(f"{path}: {message}")


def validate_event(findings, path, i, event):
    ph = event.get("ph")
    if ph == "M":
        if event.get("name") != "process_name":
            fail(findings, path, f"event {i}: metadata event with unexpected "
                 f"name {event.get('name')!r}")
        return
    if ph != "X":
        fail(findings, path, f"event {i}: unexpected phase {ph!r} "
             "(exporter only emits X and M events)")
        return
    for field in REQUIRED_X_FIELDS:
        if field not in event:
            fail(findings, path, f"event {i}: X event missing {field!r}")
            return
    for field in ("ts", "dur"):
        value = event[field]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(findings, path,
                 f"event {i}: {field!r} is not a finite number: {value!r}")
        elif value < 0:
            fail(findings, path, f"event {i}: negative {field!r}: {value!r}")


def validate_serve_spans(findings, path, serve):
    """Structural checks for the serve lane (see the module docstring)."""
    roots = [e for e in serve if "queries" in e.get("args", {})]
    if not roots:
        fail(findings, path, "serve spans present but no request roots "
             "(args carry 'queries')")
        return
    last_request = 0
    intervals = {}
    for e in roots:
        request = e.get("args", {}).get("request")
        if not isinstance(request, int) or request <= last_request:
            fail(findings, path, f"request root {e.get('name')!r}: ids must "
                 f"be strictly increasing, got {request!r} after "
                 f"{last_request}")
            return
        last_request = request
        intervals[request] = (e["ts"], e["ts"] + e["dur"])
    # ts/dur are serialized with three decimals (1 ns at the us unit), so
    # allow that much rounding slack on containment.
    slack = 0.01
    for e in serve:
        if "queries" in e.get("args", {}):
            continue
        request = e.get("args", {}).get("request")
        if request not in intervals:
            fail(findings, path, f"serve child span {e.get('name')!r} "
                 f"references unknown request {request!r}")
            return
        lo, hi = intervals[request]
        if e["ts"] < lo - slack or e["ts"] + e["dur"] > hi + slack:
            fail(findings, path, f"serve child span {e.get('name')!r} "
                 f"[{e['ts']:.3f}, {e['ts'] + e['dur']:.3f}]us escapes its "
                 f"request's [{lo:.3f}, {hi:.3f}]us")
            return


def validate_file(findings, path):
    try:
        with open(path, encoding="utf-8") as f:
            # parse_constant rejects the NaN/Infinity extensions: they are
            # not JSON and Perfetto's parser refuses them.
            trace = json.load(f, parse_constant=lambda c: findings.append(
                f"{path}: non-JSON constant {c!r}") or 0.0)
    except (OSError, json.JSONDecodeError) as e:
        fail(findings, path, f"not parseable as JSON: {e}")
        return
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        fail(findings, path, "top level is not an object with 'traceEvents'")
        return
    if trace.get("displayTimeUnit") not in ("ms", "ns"):
        fail(findings, path, "missing/invalid 'displayTimeUnit'")
    events = trace["traceEvents"]
    if not isinstance(events, list) or not events:
        fail(findings, path, "'traceEvents' is not a non-empty list")
        return
    for i, event in enumerate(events):
        validate_event(findings, path, i, event)

    # Coverage: job spans, the four phases per job, attempt lanes. Phase
    # and attempt spans share cat values ("map"/"reduce"); args.attempt
    # tells them apart (0 for a phase, >= 1 for a task attempt). A trace
    # may instead (or additionally) carry serve request spans.
    xs = [e for e in events if e.get("ph") == "X"]
    jobs = [e for e in xs if e.get("cat") == "job"]
    serve = [e for e in xs if e.get("cat") == "serve"]
    if not jobs and not serve:
        fail(findings, path, "no job spans (cat='job') and no serve spans "
             "(cat='serve')")
    if serve:
        validate_serve_spans(findings, path, serve)
    if not jobs:
        return
    phases = [e for e in xs if e.get("cat") in KNOWN_PHASES
              and e.get("args", {}).get("attempt", 0) == 0]
    for phase in KNOWN_PHASES:
        want = len(jobs)
        got = sum(1 for e in phases if e.get("cat") == phase)
        if got != want:
            fail(findings, path, f"expected {want} '{phase}' phase spans "
                 f"(one per job), found {got}")
    attempts = [e for e in xs if e.get("cat") in ("map", "reduce")
                and e.get("args", {}).get("attempt", 0) >= 1]
    for job in jobs:
        job_id = job.get("args", {}).get("job")
        for cat in ("map", "reduce"):
            if not any(e.get("cat") == cat and
                       e.get("args", {}).get("job") == job_id
                       for e in attempts):
                fail(findings, path, f"job {job_id} ({job.get('name')!r}) "
                     f"has no {cat} attempt spans")

    # Timeline: attempts stay inside the modeled run. total_sim_seconds is
    # serialized with three decimals (1 ms granularity), so allow that much
    # rounding slack on the bound.
    total_us = trace.get("otherData", {}).get("total_sim_seconds", 0.0) * 1e6
    for e in attempts:
        if total_us > 0 and e["ts"] + e["dur"] > total_us * (1 + 1e-9) + 500.0:
            fail(findings, path, f"attempt span '{e.get('name')}' ends at "
                 f"{e['ts'] + e['dur']:.3f}us, past the run's "
                 f"{total_us:.3f}us")
            break


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("traces", nargs="+", help="trace JSON files")
    parser.add_argument("--expect-identical", metavar="FILE",
                        help="require the first trace to be byte-identical "
                             "to FILE (stable-export determinism)")
    args = parser.parse_args()

    findings = []
    for path in args.traces:
        validate_file(findings, path)
    if args.expect_identical:
        with open(args.traces[0], "rb") as a, \
                open(args.expect_identical, "rb") as b:
            if a.read() != b.read():
                findings.append(
                    f"{args.traces[0]} and {args.expect_identical} differ: "
                    "the stable export must be byte-identical across "
                    "worker-thread counts")

    for finding in findings:
        print(finding)
    if findings:
        print(f"validate_trace: {len(findings)} finding(s)")
        return 1
    print(f"validate_trace: {len(args.traces)} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
