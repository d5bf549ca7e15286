#!/usr/bin/env python3
"""dwm_lint: repository invariant linter for dwmaxerr.

Checks (each can be suppressed by `// dwm-lint: allow(<rule>): <reason>`
on the flagged line or the line above it; an allow with no reason
suppresses nothing):

  include-guard   Every header uses a guard named after its path:
                  src/mr/job.h -> DWMAXERR_MR_JOB_H_,
                  tests/test_util.h -> DWMAXERR_TESTS_TEST_UTIL_H_.
  using-namespace No `using namespace` at any scope in headers.
  serde-pair      Every `Serde<T>` specialization defines both Put and Get.
  serde-roundtrip Every `Serde<T>` specialization is exercised by a
                  round-trip test under tests/ (matched on `Serde<Head` or
                  `RoundTrip<Head`, where Head is the type up to its first
                  template argument).
  no-float        No `float` in public APIs (headers under src/): the paper's
                  error guarantees are analyzed in double precision.
  banned-function No calls to rand, atoi, atol, atoll, atof or strcpy
                  (use Rng, ParseInt/ParseDouble from common/env.h and
                  std::string/memcpy instead): the ato* family silently
                  reads garbage as its numeric prefix or 0.
  trace-phase-span
                  Every TaskPhase enumerator in src/mr/faults.h is
                  referenced as `TaskPhase::kFoo` by the trace layer
                  (src/mr/trace.cc): a new MR phase that never becomes
                  a span silently vanishes from every exported trace.
  sealed-format-version
                  Every struct of a sealed on-disk format (common/
                  sealed_file.h) carries an explicit `version` member:
                  any `struct *Checkpoint*` under src/ and any
                  `struct *Frame*` under src/serve/. The canonical
                  headers src/mr/checkpoint.h and src/serve/format.h must
                  each define at least one: formats evolve, and a reader
                  can only reject a version-skewed file before trusting
                  any field in it if the struct stores its version.
  binary-stream-io
                  Under src/, no iostream binary I/O: no `std::ios::binary`
                  (or `ios_base::binary`) and no `reinterpret_cast` to a
                  `char*` for stream read/write. Binary bodies are laid out
                  by the one codec (common/bytes.h) and reach disk through
                  common/sealed_file.h, so each format's bytes are defined
                  once and decoded with bounds checks.
  no-raw-stderr   Under src/ and tools/, no bare fprintf/fputs to
                  stderr: diagnostics go through the structured logger
                  (common/log.h) so they carry levels, fields and the
                  determinism contract. Interactive CLIs whose stderr
                  IS the user interface suppress the whole file with
                  `// dwm-lint: allow-file(no-raw-stderr): <reason>`;
                  bench/ harnesses are out of scope by design.
  dist-quality-metrics
                  Every distributed driver under src/dist/ calls
                  PublishSynopsisQuality (dist/dist_common.h): the
                  metrics registry, the bench reporter and the quality
                  test assume each algorithm exports its retained
                  coefficients and achieved error.
  determinism     In every file under a path with a `dist` or `mr`
                  component, no code names an std::unordered_{map,set,
                  multimap,multiset}, a pointer-keyed std::{map,set,
                  multimap,multiset}, std::random_device, or a wall-clock
                  source (system_clock, high_resolution_clock, a call to
                  time, clock, localtime, gettimeofday, ...). Hash and
                  pointer order and wall clocks are how byte-identical
                  synopses, shuffles, traces and metrics stop being
                  byte-identical; measured time goes through
                  common/stopwatch.h's steady clock. Members of the same
                  name (`spec.map`, `stats->time`) and preprocessor lines
                  are not findings.
  job-purity      Under src/dist/ and src/mr/, no const_cast and no
                  mutable; under src/dist/, no member of a `struct *Ctx`
                  holds a pointer or reference to non-const. Job closures
                  are captureless functions of a `const Ctx&` (mr/job.h),
                  so these are the ways left for one to write shared state.
  mr-check        No DWM_CHECK* under src/mr/: what the MR runtime can
                  meet (a config, a fault plan, a caller's JobSpec)
                  surfaces as a Status. DWM_AUDIT_CHECK is allowed (audit
                  builds opt into aborts); a programmer-error backstop
                  carries an allow comment.

One rule per invariant: the compiler owns what a JobSpec closure may
capture (none of them can) and a discarded Status (-Werror=unused-result).

Exit status: 0 clean, 1 findings, 2 a --root that is not a repository
root, so the tool runs as the ctest test `dwm_lint` in every CI leg.
`allow-file(<rule>): <reason>` anywhere in a file suppresses that rule for
the whole file. tests/lint_fixtures/ holds a seeded violation of every
rule (its README); it is a tree of its own, so a run over the repository
skips it.
"""

import argparse
import os
import re
import sys

CXX_SUFFIXES = (".h", ".cc", ".cpp")
SOURCE_DIRS = ("src", "tests", "bench", "examples", "tools")
BANNED_FUNCTIONS = ("rand", "atoi", "atol", "atoll", "atof", "strcpy")

ALLOW_RE = re.compile(r"//\s*dwm-lint:\s*allow\(([a-z-]+)\):\s*\S")
# File-level suppression; the trailing \S makes the reason mandatory.
ALLOW_FILE_RE = re.compile(r"//\s*dwm-lint:\s*allow-file\(([a-z-]+)\):\s*\S")


class Findings:
    def __init__(self):
        self.items = []

    def add(self, path, line, rule, message):
        self.items.append((path, line, rule, message))

    def report(self):
        for path, line, rule, message in sorted(self.items):
            where = f"{path}:{line}" if line else path
            print(f"{where}: [{rule}] {message}")
        return len(self.items)


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving newlines so
    line numbers stay accurate."""
    out = []
    i, n = 0, len(text)
    state = None  # None | 'line' | 'block' | '"' | "'"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c in "\"'":
                state = c
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = None
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = None
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # inside a string/char literal
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == state:
                state = None
            out.append(c if c in (state, "\n") else " ")
        i += 1
    return "".join(out)


def allowed_rules(raw_line):
    return set(ALLOW_RE.findall(raw_line))


# The seeded-violation tree, linted only as a root of its own.
FIXTURE_DIR = "lint_fixtures"


def iter_sources(root, tops=SOURCE_DIRS):
    for top in tops:
        for dirpath, dirnames, names in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != FIXTURE_DIR)
            for name in sorted(names):
                if name.endswith(CXX_SUFFIXES):
                    yield os.path.relpath(os.path.join(dirpath, name), root)


def expected_guard(rel_path):
    # Headers under src/ drop the src/ prefix (they are included as
    # "mr/job.h"); other trees keep their directory name.
    parts = rel_path.split(os.sep)
    if parts[0] == "src":
        parts = parts[1:]
    stem = "_".join(parts)
    stem = re.sub(r"\.h$", "", stem).replace("/", "_").replace(".", "_")
    return f"DWMAXERR_{stem.upper()}_H_"


def check_include_guard(findings, rel_path, raw_lines):
    guard = expected_guard(rel_path)
    ifndef = f"#ifndef {guard}"
    define = f"#define {guard}"
    endif = f"#endif  // {guard}"
    stripped = [line.rstrip("\n") for line in raw_lines]
    if ifndef not in stripped or define not in stripped:
        findings.add(rel_path, 1, "include-guard",
                     f"expected guard '{guard}' (#ifndef/#define pair)")
        return
    if not any(line.startswith(endif) for line in stripped):
        findings.add(rel_path, len(stripped), "include-guard",
                     f"expected closing '#endif  // {guard}'")


def in_dirs(*prefixes):
    """Scope predicate: rel_path lies under one of the `a/b` prefixes."""
    return lambda rel_path: any(
        rel_path.split(os.sep)[:len(p.split("/"))] == p.split("/")
        for p in prefixes)


# Line-regex rules: (rule, scope predicate over rel_path, pattern over the
# comment- and string-stripped line, message). The message may name the
# pattern's groups as {0}, {1}, ...
LINE_RULES = (
    ("using-namespace", lambda rel_path: rel_path.endswith(".h"),
     re.compile(r"\busing\s+namespace\b"),
     "`using namespace` is banned in headers"),
    ("no-float", lambda rel_path: in_dirs("src")(rel_path) and
     rel_path.endswith(".h"), re.compile(r"\bfloat\b"),
     "`float` in a public API; use double (max-error guarantees are "
     "analyzed in doubles)"),
    ("banned-function", lambda rel_path: True,
     re.compile(r"(?:std\s*::\s*|(?<![\w:.>]))(" +
                "|".join(BANNED_FUNCTIONS) + r")\s*\("),
     "call to banned function '{0}' (use Rng / ParseInt / ParseDouble / "
     "memcpy+length instead)"),
    # fprintf takes stderr first, fputs takes it last; both keep the stream
    # on the call's opening line in practice.
    ("no-raw-stderr", in_dirs("src", "tools"),
     re.compile(r"\b(?:fprintf|fputs)\s*\([^)\n]*\bstderr\b"),
     "bare fprintf/fputs to stderr; route diagnostics through the "
     "structured logger (common/log.h) or suppress with a reasoned allow "
     "comment"),
    ("binary-stream-io", in_dirs("src"),
     re.compile(r"\bios(?:_base)?\s*::\s*binary\b|"
                r"\breinterpret_cast\s*<\s*(?:const\s+)?(?:unsigned\s+)?"
                r"char\s*\*\s*>"),
     "iostream binary I/O; encode bodies with Serde (common/bytes.h) and "
     "read/write files through common/sealed_file.h"),
    ("job-purity", in_dirs("src/dist", "src/mr"),
     re.compile(r"\b(const_cast|mutable)\b"),
     "`{0}` in a dist/mr path lets a job closure write through its "
     "`const Ctx&`"),
    ("mr-check", in_dirs("src/mr"),
     re.compile(r"\bDWM_CHECK(?:_[A-Z]+)?\s*\("),
     "DWM_CHECK under src/mr/ aborts the process; return a Status "
     "(DWM_AUDIT_CHECK for audit-only invariants)"),
)


def line_allows(raw_lines, idx, rule):
    """An allow comment covers its own line and the line below it (a
    multi-line call leaves no room on the flagged line)."""
    return rule in allowed_rules(raw_lines[idx - 1]) or (
        idx >= 2 and rule in allowed_rules(raw_lines[idx - 2]))


def check_line_rules(findings, rel_path, raw_lines, code_lines, file_allowed):
    for rule, applies, pattern, message in LINE_RULES:
        if rule in file_allowed or not applies(rel_path):
            continue
        for idx, code in enumerate(code_lines, start=1):
            hit = pattern.search(code)
            if hit and not line_allows(raw_lines, idx, rule):
                findings.add(rel_path, idx, rule, message.format(*hit.groups()))


SERDE_SPEC_RE = re.compile(r"struct\s+Serde\s*<(.+?)>\s*\{", re.DOTALL)


def serde_head(type_text):
    """Normalizes a specialization argument to its head type: the text up to
    the first template argument list ('std::pair<A, B>' -> 'std::pair')."""
    return type_text.split("<", 1)[0].strip()


def extract_serde_specializations(root):
    """Returns {head_type: (rel_path, line)} for every Serde specialization
    under src/."""
    specs = {}
    for rel_path in iter_sources(root):
        if not rel_path.startswith("src"):
            continue
        with open(os.path.join(root, rel_path), encoding="utf-8") as f:
            text = f.read()
        code = strip_comments_and_strings(text)
        for match in SERDE_SPEC_RE.finditer(code):
            head = serde_head(match.group(1))
            line = code[:match.start()].count("\n") + 1
            # The body runs to the matching close brace; a flat scan is
            # enough because Serde bodies only nest braces inside functions.
            body = _matched_braces(code, match.end() - 1)
            specs[head] = (rel_path, line, body)
    return specs


def _matched_braces(code, open_idx):
    depth = 0
    for i in range(open_idx, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return code[open_idx:i + 1]
    return code[open_idx:]


def check_serde(findings, root):
    specs = extract_serde_specializations(root)
    tests_text = []
    for rel_path in iter_sources(root, ("tests",)):
        with open(os.path.join(root, rel_path), encoding="utf-8") as f:
            tests_text.append(f.read())
    tests_blob = "\n".join(tests_text)

    for head, (rel_path, line, body) in sorted(specs.items()):
        has_put = re.search(r"\bstatic\s+[\w:<>,\s&]*\bPut\s*\(", body)
        has_get = re.search(r"\bstatic\s+[\w:<>,\s&]*\bGet\s*\(", body)
        if not (has_put and has_get):
            findings.add(rel_path, line, "serde-pair",
                         f"Serde<{head}> must define both Put and Get")
            continue
        # Round-trip coverage: a test must exercise Serde<Head...> directly
        # or through serde_roundtrip_test.cc's RoundTrip<Head...> helper.
        if (f"Serde<{head}" not in tests_blob and
                f"RoundTrip<{head}" not in tests_blob):
            findings.add(rel_path, line, "serde-roundtrip",
                         f"Serde<{head}> has no round-trip test under "
                         "tests/ (add one to serde_roundtrip_test.cc)")


UNORDERED_IDS = ("unordered_map", "unordered_set", "unordered_multimap",
                 "unordered_multiset")
ORDERED_IDS = ("map", "set", "multimap", "multiset")
WALL_CLOCK_IDS = ("system_clock", "high_resolution_clock", "gettimeofday",
                  "localtime", "localtime_r", "gmtime", "strftime", "time",
                  "clock", "ftime", "timespec_get")
DETERMINISM_RE = re.compile(r"\b(" + "|".join(
    UNORDERED_IDS + ORDERED_IDS + WALL_CLOCK_IDS + ("random_device",)) +
    r")\b")


def first_template_arg(code, open_idx):
    """The text of the first argument of the template argument list opened
    by the '<' at open_idx."""
    depth = 0
    for i in range(open_idx + 1, len(code)):
        c = code[i]
        if c in "<([":
            depth += 1
        elif c in ">)]" and depth > 0:
            depth -= 1
        elif c in ",>;{}" and depth == 0:
            return code[open_idx + 1:i]
    return ""


def determinism_message(code, match):
    name = match.group(1)
    before = code[max(0, match.start() - 8):match.start()].rstrip()
    after = code[match.end():match.end() + 200].lstrip()
    if before.endswith((".", "->")):
        return None  # a member named `map`/`time`/..., not the library name
    if name in UNORDERED_IDS:
        return (f"std::{name} in a dist/mr path; hash iteration order is "
                "unspecified — use std::map/std::set or a sorted vector")
    if name in ORDERED_IDS:
        if after.startswith("<") and first_template_arg(
                after, 0).strip().endswith("*"):
            return (f"pointer-keyed std::{name} in a dist/mr path; pointer "
                    "order varies run to run — key by a stable id")
        return None
    if name == "random_device":
        return ("std::random_device in a dist/mr path; seed from "
                "configuration (common/rng.h) instead")
    if after.startswith("(") or (name.endswith("_clock") and
                                 before.endswith("::")):
        return (f"wall-clock source `{name}` in a dist/mr path; measured "
                "time may only feed kMeasured metrics via "
                "common/stopwatch.h")
    return None


def check_determinism(findings, rel_path, raw_lines, code_lines):
    if not {"dist", "mr"} & set(rel_path.split(os.sep)[:-1]):
        return
    code = "\n".join(code_lines)
    for match in DETERMINISM_RE.finditer(code):
        idx = code.count("\n", 0, match.start()) + 1
        if code_lines[idx - 1].lstrip().startswith("#"):
            continue  # #include <unordered_map> names no container
        message = determinism_message(code, match)
        if message is None or line_allows(raw_lines, idx, "determinism"):
            continue
        findings.add(rel_path, idx, "determinism", message)


CTX_STRUCT_RE = re.compile(r"\b(?:struct|class)\s+(\w*Ctx)\b[^;{()]*\{")


def writable_indirection(decl):
    """True if a member declaration holds a pointer or reference to
    non-const: some `*` or `&` with no `const` before it in its own
    template argument (`const T&` and `std::vector<const T*>` pass,
    `T*`, `T* const` and `std::vector<T*>` do not)."""
    starts = [0]
    for i, c in enumerate(decl):
        if c == "<":
            starts.append(i + 1)
        elif c == ">" and len(starts) > 1:
            starts.pop()
        elif c == ",":
            starts[-1] = i + 1
        elif c in "*&" and not re.search(r"\bconst\b", decl[starts[-1]:i]):
            return True
    return False


def check_ctx_members(findings, rel_path, raw_lines, code_lines):
    """job-purity's second half: no member of a `*Ctx` under src/dist/
    points at non-const state."""
    if not in_dirs("src/dist")(rel_path):
        return
    code = "\n".join(code_lines)
    for match in CTX_STRUCT_RE.finditer(code):
        open_idx = match.end() - 1
        body = _matched_braces(code, open_idx)
        offset, depth = open_idx + 1, 0
        for i, c in enumerate(body[1:-1], start=open_idx + 1):
            depth += {"{": 1, "}": -1}.get(c, 0)
            if c == "}" and depth == 0:
                offset = i + 1  # past an inline member function's body
            if c != ";" or depth != 0:
                continue
            decl = code[offset:i]
            offset = i + 1
            if "(" in decl:
                continue  # a member function or function pointer
            decl = re.split(r"[={]", decl, maxsplit=1)[0]
            idx = code.count("\n", 0, i) + 1
            if not writable_indirection(decl) or line_allows(
                    raw_lines, idx, "job-purity"):
                continue
            findings.add(rel_path, idx, "job-purity",
                         f"{match.group(1)} member `{' '.join(decl.split())}` "
                         "points at non-const state; a job Ctx holds values "
                         "and const references")


TASK_PHASE_ENUM_RE = re.compile(r"enum\s+class\s+TaskPhase\s*\{(.*?)\}",
                                re.DOTALL)


def check_trace_phase_spans(findings, root):
    """Every TaskPhase enumerator must be handled by the trace layer: the
    attempt-span builder switches on the phase, so an enumerator trace.cc
    never names is a phase whose tasks no exported trace will show."""
    faults_rel = os.path.join("src", "mr", "faults.h")
    trace_rel = os.path.join("src", "mr", "trace.cc")
    texts = {}
    for rel in (faults_rel, trace_rel):
        try:
            with open(os.path.join(root, rel), encoding="utf-8") as f:
                texts[rel] = strip_comments_and_strings(f.read())
        except OSError:
            findings.add(rel, 1, "trace-phase-span",
                         f"{rel} is missing (the TaskPhase enum and the "
                         "trace layer must both exist)")
            return
    match = TASK_PHASE_ENUM_RE.search(texts[faults_rel])
    if not match:
        findings.add(faults_rel, 1, "trace-phase-span",
                     "could not find `enum class TaskPhase`")
        return
    line = texts[faults_rel][:match.start()].count("\n") + 1
    for enumerator in re.findall(r"\bk[A-Za-z0-9_]+\b", match.group(1)):
        if f"TaskPhase::{enumerator}" not in texts[trace_rel]:
            findings.add(faults_rel, line, "trace-phase-span",
                         f"TaskPhase::{enumerator} is never referenced by "
                         f"{trace_rel}; new MR phases must create trace "
                         "spans (see mr/trace.h)")


# The eight distributed drivers' entry points. Every one must publish
# synopsis-quality metrics (retained coefficients + achieved error) so
# dashboards and the bench-regression gate never silently lose an
# algorithm. DMinHaarSpace and DMinMaxVar are policies of the shared
# Algorithm-1 driver (dist/partitioned_tree_dp.h), which builds no
# synopsis itself, so each policy file publishes its own.
DIST_DRIVERS = [
    "dcon.cc",
    "send_v.cc",
    "send_coef.cc",
    "hwtopk.cc",
    "dgreedy.cc",
    "dindirect_haar.cc",
    "dmin_haar_space.cc",
    "dmin_max_var.cc",
]


def check_dist_quality_metrics(findings, root):
    """Every dist driver must call PublishSynopsisQuality (dist_common.h)
    on its success path: the metrics registry, the bench reporter, and the
    parameterized quality test all assume each algorithm exports retained
    coefficients and achieved error."""
    for name in DIST_DRIVERS:
        rel = os.path.join("src", "dist", name)
        try:
            with open(os.path.join(root, rel), encoding="utf-8") as f:
                text = strip_comments_and_strings(f.read())
        except OSError:
            findings.add(rel, 1, "dist-quality-metrics",
                         f"{rel} is missing (every distributed driver must "
                         "exist and publish quality metrics)")
            continue
        if "PublishSynopsisQuality(" not in text:
            findings.add(rel, 1, "dist-quality-metrics",
                         "driver never calls PublishSynopsisQuality(); "
                         "every dist driver must export retained "
                         "coefficients and achieved error "
                         "(see dist/dist_common.h)")


# The sealed on-disk formats (common/sealed_file.h): (scope, struct-name
# pattern, canonical header). Every matching struct under the scope must
# carry a `version` member, and the canonical header must define at least
# one matching struct, so a renamed frame cannot silently escape the rule.
SEALED_FORMATS = (
    ("src" + os.sep, r"\w*Checkpoint\w*",
     os.path.join("src", "mr", "checkpoint.h")),
    (os.path.join("src", "serve") + os.sep, r"\w*Frame\w*",
     os.path.join("src", "serve", "format.h")),
)
VERSION_MEMBER_RE = re.compile(r"\bversion\s*[;={]")


def check_sealed_format_version(findings, root):
    """Every struct of a sealed on-disk format must carry an explicit
    `version` member: CheckpointStore::Load and LoadSynopsisFrame reject a
    file whose version differs from this build's before trusting any other
    field, and that gate only exists if the struct stores the version it
    was written with."""
    for prefix, name_pattern, canonical_rel in SEALED_FORMATS:
        struct_re = re.compile(r"\bstruct\s+(" + name_pattern +
                               r")\s*(?:final\s*)?(?::[^{;]*)?\{")
        canonical_structs = 0
        for rel_path in iter_sources(root):
            if not rel_path.startswith(prefix):
                continue
            with open(os.path.join(root, rel_path), encoding="utf-8") as f:
                code = strip_comments_and_strings(f.read())
            for match in struct_re.finditer(code):
                if rel_path == canonical_rel:
                    canonical_structs += 1
                body = _matched_braces(code, code.index("{", match.end() - 1))
                if VERSION_MEMBER_RE.search(body):
                    continue
                line = code[:match.start()].count("\n") + 1
                findings.add(rel_path, line, "sealed-format-version",
                             f"struct {match.group(1)} has no `version` "
                             "member; sealed-format structs must store the "
                             "on-disk format version so the loader can "
                             "reject files from a different format (see "
                             f"{canonical_rel})")
        if canonical_structs == 0:
            findings.add(canonical_rel, 1, "sealed-format-version",
                         f"{canonical_rel} defines no struct matching "
                         f"`{name_pattern}`; the sealed frame must live here "
                         "so the version rule covers it")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    args = parser.parse_args()
    root = os.path.abspath(args.root)
    # A missing or wrong root must not report "clean": that is how a typo'd
    # CI path silently disables the whole linter.
    missing = [d for d in SOURCE_DIRS
               if not os.path.isdir(os.path.join(root, d))]
    if missing:
        print(f"dwm_lint: {root} does not look like the repository root "
              f"(missing {', '.join(missing)}/)", file=sys.stderr)
        return 2

    findings = Findings()
    for rel_path in iter_sources(root):
        with open(os.path.join(root, rel_path), encoding="utf-8") as f:
            text = f.read()
        raw_lines = text.splitlines()
        code_lines = strip_comments_and_strings(text).splitlines()
        file_allowed = set(ALLOW_FILE_RE.findall(text))
        if rel_path.endswith(".h"):
            check_include_guard(findings, rel_path, raw_lines)
        check_line_rules(findings, rel_path, raw_lines, code_lines,
                         file_allowed)
        check_determinism(findings, rel_path, raw_lines, code_lines)
        check_ctx_members(findings, rel_path, raw_lines, code_lines)
    check_serde(findings, root)
    check_trace_phase_spans(findings, root)
    check_dist_quality_metrics(findings, root)
    check_sealed_format_version(findings, root)

    count = findings.report()
    if count:
        print(f"dwm_lint: {count} finding(s)")
        return 1
    print("dwm_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
