#!/usr/bin/env python3
"""dwm_lint: repository invariant linter for dwmaxerr.

Checks (each can be suppressed per line with `// dwm-lint: allow(<rule>)`):

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
                  bench/ harnesses are out of scope by design. The
                  allow comment may sit on the flagged line or the
                  line above it (multi-line printf argument lists).
  dist-quality-metrics
                  Every distributed driver under src/dist/ calls
                  PublishSynopsisQuality (dist/dist_common.h): the
                  metrics registry, the bench reporter and the quality
                  test assume each algorithm exports its retained
                  coefficients and achieved error.

One rule per invariant: "no DWM_CHECK on a recoverable src/mr/ path" is
dwm_analyze's type-resolved `recoverable-check`, and a `dwm-analyze:
allow()` naming an unknown rule is its `bad-suppression`; neither is a rule
here.

Exit status is non-zero iff any finding is reported, so the tool runs as
the ctest test `dwm_lint` in every CI leg. `allow-file(<rule>): <reason>` anywhere in a
file suppresses that rule for the whole file; the reason is mandatory.
"""

import argparse
import os
import re
import sys

CXX_SUFFIXES = (".h", ".cc", ".cpp")
SOURCE_DIRS = ("src", "tests", "bench", "examples", "tools")
BANNED_FUNCTIONS = ("rand", "atoi", "atol", "atoll", "atof", "strcpy")

ALLOW_RE = re.compile(r"//\s*dwm-lint:\s*allow\(([a-z-]+)\)")
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


def iter_sources(root):
    for top in SOURCE_DIRS:
        for dirpath, _, names in os.walk(os.path.join(root, top)):
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


def check_using_namespace(findings, rel_path, raw_lines, code_lines):
    for idx, code in enumerate(code_lines, start=1):
        if re.search(r"\busing\s+namespace\b", code):
            if "using-namespace" in allowed_rules(raw_lines[idx - 1]):
                continue
            findings.add(rel_path, idx, "using-namespace",
                         "`using namespace` is banned in headers")


def check_no_float(findings, rel_path, raw_lines, code_lines):
    for idx, code in enumerate(code_lines, start=1):
        if re.search(r"\bfloat\b", code):
            if "no-float" in allowed_rules(raw_lines[idx - 1]):
                continue
            findings.add(rel_path, idx, "no-float",
                         "`float` in a public API; use double "
                         "(max-error guarantees are analyzed in doubles)")


def check_banned_functions(findings, rel_path, raw_lines, code_lines):
    pattern = re.compile(
        r"(?<![\w:.>])(" + "|".join(BANNED_FUNCTIONS) + r")\s*\(")
    std_pattern = re.compile(
        r"std\s*::\s*(" + "|".join(BANNED_FUNCTIONS) + r")\s*\(")
    for idx, code in enumerate(code_lines, start=1):
        hit = pattern.search(code) or std_pattern.search(code)
        if not hit:
            continue
        if "banned-function" in allowed_rules(raw_lines[idx - 1]):
            continue
        findings.add(rel_path, idx, "banned-function",
                     f"call to banned function '{hit.group(1)}' "
                     "(use Rng / ParseInt / ParseDouble / memcpy+length "
                     "instead)")


# fprintf takes stderr first, fputs takes it last; both keep the stream on
# the call's opening line in practice, so a single-line scan suffices.
RAW_STDERR_RE = re.compile(r"\b(?:fprintf|fputs)\s*\([^)\n]*\bstderr\b")


def check_no_raw_stderr(findings, rel_path, raw_lines, code_lines,
                        file_allowed):
    if rel_path.split(os.sep)[0] not in ("src", "tools"):
        return
    if "no-raw-stderr" in file_allowed:
        return
    for idx, code in enumerate(code_lines, start=1):
        if not RAW_STDERR_RE.search(code):
            continue
        # The allow comment may sit on the flagged line or the line above
        # (printf argument lists often leave no room on the call line).
        allowed = allowed_rules(raw_lines[idx - 1])
        if idx >= 2:
            allowed |= allowed_rules(raw_lines[idx - 2])
        if "no-raw-stderr" in allowed:
            continue
        findings.add(rel_path, idx, "no-raw-stderr",
                     "bare fprintf/fputs to stderr; route diagnostics "
                     "through the structured logger (common/log.h) or "
                     "suppress with a reasoned allow comment")


BINARY_STREAM_IO_RE = re.compile(
    r"\bios(?:_base)?\s*::\s*binary\b|"
    r"\breinterpret_cast\s*<\s*(?:const\s+)?(?:unsigned\s+)?char\s*\*\s*>")


def check_binary_stream_io(findings, rel_path, raw_lines, code_lines):
    if rel_path.split(os.sep)[0] != "src":
        return
    for idx, code in enumerate(code_lines, start=1):
        if not BINARY_STREAM_IO_RE.search(code):
            continue
        if "binary-stream-io" in allowed_rules(raw_lines[idx - 1]):
            continue
        findings.add(rel_path, idx, "binary-stream-io",
                     "iostream binary I/O; encode bodies with Serde "
                     "(common/bytes.h) and read/write files through "
                     "common/sealed_file.h")


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
    tests_dir = os.path.join(root, "tests")
    for dirpath, _, names in os.walk(tests_dir):
        for name in sorted(names):
            if name.endswith(CXX_SUFFIXES):
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
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
            check_using_namespace(findings, rel_path, raw_lines, code_lines)
        if rel_path.startswith("src") and rel_path.endswith(".h"):
            check_no_float(findings, rel_path, raw_lines, code_lines)
        check_banned_functions(findings, rel_path, raw_lines, code_lines)
        check_no_raw_stderr(findings, rel_path, raw_lines, code_lines,
                            file_allowed)
        check_binary_stream_io(findings, rel_path, raw_lines, code_lines)
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
