#!/usr/bin/env python3
"""dwm_analyze: AST-level determinism & thread-safety analyzer for dwmaxerr.

dwm_lint (tools/dwm_lint.py) checks repository *invariants* with line
regexes; this tool checks *semantic contracts* of the MR runtime and the
distributed drivers on a real parse of the code. It builds a lightweight
token-level AST of every translation unit (function definitions, lambda
expressions with capture lists, local/param declarations with their types,
range-for statements, call expressions, DWM_CHECK macro invocations) and,
when a clang toolchain is available, enriches that AST with type facts from
clang's JSON AST dump (`clang++ -fsyntax-only -Xclang -ast-dump=json`,
driven by a CMake-exported compile_commands.json; no libclang/LibTooling
build dependency). Macro call sites and suppression comments only exist
before preprocessing, so the syntactic layer is always the source of truth
for those; clang contributes resolved `qualType`s for range-for ranges and
the Status-returning function registry.

Rules (suppress per line with `// dwm-analyze: allow(<rule>): <reason>`;
the reason is mandatory — a bare allow() is itself a finding):

  determinism       In src/dist/ and src/mr/, any function on a
                    deterministic-output path (it calls — directly or
                    transitively within its TU — Emit/emit, Serde<T>::Put,
                    RunJob/RunJobOr, PublishSynopsisQuality, or a metrics
                    registry getter, whose kStable values feed the stable
                    exports) must not iterate an std::unordered_map/
                    unordered_set, declare a pointer-keyed container, or
                    consume std::random_device / wall-clock time sources.
                    Hash/pointer iteration order and clocks are the two
                    ways byte-identical synopses, shuffles, traces and
                    metrics silently stop being byte-identical.

  lambda-capture    Closures installed into a JobSpec (.map/.reduce/
                    .partition/.split_bytes) run on the
                    thread-pool executor. None of them may mutate anything
                    captured by reference: a map closure reads shared
                    state and emits task-local data, and a reduce closure
                    writes only through its `out` parameter (the driver
                    folds the job output after RunJob returns). The emit
                    callback and `out` are parameters, not captures, so
                    per-task emit buffers and reducer outputs are
                    naturally allowed.

  discarded-status  Every call to a Status-returning function whose result
                    is discarded (a bare expression statement). The
                    registry of Status-returning functions is built from
                    the repository's own declarations (and from clang's
                    AST when available). Also checks that Status-returning
                    declarations in headers are [[nodiscard]] — satisfied
                    globally when `class [[nodiscard]] Status` marks the
                    type itself.

  recoverable-check The repository's one check of this invariant: under
                    src/mr/, a DWM_CHECK whose condition involves config-/
                    fault-/attempt-driven state or a Status must surface a
                    Status instead of aborting. Unlike a line regex, this
                    parses the full (possibly multi-line) condition
                    expression and resolves local
                    variable types, so `Status st = ...; DWM_CHECK(st.ok())`
                    is caught even though no token spells "status".
                    DWM_AUDIT_CHECK is exempt (audit builds opt into
                    aborts).

  bad-suppression   A dwm-analyze allow() comment that names no known rule
                    or carries no reason. (dwm_lint independently rejects
                    stale allow() comments repo-wide.)

Exit status: 0 clean, 1 findings, 2 usage error. `--list-rules` prints the
rule registry (consumed by dwm_lint's stale-analyze-suppression check).
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

RULES = (
    "determinism",
    "lambda-capture",
    "discarded-status",
    "recoverable-check",
    "bad-suppression",
)

ALLOW_RE = re.compile(
    r"//\s*dwm-analyze:\s*allow\(([A-Za-z0-9_-]+)\)(?::\s*(.*\S))?")

# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

PUNCT = sorted(
    [
        "<<=", ">>=", "->*", "...", "::", "->", "++", "--", "<<", ">>",
        "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=",
        "&=", "|=", "^=", "##", "{", "}", "(", ")", "[", "]", ";", ",",
        "<", ">", "=", "+", "-", "*", "/", "%", "&", "|", "^", "!", "~",
        "?", ":", ".", "#",
    ],
    key=len,
    reverse=True,
)

KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "do", "else", "try", "new", "delete", "throw", "case", "default",
    "break", "continue", "goto", "static_assert", "decltype", "typeid",
    "co_await", "co_return", "co_yield",
}


class Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind  # 'id' | 'num' | 'str' | 'chr' | 'punct'
        self.text = text
        self.line = line

    def __repr__(self):
        return f"{self.kind}:{self.text}@{self.line}"


ID_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$")
ID_CONT = ID_START | set("0123456789")


def tokenize(text):
    """Tokenizes C++ source, skipping comments and preprocessor directives
    (so macro *definitions* are invisible, while macro *invocations* in code
    remain ordinary id+paren sequences)."""
    toks = []
    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    line += 1
                i += 1
            i += 2
            continue
        if c == "#" and (not toks or toks[-1].line != line):
            # Preprocessor directive: skip the logical line (backslash
            # continuations included).
            while i < n:
                if text[i] == "\n":
                    if text[i - 1] == "\\":
                        line += 1
                        i += 1
                        continue
                    break
                i += 1
            continue
        if c == "R" and text[i:i + 2] == 'R"':
            m = re.match(r'R"([^()\\ \t\n]*)\(', text[i:])
            if m:
                close = ")" + m.group(1) + '"'
                end = text.find(close, i + m.end())
                end = n if end < 0 else end + len(close)
                line += text.count("\n", i, end)
                toks.append(Token("str", '""', line))
                i = end
                continue
        if c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                if text[j] == "\\":
                    j += 1
                elif text[j] == "\n":
                    line += 1
                j += 1
            toks.append(Token("str" if c == '"' else "chr", c + c, line))
            i = j + 1
            continue
        if c in ID_START:
            j = i + 1
            while j < n and text[j] in ID_CONT:
                j += 1
            toks.append(Token("id", text[i:j], line))
            i = j
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j] in ID_CONT or text[j] in ".'+-"
                             and text[j - 1] in "eEpP'"):
                j += 1
            toks.append(Token("num", text[i:j], line))
            i = j
            continue
        for p in PUNCT:
            if text.startswith(p, i):
                toks.append(Token("punct", p, line))
                i += len(p)
                break
        else:
            i += 1  # stray byte; ignore
    return toks


def match_brackets(toks):
    """Returns {open_index: close_index} (and the reverse) for (), [], {}."""
    match = {}
    stack = []
    openers = {"(": ")", "[": "]", "{": "}"}
    for idx, tok in enumerate(toks):
        if tok.kind != "punct":
            continue
        if tok.text in openers:
            stack.append((idx, openers[tok.text]))
        elif tok.text in ")]}":
            while stack:
                oidx, want = stack.pop()
                if tok.text == want:
                    match[oidx] = idx
                    match[idx] = oidx
                    break
    return match


# ---------------------------------------------------------------------------
# Syntactic AST: functions, lambdas, declarations, statements
# ---------------------------------------------------------------------------

MUTATING_METHODS = {
    "push_back", "emplace_back", "pop_back", "push_front", "pop_front",
    "insert", "emplace", "emplace_hint", "erase", "clear", "resize",
    "assign", "reserve", "swap", "push", "pop", "merge", "extract",
    "Offer", "Add", "Set", "Increment", "Append", "AddDriverSpan",
    "MergeFrom", "append", "operator=",
}

ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
              "<<=", ">>="}

JOBSPEC_ROLES = {"map", "reduce", "partition", "split_bytes"}


class Lambda:
    def __init__(self, intro, capture_end, body_begin, body_end, role,
                 line, spec_name):
        self.intro = intro            # index of '['
        self.capture_end = capture_end  # index of matching ']'
        self.body_begin = body_begin  # index of '{'
        self.body_end = body_end      # index of matching '}'
        self.role = role              # JobSpec field name or None
        self.line = line
        self.spec_name = spec_name    # e.g. 'spec' for `spec.map = ...`
        self.params = []              # [(name, type_text)]


class Function:
    def __init__(self, name, qual_name, body_begin, body_end, line,
                 ret_type):
        self.name = name
        self.qual_name = qual_name
        self.body_begin = body_begin
        self.body_end = body_end
        self.line = line
        self.ret_type = ret_type
        self.params = []   # [(name, type_text)]
        self.locals = {}   # name -> (type_text, line)
        self.calls = []    # (callee_short_name, line)
        self.lambdas = []  # nested Lambda objects


class TU:
    """One analyzed source file (token stream + extracted facts)."""

    def __init__(self, rel_path, toks, raw_lines):
        self.rel_path = rel_path
        self.toks = toks
        self.raw_lines = raw_lines
        self.match = match_brackets(toks)
        self.functions = []
        self.lambdas = []
        self.file_decls = {}  # name -> type_text (namespace/class scope)


def token_text(toks, begin, end):
    return " ".join(t.text for t in toks[begin:end])


def skip_template_args_back(toks, idx):
    """Given idx at a '>' that closes template args, returns index of the
    matching '<' (or idx if it does not look like template args)."""
    depth = 0
    i = idx
    while i >= 0:
        t = toks[i].text
        if t in (">", ">>"):
            depth += 2 if t == ">>" else 1
        elif t == "<":
            depth -= 1
            if depth <= 0:
                return i
        elif t in (";", "{", "}"):
            return idx
        i -= 1
    return idx


def parse_type_backwards(toks, idx):
    """Walks backwards over a type mention ending at toks[idx]; returns the
    start index. Handles `std::vector<std::pair<A, B>>&`, const, etc."""
    i = idx
    while i >= 0:
        t = toks[i]
        if t.kind == "id" or t.text in ("::", "*", "&", "&&"):
            i -= 1
            continue
        if t.text in (">", ">>"):
            i = skip_template_args_back(toks, i) - 1
            continue
        break
    return i + 1


def parse_params(toks, open_paren, match):
    """Parses a parameter list into [(name, type_text)]; name may be ''."""
    close = match.get(open_paren)
    if close is None:
        return []
    params = []
    begin = open_paren + 1
    depth = 0
    i = begin
    segments = []
    while i < close:
        t = toks[i].text
        if t in ("(", "[", "{"):
            depth += 1
        elif t in (")", "]", "}"):
            depth -= 1
        elif t == "<":
            # Template args inside a param type: skip to the matching '>'
            # by scanning forward with a mini-depth (commas inside must not
            # split the parameter).
            d = 1
            j = i + 1
            while j < close and d > 0:
                if toks[j].text == "<":
                    d += 1
                elif toks[j].text in (">", ">>"):
                    d -= 2 if toks[j].text == ">>" else 1
                j += 1
            i = j
            continue
        elif t == "," and depth == 0:
            segments.append((begin, i))
            begin = i + 1
        i += 1
    if close > begin:
        segments.append((begin, close))
    for seg_begin, seg_end in segments:
        # Drop default arguments.
        eq = None
        d = 0
        for j in range(seg_begin, seg_end):
            t = toks[j].text
            if t in ("(", "[", "{", "<"):
                d += 1
            elif t in (")", "]", "}", ">"):
                d -= 1
            elif t == "=" and d == 0:
                eq = j
                break
        end = eq if eq is not None else seg_end
        if end <= seg_begin:
            continue
        last = toks[end - 1]
        if last.kind == "id" and last.text not in ("const", "auto"):
            name = last.text
            type_text = token_text(toks, seg_begin, end - 1)
        else:
            name = ""
            type_text = token_text(toks, seg_begin, end)
        params.append((name, type_text))
    return params


def is_lambda_intro(toks, idx):
    """True if toks[idx] == '[' begins a lambda (vs array subscript or
    attribute)."""
    if toks[idx].text != "[":
        return False
    if idx + 1 < len(toks) and toks[idx + 1].text == "[":
        return False  # [[attribute]]
    if idx == 0:
        return True
    prev = toks[idx - 1]
    if prev.kind in ("id", "num", "str"):
        return prev.text in KEYWORDS  # `return [..]` yes; `arr[..]` no
    if prev.text in (")", "]"):
        return False
    if prev.text == "]":
        return False
    return prev.text not in (".", "->")


def lambda_role(toks, intro):
    """If the lambda is being assigned to a JobSpec closure field
    (`spec.map = [...]`), returns (role, spec_var); else (None, None)."""
    i = intro - 1
    if i < 0 or toks[i].text != "=":
        return None, None
    i -= 1
    if i < 0 or toks[i].kind != "id":
        return None, None
    field = toks[i].text
    if field not in JOBSPEC_ROLES:
        return None, None
    i -= 1
    if i < 0 or toks[i].text not in (".", "->"):
        return None, None
    i -= 1
    spec_var = toks[i].text if i >= 0 and toks[i].kind == "id" else None
    return field, spec_var


def find_lambdas(tu):
    toks, match = tu.toks, tu.match
    for idx, tok in enumerate(toks):
        if tok.text != "[" or not is_lambda_intro(toks, idx):
            continue
        cap_end = match.get(idx)
        if cap_end is None:
            continue
        # Optional (params), then specifiers, then the body '{'.
        i = cap_end + 1
        params_open = None
        if i < len(toks) and toks[i].text == "(":
            params_open = i
            i = match.get(i, i) + 1
        # Skip specifiers and trailing return type up to '{' or give up.
        limit = i + 40
        while i < len(toks) and i < limit and toks[i].text != "{":
            if toks[i].text in (";", ")", ",", "]", "}"):
                i = None
                break
            i += 1
        if i is None or i >= len(toks) or toks[i].text != "{":
            continue
        body_end = match.get(i)
        if body_end is None:
            continue
        role, spec_var = lambda_role(toks, idx)
        lam = Lambda(idx, cap_end, i, body_end, role, tok.line, spec_var)
        if params_open is not None:
            lam.params = parse_params(toks, params_open, match)
        tu.lambdas.append(lam)


def classify_brace(toks, idx, match):
    """Classifies the '{' at idx: 'function' (returns also name/line/ret),
    'scope' (namespace/class/enum), or 'block'."""
    i = idx - 1
    # Skip trailing specifiers / trailing return type / member-init lists.
    while i >= 0:
        t = toks[i]
        if t.kind == "id" and t.text in ("const", "noexcept", "override",
                                         "final", "mutable", "try"):
            i -= 1
            continue
        if t.text in (">", ">>"):
            i = skip_template_args_back(toks, i) - 1
            continue
        if t.kind == "id" or t.text in ("::", "*", "&", "&&"):
            # Could be a trailing return type `-> T` or a scope intro
            # (`namespace foo`, `class Bar`). Walk to the start of the
            # chain and decide.
            start = parse_type_backwards(toks, i)
            before = toks[start - 1] if start > 0 else None
            if before is not None and before.text == "->":
                i = start - 2
                continue
            if before is not None and before.text == ":":
                # base-class list `class X : public Y {`
                i = start - 2
                continue
            kw = toks[start].text
            if kw in ("namespace", "class", "struct", "union", "enum",
                      "public", "private", "protected"):
                return ("scope", None, None, None)
            if before is not None and before.kind == "id" and before.text in (
                    "namespace", "class", "struct", "union", "enum"):
                return ("scope", None, None, None)
            return ("block", None, None, None)
        break
    if i < 0:
        return ("block", None, None, None)
    t = toks[i]
    if t.text == ")":
        open_paren = match.get(i)
        while open_paren is not None:
            before = toks[open_paren - 1] if open_paren > 0 else None
            if before is None:
                return ("block", None, None, None)
            if before.kind == "id":
                name = before.text
                if name in KEYWORDS:
                    return ("block", None, None, None)
                # Member-init list element? `: a_(x), b_(y) {`
                b2 = toks[open_paren - 2] if open_paren > 1 else None
                if b2 is not None and b2.text in (",", ":") and not (
                        b2.text == ":" and (open_paren < 3 or
                                            toks[open_paren - 3].text
                                            not in (")", "id"))):
                    # Walk back across the init list to the ctor's ')'.
                    j = open_paren - 2
                    while j >= 0 and toks[j].text != ")":
                        if toks[j].text in ("{", "}", ";"):
                            return ("block", None, None, None)
                        j -= 1
                    if j < 0:
                        return ("block", None, None, None)
                    open_paren = match.get(j)
                    continue
                # Return type = tokens before the (possibly qualified) name.
                name_start = open_paren - 1
                while name_start >= 2 and toks[name_start - 1].text == "::":
                    name_start -= 2
                ret_end = name_start
                ret_start = parse_type_backwards(toks, ret_end - 1) \
                    if ret_end > 0 else 0
                ret = token_text(toks, ret_start, ret_end)
                qual = token_text(toks, name_start, open_paren).replace(
                    " ", "")
                return ("function", name, qual, (ret, open_paren))
            if before.text == "]":
                return ("block", None, None, None)  # lambda; handled apart
            return ("block", None, None, None)
        return ("block", None, None, None)
    if t.text in ("=", ",", "(", "{", "return", ";"):
        return ("block", None, None, None)
    return ("block", None, None, None)


def find_functions(tu):
    toks, match = tu.toks, tu.match
    lambda_bodies = {lam.body_begin for lam in tu.lambdas}
    claimed = []  # (begin, end) of function bodies, to skip nesting
    for idx, tok in enumerate(toks):
        if tok.text != "{" or idx in lambda_bodies:
            continue
        kind, name, qual, extra = classify_brace(toks, idx, match)
        if kind != "function":
            continue
        end = match.get(idx)
        if end is None:
            continue
        if any(b < idx < e for b, e in claimed):
            continue  # local struct method etc.; attribute to outer function
        ret, open_paren = extra
        fn = Function(name, qual, idx, end, tok.line, ret)
        fn.params = parse_params(toks, open_paren, match)
        claimed.append((idx, end))
        tu.functions.append(fn)
    # Attach lambdas to their enclosing function.
    for lam in tu.lambdas:
        for fn in tu.functions:
            if fn.body_begin < lam.intro < fn.body_end:
                fn.lambdas.append(lam)


TYPE_INTRO = {"const", "static", "constexpr", "inline", "auto", "unsigned",
              "signed", "long", "short", "mutable", "thread_local",
              "volatile", "typename"}

NOT_TYPES = KEYWORDS | {"using", "typedef", "template", "friend", "public",
                        "private", "protected", "operator", "namespace",
                        "class", "struct", "enum", "union", "else"}


def try_parse_decl(toks, begin, end, match):
    """Attempts to parse a simple declaration starting at toks[begin]:
    `[qualifiers] Type name (= init | { init } | ( init ) | ;)`.
    Returns (name, type_text, line, init_begin) or None."""
    i = begin
    saw_type = False
    while i < end:
        t = toks[i]
        if t.kind == "id" and t.text in TYPE_INTRO:
            if t.text in ("auto", "unsigned", "signed", "long", "short"):
                saw_type = True
            i += 1
            continue
        break
    while i < end:
        t = toks[i]
        if t.kind == "id":
            if t.text in NOT_TYPES:
                return None
            nxt = toks[i + 1] if i + 1 < end else None
            if saw_type and (nxt is None or
                             nxt.text in ("=", ";", "{", "(", ",")):
                break  # this id is the declared name
            if nxt is None:
                return None
            if nxt.text == "::":
                i += 2
                continue
            if nxt.text == "<":
                # Balance template args; bail if it reads like comparison.
                d = 1
                j = i + 2
                while j < end and d > 0:
                    txt = toks[j].text
                    if txt == "<":
                        d += 1
                    elif txt in (">", ">>"):
                        d -= 2 if txt == ">>" else 1
                    elif txt in (";", "{", ")") or txt in ASSIGN_OPS:
                        return None
                    j += 1
                if d > 0:
                    return None
                i = j
                saw_type = True
                continue
            saw_type = True
            i += 1
            continue
        if t.text in ("*", "&", "&&"):
            i += 1
            continue
        break
    if not saw_type or i >= end:
        return None
    # Now expect the declared name.
    t = toks[i]
    if t.kind != "id" or t.text in NOT_TYPES or t.text in TYPE_INTRO:
        return None
    name_idx = i
    nxt = toks[i + 1] if i + 1 < end else None
    if nxt is not None and nxt.text not in ("=", ";", "{", "(", ","):
        return None
    type_text = token_text(toks, begin, name_idx)
    if not type_text:
        return None
    init = i + 2 if nxt is not None and nxt.text != ";" else None
    return (t.text, type_text, t.line, init)


def statement_starts(toks, begin, end):
    """Yields token indices that begin statements inside a body span. A '{'
    inside parentheses (e.g. a lambda body nested in a call argument) opens
    a fresh statement context, so its declarations are still seen."""
    yield begin + 1
    depth = 0
    stack = []
    for i in range(begin + 1, end):
        t = toks[i].text
        if t in ("(", "["):
            depth += 1
        elif t in (")", "]"):
            depth -= 1
        elif t == "{":
            stack.append(depth)
            depth = 0
            if i + 1 < end:
                yield i + 1
        elif t == "}":
            depth = stack.pop() if stack else 0
            if depth <= 0 and i + 1 < end:
                yield i + 1
        elif t == ";" and depth <= 0:
            if i + 1 < end:
                yield i + 1


def collect_locals(tu, fn):
    toks, match = tu.toks, tu.match
    for start in statement_starts(toks, fn.body_begin, fn.body_end):
        stop = start
        depth = 0
        while stop < fn.body_end:
            t = toks[stop].text
            if t in ("(", "[", "{"):
                depth += 1
            elif t in (")", "]", "}"):
                depth -= 1
            elif t == ";" and depth <= 0:
                break
            stop += 1
        decl = try_parse_decl(toks, start, stop, match)
        if decl is not None:
            name, type_text, line, init = decl
            fn.locals.setdefault(name, (type_text, line, init))
        # Range-for / classic-for init declarations.
        if toks[start].text == "for" and start + 1 < fn.body_end and \
                toks[start + 1].text == "(":
            close = match.get(start + 1)
            if close is None:
                continue
            colon = None
            d = 0
            for j in range(start + 2, close):
                t = toks[j].text
                if t in ("(", "[", "{"):
                    d += 1
                elif t in (")", "]", "}"):
                    d -= 1
                elif t == ":" and d == 0 and toks[j - 1].text != ":" and \
                        (j + 1 >= close or toks[j + 1].text != ":"):
                    colon = j
                    break
            if colon is not None:
                continue  # range-for decl names don't shadow anything vital
            decl = try_parse_decl(toks, start + 2, close, match)
            if decl is not None:
                name, type_text, line, init = decl
                fn.locals.setdefault(name, (type_text, line, init))


def collect_calls(tu, fn):
    toks = tu.toks
    for i in range(fn.body_begin + 1, fn.body_end):
        t = toks[i]
        if t.kind == "id" and t.text not in KEYWORDS and \
                i + 1 < fn.body_end and toks[i + 1].text == "(":
            fn.calls.append((t.text, t.line))


def build_tu(rel_path, text):
    tu = TU(rel_path, tokenize(text), text.splitlines())
    find_lambdas(tu)
    find_functions(tu)
    for fn in tu.functions:
        collect_locals(tu, fn)
        collect_calls(tu, fn)
    # File-scope / class-scope declarations (very rough: declarations found
    # outside any function body).
    spans = [(f.body_begin, f.body_end) for f in tu.functions]

    def outside(i):
        return not any(b < i < e for b, e in spans)

    for i, tok in enumerate(tu.toks):
        if tok.text == ";" and outside(i):
            start = i
            while start > 0 and tu.toks[start - 1].text not in (";", "{",
                                                               "}"):
                start -= 1
            decl = try_parse_decl(tu.toks, start, i, tu.match)
            if decl is not None and outside(start):
                name, type_text, _, _ = decl
                tu.file_decls.setdefault(name, type_text)
    return tu


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------

class Suppressions:
    """Per-file map of line -> {rule: reason}; an allow comment applies to
    findings on its own line and on the next line (comment-above style)."""

    def __init__(self, raw_lines):
        self.by_line = {}
        self.bad = []  # (line, message) for malformed allows
        for lineno, raw in enumerate(raw_lines, start=1):
            for m in ALLOW_RE.finditer(raw):
                rule, reason = m.group(1), m.group(2)
                if rule not in RULES:
                    self.bad.append(
                        (lineno, f"allow({rule}) names an unknown rule "
                                 f"(known: {', '.join(RULES)})"))
                    continue
                if not reason:
                    self.bad.append(
                        (lineno,
                         f"allow({rule}) has no reason; write "
                         f"`dwm-analyze: allow({rule}): <why this is "
                         "safe>`"))
                    continue
                for target in (lineno, lineno + 1):
                    self.by_line.setdefault(target, {})[rule] = reason

    def allows(self, line, rule):
        return rule in self.by_line.get(line, {})


# ---------------------------------------------------------------------------
# Findings
# ---------------------------------------------------------------------------

class Findings:
    def __init__(self):
        self.items = []
        self.suppressed = 0

    def add(self, tu, supp, line, rule, message):
        if supp is not None and supp.allows(line, rule):
            self.suppressed += 1
            return
        self.items.append((tu.rel_path if tu else "", line, rule, message))

    def report(self, stream=sys.stdout):
        for path, line, rule, message in sorted(self.items):
            where = f"{path}:{line}" if line else path
            print(f"{where}: [{rule}] {message}", file=stream)
        return len(self.items)


# ---------------------------------------------------------------------------
# Rule: determinism
# ---------------------------------------------------------------------------

DETERMINISM_SINKS = {
    "emit", "Emit", "Put", "RunJob", "RunJobOr", "PublishSynopsisQuality",
    "GetGauge", "GetCounter", "GetHistogram",
    "StableTraceJson", "ChromeTraceJson",
}

UNORDERED_RE = re.compile(r"\bunordered_(map|set|multimap|multiset)\b")
POINTER_KEY_RE = re.compile(
    r"\b(?:unordered_map|unordered_set|map|set|unordered_multimap|"
    r"unordered_multiset|multimap|multiset)\s*<\s*(?:const\s+)?"
    r"[A-Za-z_][\w:]*(?:\s*<[^<>]*>)?\s*\*")
WALL_CLOCK_IDS = {
    "system_clock", "high_resolution_clock", "gettimeofday", "localtime",
    "localtime_r", "gmtime", "strftime", "time", "clock", "ftime",
    "timespec_get",
}


def in_scope_dirs(rel_path, dirs):
    parts = rel_path.replace(os.sep, "/").split("/")
    return any(d in parts for d in dirs)


def tainted_functions(tu):
    """Functions on a deterministic-output path: they call a sink directly,
    or call (by short name) a tainted function of the same TU."""
    direct = set()
    callees = {}
    for fn in tu.functions:
        names = {c for c, _ in fn.calls}
        callees[fn.name] = names
        if names & DETERMINISM_SINKS:
            direct.add(fn.name)
    tainted = set(direct)
    changed = True
    while changed:
        changed = False
        for fn in tu.functions:
            if fn.name in tainted:
                continue
            if callees[fn.name] & tainted:
                tainted.add(fn.name)
                changed = True
    return [fn for fn in tu.functions if fn.name in tainted]


def resolve_type(tu, fn, name):
    if name in fn.locals:
        return fn.locals[name][0]
    for pname, ptype in fn.params:
        if pname == name:
            return ptype
    for lam in fn.lambdas:
        for pname, ptype in lam.params:
            if pname == name:
                return ptype
    return tu.file_decls.get(name)


def range_for_statements(tu, fn):
    """Yields (line, range_expr_tokens) for every range-for in the body."""
    toks, match = tu.toks, tu.match
    for i in range(fn.body_begin + 1, fn.body_end):
        if toks[i].text != "for" or toks[i].kind != "id":
            continue
        if i + 1 >= fn.body_end or toks[i + 1].text != "(":
            continue
        close = match.get(i + 1)
        if close is None:
            continue
        colon = None
        d = 0
        for j in range(i + 2, close):
            t = toks[j].text
            if t in ("(", "[", "{", "<"):
                d += 1
            elif t in (")", "]", "}", ">"):
                d -= 1
            elif t == ":" and d == 0:
                colon = j
                break
        if colon is None:
            continue
        yield (toks[i].line, toks[colon + 1:close])


def range_root_identifier(expr_toks):
    for t in expr_toks:
        if t.kind == "id" and t.text not in TYPE_INTRO and \
                t.text not in KEYWORDS:
            return t.text
    return None


def check_determinism(tu, fn, supp, findings, clang_ranges, func_ret_types):
    toks = tu.toks
    # 1. Range-for over unordered containers.
    for line, expr_toks in range_for_statements(tu, fn):
        qual = clang_ranges.get((tu.rel_path, line))
        type_text = qual
        if type_text is None:
            root = range_root_identifier(expr_toks)
            if root is not None:
                type_text = resolve_type(tu, fn, root)
                if type_text is None:
                    type_text = func_ret_types.get(root)
        expr_text = " ".join(t.text for t in expr_toks)
        if type_text is not None and UNORDERED_RE.search(type_text):
            findings.add(
                tu, supp, line, "determinism",
                f"iteration over unordered container `{expr_text}` (type "
                f"`{type_text}`) on a deterministic-output path; hash "
                "iteration order is unspecified — use std::map/std::set "
                "or sort before iterating")
    # 2. Pointer-keyed container declarations.
    decls = list(fn.locals.items()) + [(n, (t, fn.line, None))
                                       for n, t in fn.params if n]
    for name, (type_text, line, _) in decls:
        if POINTER_KEY_RE.search(type_text):
            findings.add(
                tu, supp, line, "determinism",
                f"`{name}` is a pointer-keyed container (`{type_text}`); "
                "pointer order/hashes vary run to run — key by a stable id")
    # 3. random_device / wall-clock sources.
    for i in range(fn.body_begin + 1, fn.body_end):
        t = toks[i]
        if t.kind != "id":
            continue
        if t.text == "random_device":
            findings.add(
                tu, supp, t.line, "determinism",
                "std::random_device on a deterministic-output path; seed "
                "from configuration (common/rng.h) instead")
        elif t.text in WALL_CLOCK_IDS:
            nxt = toks[i + 1] if i + 1 < fn.body_end else None
            prev = toks[i - 1] if i > 0 else None
            is_call = nxt is not None and nxt.text == "("
            is_clock_type = t.text.endswith("_clock") and prev is not None \
                and prev.text == "::"
            if not (is_call or is_clock_type):
                continue
            if prev is not None and prev.text in (".", "->"):
                continue  # member named `time`/`clock`, not the libc call
            findings.add(
                tu, supp, t.line, "determinism",
                f"wall-clock source `{t.text}` on a deterministic-output "
                "path; measured time may only feed kMeasured metrics via "
                "common/stopwatch.h")


# ---------------------------------------------------------------------------
# Rule: lambda-capture
# ---------------------------------------------------------------------------

def parse_captures(toks, lam):
    """Returns (default_capture, by_ref_names, by_value_names)."""
    default = None
    by_ref = set()
    by_val = set()
    i = lam.intro + 1
    while i < lam.capture_end:
        t = toks[i]
        if t.text == "&":
            nxt = toks[i + 1] if i + 1 < lam.capture_end else None
            if nxt is not None and nxt.kind == "id":
                by_ref.add(nxt.text)
                i += 2
                continue
            default = "&"
            i += 1
            continue
        if t.text == "=":
            default = "="
            i += 1
            continue
        if t.kind == "id" and t.text != "this":
            by_val.add(t.text)
        i += 1
    return default, by_ref, by_val


def lambda_local_names(tu, lam):
    """Names declared inside the lambda body (locals + params), which are
    never capture mutations."""
    names = {p for p, _ in lam.params if p}
    toks, match = tu.toks, tu.match
    ref_aliases = {}  # name -> root it aliases
    for start in statement_starts(toks, lam.body_begin, lam.body_end):
        stop = start
        depth = 0
        while stop < lam.body_end:
            t = toks[stop].text
            if t in ("(", "[", "{"):
                depth += 1
            elif t in (")", "]", "}"):
                depth -= 1
            elif t == ";" and depth <= 0:
                break
            stop += 1
        decl = try_parse_decl(toks, start, stop, match)
        if decl is None:
            if toks[start].text == "for" and start + 1 < lam.body_end and \
                    toks[start + 1].text == "(":
                close = match.get(start + 1)
                if close is not None:
                    d = try_parse_decl(toks, start + 2, close, match)
                    if d is not None:
                        names.add(d[0])
                    # Structured bindings / range-for decl names.
                    for j in range(start + 2, close):
                        if toks[j].text == "[":
                            k = j + 1
                            while k < close and toks[k].text != "]":
                                if toks[k].kind == "id":
                                    names.add(toks[k].text)
                                k += 1
            continue
        name, type_text, _, init = decl
        if "&" in type_text and init is not None:
            root = None
            for j in range(init, min(init + 8, lam.body_end)):
                if toks[j].kind == "id" and toks[j].text not in KEYWORDS:
                    root = toks[j].text
                    break
            if root is not None:
                ref_aliases[name] = root
                continue  # reference alias: mutations count against root
        names.add(name)
    # Structured bindings at statement level: auto [a, b] = ...
    for start in statement_starts(toks, lam.body_begin, lam.body_end):
        if toks[start].kind == "id" and toks[start].text in ("auto",
                                                            "const"):
            j = start + 1
            while j < lam.body_end and toks[j].kind == "id" and \
                    toks[j].text in TYPE_INTRO:
                j += 1
            if j < lam.body_end and toks[j].text == "&":
                j += 1
            if j < lam.body_end and toks[j].text == "[":
                k = j + 1
                while k < lam.body_end and toks[k].text != "]":
                    if toks[k].kind == "id":
                        names.add(toks[k].text)
                    k += 1
    return names, ref_aliases


def find_mutations(tu, lam):
    """Yields (root_name, line, how) for every mutation of a name used in
    the lambda body (member-chain writes, mutating method calls,
    increments, std::move)."""
    toks, match = tu.toks, tu.match
    i = lam.body_begin + 1
    while i < lam.body_end:
        t = toks[i]
        if t.kind != "id" or t.text in KEYWORDS:
            i += 1
            continue
        prev = toks[i - 1] if i > 0 else None
        if prev is not None and prev.text in (".", "->", "::"):
            i += 1
            continue  # not a chain root
        root = t.text
        line = t.line
        # std::move(root)
        if prev is not None and prev.text == "(" and i >= 2 and \
                toks[i - 2].text == "move":
            nxt = toks[i + 1] if i + 1 < lam.body_end else None
            if nxt is not None and nxt.text == ")":
                yield (root, line, "std::move of captured value")
        # ++root / --root
        if prev is not None and prev.text in ("++", "--"):
            yield (root, line, f"`{prev.text}{root}`")
        # Walk the member/index chain.
        j = i + 1
        last_member = None
        while j < lam.body_end:
            txt = toks[j].text
            if txt in (".", "->"):
                if j + 1 < lam.body_end and toks[j + 1].kind == "id":
                    last_member = toks[j + 1].text
                    j += 2
                    continue
                break
            if txt == "[":
                j = match.get(j, j) + 1
                last_member = None
                continue
            if txt == "(" and last_member is not None:
                if last_member in MUTATING_METHODS:
                    yield (root, line,
                           f"call to mutating method `{last_member}()`")
                j = match.get(j, j) + 1
                last_member = None
                continue
            break
        if j < lam.body_end:
            txt = toks[j].text
            if txt in ASSIGN_OPS:
                # Guard against `==` mis-lexing (lexer emits `==` whole, so
                # `=` here is genuine assignment).
                yield (root, line, f"assignment via `{txt}`")
            elif txt in ("++", "--"):
                yield (root, line, f"`{root}{txt}`")
        i += 1


def check_lambda_capture(tu, fn, supp, findings):
    for lam in fn.lambdas:
        if lam.role is None:
            continue
        default, by_ref, by_val = parse_captures(tu.toks, lam)
        if default != "&" and not by_ref:
            continue
        local_names, ref_aliases = lambda_local_names(tu, lam)
        enclosing = set(fn.locals) | {p for p, _ in fn.params if p}
        for root, line, how in find_mutations(tu, lam):
            base = ref_aliases.get(root, root)
            if base in local_names or base in by_val:
                continue
            if base not in by_ref and not (default == "&" and
                                           base in enclosing):
                continue
            if lam.role == "map":
                why = ("map closures run concurrently across tasks and "
                       "re-run on retry; they must not mutate captured "
                       "state (emit task-local data instead)")
            elif lam.role == "reduce":
                why = ("reduce closures must write only through `out`; "
                       "fold the job output on the driver instead")
            else:
                why = (f"`{lam.role}` closures must be pure functions "
                       "(they are evaluated from worker threads)")
            findings.add(
                tu, supp, line, "lambda-capture",
                f"{lam.role} lambda mutates by-reference capture "
                f"`{base}` ({how}); {why}")


# ---------------------------------------------------------------------------
# Rule: discarded-status
# ---------------------------------------------------------------------------

STATUS_DECL_RE = re.compile(
    r"^\s*(?:\[\[nodiscard\]\]\s*)?(?:static\s+|inline\s+|virtual\s+)*"
    r"(?:::)?(?:dwm::)?Status\s+([A-Za-z_]\w*)\s*\(")


def collect_status_registry(tus):
    """Names of functions returning Status, from builtin parses (function
    definitions and header declarations)."""
    registry = {"RunJobOr"}
    for tu in tus:
        for fn in tu.functions:
            ret = fn.ret_type.replace(" ", "")
            if ret in ("Status", "dwm::Status", "::dwm::Status",
                       "staticStatus"):
                registry.add(fn.name)
        # Declarations without bodies (headers): regex over raw lines is
        # fine here because a declaration fits one physical line in this
        # codebase's style.
        for raw in tu.raw_lines:
            m = STATUS_DECL_RE.match(raw)
            if m:
                registry.add(m.group(1))
    registry.discard("OK")  # Status::OK() etc. are factories, but calling
    registry.discard("InvalidArgument")  # them for effect is pointless,
    registry.discard("IOError")          # not dangerous; keep the rule
    registry.discard("OutOfRange")       # focused on real error returns.
    registry.discard("FailedPrecondition")
    registry.discard("Aborted")
    registry.discard("Parse")  # FaultPlan::Parse handled via member call
    registry.add("Parse")
    return registry


def status_class_is_nodiscard(tus):
    for tu in tus:
        for raw in tu.raw_lines:
            if re.search(r"class\s+\[\[nodiscard\]\]\s+Status\b", raw):
                return True
    return False


def check_discarded_status(tu, supp, findings, registry, class_nodiscard):
    toks, match = tu.toks, tu.match
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in registry:
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "(":
            continue
        close = match.get(i + 1)
        if close is None or close + 1 >= len(toks):
            continue
        if toks[close + 1].text != ";":
            continue
        # Statement start: walk back over the qualification chain; the
        # token before it must end the previous statement.
        j = i - 1
        while j >= 0 and toks[j].text in ("::", ".", "->"):
            j -= 2 if j >= 1 and toks[j - 1].kind == "id" else 1
        if j >= 0 and toks[j].text not in (";", "{", "}"):
            continue  # part of a larger expression: the value is consumed
        findings.add(
            tu, supp, t.line, "discarded-status",
            f"result of Status-returning `{t.text}(...)` is discarded; "
            "check it, DWM_RETURN_NOT_OK it, or consume it explicitly")
    # Header declarations must be [[nodiscard]] unless the class is.
    if class_nodiscard or not tu.rel_path.endswith(".h"):
        return
    for lineno, raw in enumerate(tu.raw_lines, start=1):
        m = STATUS_DECL_RE.match(raw)
        if m and "[[nodiscard]]" not in raw and \
                "nodiscard" not in tu.raw_lines[lineno - 2 if lineno > 1
                                                else 0]:
            findings.add(
                tu, supp, lineno, "discarded-status",
                f"Status-returning `{m.group(1)}` is not [[nodiscard]] "
                "(and class Status itself is not marked)")


# ---------------------------------------------------------------------------
# Rule: recoverable-check
# ---------------------------------------------------------------------------

RECOVERABLE_TOKENS = ("config", "faults", "slots", "max_task_attempts",
                      "status")
RECOVERABLE_PREFIXES = ("fault_", "attempt")
RECOVERABLE_TYPES_RE = re.compile(
    r"\b(Status|ClusterConfig|FaultPlan)\b")
CHECK_MACROS_RE = re.compile(r"^DWM_CHECK(_[A-Z]+)?$")


def check_recoverable(tu, fn, supp, findings):
    toks, match = tu.toks, tu.match
    for i in range(fn.body_begin + 1, fn.body_end):
        t = toks[i]
        if t.kind != "id" or not CHECK_MACROS_RE.match(t.text):
            continue
        if t.text.startswith("DWM_AUDIT_CHECK"):
            continue
        if i + 1 >= fn.body_end or toks[i + 1].text != "(":
            continue
        close = match.get(i + 1)
        if close is None:
            continue
        cond = toks[i + 2:close]
        hit = None
        for ct in cond:
            if ct.kind != "id":
                continue
            low = ct.text.lower()
            if low in RECOVERABLE_TOKENS or \
                    any(low.startswith(p) for p in RECOVERABLE_PREFIXES):
                hit = f"condition mentions `{ct.text}`"
                break
            rtype = resolve_type(tu, fn, ct.text)
            if rtype is not None and RECOVERABLE_TYPES_RE.search(rtype):
                hit = (f"`{ct.text}` has recoverable type `{rtype}`")
                break
        if hit is None:
            continue
        returns_status = "Status" in fn.ret_type
        extra = (" (this function already returns Status — return one)"
                 if returns_status else
                 " (plumb a Status to the RunJobOr/Validate path)")
        findings.add(
            tu, supp, t.line, "recoverable-check",
            f"{t.text} on a config-/fault-driven condition in src/mr/: "
            f"{hit}; recoverable conditions must surface as a Status, "
            f"not abort{extra} — or suppress with the programmer-error "
            "argument")


# ---------------------------------------------------------------------------
# Clang JSON AST enrichment (optional)
# ---------------------------------------------------------------------------

def load_compile_commands(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def clang_json_ast(entry, clangxx):
    """Runs clang++ -ast-dump=json for one compile_commands entry; returns
    the parsed AST root or None."""
    if "arguments" in entry:
        args = list(entry["arguments"])[1:]
    else:
        args = entry.get("command", "").split()[1:]
    # Strip output options; keep includes/defines/standard.
    kept = []
    skip = False
    for a in args:
        if skip:
            skip = False
            continue
        if a in ("-o", "-MF", "-MT", "-MQ"):
            skip = True
            continue
        if a in ("-c", "-MD", "-MMD") or a.startswith("-o"):
            continue
        kept.append(a)
    cmd = [clangxx, "-fsyntax-only", "-Xclang", "-ast-dump=json", "-w",
           *kept]
    try:
        proc = subprocess.run(cmd, cwd=entry.get("directory", "."),
                              capture_output=True, text=True, timeout=600)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0 or not proc.stdout:
        return None
    try:
        return json.loads(proc.stdout)
    except ValueError:
        return None


def harvest_clang_facts(root_node, repo_root, ranges, status_names):
    """Walks a clang JSON AST in document order, tracking the sticky file
    attribute, and harvests (file, line) -> qualType for range-for ranges
    plus names of Status-returning functions."""
    state = {"file": None}

    def norm(path):
        if not path:
            return None
        ap = os.path.abspath(os.path.join(repo_root, path)) \
            if not os.path.isabs(path) else path
        try:
            rel = os.path.relpath(ap, repo_root)
        except ValueError:
            return None
        return None if rel.startswith("..") else rel

    def visit(node):
        if not isinstance(node, dict):
            return
        loc = node.get("loc") or {}
        f = loc.get("file") or (loc.get("spellingLoc") or {}).get("file")
        if f:
            state["file"] = norm(f)
        kind = node.get("kind")
        if kind == "FunctionDecl" or kind == "CXXMethodDecl":
            qt = (node.get("type") or {}).get("qualType", "")
            if re.match(r"(?:dwm::)?Status\s*\(", qt):
                name = node.get("name")
                if name:
                    status_names.add(name)
        if kind == "CXXForRangeStmt" and state["file"]:
            line = (node.get("range") or {}).get("begin", {}).get("line")
            qual = None
            for inner in node.get("inner") or []:
                if not isinstance(inner, dict):
                    continue
                if inner.get("kind") == "DeclStmt":
                    for d in inner.get("inner") or []:
                        if isinstance(d, dict) and \
                                d.get("name", "").startswith("__range"):
                            qual = (d.get("type") or {}).get("qualType")
            if line is not None and qual:
                ranges[(state["file"], line)] = qual
        for inner in node.get("inner") or []:
            visit(inner)

    visit(root_node)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

CXX_SUFFIXES = (".h", ".cc", ".cpp")


def default_sources(root):
    out = []
    for dirpath, _, names in os.walk(os.path.join(root, "src")):
        for name in sorted(names):
            if name.endswith(CXX_SUFFIXES):
                out.append(os.path.relpath(os.path.join(dirpath, name),
                                           root))
    return sorted(out)


def main():
    parser = argparse.ArgumentParser(
        description="AST-level determinism & thread-safety analyzer",
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=".", help="repository root")
    parser.add_argument("--files", nargs="*", default=None,
                        help="explicit files to analyze (default: src/)")
    parser.add_argument("--frontend", choices=("auto", "clang", "builtin"),
                        default="auto",
                        help="type-fact provider: clang JSON AST dump when "
                             "available (auto), clang required (clang), or "
                             "the built-in parser only (builtin)")
    parser.add_argument("--compile-commands", default=None,
                        help="compile_commands.json for the clang frontend "
                             "(default: <root>/build/compile_commands.json)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule names and exit")
    args = parser.parse_args()

    if args.list_rules:
        for rule in RULES:
            print(rule)
        return 0

    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"dwm_analyze: {root} does not look like the repository root "
              "(missing src/)", file=sys.stderr)
        return 2

    if args.files:
        rels = []
        for f in args.files:
            ap = os.path.abspath(f)
            rels.append(os.path.relpath(ap, root))
    else:
        rels = default_sources(root)

    tus = []
    supps = {}
    findings = Findings()
    for rel in rels:
        path = os.path.join(root, rel)
        try:
            with open(path, encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            print(f"dwm_analyze: cannot read {rel}: {e}", file=sys.stderr)
            return 2
        tu = build_tu(rel, text)
        tus.append(tu)
        supps[rel] = Suppressions(tu.raw_lines)

    # Optional clang enrichment.
    clang_ranges = {}
    clang_status_names = set()
    clangxx = shutil.which("clang++")
    want_clang = args.frontend in ("auto", "clang")
    if args.frontend == "clang" and clangxx is None:
        print("dwm_analyze: --frontend=clang but clang++ was not found",
              file=sys.stderr)
        return 2
    if want_clang and clangxx is not None:
        cc_path = args.compile_commands or os.path.join(
            root, "build", "compile_commands.json")
        commands = load_compile_commands(cc_path)
        if commands is None:
            print(f"dwm_analyze: no usable compile_commands.json at "
                  f"{cc_path}; continuing with builtin type facts",
                  file=sys.stderr)
        else:
            wanted = {os.path.abspath(os.path.join(root, r)) for r in rels}
            enriched = 0
            for entry in commands:
                src = os.path.abspath(os.path.join(
                    entry.get("directory", "."), entry.get("file", "")))
                if src not in wanted:
                    continue
                ast = clang_json_ast(entry, clangxx)
                if ast is None:
                    print(f"dwm_analyze: clang AST dump failed for "
                          f"{entry.get('file')}; builtin facts used for "
                          "this TU", file=sys.stderr)
                    continue
                harvest_clang_facts(ast, root, clang_ranges,
                                    clang_status_names)
                enriched += 1
            print(f"dwm_analyze: clang enriched {enriched} TU(s), "
                  f"{len(clang_ranges)} range-for type(s)",
                  file=sys.stderr)

    registry = collect_status_registry(tus) | clang_status_names
    class_nodiscard = status_class_is_nodiscard(tus)
    func_ret_types = {}
    for tu in tus:
        for fn in tu.functions:
            func_ret_types.setdefault(fn.name, fn.ret_type)

    for tu in tus:
        supp = supps[tu.rel_path]
        for line, message in supp.bad:
            findings.add(tu, None, line, "bad-suppression", message)
        if in_scope_dirs(tu.rel_path, ("dist", "mr")):
            for fn in tainted_functions(tu):
                check_determinism(tu, fn, supp, findings, clang_ranges,
                                  func_ret_types)
        for fn in tu.functions:
            check_lambda_capture(tu, fn, supp, findings)
        if in_scope_dirs(tu.rel_path, ("mr",)):
            for fn in tu.functions:
                check_recoverable(tu, fn, supp, findings)
        check_discarded_status(tu, supp, findings, registry,
                               class_nodiscard)

    count = findings.report()
    if count:
        print(f"dwm_analyze: {count} finding(s) "
              f"({findings.suppressed} suppressed)")
        return 1
    print(f"dwm_analyze: clean ({len(tus)} files, "
          f"{findings.suppressed} suppressed finding(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
