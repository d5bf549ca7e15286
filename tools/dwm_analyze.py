#!/usr/bin/env python3
"""dwm_analyze: determinism & thread-safety analyzer for dwmaxerr's MR paths.

dwm_lint (tools/dwm_lint.py) checks repository *invariants* with line
regexes; this tool checks contracts of the MR runtime and the distributed
drivers that need a parse. It tokenizes every translation unit (comments,
string literals and preprocessor directives are skipped, so macro
*invocations* stay visible), matches brackets, and extracts function
definitions, local/parameter declarations with their types, and lambda
expressions with their capture lists and the JobSpec field they are
assigned to.

Rules (suppress per line with `// dwm-analyze: allow(<rule>): <reason>`;
the reason is mandatory — a bare allow() is itself a finding):

  determinism       In every file under a path with a `dist` or `mr`
                    component, no code token names an
                    std::unordered_{map,set,multimap,multiset}, a
                    pointer-keyed std::{map,set,multimap,multiset},
                    std::random_device, or a wall-clock source
                    (system_clock, time(), localtime(), ...). Hash/pointer
                    iteration order and clocks are the two ways
                    byte-identical synopses, shuffles, traces and metrics
                    silently stop being byte-identical; measured time goes
                    through common/stopwatch.h's steady clock.

  lambda-capture    Closures installed into a JobSpec (.map/.reduce/
                    .partition/.split_bytes) run on the
                    thread-pool executor. None of them may mutate anything
                    captured by reference, nor a data member of the
                    enclosing class through a captured `this` (explicit,
                    or implied by a default capture): a map closure reads
                    shared state and emits task-local data, and a reduce closure
                    writes only through its `out` parameter (the driver
                    folds the job output after RunJob returns). The emit
                    callback and `out` are parameters, not captures, so
                    per-task emit buffers and reducer outputs are
                    naturally allowed.

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
                    or carries no reason.

A discarded Status is the compiler's check, not a rule here: `class
[[nodiscard]] Status` plus the unconditional `-Werror=unused-result` in
cmake/CompilerWarnings.cmake fail every build that drops one.

Exit status: 0 clean, 1 findings, 2 usage error.
"""

import argparse
import os
import re
import sys

RULES = (
    "determinism",
    "lambda-capture",
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
    def __init__(self, intro, capture_end, body_begin, body_end, role):
        self.intro = intro            # index of '['
        self.capture_end = capture_end  # index of matching ']'
        self.body_begin = body_begin  # index of '{'
        self.body_end = body_end      # index of matching '}'
        self.role = role              # JobSpec field name or None
        self.params = []              # [(name, type_text)]


class Function:
    def __init__(self, body_begin, body_end, ret_type):
        self.body_begin = body_begin
        self.body_end = body_end
        self.ret_type = ret_type
        self.params = []   # [(name, type_text)]
        self.locals = {}   # name -> (type_text, line)
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
    (`spec.map = [...]`), returns the field name; else None."""
    if intro < 3 or toks[intro - 1].text != "=":
        return None
    field = toks[intro - 2]
    if field.kind != "id" or field.text not in JOBSPEC_ROLES:
        return None
    return field.text if toks[intro - 3].text in (".", "->") else None


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
        lam = Lambda(idx, cap_end, i, body_end, lambda_role(toks, idx))
        if params_open is not None:
            lam.params = parse_params(toks, params_open, match)
        tu.lambdas.append(lam)


def classify_brace(toks, idx, match):
    """If the '{' at idx opens a function body, returns (return type text,
    index of the parameter list's '('); else None (namespace/class/enum
    scope or a plain block)."""
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
            # Skip a trailing return type `-> T` or a base-class list
            # `class X : public Y`; any other chain is a scope intro
            # (`namespace foo`, `class Bar`), not a function.
            start = parse_type_backwards(toks, i)
            before = toks[start - 1] if start > 0 else None
            if before is not None and before.text in ("->", ":"):
                i = start - 2
                continue
            return None
        break
    if i < 0:
        return None
    t = toks[i]
    if t.text == ")":
        open_paren = match.get(i)
        while open_paren is not None:
            before = toks[open_paren - 1] if open_paren > 0 else None
            if before is None:
                return None
            if before.kind == "id":
                if before.text in KEYWORDS:
                    return None
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
                            return None
                        j -= 1
                    if j < 0:
                        return None
                    open_paren = match.get(j)
                    continue
                # Return type = tokens before the (possibly qualified) name.
                name_start = open_paren - 1
                while name_start >= 2 and toks[name_start - 1].text == "::":
                    name_start -= 2
                ret_end = name_start
                ret_start = parse_type_backwards(toks, ret_end - 1) \
                    if ret_end > 0 else 0
                return (token_text(toks, ret_start, ret_end), open_paren)
            return None  # e.g. a lambda's `](...)`, handled apart
    return None


def find_functions(tu):
    toks, match = tu.toks, tu.match
    lambda_bodies = {lam.body_begin for lam in tu.lambdas}
    claimed = []  # (begin, end) of function bodies, to skip nesting
    for idx, tok in enumerate(toks):
        if tok.text != "{" or idx in lambda_bodies:
            continue
        extra = classify_brace(toks, idx, match)
        if extra is None:
            continue
        end = match.get(idx)
        if end is None:
            continue
        if any(b < idx < e for b, e in claimed):
            continue  # local struct method etc.; attribute to outer function
        ret, open_paren = extra
        fn = Function(idx, end, ret)
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


def build_tu(rel_path, text):
    tu = TU(rel_path, tokenize(text), text.splitlines())
    find_lambdas(tu)
    find_functions(tu)
    for fn in tu.functions:
        collect_locals(tu, fn)
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
            # A class's first data member after an access specifier.
            while start + 1 < i and tu.toks[start].text in (
                    "public", "private", "protected") and \
                    tu.toks[start + 1].text == ":":
                start += 2
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

UNORDERED_IDS = {"unordered_map", "unordered_set", "unordered_multimap",
                 "unordered_multiset"}
ORDERED_IDS = {"map", "set", "multimap", "multiset"}
WALL_CLOCK_IDS = {
    "system_clock", "high_resolution_clock", "gettimeofday", "localtime",
    "localtime_r", "gmtime", "strftime", "time", "clock", "ftime",
    "timespec_get",
}


def in_scope_dirs(rel_path, dirs):
    parts = rel_path.replace(os.sep, "/").split("/")
    return any(d in parts for d in dirs)


def pointer_keyed(toks, open_idx):
    """True if the template argument list opened by the '<' at open_idx
    starts with a pointer type (`std::map<const Node*, int>`)."""
    depth = 0
    for j in range(open_idx + 1, len(toks)):
        t = toks[j].text
        if t in ("<", "(", "["):
            depth += 1
        elif t in (")", "]", ">") and depth > 0 or t == ">>" and depth > 1:
            depth -= 2 if t == ">>" else 1
        elif t in (",", ">", ">>"):
            # A `>>` at depth 1 closes a nested template: the key ends `>`.
            return depth == 0 and toks[j - 1].text == "*"
        elif t in (";", "{", "}"):
            return False
    return False


def check_determinism(tu, supp, findings):
    toks = tu.toks
    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        prev = toks[i - 1] if i > 0 else None
        nxt = toks[i + 1] if i + 1 < len(toks) else None
        if prev is not None and prev.text in (".", "->"):
            continue  # a member named `map`/`time`/..., not the library name
        if t.text in UNORDERED_IDS:
            findings.add(
                tu, supp, t.line, "determinism",
                f"std::{t.text} in a dist/mr path; hash iteration order is "
                "unspecified — use std::map/std::set or a sorted vector")
        elif t.text in ORDERED_IDS and nxt is not None and \
                nxt.text == "<" and pointer_keyed(toks, i + 1):
            findings.add(
                tu, supp, t.line, "determinism",
                f"pointer-keyed std::{t.text} in a dist/mr path; pointer "
                "order varies run to run — key by a stable id")
        elif t.text == "random_device":
            findings.add(
                tu, supp, t.line, "determinism",
                "std::random_device in a dist/mr path; seed from "
                "configuration (common/rng.h) instead")
        elif t.text in WALL_CLOCK_IDS:
            is_call = nxt is not None and nxt.text == "("
            is_clock_type = t.text.endswith("_clock") and prev is not None \
                and prev.text == "::"
            if is_call or is_clock_type:
                findings.add(
                    tu, supp, t.line, "determinism",
                    f"wall-clock source `{t.text}` in a dist/mr path; "
                    "measured time may only feed kMeasured metrics via "
                    "common/stopwatch.h")



# ---------------------------------------------------------------------------
# Rule: lambda-capture
# ---------------------------------------------------------------------------

def parse_captures(toks, lam):
    """Returns (default_capture, by_ref_names, by_value_names,
    captures_this)."""
    default = None
    by_ref = set()
    by_val = set()
    captures_this = False
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
        if t.text == "this" and toks[i - 1].text != "*":
            captures_this = True
        elif t.kind == "id" and t.text != "this":
            by_val.add(t.text)
        i += 1
    return default, by_ref, by_val, captures_this


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
        default, by_ref, by_val, captures_this = parse_captures(tu.toks, lam)
        # A default capture also captures `this` inside a member function,
        # so the enclosing class's data members are shared state too. They
        # are found among the declarations outside any function body.
        members = captures_this or default is not None
        if default != "&" and not by_ref and not members:
            continue
        local_names, ref_aliases = lambda_local_names(tu, lam)
        enclosing = set(fn.locals) | {p for p, _ in fn.params if p}
        for root, line, how in find_mutations(tu, lam):
            base = ref_aliases.get(root, root)
            if base in local_names or base in by_val:
                continue
            captured = base in by_ref or (default == "&" and
                                          base in enclosing)
            if not captured and not (members and base not in enclosing and
                                     base in tu.file_decls):
                continue
            what = (f"by-reference capture `{base}`" if captured else
                    f"member `{base}` through captured `this`")
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
                f"{lam.role} lambda mutates {what} ({how}); {why}")


# ---------------------------------------------------------------------------
# Rule: recoverable-check
# ---------------------------------------------------------------------------

RECOVERABLE_TOKENS = ("config", "faults", "slots", "max_task_attempts",
                      "status")
RECOVERABLE_PREFIXES = ("fault_", "attempt")
RECOVERABLE_TYPES_RE = re.compile(
    r"\b(Status|ClusterConfig|FaultPlan)\b")
CHECK_MACROS_RE = re.compile(r"^DWM_CHECK(_[A-Z]+)?$")


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
        description="Determinism & thread-safety analyzer for MR paths",
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=".", help="repository root")
    parser.add_argument("--files", nargs="*", default=None,
                        help="explicit files to analyze (default: src/)")
    args = parser.parse_args()

    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"dwm_analyze: {root} does not look like the repository root "
              "(missing src/)", file=sys.stderr)
        return 2

    if args.files:
        rels = [os.path.relpath(os.path.abspath(f), root) for f in args.files]
    else:
        rels = default_sources(root)

    findings = Findings()
    for rel in rels:
        try:
            with open(os.path.join(root, rel), encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            print(f"dwm_analyze: cannot read {rel}: {e}", file=sys.stderr)
            return 2
        tu = build_tu(rel, text)
        supp = Suppressions(tu.raw_lines)
        for line, message in supp.bad:
            findings.add(tu, None, line, "bad-suppression", message)
        if in_scope_dirs(rel, ("dist", "mr")):
            check_determinism(tu, supp, findings)
        for fn in tu.functions:
            check_lambda_capture(tu, fn, supp, findings)
        if in_scope_dirs(rel, ("mr",)):
            for fn in tu.functions:
                check_recoverable(tu, fn, supp, findings)

    count = findings.report()
    if count:
        print(f"dwm_analyze: {count} finding(s) "
              f"({findings.suppressed} suppressed)")
        return 1
    print(f"dwm_analyze: clean ({len(rels)} files, "
          f"{findings.suppressed} suppressed finding(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
