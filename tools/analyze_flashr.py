#!/usr/bin/env python3
"""Whole-program concurrency analyzer for the FlashR engine tree.

Enforces three cross-function rule families over a call graph of the engine
(things the per-function clang thread-safety analysis and the regex lint
cannot see):

  lock-rank       Every flashr::mutex declares a rank from the table in
                  src/common/thread_safety.h (LOCK_RANK).  Held-lock sets
                  are propagated through the call graph; any path that
                  acquires a lock whose rank is not STRICTLY greater than
                  every held rank is a potential deadlock and is reported
                  with the full call chain.

  nonblocking     Functions marked FLASHR_NONBLOCKING (async-I/O completion
                  callbacks, trace-ring record paths, watchdog poll bodies)
                  must not reach a blocking operation: locking a mutex whose
                  rank is not nonblocking_safe, a condition-variable wait, a
                  thread join/sleep, direct heap allocation (new / malloc
                  family / make_shared / make_unique), file I/O, or logging.
                  Calling another FLASHR_NONBLOCKING function is fine (it is
                  verified on its own); FLASHR_BLOCKING_EXEMPT("why") stops
                  the descent (use sparingly, with the reason in the code).

  signal-safe     Functions marked FLASHR_SIGNAL_SAFE (the sampler's SIGPROF
                  handler, obs/sampler.cpp, and everything it reaches) run
                  inside a signal handler, where the interrupted thread can
                  hold ANY lock — including malloc's.  Strictly stronger
                  than nonblocking: no mutex of any rank (nonblocking_safe
                  does not help — the interrupted thread may hold that very
                  mutex), no allocation, no logging, no blocking call other
                  than the raw write/pwrite/read/pread/fsync/fdatasync/close
                  family.  Calling another FLASHR_SIGNAL_SAFE function is
                  fine (verified on its own); FLASHR_BLOCKING_EXEMPT does
                  NOT stop this descent.

  pool-discipline buffer_pool::get() results must live in a pool_buffer
                  RAII handle: a `.data()` chained off the temporary dangles
                  (the buffer bounces straight back to the pool), a
                  discarded get() is a pointless round-trip, `new
                  pool_buffer` escapes RAII (leaks on early return/throw),
                  and direct put() calls outside src/mem are a bypass of
                  the handle protocol.

  unranked-mutex  A flashr::mutex declared in src/ without LOCK_RANK.

Two frontends produce the same IR:

  clang   (--compdb build/compile_commands.json) parses `clang -Xclang
          -ast-dump=json` output per translation unit, cached by source
          hash under --cache-dir.  This is what the CI static-analysis job
          runs.
  source  a conservative C++ source-level parser (comment/string stripping,
          brace matching, lambda lifting).  No toolchain needed; this is
          what the ctest wiring runs, and the fallback when clang is absent.

Both share the annotation/lock tables, which are extracted from source text
(the LOCK_RANK / FLASHR_NONBLOCKING / FLASHR_BLOCKING_EXEMPT /
FLASHR_SIGNAL_SAFE / REQUIRES macros are project-controlled, and lock field
names are unique repo-wide, so text extraction is exact).

Documented soundness limits (see DESIGN.md §12): indirect calls through
std::function are opaque; std container/string growth is not counted as
heap allocation (only direct new/malloc/make_shared/make_unique); abort
paths (FLASHR_ASSERT / FLASHR_DCHECK / assert_fail) are exempt everywhere.

Usage:
  analyze_flashr.py [--root DIR] [--frontend auto|source|clang]
                    [--compdb FILE] [--cache-dir DIR] [--json-out FILE]
  analyze_flashr.py --self-test         run the rules over analyzer_fixtures
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

SRC_EXTS = {".cpp", ".h", ".hpp", ".cc"}

# ---------------------------------------------------------------------------
# Shared IR
# ---------------------------------------------------------------------------


class LockDecl:
    def __init__(self, field: str, rank_name: str, rank_value: int,
                 nb_safe: bool, file: str, line: int):
        self.field = field
        self.rank_name = rank_name
        self.rank_value = rank_value
        self.nb_safe = nb_safe
        self.file = file
        self.line = line


class Op:
    """One ordered event in a function body.

    kind: 'acquire' (detail = lock field or '?<expr>'), 'release' (detail =
    lock field), 'call' (detail = callee base name), 'block' (detail =
    human-readable blocking-op description, sym = the raw callee symbol so
    the signal-safe rule can whitelist the write/fsync family that the
    coarser 'file I/O' description lumps together).
    """

    def __init__(self, kind: str, detail: str, line: int, sym: str = ""):
        self.kind = kind
        self.detail = detail
        self.line = line
        self.sym = sym


class Func:
    def __init__(self, name: str, cls: str, file: str, line: int):
        self.name = name            # base name
        self.cls = cls              # enclosing class ('' for free functions)
        self.file = file
        self.line = line
        self.attrs: set[str] = set()  # 'nonblocking', 'exempt', 'signal_safe'
        self.requires: list[str] = []     # lock fields held on entry
        self.ops: list[Op] = []

    @property
    def qual(self) -> str:
        return f"{self.cls}::{self.name}" if self.cls else self.name


class Finding:
    def __init__(self, rule: str, file: str, line: int, msg: str,
                 chain: list[tuple[str, str, int]] | None = None):
        self.rule = rule
        self.file = file
        self.line = line
        self.msg = msg
        self.chain = chain or []

    def key(self):
        return (self.rule, self.file, self.line, self.msg)

    def __str__(self) -> str:
        out = f"{self.file}:{self.line}: [{self.rule}] {self.msg}"
        if len(self.chain) > 1:
            out += "\n  call chain:"
            for qual, file, line in self.chain:
                out += f"\n    {qual} ({file}:{line})"
        return out

    def to_json(self):
        return {"rule": self.rule, "file": self.file, "line": self.line,
                "message": self.msg,
                "chain": [{"function": q, "file": f, "line": l}
                          for q, f, l in self.chain]}


# ---------------------------------------------------------------------------
# Source text utilities
# ---------------------------------------------------------------------------


def strip_comments_strings(text: str) -> str:
    """Blank comments and string/char literals, preserving newlines."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            i += 2
            continue
        if c in "\"'":
            quote = c
            # Heuristic: a single quote between digits is a separator
            # (1'000'000), not a char literal.
            if (quote == "'" and i > 0 and text[i - 1].isdigit()
                    and nxt.isdigit()):
                out.append(" ")
                i += 1
                continue
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                    out.append(" ")
                if i < n:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            i += 1
            out.append(" ")
            continue
        out.append(c)
        i += 1
    return "".join(out)


def match_paren(text: str, open_idx: int, open_ch="(", close_ch=")") -> int:
    """Index just past the matching close for text[open_idx] == open_ch."""
    depth = 0
    i = open_idx
    n = len(text)
    while i < n:
        c = text[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def line_of(text: str, idx: int) -> int:
    return text.count("\n", 0, idx) + 1


# ---------------------------------------------------------------------------
# Annotation / lock / rank tables (extracted from source text; shared by
# both frontends)
# ---------------------------------------------------------------------------

RANK_ROW_RE = re.compile(
    r"inline\s+constexpr\s+rank_t\s+(\w+)\s*\{\s*(\d+)\s*,\s*\"(\w+)\"\s*,"
    r"\s*(true|false)\s*\}")

LOCK_DECL_RE = re.compile(
    r"(?<![:\w])(?:mutable\s+)?mutex\s+(\w+)\s+LOCK_RANK\s*\(\s*(\w+)\s*\)")
UNRANKED_DECL_RE = re.compile(r"(?<![:\w])(?:mutable\s+)?mutex\s+(\w+)\s*;")

def parse_rank_table(root: pathlib.Path) -> tuple[dict, list[Finding]]:
    """Parse the lock_rank table out of src/common/thread_safety.h."""
    path = root / "src" / "common" / "thread_safety.h"
    ranks: dict[str, tuple[int, bool]] = {}
    findings: list[Finding] = []
    if not path.is_file():
        findings.append(Finding("config", str(path), 0,
                                "thread_safety.h not found; no rank table"))
        return ranks, findings
    text = path.read_text(encoding="utf-8", errors="replace")
    seen_values: dict[int, str] = {}
    for m in RANK_ROW_RE.finditer(text):
        name, value, sname, nb = m.group(1), int(m.group(2)), m.group(3), \
            m.group(4) == "true"
        rel = "src/common/thread_safety.h"
        if name != sname:
            findings.append(Finding(
                "config", rel, line_of(text, m.start()),
                f"rank '{name}' string name '{sname}' mismatches"))
        if name in ranks:
            findings.append(Finding(
                "config", rel, line_of(text, m.start()),
                f"duplicate rank name '{name}'"))
        if value in seen_values:
            findings.append(Finding(
                "config", rel, line_of(text, m.start()),
                f"rank value {value} reused by '{name}' and "
                f"'{seen_values[value]}'"))
        seen_values[value] = name
        ranks[name] = (value, nb)
    if not ranks:
        findings.append(Finding("config", "src/common/thread_safety.h", 0,
                                "no lock_rank table entries parsed"))
    return ranks, findings


def iter_source_files(root: pathlib.Path, subdirs=("src",)):
    for sub in subdirs:
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in SRC_EXTS and path.is_file():
                yield path


def build_lock_table(files, ranks, root: pathlib.Path):
    """Lock declarations (field -> LockDecl) + unranked-mutex findings.

    Lock identity is the declared field name, which the project keeps
    unique repo-wide exactly so both frontends can resolve a lock site
    without type information; duplicates are reported as config findings.
    """
    locks: dict[str, LockDecl] = {}
    findings: list[Finding] = []
    for path in files:
        rel = path.relative_to(root).as_posix()
        if rel == "src/common/thread_safety.h":
            continue
        text = strip_comments_strings(
            path.read_text(encoding="utf-8", errors="replace"))
        for m in LOCK_DECL_RE.finditer(text):
            field, rank_name = m.group(1), m.group(2)
            line = line_of(text, m.start())
            if rank_name not in ranks:
                findings.append(Finding(
                    "config", rel, line,
                    f"mutex '{field}' uses unknown rank '{rank_name}'"))
                continue
            value, nb = ranks[rank_name]
            if field in locks:
                prev = locks[field]
                findings.append(Finding(
                    "config", rel, line,
                    f"lock field name '{field}' reused (also declared at "
                    f"{prev.file}:{prev.line}); lock fields must be unique "
                    f"repo-wide so lock sites resolve unambiguously"))
                continue
            locks[field] = LockDecl(field, rank_name, value, nb, rel, line)
        for m in UNRANKED_DECL_RE.finditer(text):
            field = m.group(1)
            line = line_of(text, m.start())
            findings.append(Finding(
                "unranked-mutex", rel, line,
                f"flashr::mutex '{field}' has no LOCK_RANK; every mutex in "
                f"src/ must declare its rank"))
    return locks, findings


# ---------------------------------------------------------------------------
# Source frontend: function extraction + body op scan
# ---------------------------------------------------------------------------

KEYWORDS = {
    "if", "for", "while", "switch", "return", "catch", "sizeof", "alignof",
    "decltype", "static_assert", "throw", "case", "do", "else", "new",
    "delete", "co_await", "co_return", "alignas", "noexcept", "assert",
    "defined", "typeid", "operator",
}

# Method/function names never resolved to project functions (std-library
# surface that shadows project names: .clear() is a container, not
# fault_injector::clear).  Calls to these are opaque unless classified as
# blocking below.
STD_NAMES = {
    "clear", "push_back", "pop_back", "push_front", "pop_front", "erase",
    "insert", "emplace", "emplace_back", "find", "at", "count", "size",
    "empty", "begin", "end", "rbegin", "rend", "front", "back", "reserve",
    "resize", "assign", "swap", "data", "c_str", "str", "append", "substr",
    "load", "store", "exchange", "fetch_add", "fetch_sub", "compare_exchange_weak",
    "compare_exchange_strong", "notify_all", "notify_one", "lock", "unlock",
    "try_lock", "move", "forward", "max", "min", "clamp", "get", "reset",
    "joinable", "detach", "valid", "first", "second", "to_string", "stoi",
    "stoul", "stoull", "snprintf", "memcpy", "memset", "memcmp", "strlen",
    "now", "time_since_epoch", "duration_cast", "nanoseconds",
    "milliseconds", "microseconds", "seconds", "abs", "ceil", "floor",
    "sqrt", "pow", "exp", "log", "make_pair", "make_tuple", "tie",
    "current_exception", "rethrow_exception", "make_exception_ptr",
    "uncaught_exceptions", "what", "push", "pop", "top", "emplace_front",
    "getenv", "atoi", "rand", "exit", "abort", "free",
}

# Abort paths are exempt from every rule (failing fast is acceptable in any
# context, and FLASHR_ASSERT / FLASHR_DCHECK guard them).
ABORT_NAMES = {"assert_fail", "FLASHR_ASSERT", "FLASHR_DCHECK",
               "FLASHR_CHECK", "terminate"}

# OBS_* trace macros funnel into obs::emit (blocking-exempt with a
# documented pre-registration protocol).
OBS_MACROS = {"OBS_SPAN", "OBS_SPAN_ARG", "OBS_INSTANT", "OBS_COUNTER"}

BLOCKING_NAMES = {
    "wait": "condition-variable wait",
    "wait_for": "condition-variable wait",
    "wait_until": "condition-variable wait",
    "join": "thread join",
    "sleep_for": "sleep",
    "sleep_until": "sleep",
    "usleep": "sleep",
    "nanosleep": "sleep",
    "read": "file I/O",
    "write": "file I/O",
    "pread": "file I/O",
    "pwrite": "file I/O",
    "fsync": "file I/O",
    "fdatasync": "file I/O",
    "fopen": "file I/O",
    "fread": "file I/O",
    "fwrite": "file I/O",
    "fclose": "file I/O",
    "fflush": "file I/O",
    "FLASHR_WARN": "logging",
    "FLASHR_INFO": "logging",
    "FLASHR_LOG": "logging",
    "FLASHR_DEBUG": "logging",
    "printf": "logging",
    "fprintf": "logging",
    "puts": "logging",
    "fputs": "logging",
}

ALLOC_NAMES = {"malloc", "calloc", "realloc", "aligned_alloc",
               "make_shared", "make_unique", "strdup",
               "aligned_alloc_bytes"}

ACQUIRE_DECL_RE = re.compile(
    r"\b(?:mutex_lock|std::lock_guard\s*<[^>]*>|std::unique_lock\s*<[^>]*>"
    r"|std::scoped_lock\s*<[^>]*>)\s+(\w+)\s*[({]([^;]*?)[)}]\s*;")
LAST_IDENT_RE = re.compile(r"([A-Za-z_]\w*)\s*$")
CALL_RE = re.compile(r"(\.|->)?\s*((?:\w+::)*[A-Za-z_]\w*)\s*\(")
NEW_RE = re.compile(r"\bnew\b\s*(?:\([^)]*\)\s*)?([A-Za-z_][\w:]*)?")


def lift_lambdas(body: str):
    """Replace lambda bodies with spaces; return (body', [(idx, text)]).

    A lambda body is analyzed as its own root function (its ops execute in
    whatever context later invokes it, not in the enclosing function)."""
    lifted = []
    out = list(body)
    i, n = 0, len(body)
    while i < n:
        if body[i] != "[":
            i += 1
            continue
        # Lambda intro vs subscript: look at the previous non-space char.
        j = i - 1
        while j >= 0 and body[j] in " \t\n":
            j -= 1
        prev = body[j] if j >= 0 else "("
        prev_word = re.search(r"(\w+)$", body[max(0, j - 10):j + 1])
        is_intro = prev in "(,={;:<>?!&|+-*" or (
            prev_word and prev_word.group(1) in {"return", "case"})
        if not is_intro:
            i += 1
            continue
        close = match_paren(body, i, "[", "]")
        k = close
        while k < n and body[k] in " \t\n":
            k += 1
        if k < n and body[k] == "(":
            k = match_paren(body, k)
            while k < n and body[k] in " \t\n":
                k += 1
            # skip mutable / noexcept / -> type
            while k < n and body[k] != "{" and body[k] != ";":
                k += 1
        if k >= n or body[k] != "{":
            i = close
            continue
        bend = match_paren(body, k, "{", "}")
        lifted.append((k + 1, body[k + 1:bend - 1]))
        for p in range(i, bend):
            if body[p] != "\n":
                out[p] = " "
        i = bend
    return "".join(out), lifted


def scan_ops(body: str, base_line: int, fn: Func, locks: dict):
    """Scan one (lambda-free) body into ordered ops with scope tracking."""
    # First, locate scoped-lock declarations and map var -> lock field.
    acquires = []  # (start_idx, end_idx, var, lockfield, depth_at_decl)
    masked = list(body)
    for m in ACQUIRE_DECL_RE.finditer(body):
        var, arg = m.group(1), m.group(2)
        lm = LAST_IDENT_RE.search(arg.strip())
        field = lm.group(1) if lm else f"?{arg.strip()}"
        acquires.append((m.start(), m.end(), var, field))
        for p in range(m.start(), m.end()):
            if body[p] != "\n":
                masked[p] = " "
    masked = "".join(masked)

    events = []  # (idx, op) collected, then sorted
    lockvars: dict[str, str] = {v: f for _, _, v, f in acquires}

    for start, _end, _var, field in acquires:
        events.append((start, Op("acquire", field,
                                 base_line + line_of(body, start) - 1)))

    # Explicit lock/unlock on scoped-lock vars (cond-wait relock, the
    # watchdog trip path).
    for m in re.finditer(r"\b(\w+)\s*\.\s*(lock|unlock)\s*\(\s*\)", masked):
        var, what = m.group(1), m.group(2)
        if var not in lockvars:
            continue
        kind = "acquire" if what == "lock" else "release"
        events.append((m.start(), Op(kind, lockvars[var],
                                     base_line + line_of(body, m.start()) - 1)))

    for m in NEW_RE.finditer(masked):
        events.append((m.start(),
                       Op("block", "heap allocation (new)",
                          base_line + line_of(body, m.start()) - 1)))

    for m in CALL_RE.finditer(masked):
        full = m.group(2)
        base = full.split("::")[-1]
        is_method = m.group(1) is not None
        qual = full.split("::")[-2] if "::" in full else ""
        pos = m.start(2)  # anchor on the identifier, not the \s* prefix
        line = base_line + line_of(body, pos) - 1
        if base in KEYWORDS or base in ABORT_NAMES:
            continue
        if base in OBS_MACROS:
            events.append((pos, Op("call", "emit", line)))
            continue
        if base in BLOCKING_NAMES:
            # cv waits: only on condition variables / futures; a method
            # call or free call both count.  read/write only as methods or
            # :: calls on file-ish receivers is too subtle — count them all
            # and rely on names (the engine funnels I/O through safs).
            events.append((pos,
                           Op("block", BLOCKING_NAMES[base], line, sym=base)))
            continue
        if base in ALLOC_NAMES:
            events.append((pos,
                           Op("block", f"heap allocation ({base})", line,
                              sym=base)))
            continue
        if base in STD_NAMES:
            continue
        # Encode how the call site names its target so resolution can
        # restrict candidates: "this->base" = own-class member call,
        # "!base" = member call through a named other object, ".base" =
        # member call through a complex expression, "Qual::base" =
        # qualified, "base" = plain.
        if is_method:
            recv = LAST_IDENT_RE.search(masked[:m.start(1)])
            if recv and recv.group(1) == "this":
                detail = "this->" + base
            elif recv:
                detail = "!" + base
            else:
                detail = "." + base
        elif qual:
            detail = qual + "::" + base
        else:
            detail = base
        events.append((pos, Op("call", detail, line)))

    # Scope tracking: close scoped-lock regions when their block ends.
    open_locks = []  # (depth, field, decl_idx)
    acquire_starts = {s: f for s, _e, _v, f in acquires}
    depth = 0
    evq = sorted(events, key=lambda e: e[0])
    out_ops: list[Op] = []
    ei = 0
    for idx, ch in enumerate(body):
        while ei < len(evq) and evq[ei][0] <= idx:
            op = evq[ei][1]
            out_ops.append(op)
            if evq[ei][0] in acquire_starts and op.kind == "acquire":
                open_locks.append((depth, op.detail))
            ei += 1
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            while open_locks and open_locks[-1][0] > depth:
                _d, field = open_locks.pop()
                out_ops.append(Op("release", field,
                                  base_line + line_of(body, idx) - 1))
    while ei < len(evq):
        out_ops.append(evq[ei][1])
        ei += 1
    fn.ops = out_ops


FUNC_HEAD_RE = re.compile(r"((?:\w+::)*~?\w+)\s*\(")
CLASS_RE = re.compile(r"\b(?:class|struct)\s+(\w+)[^;{(]*\{")
REQUIRES_ARGS_RE = re.compile(r"\bREQUIRES\s*\(([^)]*)\)")

# Leading attribute macros that precede a function definition.
LEADING_ATTR_MACROS = {"FLASHR_BLOCKING_EXEMPT": "exempt",
                       "FLASHR_ANNOTATE": None}

# Object-like attribute macros (no parens, so FUNC_HEAD_RE cannot see them)
# that may precede a definition: `FLASHR_SIGNAL_SAFE void f(...) { ... }`.
LEADING_BARE_ATTR_RE = re.compile(
    r"(FLASHR_SIGNAL_SAFE|FLASHR_NONBLOCKING)\b")
LEADING_BARE_ATTRS = {"FLASHR_SIGNAL_SAFE": "signal_safe",
                      "FLASHR_NONBLOCKING": "nonblocking"}


def parse_functions_source(text: str, rel: str, locks: dict,
                           attr_sink: dict | None = None,
                           req_sink: dict | None = None):
    """Extract function definitions (including inline members and lifted
    lambdas) from one stripped source file.

    Declarations (ending in ';') contribute their FLASHR_NONBLOCKING /
    FLASHR_BLOCKING_EXEMPT / REQUIRES annotations to attr_sink/req_sink,
    keyed by (class, name) — GNU attributes are only legal on declarations,
    so definitions pick their annotations up from here."""
    funcs: list[Func] = []
    pending_attrs: set[str] = set()
    class_stack: list[tuple[str, int]] = []  # (name, depth_at_open)
    depth = 0
    i, n = 0, len(text)
    class_opens = {}
    for m in CLASS_RE.finditer(text):
        brace = text.index("{", m.end() - 1)
        class_opens[brace] = m.group(1)

    def current_class():
        return class_stack[-1][0] if class_stack else ""

    while i < n:
        c = text[i]
        if c == "{":
            if i in class_opens:
                class_stack.append((class_opens[i], depth))
            depth += 1
            i += 1
            continue
        if c == "}":
            depth -= 1
            if class_stack and depth == class_stack[-1][1]:
                class_stack.pop()
            i += 1
            continue
        if c == "F" and (i == 0 or not (text[i - 1].isalnum()
                                        or text[i - 1] in "_:.")):
            bm = LEADING_BARE_ATTR_RE.match(text, i)
            if bm:
                pending_attrs.add(LEADING_BARE_ATTRS[bm.group(1)])
                i = bm.end()
                continue
        m = FUNC_HEAD_RE.match(text, i)
        if not m or not (i == 0 or not (text[i - 1].isalnum()
                                        or text[i - 1] in "_:.")):
            i += 1
            continue
        name_full = m.group(1)
        base = name_full.split("::")[-1]
        if base in LEADING_ATTR_MACROS:
            attr = LEADING_ATTR_MACROS[base]
            if attr:
                pending_attrs.add(attr)
            i = match_paren(text, m.end() - 1)
            continue
        if base in KEYWORDS or base in STD_NAMES:
            i = m.end()
            continue
        close = match_paren(text, m.end() - 1)
        # Walk the post-parameter region: qualifiers, attributes, an init
        # list — a definition ends at '{', a declaration at ';'.
        k = close
        body_start = -1
        while k < n:
            ch = text[k]
            if ch == ";":
                break
            if ch == "{":
                body_start = k
                break
            if ch == "(":            # noexcept(...), REQUIRES(...), attrs
                k = match_paren(text, k)
                continue
            if ch == ":":            # ctor init list
                k += 1
                while k < n:
                    while k < n and text[k] in " \t\n,":
                        k += 1
                    w = re.match(r"[\w:<>]+", text[k:])
                    if not w:
                        break
                    k += w.end()
                    while k < n and text[k] in " \t\n":
                        k += 1
                    if k < n and text[k] == "(":
                        k = match_paren(text, k)
                    elif k < n and text[k] == "{":
                        k = match_paren(text, k, "{", "}")
                    while k < n and text[k] in " \t\n":
                        k += 1
                    if k < n and text[k] == ",":
                        continue
                    break
                continue
            if ch in "=)":           # = default / = delete / = 0
                # a '=' before ';' means no body
                k += 1
                continue
            k += 1
        cls = current_class()
        if "::" in name_full:
            cls = name_full.split("::")[-2]
        region = text[close:body_start if body_start >= 0 else k]
        sink_key = (cls, base)
        if attr_sink is not None:
            got = set(pending_attrs)
            if "FLASHR_NONBLOCKING" in region:
                got.add("nonblocking")
            if "FLASHR_BLOCKING_EXEMPT" in region:
                got.add("exempt")
            if "FLASHR_SIGNAL_SAFE" in region:
                got.add("signal_safe")
            if got:
                attr_sink.setdefault(sink_key, set()).update(got)
        if req_sink is not None:
            for rm in REQUIRES_ARGS_RE.finditer(region):
                fields = [f.strip().split(".")[-1].split("->")[-1]
                          for f in rm.group(1).split(",")]
                req_sink.setdefault(sink_key, []).extend(
                    f for f in fields if f)
        pending_attrs.clear()
        if body_start < 0:
            # Skip to the end of the declaration: re-walking the trailing
            # qualifier/attribute region would hand its bare attribute
            # tokens (FLASHR_SIGNAL_SAFE, ...) to the NEXT function.
            i = k if k > close else close
            continue
        body_end = match_paren(text, body_start, "{", "}")
        body = text[body_start + 1:body_end - 1]
        fn = Func(base, cls, rel, line_of(text, i))
        body_no_lambdas, lifted = lift_lambdas(body)
        scan_ops(body_no_lambdas, line_of(text, body_start + 1), fn, locks)
        funcs.append(fn)
        for off, lam_body in lifted:
            lam_line = line_of(text, body_start + 1 + off)
            lam = Func(f"<lambda:{rel}:{lam_line}>", cls, rel, lam_line)
            lam_clean, nested = lift_lambdas(lam_body)
            scan_ops(lam_clean, lam_line, lam, locks)
            funcs.append(lam)
            for noff, nbody in nested:
                nline = lam_line + lam_body[:noff].count("\n")
                nl = Func(f"<lambda:{rel}:{nline}>", cls, rel, nline)
                nclean, _ = lift_lambdas(nbody)
                scan_ops(nclean, nline, nl, locks)
                funcs.append(nl)
        i = body_end
    return funcs


def source_frontend(files, root: pathlib.Path, locks: dict):
    funcs: list[Func] = []
    for path in files:
        rel = path.relative_to(root).as_posix()
        if rel == "src/common/thread_safety.h":
            continue  # the lock primitive itself
        text = strip_comments_strings(
            path.read_text(encoding="utf-8", errors="replace"))
        funcs.extend(parse_functions_source(text, rel, locks))
    return funcs


# ---------------------------------------------------------------------------
# Clang JSON AST frontend
# ---------------------------------------------------------------------------


def find_clang():
    for cand in ("clang++", "clang", "clang++-18", "clang++-17",
                 "clang++-16"):
        try:
            subprocess.run([cand, "--version"], capture_output=True,
                           check=True)
            return cand
        except (OSError, subprocess.CalledProcessError):
            continue
    return None


def ast_dump_for_tu(entry: dict, cache_dir: pathlib.Path, clang: str):
    """Return the parsed JSON AST for one compile_commands entry, cached by
    source hash + command."""
    src = pathlib.Path(entry["directory"]) / entry["file"]
    if not src.is_file():
        return None
    if "arguments" in entry:
        args = list(entry["arguments"])
    else:
        args = shlex.split(entry["command"])
    # Rebuild the command as a syntax-only AST dump.
    out_args = [clang]
    skip = 0
    for a in args[1:]:
        if skip:
            skip -= 1
            continue
        if a == "-o":
            skip = 1
            continue
        if a in ("-c", "-MMD", "-MD") or a.startswith(("-M", "-o")):
            continue
        out_args.append(a)
    out_args += ["-fsyntax-only", "-Xclang", "-ast-dump=json",
                 "-Wno-everything"]
    key = hashlib.sha256(
        src.read_bytes() + "\0".join(out_args).encode()).hexdigest()
    cache_file = cache_dir / f"{src.name}.{key[:16]}.json.gz"
    if cache_file.is_file():
        try:
            with gzip.open(cache_file, "rt", encoding="utf-8") as f:
                return json.load(f)
        except (OSError, json.JSONDecodeError):
            pass
    proc = subprocess.run(out_args, cwd=entry["directory"],
                          capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout:
        sys.stderr.write(f"analyze_flashr: AST dump failed for {src}:\n"
                         f"{proc.stderr[:2000]}\n")
        return None
    try:
        ast = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return None
    cache_dir.mkdir(parents=True, exist_ok=True)
    with gzip.open(cache_file, "wt", encoding="utf-8") as f:
        json.dump(ast, f)
    return ast


class AstWalker:
    """Walks a clang JSON AST, tracking clang's sticky file/line location
    encoding (file/line appear only when they change)."""

    def __init__(self, root: pathlib.Path, locks: dict):
        self.root = root
        self.locks = locks
        self.funcs: list[Func] = []
        self.cur_file = ""
        self.cur_line = 0
        self.seen: set[tuple] = set()

    def upd_loc(self, node):
        loc = node.get("loc") or {}
        sp = loc.get("spellingLoc") or loc
        if "file" in sp:
            self.cur_file = sp["file"]
        if "line" in sp:
            self.cur_line = sp["line"]

    def rel_file(self):
        try:
            p = pathlib.Path(self.cur_file).resolve()
            return p.relative_to(self.root.resolve()).as_posix()
        except ValueError:
            return self.cur_file

    def walk(self, node, cls=""):
        if not isinstance(node, dict):
            return
        self.upd_loc(node)
        kind = node.get("kind", "")
        if kind in ("CXXRecordDecl", "ClassTemplateDecl"):
            cls = node.get("name", cls) or cls
        if kind in ("FunctionDecl", "CXXMethodDecl", "CXXConstructorDecl",
                    "CXXDestructorDecl", "CXXConversionDecl"):
            body = next((c for c in node.get("inner", [])
                         if isinstance(c, dict)
                         and c.get("kind") == "CompoundStmt"), None)
            if body is not None:
                rel = self.rel_file()
                if rel.startswith("src/") and \
                        rel != "src/common/thread_safety.h":
                    key = (node.get("name", ""), rel, self.cur_line)
                    if key not in self.seen:
                        self.seen.add(key)
                        fn = Func(node.get("name", "?"), cls, rel,
                                  self.cur_line)
                        self.extract_ops(body, fn)
                        self.funcs.append(fn)
                return  # ops inside are owned by the function
        if kind == "LambdaExpr":
            body = next((c for c in reversed(node.get("inner", []))
                         if isinstance(c, dict)
                         and c.get("kind") == "CompoundStmt"), None)
            rel = self.rel_file()
            if body is not None and rel.startswith("src/"):
                fn = Func(f"<lambda:{rel}:{self.cur_line}>", cls, rel,
                          self.cur_line)
                self.extract_ops(body, fn)
                self.funcs.append(fn)
            return
        for c in node.get("inner", []) or []:
            self.walk(c, cls)

    # -- op extraction ------------------------------------------------------

    def find_lock_field(self, node):
        """First known lock field named anywhere under `node`."""
        if isinstance(node, dict):
            if node.get("kind") in ("MemberExpr",):
                name = node.get("name", "")
                if name in self.locks:
                    return name
            if node.get("kind") == "DeclRefExpr":
                ref = node.get("referencedDecl") or {}
                if ref.get("name", "") in self.locks:
                    return ref["name"]
            for c in node.get("inner", []) or []:
                got = self.find_lock_field(c)
                if got:
                    return got
        return None

    def callee_name(self, node):
        """Callee base name of a CallExpr-ish node."""
        inner = node.get("inner", []) or []
        if not inner:
            return None
        head = inner[0]

        def hunt(nd, depth=0):
            if not isinstance(nd, dict) or depth > 6:
                return None
            if nd.get("kind") == "DeclRefExpr":
                ref = nd.get("referencedDecl") or {}
                return ref.get("name")
            if nd.get("kind") == "MemberExpr":
                nm = nd.get("name")
                if nm:
                    return nm
            for c in nd.get("inner", []) or []:
                got = hunt(c, depth + 1)
                if got:
                    return got
            return None
        return hunt(head)

    def extract_ops(self, node, fn: Func, depth=0):
        if not isinstance(node, dict):
            return
        self.upd_loc(node)
        kind = node.get("kind", "")
        line = self.cur_line
        if kind == "LambdaExpr":
            # lifted separately by walk(); don't attribute its ops here
            self.walk(node, fn.cls)
            return
        if kind == "DeclStmt":
            for c in node.get("inner", []) or []:
                if isinstance(c, dict) and c.get("kind") == "VarDecl":
                    qt = (c.get("type") or {}).get("qualType", "")
                    if re.search(r"\b(mutex_lock|lock_guard|unique_lock"
                                 r"|scoped_lock)\b", qt):
                        field = self.find_lock_field(c) or "?unknown"
                        fn.ops.append(Op("acquire", field, line))
                        c["_flashr_lockvar"] = field
                        # release at end of enclosing CompoundStmt — the
                        # caller (CompoundStmt case) appends it
                        node["_flashr_acquired"] = field
        if kind == "CompoundStmt":
            acquired_here = []
            for c in node.get("inner", []) or []:
                self.extract_ops(c, fn, depth + 1)
                if isinstance(c, dict) and "_flashr_acquired" in c:
                    acquired_here.append(c["_flashr_acquired"])
            for field in reversed(acquired_here):
                fn.ops.append(Op("release", field, self.cur_line))
            return
        if kind in ("CallExpr", "CXXMemberCallExpr", "CXXOperatorCallExpr"):
            name = self.callee_name(node)
            if name:
                base = name.split("::")[-1]
                if base in ("lock", "unlock") and kind == "CXXMemberCallExpr":
                    field = self.find_lock_field(node)
                    if field:
                        fn.ops.append(Op(
                            "acquire" if base == "lock" else "release",
                            field, line))
                elif base in ABORT_NAMES or base == "emit":
                    fn.ops.append(Op("call", "emit", line)) \
                        if base == "emit" else None
                elif base in BLOCKING_NAMES:
                    fn.ops.append(Op("block", BLOCKING_NAMES[base], line,
                                     sym=base))
                elif base in ALLOC_NAMES:
                    fn.ops.append(Op("block", f"heap allocation ({base})",
                                     line, sym=base))
                elif base not in STD_NAMES and base not in KEYWORDS:
                    if kind == "CXXMemberCallExpr":
                        fn.ops.append(Op("call", "." + base, line))
                    else:
                        fn.ops.append(Op("call", base, line))
        if kind == "CXXNewExpr":
            fn.ops.append(Op("block", "heap allocation (new)", line))
        for c in node.get("inner", []) or []:
            self.extract_ops(c, fn, depth + 1)


def clang_frontend(root: pathlib.Path, compdb: pathlib.Path,
                   cache_dir: pathlib.Path, locks: dict, clang: str):
    entries = json.loads(compdb.read_text())
    walker = AstWalker(root, locks)
    n_tu = 0
    for entry in entries:
        f = entry.get("file", "")
        if "/src/" not in f and not f.startswith("src/"):
            continue
        ast = ast_dump_for_tu(entry, cache_dir, clang)
        if ast is None:
            continue
        n_tu += 1
        walker.walk(ast)
    if n_tu == 0:
        sys.stderr.write("analyze_flashr: no TU parsed from compdb\n")
    return walker.funcs


# ---------------------------------------------------------------------------
# Rule engine
# ---------------------------------------------------------------------------


class Analysis:
    def __init__(self, funcs: list[Func], locks: dict, attrs: dict,
                 requires: dict):
        self.locks = locks
        self.funcs = funcs
        self.findings: list[Finding] = []
        self.by_name: dict[str, list[Func]] = {}
        for fn in funcs:
            self.by_name.setdefault(fn.name, []).append(fn)
            fn.attrs |= attrs.get((fn.cls, fn.name), set())
            fn.requires = [f for f in requires.get((fn.cls, fn.name), [])
                           if f in locks]

    def resolve(self, caller: Func, detail: str) -> list[Func]:
        """Resolve a call op to candidate functions.

        detail encodes the call form: ".base" (member call through an
        object — only class members are candidates), "Qual::base"
        (qualified — members of Qual, else free functions for namespace
        qualifiers), "base" (plain — own-class members, else free
        functions).  Ambiguity resolves to every remaining candidate
        (over-approximation is sound for deadlock detection; the blocking
        rule only descends into functions it resolved, and annotated roots
        are verified independently, so over-approximation cannot hide a
        finding there)."""
        if detail.startswith("this->"):
            base = detail[6:]
            cands = [c for c in self.by_name.get(base, [])
                     if c.cls == caller.cls]
            return cands
        if detail.startswith("!"):
            # Member call through a named other object: when several
            # classes share the method name, the caller's own class is the
            # one class it almost certainly is NOT (that would be spelled
            # without a receiver), and keeping it manufactures fake
            # self-recursion (metrics_registry::value iterating
            # counter->value()).
            base = detail[1:]
            cands = [c for c in self.by_name.get(base, []) if c.cls]
            if len({c.cls for c in cands}) > 1:
                cands = [c for c in cands if c.cls != caller.cls]
            return cands
        if detail.startswith("."):
            base = detail[1:]
            cands = [c for c in self.by_name.get(base, []) if c.cls]
            if len(cands) > 1:
                cands = [c for c in cands if c is not caller]
            return cands
        if "::" in detail:
            qual, base = detail.rsplit("::", 1)
            cands = self.by_name.get(base, [])
            by_qual = [c for c in cands if c.cls == qual.split("::")[-1]]
            if by_qual:
                return by_qual
            return [c for c in cands if not c.cls]
        cands = self.by_name.get(detail, [])
        same_cls = [c for c in cands if c.cls and c.cls == caller.cls]
        if same_cls:
            return same_cls
        return [c for c in cands if not c.cls]

    def add(self, finding: Finding):
        self.findings.append(finding)

    # -- lock-rank ----------------------------------------------------------

    def check_lock_rank(self):
        reported: set = set()
        for root_fn in self.funcs:
            held0 = []
            for f in root_fn.requires:
                ld = self.locks.get(f)
                if ld:
                    held0.append(ld)
            self._rank_walk(root_fn, held0,
                            [(root_fn.qual, root_fn.file, root_fn.line)],
                            set(), reported, 0)

    def _rank_walk(self, fn: Func, held: list, chain: list, visited: set,
                   reported: set, depth: int):
        if depth > 48:
            return
        key = (id(fn), tuple(sorted(l.field for l in held)))
        if key in visited:
            return
        visited.add(key)
        held = list(held)
        for op in fn.ops:
            if op.kind == "acquire":
                ld = self.locks.get(op.detail)
                if ld is None:
                    continue  # unranked/local lock: rank rule can't order it
                worst = None
                for h in held:
                    if h.rank_value >= ld.rank_value:
                        worst = h
                        break
                if worst is not None:
                    if worst.field == ld.field:
                        msg = (f"recursive acquisition of '{ld.field}' "
                               f"(rank {ld.rank_name}={ld.rank_value})")
                    else:
                        msg = (f"acquiring '{ld.field}' (rank "
                               f"{ld.rank_name}={ld.rank_value}) while "
                               f"holding '{worst.field}' (rank "
                               f"{worst.rank_name}={worst.rank_value}); "
                               f"ranks must strictly increase")
                    rkey = ("lock-rank", fn.file, op.line, ld.field,
                            worst.field)
                    if rkey not in reported:
                        reported.add(rkey)
                        self.add(Finding("lock-rank", fn.file, op.line, msg,
                                         chain + [(fn.qual, fn.file,
                                                   op.line)]))
                held.append(ld)
            elif op.kind == "release":
                ld = self.locks.get(op.detail)
                if ld:
                    for i in range(len(held) - 1, -1, -1):
                        if held[i].field == ld.field:
                            held.pop(i)
                            break
            elif op.kind == "call" and held:
                # Only descend while locks are held: with an empty held
                # set, the callee is covered as its own root.
                for callee in self.resolve(fn, op.detail):
                    self._rank_walk(callee, held,
                                    chain + [(fn.qual, fn.file, op.line)],
                                    visited, reported, depth + 1)

    # -- nonblocking --------------------------------------------------------

    def check_nonblocking(self):
        reported: set = set()
        for fn in self.funcs:
            if "nonblocking" in fn.attrs and "exempt" not in fn.attrs:
                self._nb_walk(fn, fn, [(fn.qual, fn.file, fn.line)],
                              set(), reported, 0)

    def _nb_walk(self, root: Func, fn: Func, chain: list, visited: set,
                 reported: set, depth: int):
        if depth > 48 or id(fn) in visited:
            return
        visited.add(id(fn))
        for op in fn.ops:
            if op.kind == "acquire":
                ld = self.locks.get(op.detail)
                if ld is None:
                    self._nb_report(reported, fn, op,
                                    f"locks unranked mutex '{op.detail}'",
                                    chain, root)
                elif not ld.nb_safe:
                    self._nb_report(
                        reported, fn, op,
                        f"locks '{ld.field}' (rank {ld.rank_name}), which "
                        f"is not nonblocking_safe", chain, root)
            elif op.kind == "block":
                self._nb_report(reported, fn, op, op.detail, chain, root)
            elif op.kind == "call":
                for callee in self.resolve(fn, op.detail):
                    if "exempt" in callee.attrs or \
                            "nonblocking" in callee.attrs:
                        continue  # verified separately / explicitly waived
                    self._nb_walk(root, callee,
                                  chain + [(callee.qual, callee.file,
                                            callee.line)],
                                  visited, reported, depth + 1)

    def _nb_report(self, reported, fn, op, what, chain, root):
        rkey = ("nonblocking", fn.file, op.line, what)
        if rkey in reported:
            return
        reported.add(rkey)
        self.add(Finding(
            "nonblocking", fn.file, op.line,
            f"blocking operation reachable from nonblocking context "
            f"'{root.qual}': {what}",
            chain + [(fn.qual, fn.file, op.line)]))

    # -- signal-safe --------------------------------------------------------

    # The raw syscall family that stays legal inside a signal handler
    # (POSIX async-signal-safe).
    SIGNAL_SAFE_SYMS = {"write", "pwrite", "read", "pread",
                        "fsync", "fdatasync", "close"}

    def check_signal_safe(self):
        reported: set = set()
        for fn in self.funcs:
            if "signal_safe" in fn.attrs:
                self._ss_walk(fn, fn, [(fn.qual, fn.file, fn.line)],
                              set(), reported, 0)

    def _ss_walk(self, root: Func, fn: Func, chain: list, visited: set,
                 reported: set, depth: int):
        if depth > 48 or id(fn) in visited:
            return
        visited.add(id(fn))
        for op in fn.ops:
            if op.kind == "acquire":
                # ANY mutex is fatal here: the interrupted thread may hold
                # that very mutex, so nonblocking_safe ranks do not help.
                ld = self.locks.get(op.detail)
                what = (f"locks '{ld.field}' (rank {ld.rank_name})" if ld
                        else f"locks mutex '{op.detail}'")
                self._ss_report(reported, fn, op, what, chain, root)
            elif op.kind == "block":
                if op.sym in self.SIGNAL_SAFE_SYMS:
                    continue  # raw write/fsync family: allowed
                self._ss_report(reported, fn, op, op.detail, chain, root)
            elif op.kind == "call":
                for callee in self.resolve(fn, op.detail):
                    if "signal_safe" in callee.attrs:
                        continue  # verified as its own root
                    # NOTE: 'exempt'/'nonblocking' do NOT stop the descent —
                    # those waivers are argued for thread contexts, not for
                    # running inside a signal handler.
                    self._ss_walk(root, callee,
                                  chain + [(callee.qual, callee.file,
                                            callee.line)],
                                  visited, reported, depth + 1)

    def _ss_report(self, reported, fn, op, what, chain, root):
        rkey = ("signal-safe", fn.file, op.line, what)
        if rkey in reported:
            return
        reported.add(rkey)
        self.add(Finding(
            "signal-safe", fn.file, op.line,
            f"async-signal-unsafe operation reachable from signal-handler "
            f"context '{root.qual}': {what}",
            chain + [(fn.qual, fn.file, op.line)]))


# ---------------------------------------------------------------------------
# Pool discipline (syntactic, per file)
# ---------------------------------------------------------------------------

POOL_GET_RE = re.compile(
    r"(?:buffer_pool::global\s*\(\s*\)\s*\.|[\w>\-.]*pool\w*(?:\.|->))\s*"
    r"get\s*(\()")
NEW_POOL_BUFFER_RE = re.compile(r"\bnew\s+(?:[\w:]+::)?pool_buffer\b")
DIRECT_PUT_RE = re.compile(r"(?:\.|->)\s*put\s*\(")

POOL_PUT_ALLOWED = ("src/mem/", "src/core/validate")


def check_pool_discipline(files, root: pathlib.Path) -> list[Finding]:
    findings: list[Finding] = []
    for path in files:
        rel = path.relative_to(root).as_posix()
        text = strip_comments_strings(
            path.read_text(encoding="utf-8", errors="replace"))
        for m in POOL_GET_RE.finditer(text):
            close = match_paren(text, m.start(1))
            tail = text[close:close + 40].lstrip()
            line = line_of(text, m.start())
            if tail.startswith(".data"):
                findings.append(Finding(
                    "pool-discipline", rel, line,
                    "get(...).data() on a temporary pool_buffer: the "
                    "buffer returns to the pool at the end of the full "
                    "expression and the pointer dangles; bind the "
                    "pool_buffer to a named local"))
            elif tail.startswith(";"):
                # A bare `pool.get(n);` statement: was anything binding it?
                stmt_start = max(text.rfind(";", 0, m.start()),
                                 text.rfind("{", 0, m.start()),
                                 text.rfind("}", 0, m.start()))
                prefix = text[stmt_start + 1:m.start()].strip()
                if prefix == "" or prefix.endswith(("return",)):
                    if prefix == "":
                        findings.append(Finding(
                            "pool-discipline", rel, line,
                            "discarded buffer_pool::get() result: the "
                            "buffer makes a pointless pool round-trip"))
        for m in NEW_POOL_BUFFER_RE.finditer(text):
            findings.append(Finding(
                "pool-discipline", rel, line_of(text, m.start()),
                "heap-allocated pool_buffer escapes RAII: an early return "
                "or exception before the matching delete leaks the pooled "
                "buffer; keep pool_buffer on the stack (or in a container "
                "of pool_buffer)"))
        if not rel.startswith(POOL_PUT_ALLOWED):
            for m in DIRECT_PUT_RE.finditer(text):
                findings.append(Finding(
                    "pool-discipline", rel, line_of(text, m.start()),
                    "direct put() call outside src/mem: buffers must "
                    "return via the pool_buffer RAII handle"))
    return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def analyze(root: pathlib.Path, frontend: str, compdb, cache_dir,
            subdirs=("src",)) -> list[Finding]:
    ranks, findings = parse_rank_table(root)
    files = list(iter_source_files(root, subdirs))
    locks, lock_findings = build_lock_table(files, ranks, root)
    findings += lock_findings

    # The source parse always runs: it supplies the (class, name)-keyed
    # annotation tables both frontends bind from, and the function IR when
    # clang is not in play.
    attrs: dict = {}
    requires: dict = {}
    src_funcs: list[Func] = []
    for path in files:
        rel = path.relative_to(root).as_posix()
        if rel == "src/common/thread_safety.h":
            continue
        text = strip_comments_strings(
            path.read_text(encoding="utf-8", errors="replace"))
        src_funcs.extend(parse_functions_source(text, rel, locks,
                                                attrs, requires))

    funcs = None
    if frontend in ("clang", "auto") and compdb:
        clang = find_clang()
        if clang:
            funcs = clang_frontend(root, compdb, cache_dir, locks, clang)
        elif frontend == "clang":
            sys.stderr.write("analyze_flashr: clang frontend requested but "
                             "no clang binary found\n")
            return findings + [Finding("config", "", 0,
                                       "clang not available")]
    if funcs is None:
        funcs = src_funcs

    an = Analysis(funcs, locks, attrs, requires)
    an.check_lock_rank()
    an.check_nonblocking()
    an.check_signal_safe()
    findings += an.findings
    findings += check_pool_discipline(files, root)

    # Dedupe, stable order.
    seen = set()
    uniq = []
    for f in sorted(findings, key=lambda f: (f.rule, f.file, f.line)):
        if f.key() in seen:
            continue
        seen.add(f.key())
        uniq.append(f)
    return uniq


# ---------------------------------------------------------------------------
# Self-test over seeded fixtures
# ---------------------------------------------------------------------------

FIXTURE_EXPECT = {
    "bad_lock_inversion.cpp": "lock-rank",
    "bad_blocking_completion.cpp": "nonblocking",
    "bad_pool_leak.cpp": "pool-discipline",
    "bad_unranked_mutex.cpp": "unranked-mutex",
    "bad_signal_unsafe.cpp": "signal-safe",
}
CLEAN_FIXTURES = ["clean_concurrency.cpp"]


def self_test(root: pathlib.Path) -> int:
    fixtures = root / "tools" / "analyzer_fixtures"
    failures = 0

    # The fixture tree is analyzed with the real rank table but its own
    # sources; each bad fixture must fire its rule (with a call chain for
    # the cross-function ones) and the clean fixture must stay quiet.
    all_findings = analyze(root, "source", None, None,
                           subdirs=("tools/analyzer_fixtures",))
    by_file: dict[str, list[Finding]] = {}
    for f in all_findings:
        by_file.setdefault(pathlib.Path(f.file).name, []).append(f)

    for name, rule in FIXTURE_EXPECT.items():
        got = [f for f in by_file.get(name, []) if f.rule == rule]
        if not got:
            print(f"SELF-TEST FAIL: {name}: rule {rule} did not fire "
                  f"(got: {[str(v) for v in by_file.get(name, [])]})")
            failures += 1
            continue
        if rule in ("lock-rank", "nonblocking", "signal-safe") and \
                not any(len(f.chain) >= 2 for f in got):
            print(f"SELF-TEST FAIL: {name}: {rule} fired without a "
                  f"call-chain diagnostic")
            failures += 1
            continue
        print(f"self-test ok: {name} -> {rule} "
              f"({len(got)} finding(s), chain depth "
              f"{max(len(f.chain) for f in got)})")

    for name in CLEAN_FIXTURES:
        noisy = [f for f in by_file.get(name, [])]
        if noisy:
            print(f"SELF-TEST FAIL: {name} produced findings:")
            for f in noisy:
                print(f"  {f}")
            failures += 1
        else:
            print(f"self-test ok: {name} is quiet")

    # The real tree must be clean (the acceptance bar for the analyzer).
    tree = analyze(root, "source", None, None)
    if tree:
        print("SELF-TEST FAIL: the src/ tree is not clean:")
        for f in tree:
            print(f"  {f}")
        failures += 1
    else:
        print("self-test ok: src/ tree is clean under the source frontend")
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=None,
                    help="repository root (default: this script's ../)")
    ap.add_argument("--frontend", choices=("auto", "source", "clang"),
                    default="auto",
                    help="auto uses clang when --compdb is given and clang "
                         "exists, else the source parser")
    ap.add_argument("--compdb", default=None,
                    help="compile_commands.json for the clang frontend")
    ap.add_argument("--cache-dir", default=None,
                    help="AST dump cache (default: <root>/.analyze_cache)")
    ap.add_argument("--json-out", default=None,
                    help="write findings as JSON to this file")
    ap.add_argument("--self-test", action="store_true",
                    help="run the rules over tools/analyzer_fixtures and "
                         "verify the src/ tree is clean")
    args = ap.parse_args()

    root = pathlib.Path(args.root).resolve() if args.root else \
        pathlib.Path(__file__).resolve().parent.parent

    if args.self_test:
        return self_test(root)

    compdb = pathlib.Path(args.compdb) if args.compdb else None
    cache_dir = pathlib.Path(args.cache_dir) if args.cache_dir else \
        root / ".analyze_cache"

    findings = analyze(root, args.frontend, compdb, cache_dir)
    for f in findings:
        print(f)
    if args.json_out:
        pathlib.Path(args.json_out).write_text(json.dumps(
            {"findings": [f.to_json() for f in findings]}, indent=2) + "\n")
    if findings:
        print(f"analyze_flashr: {len(findings)} finding(s)")
        return 1
    print("analyze_flashr: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
