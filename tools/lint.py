#!/usr/bin/env python3
"""Repo lint for metAScritic.

Enforces the handful of rules the compiler cannot:

  R1  no rand()/srand()/random()/std::random_device -- every stochastic draw
      must flow through an explicitly seeded metas::util::Rng, because
      bit-exact reproducibility is load-bearing for the paper repro
  R2  no unseeded std::mt19937 / std::mt19937_64 default construction
  R3  no naked `new` / `delete` outside of smart-pointer factories
  R4  every header starts its include-guarding with `#pragma once`
  R5  no `using namespace` at namespace scope in headers
  R6  no #include of a .cpp file
  R7  no wall-clock reads (std::chrono::{system,steady,high_resolution}_clock)
      outside bench/ -- simulation time is the probe clock / scheduler ticks,
      and wall-clock state would break bit-exact reproducibility.  The one
      carve-out is src/util/telemetry.{hpp,cpp}: the telemetry layer's
      injectable-clock shim is where the sanctioned steady-clock read lives
  R8  no direct std::chrono use anywhere else under src/ -- instrumented
      code must go through the telemetry clock (util/telemetry.hpp), so the
      deterministic tick clock can stand in for real time in tests
  R9  no raw std sync/threading primitives (std::mutex, std::lock_guard,
      std::condition_variable, std::thread, std::async, ...) in src/ outside
      util/sync.hpp -- all concurrency flows through the MAC_CAPABILITY-
      annotated wrappers so clang -Wthread-safety can prove lock discipline
  R10 no iteration over std::unordered_map / std::unordered_set in src/ --
      iteration order is unspecified, so it must never feed exports,
      floating-point accumulation, adjacency construction, or an Rng stream.
      Traverse a sorted key copy (or use std::map / a vector) instead.  A
      site where order provably cannot leak may opt out with
      `// lint: allow(unordered-iter) -- <why order cannot leak>`;
      the justification is mandatory
  R11 no mutable namespace-scope / static-local / static-member state in
      src/ outside the telemetry registry singleton
      (src/util/telemetry.{hpp,cpp}) -- hidden shared state breaks both
      determinism and the thread-safety story
  R12 retired (float-equal): -Wfloat-equal in tools/run_checks.py's
      numeric-safety lane flags every FP ==/!= the rule caught, and
      variable-vs-variable compares too; the number stays unused
  R13 no floating-point accumulation inside iteration over an unordered
      container in src/ -- FP addition is not associative, so a reduction
      over an unspecified traversal order is nondeterministic even
      single-threaded, and is exactly the hazard parallel ALS sharding
      will amplify.  Reuses R10's name index to resolve the range; fires
      even when the loop itself carries allow(unordered-iter), because an
      order-cannot-leak argument never covers an FP reduction
  R14 no raw C-style or static_cast narrowing/sign conversions to integral
      types in src/ -- the sanctioned idioms are mac::checked_cast (integral
      -> integral, range-asserted), mac::narrow (exact-value), and
      mac::trunc_cast (intentional float truncation), all MAC_ASSERT-backed
      in debug and free in release (src/util/numeric.hpp)
  R15 no by-reference default capture (`[&]`) on a lambda that escapes its
      frame in src/ -- stored in a std::function, returned, assigned to a
      member, pushed into a container, or handed to a deferred/scheduled
      context (submit/enqueue/schedule/post/...).  A `[&]` that outlives the
      enclosing scope is a dangling capture the moment the frame unwinds,
      and is exactly the bug class the work-stealing parallelism work would
      mass-produce.  Capture explicitly (owning by value, or a named `&x`
      whose lifetime is provable) or opt out with a justification
  R16 no view-type or reference members in src/ without an ownership
      justification -- std::span, std::string_view, `T&`/`const T&`, and raw
      observer `T*` fields all dangle when the backing storage dies first,
      and the compiler cannot see the contract.  Every such member carries
      `// lint: allow(view-member) -- <who owns the storage and why it
      outlives this object>`
  R17 no pointer-keyed containers or pointer hashing/ordering in src/ --
      std::map<T*, ...>, std::set<T*>, their unordered cousins, and
      std::hash/std::less over pointers make iteration order and tie-breaks
      depend on allocation addresses, a nondeterminism source R10/R13
      cannot see.  Key by a stable value (AsId, MetroId, an index) instead
  R18 no direct file writes (std::ofstream, std::fstream, fopen) in src/ --
      a crash mid-write leaves a truncated file that a later resume or
      consumer silently trusts.  All persistence goes through the atomic
      write-temp + fsync + rename helpers in src/util/checkpoint.{hpp,cpp}
      (the one exempt file); a site that provably cannot corrupt durable
      state may opt out with a justification
  R19 no direct span/trace-recorder calls (ScopedSpan, span_begin/span_end,
      Recorder::instance, record_*) in src/ outside the telemetry and trace
      layers themselves -- every instrumentation site goes through MAC_SPAN /
      MAC_TRACE_INSTANT / MAC_TRACE_COUNTER so the -DMETASCRITIC_TELEMETRY=OFF
      kill switch stays airtight (a direct call would survive it and charge
      disabled builds for instrumentation)
  R20 no `Mutex` member in src/ that guards nothing -- some member in the
      same file must carry MAC_GUARDED_BY(<mutex>) / MAC_PT_GUARDED_BY(
      <mutex>), or some function MAC_REQUIRES / ACQUIRE / RELEASE /
      EXCLUDES(<mutex>).  A mutex guarding nothing is dead weight, or a sign
      that the state it was meant to guard is unannotated and so invisible
      to clang's -Wthread-safety.  src/util/sync.hpp, which defines Mutex,
      is exempt

Usage:
  tools/lint.py [--rule RULE] [--list-rules] [--json] [--pretend-dir DIR]
                [PATHS...]

With no PATHS, lints src/ tests/ bench/ tools/ examples/ (skipping
tests/lint_fixtures/, which intentionally contains violations for the lint
self-test).  --rule restricts checking to a comma-separated list of rules,
by number (R10) or name (unordered-iter) -- handy while burning down
findings.  --pretend-dir makes
explicitly-passed files behave as if they lived under the given top-level
directory (the self-test uses `--pretend-dir src` so fixtures exercise the
src/-scoped rules).  The checked-in .clang-tidy profile runs from
tools/run_checks.py (`--only tidy`), beside the compiler lanes.

Exits non-zero if any finding is produced.

A line can opt out with a trailing `// lint: allow(<rule>)` marker, e.g.
`// lint: allow(naked-new)`.  The unordered-iter rule additionally requires
a justification after the marker: `// lint: allow(unordered-iter) -- reason`.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_DIRS = ["src", "tests", "bench", "tools", "examples"]
HEADER_SUFFIXES = {".hpp", ".h"}
SOURCE_SUFFIXES = {".cpp", ".cc", ".cxx"} | HEADER_SUFFIXES
# Directories (path parts) never linted: build trees and the intentionally
# violating lint fixtures.
SKIP_PARTS = {"build", "lint_fixtures"}

ALLOW_RE = re.compile(r"//\s*lint:\s*allow\(([a-z0-9-]+)\)(?:\s*(?:--|:)\s*(\S.*))?")

# Rule-name -> Rn display number.  Multiple names may share a number when the
# docstring groups them (rand-family = R1, new/delete = R3).
RULE_NUMBERS = {
    "libc-rand": "R1",
    "random-device": "R1",
    "unseeded-engine": "R2",
    "naked-new": "R3",
    "naked-delete": "R3",
    "pragma-once": "R4",
    "header-using-namespace": "R5",
    "include-cpp": "R6",
    "wall-clock": "R7",
    "chrono-direct": "R8",
    "raw-sync": "R9",
    "unordered-iter": "R10",
    "static-mutable": "R11",
    "fp-reduction-order": "R13",
    "unchecked-narrowing": "R14",
    "ref-capture": "R15",
    "view-member": "R16",
    "pointer-key": "R17",
    "raw-file-write": "R18",
    "span-direct": "R19",
    "unguarded-mutex": "R20",
}

# One-line summaries for --list-rules, keyed like RULE_NUMBERS.
RULE_DOCS = {
    "libc-rand": "no rand()/srand()/random(): draw from a seeded metas::util::Rng",
    "random-device": "no std::random_device: nondeterministic seeding is banned",
    "unseeded-engine": "no default-constructed std::mt19937: pass an explicit seed",
    "naked-new": "no naked `new`: use std::make_unique/make_shared or a container",
    "naked-delete": "no naked `delete`: ownership lives in smart pointers/containers",
    "pragma-once": "every header starts its include guard with #pragma once",
    "header-using-namespace": "no `using namespace` at namespace scope in headers",
    "include-cpp": "no #include of a .cpp file",
    "wall-clock": "no wall-clock reads outside bench/ (telemetry clock excepted)",
    "chrono-direct": "no direct std::chrono in src/ outside the telemetry clock",
    "raw-sync": "no raw std sync/threading in src/: use util/sync.hpp wrappers",
    "unordered-iter": "no unordered_map/set iteration in src/: traverse sorted keys",
    "static-mutable": "no mutable static state in src/ outside the telemetry registry",
    "fp-reduction-order": "no FP accumulation over unordered traversal in src/",
    "unchecked-narrowing": "no raw narrowing casts in src/: use mac::checked_cast",
    "ref-capture": "no `[&]` on a lambda that escapes its frame in src/",
    "view-member": "no view/reference/observer members in src/ without ownership note",
    "pointer-key": "no pointer-keyed containers or pointer hash/order in src/",
    "raw-file-write": "no direct file writes in src/: use util/checkpoint.hpp atomic helpers",
    "span-direct": "no direct span/trace-recorder calls in src/: use MAC_SPAN / MAC_TRACE_*",
    "unguarded-mutex": "every Mutex in src/ names what it guards (MAC_GUARDED_BY / MAC_REQUIRES)",
}

# Rules whose allow() opt-out must carry a justification ("-- reason" or
# ": reason" after the marker).
JUSTIFY_RULES = {"unordered-iter", "fp-reduction-order",
                 "unchecked-narrowing", "ref-capture", "view-member",
                 "pointer-key", "raw-file-write", "span-direct",
                 "unguarded-mutex"}

# (rule-id, regex, message).  Applied per line with comments/strings stripped.
LINE_RULES = [
    (
        "libc-rand",
        re.compile(r"(?<![\w:.])(?:std::)?(?:s?rand|random)\s*\("),
        "libc rand()/srand()/random() is banned: draw from a seeded metas::util::Rng",
    ),
    (
        "random-device",
        re.compile(r"\bstd::random_device\b"),
        "std::random_device is nondeterministic: seed a metas::util::Rng explicitly",
    ),
    (
        "unseeded-engine",
        re.compile(r"\bstd::mt19937(?:_64)?\s+\w+\s*(?:;|\{\s*\})"),
        "unseeded std::mt19937 engine: pass an explicit seed (or use metas::util::Rng)",
    ),
    (
        "naked-new",
        re.compile(r"(?<![\w_])new\s+[A-Za-z_:][\w:<>, ]*[({]"),
        "naked `new`: use std::make_unique/std::make_shared or a container",
    ),
    (
        "naked-delete",
        re.compile(r"(?<![\w_])delete(?:\s*\[\s*\])?\s+[A-Za-z_]"),
        "naked `delete`: ownership must live in a smart pointer or container",
    ),
    (
        "include-cpp",
        re.compile(r'#\s*include\s*[<"][^<">]+\.cpp[">]'),
        "#include of a .cpp file",
    ),
    (
        "wall-clock",
        re.compile(r"\bstd::chrono::(?:system_clock|steady_clock|high_resolution_clock)\b"),
        "wall-clock time outside bench/: use the probe clock / scheduler ticks",
    ),
    (
        "chrono-direct",
        re.compile(r"\bstd::chrono\b"),
        "direct std::chrono in instrumented code: go through the telemetry "
        "clock (util/telemetry.hpp), which tests can replace deterministically",
    ),
    (
        "raw-sync",
        re.compile(
            r"\bstd::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
            r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
            r"shared_lock|condition_variable|condition_variable_any|thread|jthread|"
            r"async|future|shared_future|promise|packaged_task|call_once|once_flag|"
            r"counting_semaphore|binary_semaphore|latch|barrier)\b"
        ),
        "raw std sync/threading primitive in src/: use the MAC_CAPABILITY-"
        "annotated wrappers in util/sync.hpp (Mutex, LockGuard, CondVar) so "
        "-Wthread-safety can prove the lock protocol",
    ),
]

# --- R14 (unchecked-narrowing) machinery -------------------------------------
# Integral destination types whose raw casts are banned in src/.  Enum, bool,
# void, pointer, and floating destinations are not narrowing hazards in this
# sense and stay unflagged; the repo's integer-ish id aliases (AsId, MetroId,
# Ip) are included because they are exactly the boundaries checked_cast exists
# for.
_NARROW_TYPES = (
    r"(?:std::)?(?:u?int(?:8|16|32|64)_t|u?int_fast(?:8|16|32|64)_t|"
    r"u?int_least(?:8|16|32|64)_t|size_t|ptrdiff_t|u?intptr_t|u?intmax_t)"
    r"|(?:(?:metas::)?(?:topology::|ipnet::)?)?(?:AsId|MetroId|Ip)"
    r"|unsigned(?:\s+(?:char|short|int|long(?:\s+long)?))?"
    r"|(?:signed\s+)?(?:char|short|int|long(?:\s+long)?)"
)
STATIC_NARROW_RE = re.compile(
    rf"\bstatic_cast\s*<\s*(?:const\s+)?(?:{_NARROW_TYPES})\s*>")
CSTYLE_NARROW_RE = re.compile(
    rf"\(\s*(?:{_NARROW_TYPES})\s*\)\s*[\w(~+-]")

# --- R15 (ref-capture) machinery ---------------------------------------------
# A default by-reference capture intro: `[&]` or `[&, x]` (but not the
# explicit `[&x]`, whose lifetime obligation is at least visible at the
# capture site).
REF_DEFAULT_CAPTURE_RE = re.compile(r"\[\s*&\s*[,\]]")
# Line-local contexts in which the lambda escapes the enclosing frame.  A
# `[&]` that never escapes (named local helper, STL-algorithm argument,
# immediately-invoked initializer) stays legal -- the hazard is storage or
# deferral that can outlive the captured stack.
ESCAPE_CONTEXTS = [
    (re.compile(r"\bstd::(?:move_only_)?function\s*<|\bstd::packaged_task\s*<"),
     "stored in a std::function"),
    (re.compile(r"\breturn\s*\["), "returned from the enclosing function"),
    (re.compile(r"\b(?:submit|enqueue|schedule|defer|dispatch|post|spawn|"
                r"async|launch)\w*\s*\("),
     "handed to a deferred/scheduled context"),
    (re.compile(r"\b[A-Za-z_]\w*_\s*=(?!=)\s*\["), "stored in a member"),
    (re.compile(r"\.\s*(?:push_back|emplace_back|emplace|insert|assign)"
                r"\s*\(\s*\["),
     "stored in a container"),
]

# --- R16 (view-member) machinery ---------------------------------------------
# Class/struct heads (never `enum class`, which cannot start the line with
# `class`), forward declarations excluded by the brace/semicolon logic in
# scan_view_members.
CLASS_HEAD_RE = re.compile(
    r"^\s*(?:template\s*<[^;{]*>\s*)?(?:class|struct)\s+[A-Za-z_]")
# Lines at class-body depth that are never data-member declarations.
MEMBER_SKIP_RE = re.compile(
    r"^\s*(?:using|typedef|friend|return|public|private|protected|case|"
    r"default|static_assert)\b")
# A view-typed data member: std::string_view / std::span<...> by value.
VIEW_TYPE_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:static\s+)?(?:const\s+)?"
    r"std::(?:(?:w|u8|u16|u32)?string_view|span\s*<[^;{}]*>)\s*"
    r"[A-Za-z_]\w*\s*(?:=[^;]*|\{[^;]*\})?\s*;")
# A pointer or reference data member: `T* name_;`, `const T& name_;`,
# optionally with a default initializer.  Template-typed T is allowed one
# (greedy) argument list; function pointers and method declarations are
# excluded upstream by the no-parentheses test.
PTR_REF_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:static\s+)?(?:const\s+)?"
    r"[A-Za-z_][\w:]*(?:\s*<[^;{}]*>)?"
    r"\s*(\*|&)\s*(?:const\s+)?"
    r"[A-Za-z_]\w*\s*(?:=[^;]*|\{[^;]*\})?\s*;")
MAC_ATTR_RE = re.compile(r"\bMAC_\w+\s*\([^)]*\)")


def scan_view_members(lines: list[str]):
    """Yields (lineno, kind, declarator) for pointer/reference/view-typed
    data members declared at class scope.  Line-local heuristic with a
    brace-tracking scope stack: declarations that fit on one line (house
    style keeps them there) inside a `class`/`struct` body, excluding
    anything carrying parentheses (methods, operators, function pointers,
    parameter continuation lines)."""
    in_block = False
    depth = 0
    scopes: list[tuple[int, bool]] = []  # (depth inside the scope, is_class)
    pending_class = False
    for lineno, raw in enumerate(lines, start=1):
        code, in_block = strip_comments_and_strings(raw, in_block)
        if not code.strip():
            continue
        if code.lstrip().startswith("#"):
            continue  # preprocessor line: no member, no reliable braces
        no_attrs = MAC_ATTR_RE.sub("", code)
        is_class_head = bool(CLASS_HEAD_RE.match(code))
        at_class_body = bool(scopes) and scopes[-1][1] and depth == scopes[-1][0]
        if at_class_body and not is_class_head \
                and "(" not in no_attrs and ")" not in no_attrs \
                and not MEMBER_SKIP_RE.match(code):
            vm = VIEW_TYPE_MEMBER_RE.match(no_attrs)
            pm = PTR_REF_MEMBER_RE.match(no_attrs) if vm is None else None
            if vm is not None:
                yield lineno, "view-typed", no_attrs.strip().rstrip(";")
            elif pm is not None:
                kind = "raw-pointer" if pm.group(1) == "*" else "reference"
                yield lineno, kind, no_attrs.strip().rstrip(";")
        # Brace bookkeeping: the first `{` on a class-head line (or the next
        # `{` after a head that ended without one) opens a class body.
        first_open = True
        for ch in code:
            if ch == "{":
                depth += 1
                opens_class = (is_class_head and first_open) or pending_class
                pending_class = False
                first_open = False
                scopes.append((depth, opens_class))
            elif ch == "}":
                depth -= 1
                while scopes and scopes[-1][0] > depth:
                    scopes.pop()
        if is_class_head and "{" not in code \
                and not code.rstrip().endswith(";"):
            pending_class = True


# --- R17 (pointer-key) machinery ---------------------------------------------
# A container keyed on a pointer type: the first template argument is
# `T*` (optionally const-qualified / template-typed).
POINTER_KEY_RE = re.compile(
    r"\bstd::(?:unordered_)?(?:multi)?(?:map|set)\s*<\s*(?:const\s+)?"
    r"[A-Za-z_][\w:]*(?:\s*<[^<>]*>)?\s*\*")
# Hashing or ordering over a pointer type feeds the same address
# nondeterminism without the container shape.
POINTER_ORDER_RE = re.compile(
    r"\bstd::(?:hash|less|greater|equal_to)\s*<\s*(?:const\s+)?"
    r"[A-Za-z_][\w:]*(?:\s*<[^<>]*>)?\s*\*")

LINE_RULES += [
    (
        "pointer-key",
        POINTER_KEY_RE,
        "pointer-keyed container: iteration order and lookups depend on "
        "allocation addresses, nondeterminism R10/R13 cannot see -- key by "
        "a stable value (AsId, MetroId, an index) instead",
    ),
    (
        "pointer-key",
        POINTER_ORDER_RE,
        "pointer hashing/ordering: std::hash/std::less over a pointer is "
        "address-dependent and nondeterministic across runs -- hash or "
        "order a stable value instead",
    ),
]

LINE_RULES += [
    (
        "raw-file-write",
        re.compile(r"\bstd::o?fstream\b|(?<![\w:.])(?:std::)?fopen\s*\("),
        "direct file write in src/: a crash mid-write leaves a truncated "
        "file later readers silently trust -- persist through "
        "util/checkpoint.hpp (atomic_write_file / write_file), or opt out "
        "with `// lint: allow(raw-file-write) -- <why corruption is "
        "impossible or harmless>`",
    ),
]

LINE_RULES += [
    (
        "span-direct",
        re.compile(
            r"\bScopedSpan\b|\bspan_(?:begin|end)\s*\(|"
            r"\bRecorder::instance\s*\(|"
            r"\brecord_(?:span_begin|span_end|instant|counter)\s*\("
        ),
        "direct span/trace-recorder call in src/: go through MAC_SPAN / "
        "MAC_TRACE_INSTANT / MAC_TRACE_COUNTER (util/telemetry.hpp, "
        "util/trace.hpp) so the -DMETASCRITIC_TELEMETRY=OFF kill switch "
        "compiles every instrumentation site to a typechecked no-op -- or "
        "opt out with `// lint: allow(span-direct) -- <why this site must "
        "bypass the macros>`",
    ),
]

LINE_RULES += [
    (
        "unchecked-narrowing",
        STATIC_NARROW_RE,
        "raw static_cast to an integral type: use mac::checked_cast "
        "(integral->integral), mac::narrow (exact value), or mac::trunc_cast "
        "(intended truncation) from util/numeric.hpp",
    ),
    (
        "unchecked-narrowing",
        CSTYLE_NARROW_RE,
        "C-style cast to an integral type: use mac::checked_cast/narrow/"
        "trunc_cast from util/numeric.hpp",
    ),
]

# Rules that only apply outside the listed top-level directories (relative to
# the repo root).  Benchmarks legitimately time themselves with wall clocks.
RULE_EXEMPT_DIRS = {"wall-clock": {"bench"}}

# Rules that only apply inside the listed top-level directories.  Tests and
# benches may use std::chrono / raw threads / unordered iteration freely;
# first-party src/ is held to the determinism and capability-analysis bar.
RULE_ONLY_DIRS = {
    "chrono-direct": {"src"},
    "raw-sync": {"src"},
    "unordered-iter": {"src"},
    "static-mutable": {"src"},
    "fp-reduction-order": {"src"},
    "unchecked-narrowing": {"src"},
    "ref-capture": {"src"},
    "view-member": {"src"},
    "pointer-key": {"src"},
    "raw-file-write": {"src"},
    "span-direct": {"src"},
    "unguarded-mutex": {"src"},
}

# Per-file carve-outs (paths relative to the repo root).  The telemetry
# layer's injectable-clock shim is the one sanctioned wall-clock read in
# src/; util/sync.hpp is the one sanctioned home of raw std primitives; the
# telemetry registry singleton (+ tick clock, per-thread span stack) is the
# one sanctioned static mutable state.
RULE_EXEMPT_FILES = {
    "wall-clock": {"src/util/telemetry.hpp", "src/util/telemetry.cpp"},
    "chrono-direct": {"src/util/telemetry.hpp", "src/util/telemetry.cpp"},
    "raw-sync": {"src/util/sync.hpp"},
    # sync.hpp *defines* Mutex around the one sanctioned std::mutex.
    "unguarded-mutex": {"src/util/sync.hpp"},
    "static-mutable": {"src/util/telemetry.hpp", "src/util/telemetry.cpp",
                       # The trace recorder singleton + per-thread ring cache
                       # are the event-level half of the telemetry carve-out.
                       "src/util/trace.cpp"},
    # numeric.hpp *implements* the sanctioned cast/compare idioms, so its
    # internal static_casts are the carve-out.
    "fp-reduction-order": {"src/util/numeric.hpp"},
    "unchecked-narrowing": {"src/util/numeric.hpp"},
    # checkpoint.cpp *implements* the sanctioned atomic write path (POSIX
    # open/write/fsync/rename), so it is where raw file I/O may live.
    "raw-file-write": {"src/util/checkpoint.cpp"},
    # The telemetry/trace layers *implement* the macro entry points, so the
    # direct span/recorder calls live there and nowhere else.
    "span-direct": {"src/util/telemetry.hpp", "src/util/telemetry.cpp",
                    "src/util/trace.hpp", "src/util/trace.cpp"},
}

HEADER_USING_RE = re.compile(r"^\s*using\s+namespace\s+[\w:]+\s*;")

# --- R10 (unordered-iter) machinery -----------------------------------------
UNORDERED_OPEN_RE = re.compile(r"\bstd::unordered_(?:map|set)\s*<")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(")
BEGIN_CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\.\s*c?begin\s*\(\s*\)")
LAST_COMPONENT_RE = re.compile(r"(?:\.|->)?([A-Za-z_]\w*)\s*(\(\s*\))?\s*$")

# --- R11 (static-mutable) machinery ------------------------------------------
STATIC_DECL_RE = re.compile(r"^\s*(?:static|thread_local|inline)\b")
STATIC_CONST_RE = re.compile(
    r"^\s*(?:(?:static|thread_local|inline)\s+)+(?:const\b|constexpr\b|constinit\b)")

# --- R13 (fp-reduction-order) machinery ---------------------------------------
# Compound accumulation into an lvalue: `total += x;`, `gram(a, b) -= y;`.
FP_ACCUM_RE = re.compile(
    r"([A-Za-z_][\w.\]\[]*(?:\([^()]*\))?(?:\s*(?:\.|->)\s*[A-Za-z_]\w*)*)"
    r"\s*[+\-*/]=(?!=)")
# Local/member declarations of floating-point scalars, for deciding whether
# an accumulator is FP-typed: `double pos_w = 0.0, neg_w = 0.0;`.
FP_DECL_RE = re.compile(r"^\s*(?:const\s+)?(?:double|float)\s+(.*)$")
# A floating-point literal: 1.0, .5f, 2., 1e-9, 3.25e+2L ...
_FP_LIT = r"(?:(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)[fFlL]?"
# RHS evidence that the accumulated expression is floating-point even when
# the accumulator's declaration is out of heuristic reach.
FP_RHS_RE = re.compile(
    rf"(?:{_FP_LIT})|\bstd::(?:fabs|abs|sqrt|log|log1p|exp|pow|hypot)\s*\(")


def fp_decl_names_in_text(text: str) -> set[str]:
    """Names declared as double/float scalars in `text` (line-local
    heuristic, same scope policy as unordered_decls_in_text)."""
    names: set[str] = set()
    in_block = False
    for raw in text.splitlines():
        code, in_block = strip_comments_and_strings(raw, in_block)
        m = FP_DECL_RE.match(code)
        if m is None:
            continue
        for segment in m.group(1).split(","):
            nm = re.match(r"\s*&?\s*([A-Za-z_]\w*)", segment)
            if nm is not None:
                names.add(nm.group(1))
    return names


# --- R20 (unguarded-mutex) machinery -----------------------------------------
MUTEX_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:(?:metas::)?util::)?Mutex\s+([A-Za-z_]\w*)\s*;",
    re.M)


def unguarded_mutexes(lines: list[str]) -> dict[int, str]:
    """Line -> name of each `Mutex` declared in `lines` that nothing in the
    same file names: no MAC_GUARDED_BY / MAC_PT_GUARDED_BY member and no
    MAC_REQUIRES / ACQUIRE / RELEASE / EXCLUDES function.  Comments are
    stripped first, so a commented-out annotation does not count."""
    code = []
    in_block = False
    for raw in lines:
        stripped, in_block = strip_comments_and_strings(raw, in_block)
        code.append(stripped)
    text = "\n".join(code)
    out: dict[int, str] = {}
    for m in MUTEX_DECL_RE.finditer(text):
        esc = re.escape(m.group(1))
        if re.search(r"MAC_(?:PT_)?GUARDED_BY\(\s*" + esc + r"\s*\)", text) \
                or re.search(r"MAC_(?:REQUIRES|ACQUIRE|RELEASE|EXCLUDES)"
                             r"\([^)]*\b" + esc + r"\b", text):
            continue
        out[text.count("\n", 0, m.start(1)) + 1] = m.group(1)
    return out


def strip_comments_and_strings(line: str, in_block_comment: bool) -> tuple[str, bool]:
    """Blanks out string/char literals and comments, tracking /* */ state."""
    out = []
    i, n = 0, len(line)
    while i < n:
        ch = line[i]
        nxt = line[i + 1] if i + 1 < n else ""
        if in_block_comment:
            if ch == "*" and nxt == "/":
                in_block_comment = False
                i += 2
            else:
                i += 1
            continue
        if ch == "/" and nxt == "/":
            break  # rest of line is a comment
        if ch == "/" and nxt == "*":
            in_block_comment = True
            i += 2
            continue
        if ch in "\"'":
            quote = ch
            out.append(" ")
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    i += 1
                    break
                i += 1
            continue
        out.append(ch)
        i += 1
    return "".join(out), in_block_comment


def unordered_decls_in_text(text: str) -> tuple[set[str], set[str]]:
    """(variable/member names, ref-returning method names) declared with an
    unordered container type in `text`.  Line-local heuristic: declarations
    and signatures that fit on one line (house style keeps them there)."""
    variables: set[str] = set()
    methods: set[str] = set()
    in_block = False
    for raw in text.splitlines():
        code, in_block = strip_comments_and_strings(raw, in_block)
        for m in UNORDERED_OPEN_RE.finditer(code):
            # Bracket-match the template argument list.
            depth, i = 1, m.end()
            while i < len(code) and depth > 0:
                if code[i] == "<":
                    depth += 1
                elif code[i] == ">":
                    depth -= 1
                i += 1
            if depth != 0:
                continue  # declaration spans lines; out of heuristic scope
            rest = code[i:].lstrip()
            ref = rest.startswith("&")
            if ref:
                rest = rest[1:].lstrip()
            # Declarator may carry trailing attribute-macro suffixes, e.g.
            # `std::unordered_map<...> counter_index_ MAC_GUARDED_BY(mu_);`.
            nm = re.match(
                r"([A-Za-z_]\w*)\s*(?:MAC_\w+\s*\([^)]*\)\s*)*([;={(]|$)", rest)
            if nm is None:
                continue
            name, tail = nm.group(1), nm.group(2)
            if tail == "(":
                methods.add(name)
            elif not ref and tail in {";", "=", "{"}:
                variables.add(name)
    return variables, methods


def range_for_exprs(code: str) -> list[str]:
    """Range expressions of single-line range-for statements in `code`."""
    out = []
    for m in RANGE_FOR_RE.finditer(code):
        depth, i = 1, m.end()
        colon = -1
        while i < len(code) and depth > 0:
            c = code[i]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0 and colon >= 0:
                    out.append(code[colon + 1:i].strip())
            elif c == ":" and depth == 1 and colon < 0:
                # Skip '::' qualifiers.
                if i + 1 < len(code) and code[i + 1] == ":":
                    i += 2
                    continue
                if i > 0 and code[i - 1] == ":":
                    i += 1
                    continue
                colon = i
            i += 1
    return out


class UnorderedIndex:
    """Repo-wide table of names declared with unordered container types,
    used by R10 to resolve dotted accesses (`net.links`) and ref-returning
    accessors (`evidence().all()`) across files."""

    def __init__(self, root: Path) -> None:
        self.members: set[str] = set()
        self.methods: set[str] = set()
        src = root / "src"
        if not src.is_dir():
            return
        for f in sorted(src.rglob("*")):
            if f.suffix not in SOURCE_SUFFIXES or set(f.parts) & SKIP_PARTS:
                continue
            try:
                text = f.read_text(encoding="utf-8")
            except (UnicodeDecodeError, OSError):
                continue
            variables, methods = unordered_decls_in_text(text)
            self.members |= variables
            self.methods |= methods


class Linter:
    def __init__(self, rules: set[str] | None = None,
                 pretend_dir: str | None = None) -> None:
        self.findings: list[str] = []
        self.structured: dict[str, list[dict]] = {}
        self.rule_counts: Counter[str] = Counter()
        self.rules = rules  # None = all
        self.pretend_dir = pretend_dir
        self._unordered_index: UnorderedIndex | None = None

    @property
    def unordered_index(self) -> UnorderedIndex:
        if self._unordered_index is None:
            self._unordered_index = UnorderedIndex(REPO_ROOT)
        return self._unordered_index

    def rule_active(self, rule: str) -> bool:
        return self.rules is None or rule in self.rules

    def report(self, path: Path, lineno: int, rule: str, message: str) -> None:
        rel = path.relative_to(REPO_ROOT) if path.is_relative_to(REPO_ROOT) else path
        num = RULE_NUMBERS.get(rule, "R?")
        self.rule_counts[f"{num}/{rule}"] += 1
        self.findings.append(f"{rel}:{lineno}: [{num}/{rule}] {message}")
        self.structured.setdefault(rule, []).append(
            {"file": str(rel), "line": lineno, "number": num,
             "message": message})

    def _local_unordered_names(self, path: Path) -> set[str]:
        """Unordered variable/member names visible to bare-name iteration in
        `path`: declarations in the file itself plus its same-stem sibling
        (foo.cpp sees foo.hpp's members and vice versa)."""
        names: set[str] = set()
        candidates = [path]
        for suffix in SOURCE_SUFFIXES:
            sib = path.with_suffix(suffix)
            if sib != path and sib.exists():
                candidates.append(sib)
        for f in candidates:
            try:
                text = f.read_text(encoding="utf-8")
            except (UnicodeDecodeError, OSError):
                continue
            variables, _ = unordered_decls_in_text(text)
            names |= variables
        return names

    def _unordered_range_exprs(self, code: str,
                               local_names: set[str]) -> list[str]:
        """Range expressions in `code` that resolve to an unordered
        container via the repo-wide name index or the file-local names.
        Shared by R10 (iteration ban) and R13 (FP reduction order)."""
        idx = self.unordered_index
        flagged: list[str] = []
        for expr in range_for_exprs(code):
            m = LAST_COMPONENT_RE.search(expr)
            if m is None:
                continue
            name, is_call = m.group(1), m.group(2) is not None
            dotted = bool(re.search(r"(?:\.|->)\s*[A-Za-z_]\w*\s*(\(\s*\))?\s*$", expr)) \
                and m.start() > 0
            if is_call:
                if name in idx.methods:
                    flagged.append(expr)
            elif dotted:
                if name in idx.members:
                    flagged.append(expr)
            else:
                if name in local_names:
                    flagged.append(expr)
        return flagged

    def _check_unordered_iter(self, path: Path, lineno: int, code: str,
                              local_names: set[str]) -> None:
        idx = self.unordered_index
        flagged_exprs = list(self._unordered_range_exprs(code, local_names))
        for m in BEGIN_CALL_RE.finditer(code):
            if m.group(1) in local_names or m.group(1) in idx.members:
                flagged_exprs.append(m.group(0))
        for expr in flagged_exprs:
            self.report(
                path, lineno, "unordered-iter",
                f"iteration over unordered container `{expr}`: order is "
                "unspecified and must not reach exports, FP accumulation, "
                "adjacency lists, or an Rng stream -- traverse a sorted key "
                "copy, or opt out with "
                "`// lint: allow(unordered-iter) -- <why order cannot leak>`",
            )

    def _check_fp_accumulation(self, path: Path, lineno: int, code: str,
                               fp_names: set[str]) -> None:
        """Flags compound FP accumulation on a line known to be inside an
        unordered-container loop body (R13)."""
        for m in FP_ACCUM_RE.finditer(code):
            target = m.group(1)
            rhs = code[m.end():]
            last = re.findall(r"[A-Za-z_]\w*", target)
            is_fp = (last and last[-1] in fp_names) or \
                bool(FP_RHS_RE.search(rhs)) or \
                (last and last[0] in fp_names)
            if not is_fp:
                continue
            self.report(
                path, lineno, "fp-reduction-order",
                f"floating-point accumulation `{m.group(0)}=...` inside "
                "iteration over an unordered container: FP addition is not "
                "associative, so the reduction depends on traversal order "
                "(the hazard parallel ALS sharding amplifies) -- traverse a "
                "sorted key copy, or opt out with `// lint: "
                "allow(fp-reduction-order) -- <why the order is pinned>`",
            )

    def _check_ref_capture(self, path: Path, lineno: int, code: str) -> None:
        """Flags a default by-reference capture on a line whose lambda
        escapes the enclosing frame (R15)."""
        if not REF_DEFAULT_CAPTURE_RE.search(code):
            return
        for pattern, context in ESCAPE_CONTEXTS:
            if pattern.search(code):
                self.report(
                    path, lineno, "ref-capture",
                    f"`[&]` default capture on a lambda {context}: every "
                    "captured reference dangles once the enclosing frame "
                    "unwinds -- capture explicitly (by value, or named `&x` "
                    "with a provable lifetime), or opt out with `// lint: "
                    "allow(ref-capture) -- <why the frame outlives the "
                    "lambda>`",
                )
                return

    def _check_static_mutable(self, path: Path, lineno: int, code: str) -> None:
        if not STATIC_DECL_RE.match(code):
            return
        if STATIC_CONST_RE.match(code):
            return
        # Function declarations/definitions are fine -- only data is state.
        # Heuristic: a '(' before any '=' marks a function signature.
        paren = code.find("(")
        eq = code.find("=")
        if paren >= 0 and (eq < 0 or paren < eq):
            return
        # `inline namespace` / `static_assert`-style lines never reach here
        # (word-boundary keywords + paren test), but `inline` without a
        # variable (rare multi-line signatures) would: require a terminator.
        if not code.rstrip().endswith((";", "{", "=")) and "=" not in code:
            return
        self.report(
            path, lineno, "static-mutable",
            "mutable static/namespace-scope state in src/: hidden shared "
            "state breaks determinism under threads; pass state explicitly "
            "or register it in the telemetry registry (the one sanctioned "
            "singleton)",
        )

    def lint_file(self, path: Path) -> None:
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            self.report(path, 1, "encoding", "file is not valid UTF-8")
            return
        lines = text.splitlines()
        is_header = path.suffix in HEADER_SUFFIXES
        try:
            rel = path.resolve().relative_to(REPO_ROOT)
            rel_parts = set(rel.parts[:-1])
            rel_str = rel.as_posix()
        except ValueError:
            rel_parts = set()
            rel_str = path.as_posix()
        if self.pretend_dir is not None:
            rel_parts = rel_parts | {self.pretend_dir}

        if is_header and self.rule_active("pragma-once"):
            self._check_pragma_once(path, lines)

        def applies(rule: str) -> bool:
            if not self.rule_active(rule):
                return False
            if rel_parts & RULE_EXEMPT_DIRS.get(rule, set()):
                return False
            only = RULE_ONLY_DIRS.get(rule)
            if only is not None and not (rel_parts & only):
                return False
            return rel_str not in RULE_EXEMPT_FILES.get(rule, set())

        run_unordered = applies("unordered-iter")
        run_fpred = applies("fp-reduction-order")
        local_unordered = self._local_unordered_names(path) \
            if (run_unordered or run_fpred) else set()
        fp_names = fp_decl_names_in_text(text) if run_fpred else set()

        # R16 pre-pass: class-scope member declarations of view/reference/
        # observer types, keyed by line for the allow-marker check below.
        view_members: dict[int, tuple[str, str]] = {}
        if applies("view-member"):
            view_members = {lineno: (kind, decl)
                            for lineno, kind, decl in scan_view_members(lines)}
        unguarded = unguarded_mutexes(lines) \
            if applies("unguarded-mutex") else {}

        # R13 state: brace depth, the stack of active unordered-loop bodies
        # (each records the depth its body must stay at or above, and whether
        # the header carried a justified allow), and a braceless loop header
        # whose single-statement body is the next code line.
        depth = 0
        fpred_loops: list[tuple[int, bool]] = []
        fpred_pending: bool | None = None  # allowed flag of a braceless header

        in_block = False
        for lineno, raw in enumerate(lines, start=1):
            allow_m = {m.group(1): m.group(2) for m in ALLOW_RE.finditer(raw)}
            allowed = set(allow_m)
            # A justification-required rule with a bare allow() is itself a
            # finding: the marker must say why the opt-out is sound.
            for rule in allowed & JUSTIFY_RULES:
                if self.rule_active(rule) and allow_m[rule] is None:
                    self.report(
                        path, lineno, rule,
                        f"allow({rule}) needs a justification: "
                        f"`// lint: allow({rule}) -- <reason>`",
                    )
            code, in_block = strip_comments_and_strings(raw, in_block)
            if not code.strip():
                continue
            for rule, pattern, message in LINE_RULES:
                if rule in allowed or not applies(rule):
                    continue
                if pattern.search(code):
                    self.report(path, lineno, rule, message)
            if run_unordered and "unordered-iter" not in allowed:
                self._check_unordered_iter(path, lineno, code, local_unordered)
            if applies("ref-capture") and "ref-capture" not in allowed:
                self._check_ref_capture(path, lineno, code)
            if lineno in view_members and "view-member" not in allowed:
                kind, decl = view_members[lineno]
                self.report(
                    path, lineno, "view-member",
                    f"{kind} member `{decl}` has no ownership justification: "
                    "the compiler cannot see whose storage backs it or why "
                    "that storage outlives this object -- own the data "
                    "(value, std::unique_ptr) or annotate with `// lint: "
                    "allow(view-member) -- <who owns the storage and why it "
                    "outlives this>`",
                )
            if lineno in unguarded and "unguarded-mutex" not in allowed:
                name = unguarded[lineno]
                self.report(
                    path, lineno, "unguarded-mutex",
                    f"Mutex `{name}` guards nothing: no member carries "
                    f"MAC_GUARDED_BY({name}) and no function carries "
                    f"MAC_REQUIRES({name}) -- annotate the state it protects "
                    "so -Wthread-safety can check the lock protocol, or "
                    "delete the mutex",
                )
            if run_fpred:
                delta = code.count("{") - code.count("}")
                hdr = self._unordered_range_exprs(code, local_unordered)
                line_allowed = "fp-reduction-order" in allowed
                if hdr:
                    # Header line: a one-line body (`for (...) x += y;` or
                    # `for (...) { x += y; }`) is checked right here.
                    if not line_allowed:
                        self._check_fp_accumulation(path, lineno, code, fp_names)
                    if delta > 0:
                        fpred_loops.append((depth + delta, line_allowed))
                    elif not code.rstrip().endswith(";"):
                        fpred_pending = line_allowed
                elif fpred_pending is not None:
                    pend_allowed = fpred_pending
                    fpred_pending = None
                    if not pend_allowed and not line_allowed:
                        self._check_fp_accumulation(path, lineno, code, fp_names)
                    if delta > 0:
                        # `for (...)\n{` style: promote to a braced body.
                        fpred_loops.append((depth + delta, pend_allowed))
                else:
                    active = any(not a for _, a in fpred_loops)
                    if active and not line_allowed:
                        self._check_fp_accumulation(path, lineno, code, fp_names)
                depth += delta
                while fpred_loops and depth < fpred_loops[-1][0]:
                    fpred_loops.pop()
            if applies("static-mutable") and "static-mutable" not in allowed:
                self._check_static_mutable(path, lineno, code)
            if is_header and self.rule_active("header-using-namespace") \
                    and "header-using-namespace" not in allowed:
                if HEADER_USING_RE.match(code):
                    self.report(
                        path, lineno, "header-using-namespace",
                        "`using namespace` in a header leaks into every includer",
                    )

    def _check_pragma_once(self, path: Path, lines: list[str]) -> None:
        for raw in lines:
            stripped = raw.strip()
            if not stripped or stripped.startswith("//"):
                continue
            if re.match(r"#\s*pragma\s+once\b", stripped):
                return
            break  # first non-comment line is not the guard
        self.report(path, 1, "pragma-once", "header must start with `#pragma once`")


def collect_files(paths: list[str]) -> list[Path]:
    roots = [REPO_ROOT / d for d in DEFAULT_DIRS] if not paths else [Path(p) for p in paths]
    files: list[Path] = []
    for root in roots:
        if root.is_file():
            files.append(root)
            continue
        for f in sorted(root.rglob("*")):
            if f.suffix in SOURCE_SUFFIXES and not (set(f.parts) & SKIP_PARTS):
                files.append(f)
    return files


def resolve_rule(spec: str) -> set[str]:
    """Rule names selected by `spec`: comma-separated Rn numbers or rule
    names."""
    names: set[str] = set()
    for item in spec.split(","):
        item = item.strip()
        if re.fullmatch(r"[Rr]\d+", item):
            num = item.upper()
            matched = {name for name, n in RULE_NUMBERS.items() if n == num}
            if not matched:
                raise SystemExit(f"lint: unknown rule number {item}")
            names |= matched
        elif item in RULE_NUMBERS:
            names.add(item)
        else:
            raise SystemExit(f"lint: unknown rule {item!r} "
                             f"(known: {', '.join(sorted(RULE_NUMBERS))})")
    return names


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument("--rule", default=None, metavar="RULE",
                        help="run only these rules, comma-separated, by "
                             "number (R10) or name (unordered-iter)")
    parser.add_argument("--pretend-dir", default=None, metavar="DIR",
                        help="treat the given files as if under this top-level "
                             "directory (lint self-test fixture support)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print every registered rule with its one-line "
                             "description and exit")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON ({rule: [findings]}) on "
                             "stdout instead of human-readable lines (summary "
                             "still goes to stderr); for CI annotation")
    args = parser.parse_args(argv)

    if args.list_rules:
        by_number = sorted(RULE_NUMBERS.items(),
                           key=lambda kv: int(kv[1][1:]))
        width = max(len(name) for name in RULE_NUMBERS)
        for name, number in by_number:
            doc = RULE_DOCS.get(name, "")
            print(f"{number:>4}  {name:<{width}}  {doc}")
        return 0

    rules = resolve_rule(args.rule) if args.rule else None
    linter = Linter(rules=rules, pretend_dir=args.pretend_dir)
    files = collect_files(args.paths)
    for f in files:
        linter.lint_file(f)

    try:
        if args.json:
            print(json.dumps(linter.structured, indent=2, sort_keys=True))
        else:
            for finding in linter.findings:
                print(finding)
    except BrokenPipeError:  # downstream consumer (head, jq) closed early
        sys.stderr.close()
        return 1
    status = 0
    if linter.findings:
        def sort_key(item: tuple[str, int]) -> tuple[int, str]:
            num = int(item[0].split("/")[0][1:])
            return (num, item[0])
        summary = ", ".join(f"{rule}: {count}" for rule, count in
                            sorted(linter.rule_counts.items(), key=sort_key))
        print(f"lint: {len(linter.findings)} finding(s) in {len(files)} files "
              f"({summary})", file=sys.stderr)
        status = 1
    else:
        print(f"lint: OK ({len(files)} files)", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
