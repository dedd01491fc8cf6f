#!/usr/bin/env python3
"""The static-analysis driver: every gate CI enforces, in one place.

Runs, in order:

  lint            tools/lint.py (rules R1-R11 and R13-R20 over the tree)
  lint-selftest   tests/lint_selftest.py (golden lint fixtures)
  trace-diff      tests/trace_diff_selftest.py (golden trace fixtures for
                  tools/trace_diff.py)
  thread-safety   clang -Wthread-safety replay of every TU
  numeric-safety  conversion / float-equality warning replay of src/ TUs
  lifetime        dangling-warning replay of src/ TUs + the clang-tidy
                  dangling-handle / use-after-move checks
  tidy            the checked-in .clang-tidy profile over src/ TUs

and prints one pass/fail/skip line per check plus a summary table.

The last four checks are rows of one lane table (LANES below): the flags
each lane replays under clang++, its g++ fallback (or none), which TUs it
replays and where its diagnostics must land, which diagnostics count, and
its clang-tidy checks.  One compile-database replay runs them all: every
TU's command from BUILD_DIR/compile_commands.json is rewritten into a
`-fsyntax-only` run under the lane's flags, one parser reads the
diagnostics, and one lane-keyed suppression file
(tools/analysis_suppressions.json) may silence a finding only with a
written justification.

Without clang++, clang-tidy or the compile database a lane skips the
missing half with a notice and reports PASS*; a lane with a g++ fallback
replays under g++ instead.  --strict applies CI semantics: anything
missing is an error.

Exit codes: 0 = every check passed (or skipped a half), 1 = findings,
2 = environment or configuration error (missing tooling under --strict,
an unjustified or malformed suppression).

Usage:
  tools/run_checks.py                       # everything; tolerate missing clang
  tools/run_checks.py --strict              # CI semantics
  tools/run_checks.py --build-dir build --only numeric-safety --only lifetime
"""
from __future__ import annotations

import argparse
import fnmatch
import json
import pathlib
import re
import shlex
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterator

REPO = pathlib.Path(__file__).resolve().parent.parent
SUPPRESSIONS_PATH = REPO / "tools" / "analysis_suppressions.json"

# Checks that are scripts of their own: name -> argv from the repo root.
SCRIPTS = {
    "lint": ["tools/lint.py"],
    "lint-selftest": ["tests/lint_selftest.py"],
    "trace-diff": ["tests/trace_diff_selftest.py"],
}

# Compile-command arguments a warning replay drops (fnmatch patterns), so
# each TU reports every diagnostic instead of stopping at the first error.
# `-o FILE` is always dropped.
DEMOTE = ("-c", "-Werror", "-Werror=*", "-fdiagnostics-color*")


@dataclass(frozen=True)
class Lane:
    name: str
    clang: tuple[str, ...]        # flags appended under clang++; () = no replay
    gcc: tuple[str, ...] | None   # g++ fallback flags; None = clang++ only
    scope: str                    # repo prefix of the replayed TUs and of the
                                  # counted diagnostics; "" = whole repository
    counts: Callable[[str, str], bool]  # (severity, flag) -> is a finding
    tidy: str | None = None       # clang-tidy --checks; "" = .clang-tidy
    drop: tuple[str, ...] = DEMOTE


NUMERIC = ("-Wconversion", "-Wsign-conversion", "-Wdouble-promotion",
           "-Wfloat-equal")

LANES = (
    # Every TU; the preset's own -Werror promotion of other warnings stays.
    Lane("thread-safety", clang=("-Wthread-safety",), gcc=None, scope="",
         counts=lambda sev, flag: flag.startswith("-Wthread-safety"),
         drop=("-c", "-Werror=thread-safety")),
    Lane("numeric-safety",
         clang=("-Wno-error", *NUMERIC, "-Wimplicit-int-float-conversion"),
         gcc=("-Wno-error", *NUMERIC), scope="src/",
         counts=lambda sev, flag: True),
    Lane("lifetime",
         clang=("-Wno-error", "-Wdangling", "-Wdangling-gsl",
                "-Wdangling-field", "-Wreturn-stack-address"),
         gcc=("-Wno-error", "-Wdangling-pointer=2", "-Wreturn-local-addr"),
         scope="src/", counts=lambda sev, flag: True,
         tidy="-*,bugprone-dangling-handle,bugprone-use-after-move"),
    # The profile's plain warnings are advisory; its WarningsAsErrors gate.
    Lane("tidy", clang=(), gcc=None, scope="src/",
         counts=lambda sev, flag: sev == "error", tidy=""),
)
LANE_BY_NAME = {lane.name: lane for lane in LANES}
CHECK_NAMES = [*SCRIPTS, *LANE_BY_NAME]

DIAG_RE = re.compile(
    r"^(?P<file>[^:\s][^:]*):(?P<line>\d+):(?:\d+:)?\s*"
    r"(?P<sev>warning|error):\s*(?P<msg>.*?)\s*\[(?P<flag>[-\w.,=]+)\]\s*$")
# Promotion markers clang++ and clang-tidy add to a diagnostic's flag.
PROMOTED = {"-Werror", "-warnings-as-errors"}


def find_tool(name: str) -> str | None:
    """`name`, or its newest versioned variant (name-19 ... name-14)."""
    for cand in [name] + [f"{name}-{v}" for v in range(19, 13, -1)]:
        path = shutil.which(cand)
        if path:
            return path
    return None


def parse_diags(text: str, directory: str) -> Iterator[tuple[str, ...]]:
    """Yields (repo-relative file, line, severity, flag, message) for every
    `file:line[:col]: warning|error: message [flag]` line of `text` that
    lands inside the repository; system and third-party headers drop out."""
    for raw in text.splitlines():
        m = DIAG_RE.match(raw)
        if m is None:
            continue
        try:
            rel = (pathlib.Path(directory) / m["file"]).resolve() \
                .relative_to(REPO).as_posix()
        except ValueError:
            continue
        flag = ",".join(p for p in m["flag"].split(",") if p not in PROMOTED)
        yield rel, m["line"], m["sev"], flag, m["msg"]


def load_suppressions(path: pathlib.Path) -> dict[str, list[dict]] | None:
    """Reads {"suppressions": {lane: [entry, ...]}}.  An entry matches a
    diagnostic by repo-relative `file` (exact path or directory prefix),
    optional `warning` (flag or tidy check; default "*" = any) and optional
    `contains` (message substring), and must say in `justification` why the
    diagnostic is sound.  Returns None after reporting a configuration
    error."""
    try:
        by_lane = json.loads(path.read_text(encoding="utf-8"))["suppressions"]
        lanes = list(by_lane.items())
    except (OSError, KeyError, AttributeError, json.JSONDecodeError) as e:
        print(f"run_checks: {path}: cannot read {{\"suppressions\": "
              f"{{lane: [...]}}}}: {e!r}")
        return None
    errors = []
    for lane, entries in lanes:
        if lane not in LANE_BY_NAME:
            errors.append(f"unknown lane {lane!r}")
            continue
        for i, entry in enumerate(entries):
            if not entry.get("file"):
                errors.append(f"{lane} #{i} has no \"file\"")
            if not str(entry.get("justification", "")).strip():
                errors.append(f"{lane} #{i} ({entry.get('file', '?')}) has no "
                              f"justification: every entry must say why the "
                              f"diagnostic is sound")
            entry["matched"] = False
    for e in errors:
        print(f"run_checks: {path.name}: {e}")
    return None if errors else by_lane


def suppressed(entries: list[dict], rel: str, flag: str, msg: str) -> bool:
    for entry in entries:
        pat = entry["file"]
        if rel != pat and not rel.startswith(pat.rstrip("/") + "/"):
            continue
        if entry.get("warning", "*") not in ("*", flag):
            continue
        if entry.get("contains", "") not in msg:
            continue
        entry["matched"] = True
        return True
    return False


def replay_argv(command: str, compiler: str, flags: tuple[str, ...],
                drop: tuple[str, ...]) -> list[str]:
    """A TU's compile command as a `-fsyntax-only` run of `compiler` with
    `flags` appended: the output file and every `drop` pattern removed."""
    args = [compiler]
    skip_next = False
    for a in shlex.split(command)[1:]:
        if skip_next:
            skip_next = False
        elif a == "-o":
            skip_next = True
        elif not any(fnmatch.fnmatchcase(a, p) for p in drop):
            args.append(a)
    return args + ["-fsyntax-only", *flags]


def run_lane(lane: Lane, build_dir: pathlib.Path, strict: bool,
             entries: list[dict]) -> tuple[int, bool]:
    """Runs one lane's compiler replay and clang-tidy pass.  Returns (exit
    code, whether a half was skipped)."""
    def say(msg: str) -> None:
        print(f"  {lane.name}: {msg}")

    def missing(what: str) -> bool:
        """Reports missing tooling; True when that is fatal (--strict)."""
        say(f"{what} (--strict)" if strict else f"{what}; skipping")
        return strict

    db_path = build_dir / "compile_commands.json"
    if not db_path.exists():
        if missing(f"{db_path}: compile database not found; configure with "
                   f"the `thread-safety` preset (or any build with "
                   f"CMAKE_EXPORT_COMPILE_COMMANDS=ON)"):
            return 2, False
        return 0, True
    tus = []
    for tu in json.loads(db_path.read_text(encoding="utf-8")):
        try:
            pathlib.Path(tu["file"]).resolve().relative_to(REPO / lane.scope)
        except ValueError:
            continue
        tus.append(tu)
    where = f"{lane.scope} " if lane.scope else ""

    findings: list[str] = []
    seen: set[tuple[str, ...]] = set()

    def collect(text: str, directory: str) -> None:
        for rel, line, sev, flag, msg in parse_diags(text, directory):
            key = (rel, line, flag, msg)
            if not rel.startswith(lane.scope) or not lane.counts(sev, flag) \
                    or key in seen:
                continue
            seen.add(key)
            if not suppressed(entries, rel, flag, msg):
                findings.append(f"{rel}:{line}: {msg} [{flag}]")

    skipped = ran = False
    if lane.clang:
        compiler, flags = find_tool("clang++"), lane.clang
        if compiler is None and lane.gcc is not None and not strict:
            compiler, flags = shutil.which("g++"), lane.gcc
        if compiler is None:
            want = "clang++" if strict or lane.gcc is None else "clang++ or g++"
            if missing(f"no {want} on PATH for the compiler replay"):
                return 2, False
            skipped = True
        else:
            # Under the g++ fallback the clang-only flags leave the command.
            drop = lane.drop + tuple(set(lane.clang) - set(flags))
            for tu in tus:
                directory = tu.get("directory", str(build_dir))
                proc = subprocess.run(
                    replay_argv(tu["command"], compiler, flags, drop),
                    cwd=directory, capture_output=True, text=True)
                collect(proc.stderr, directory)
                if proc.returncode != 0 and not proc.stderr:
                    findings.append(f"{tu['file']}: compiler replay failed "
                                    f"with no diagnostics")
            say(f"replayed {len(tus)} {where}TU(s) with "
                f"{pathlib.Path(compiler).name}")
            ran = True

    if lane.tidy is not None:
        tidy = find_tool("clang-tidy")
        if tidy is None:
            if missing("no clang-tidy on PATH"):
                return 2, False
            skipped = True
        else:
            checks = [f"--checks={lane.tidy}"] if lane.tidy else []
            for tu in tus:
                proc = subprocess.run(
                    [tidy, *checks, "--quiet", "-p", str(build_dir),
                     tu["file"]], capture_output=True, text=True)
                # clang-tidy prints findings on stdout, tool noise on stderr.
                collect(proc.stdout, tu.get("directory", str(build_dir)))
            say(f"clang-tidy checked {len(tus)} {where}TU(s) "
                f"({lane.tidy or '.clang-tidy'})")
            ran = True

    for entry in entries:
        if ran and not entry["matched"]:
            say(f"note: unused suppression for {entry['file']} "
                f"({entry.get('warning', '*')})")
    for f in findings:
        say(f)
    if findings:
        say(f"{len(findings)} finding(s)")
    return (1 if findings else 0), skipped


def run_script(argv: list[str], verbose: bool) -> int:
    proc = subprocess.run([sys.executable, *argv], cwd=REPO,
                          capture_output=True, text=True)
    if verbose or proc.returncode != 0:
        for line in (proc.stdout + proc.stderr).strip().splitlines():
            print(f"  {line}")
    return proc.returncode if proc.returncode in (0, 2) else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build-threadsafety",
                    help="directory holding compile_commands.json, relative "
                         "to the repo root (default: %(default)s, the "
                         "thread-safety preset's)")
    ap.add_argument("--strict", action="store_true",
                    help="CI semantics: a missing clang++, clang-tidy or "
                         "compile database is an error (exit 2), not a skip")
    ap.add_argument("--only", action="append", default=[], metavar="CHECK",
                    choices=CHECK_NAMES,
                    help="run only the named check (repeatable)")
    ap.add_argument("--verbose", action="store_true",
                    help="show script checks' full output even on success")
    args = ap.parse_args(argv)

    selected = [n for n in CHECK_NAMES if not args.only or n in args.only]
    suppressions = load_suppressions(SUPPRESSIONS_PATH) \
        if any(n in LANE_BY_NAME for n in selected) else {}
    results: list[tuple[str, int, str, float]] = []
    for name in selected:
        print(f"run_checks: {name} ...", flush=True)
        start = time.monotonic()
        skipped = False
        if name in SCRIPTS:
            code = run_script(SCRIPTS[name], args.verbose)
        elif suppressions is None:
            code = 2
        else:
            code, skipped = run_lane(LANE_BY_NAME[name],
                                     REPO / args.build_dir, args.strict,
                                     suppressions.get(name, []))
        status = ("PASS*" if skipped else "PASS", "FAIL", "ERROR")[code]
        elapsed = time.monotonic() - start
        print(f"run_checks: {name}: {status} ({elapsed:.1f}s)", flush=True)
        results.append((name, code, status, elapsed))

    width = max(len(n) for n, _, _, _ in results)
    print()
    print(f"{'check'.ljust(width)}  status  time")
    print(f"{'-' * width}  ------  ------")
    for name, _, status, elapsed in results:
        print(f"{name.ljust(width)}  {status.ljust(6)}  {elapsed:6.1f}s")
    if any(s == "PASS*" for _, _, s, _ in results):
        print("\n* = a half skipped (no clang++, clang-tidy or compile "
              "database); run with --strict for CI semantics")

    failed = [n for n, code, _, _ in results if code]
    if failed:
        print(f"\nrun_checks: FAILED: {', '.join(failed)}")
    else:
        print("\nrun_checks: all checks passed")
    return max(code for _, code, _, _ in results)


if __name__ == "__main__":
    sys.exit(main())
