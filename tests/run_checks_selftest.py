#!/usr/bin/env python3
"""Self-test for tools/run_checks.py's compile-database replay, diagnostic
parser and suppression handling.

Puts fake clang++, g++ and clang-tidy scripts on PATH that print canned
diagnostics for every TU they are handed, points a scratch compile
database at two src/ TUs and one tests/ TU, and drives run_checks.main()
in-process against a scratch suppression file.  Checks that

  * a src/ diagnostic is a finding, a system-header one is dropped, a
    tests/ one is outside the src/ lanes, and a duplicate across TUs
    counts once;
  * the replay drops -c, -o FILE and the lane's -Werror / colour flags,
    appends -fsyntax-only plus the lane's flags, and under g++ also drops
    the clang-only ones; clang-tidy gets the lane's --checks;
  * thread-safety counts only -Wthread-safety* diagnostics, the tidy lane
    only errors, and promotion markers are stripped from the flag;
  * a justified suppression silences its diagnostic and is marked used,
    an unjustified or unknown-lane entry exits 2, and an entry for a lane
    that did not run is not reported unused;
  * without clang++ the thread-safety lane skips (PASS*, exit 0) by
    default and exits 2 under --strict, as does a missing compile
    database.

Registered in ctest as `run_checks_selftest` (see tests/CMakeLists.txt).
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import re
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))
import run_checks  # noqa: E402

SRC_A = REPO / "src" / "core" / "als.cpp"
SRC_B = REPO / "src" / "core" / "scheduler.cpp"
TEST_TU = REPO / "tests" / "als_test.cpp"

# What each fake tool prints for every TU.
GXX_OUT = (
    f"{SRC_A}: In member function 'void fit()':\n"
    f"{SRC_A}:12:7: warning: conversion from 'long int' to 'int' may change "
    f"value [-Wconversion]\n"
    f"/usr/include/c++/12/bits/stl_algo.h:4000:3: warning: comparing "
    f"floating-point with '==' or '!=' is unsafe [-Wfloat-equal]\n"
    f"{TEST_TU}:5:9: warning: unused variable 'x' [-Wunused-variable]\n")
CLANG_OUT = (
    f"{SRC_B}:40:5: error: writing variable 'n_' requires holding mutex "
    f"'mu_' exclusively [-Werror,-Wthread-safety-analysis]\n"
    f"{SRC_A}:20:13: warning: implicit conversion from 'long' to 'double' "
    f"may lose precision [-Wimplicit-int-float-conversion]\n")
TIDY_OUT = (
    f"{SRC_B}:55:3: error: 'v' used after it was moved "
    f"[bugprone-use-after-move,-warnings-as-errors]\n"
    f"{SRC_B}:60:8: warning: the variable 'c' is copy-constructed from a "
    f"const reference [performance-unnecessary-copy-initialization]\n")

FAKE_TOOL = """#!{python}
import json, sys
with open({log!r}, "a") as log:
    log.write(json.dumps(sys.argv[1:]) + "\\n")
sys.{stream}.write({out!r})
"""

COMMAND = ("/usr/bin/c++ -DX=1 -I{src} -Werror -Werror=thread-safety "
           "-Wimplicit-int-float-conversion -fdiagnostics-color=always -O2 "
           "-o obj/{stem}.o -c {tu}")

FINDING_RE = re.compile(r"^[\w./-]+:\d+: ")


class Harness:
    def __init__(self, tmp: pathlib.Path) -> None:
        self.tmp = tmp
        self.log = tmp / "argv.log"
        self.gcc_bin = tmp / "gcc-bin"
        self.clang_bin = tmp / "clang-bin"
        for name, bin_dir, out, stream in (
                ("g++", self.gcc_bin, GXX_OUT, "stderr"),
                ("clang++", self.clang_bin, CLANG_OUT, "stderr"),
                ("clang-tidy", self.clang_bin, TIDY_OUT, "stdout")):
            bin_dir.mkdir(exist_ok=True)
            tool = bin_dir / name
            tool.write_text(FAKE_TOOL.format(python=sys.executable,
                                             log=str(self.log),
                                             stream=stream, out=out))
            tool.chmod(0o755)
        self.build = tmp / "build"
        self.build.mkdir()
        (self.build / "compile_commands.json").write_text(json.dumps([
            {"directory": str(self.build), "file": str(tu),
             "command": COMMAND.format(src=REPO / "src", stem=tu.stem, tu=tu)}
            for tu in (SRC_A, SRC_B, TEST_TU)]))

    def run(self, *args: str, path: pathlib.Path, suppressions=None,
            build: str = "build") -> tuple[int, str]:
        supp = self.tmp / "suppressions.json"
        supp.write_text(json.dumps(
            {"suppressions": {} if suppressions is None else suppressions}))
        run_checks.SUPPRESSIONS_PATH = supp
        os.environ["PATH"] = str(path)
        self.log.write_text("")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run_checks.main(
                ["--build-dir", str(self.tmp / build), *args])
        return code, out.getvalue()

    def argvs(self) -> list[list[str]]:
        return [json.loads(line) for line in self.log.read_text().splitlines()]


def findings(out: str, lane: str) -> list[str]:
    prefix = f"  {lane}: "
    return [line[len(prefix):] for line in out.splitlines()
            if line.startswith(prefix) and FINDING_RE.match(line[len(prefix):])]


def main() -> int:
    failures: list[str] = []

    def expect(cond: bool, what: str, out: str = "") -> None:
        if not cond:
            failures.append(f"{what}\n{out}" if out else what)

    with tempfile.TemporaryDirectory() as d:
        h = Harness(pathlib.Path(d))
        src_a, src_b, inc = str(SRC_A), str(SRC_B), f"-I{REPO / 'src'}"

        # 1. numeric-safety under the g++ fallback: scope, parser, dedup and
        #    the rewritten command.
        code, out = h.run("--only", "numeric-safety", path=h.gcc_bin)
        expect(code == 1, f"numeric-safety under g++: exit {code}, want 1", out)
        want = ["src/core/als.cpp:12: conversion from 'long int' to 'int' "
                "may change value [-Wconversion]"]
        got = findings(out, "numeric-safety")
        expect(got == want, f"numeric-safety findings: got {got}, want {want}")
        expect("replayed 2 src/ TU(s) with g++" in out,
               "numeric-safety did not replay exactly the 2 src/ TUs", out)
        flags = ["-fsyntax-only", "-Wno-error", "-Wconversion",
                 "-Wsign-conversion", "-Wdouble-promotion", "-Wfloat-equal"]
        want_argv = [["-DX=1", inc, "-O2", tu, *flags] for tu in (src_a, src_b)]
        expect(h.argvs() == want_argv,
               f"g++ replay argv: got {h.argvs()}, want {want_argv}")

        # 2. thread-safety under clang++: every TU, only -Wthread-safety*
        #    counts, the -Werror promotion marker is stripped, and the
        #    preset's own -Werror stays on the command.
        code, out = h.run("--only", "thread-safety", path=h.clang_bin)
        expect(code == 1, f"thread-safety: exit {code}, want 1", out)
        want = ["src/core/scheduler.cpp:40: writing variable 'n_' requires "
                "holding mutex 'mu_' exclusively [-Wthread-safety-analysis]"]
        got = findings(out, "thread-safety")
        expect(got == want, f"thread-safety findings: got {got}, want {want}")
        want_argv = [["-DX=1", inc, "-Werror", "-Wimplicit-int-float-conversion",
                      "-fdiagnostics-color=always", "-O2", tu, "-fsyntax-only",
                      "-Wthread-safety"] for tu in (src_a, src_b, str(TEST_TU))]
        expect(h.argvs() == want_argv,
               f"clang++ replay argv: got {h.argvs()}, want {want_argv}")

        # 3. lifetime: clang++ replay plus its clang-tidy checks.
        code, out = h.run("--only", "lifetime", path=h.clang_bin)
        got = findings(out, "lifetime")
        expect(code == 1 and len(got) == 4,
               f"lifetime: exit {code} with {len(got)} findings, want 1 "
               f"with 4", out)
        expect("src/core/scheduler.cpp:55: 'v' used after it was moved "
               "[bugprone-use-after-move]" in got,
               f"lifetime lost the tidy finding: {got}")
        tidy_argv = ["--checks=-*,bugprone-dangling-handle,"
                     "bugprone-use-after-move", "--quiet", "-p", str(h.build)]
        expect([tidy_argv + [tu] for tu in (src_a, src_b)] == h.argvs()[2:],
               f"lifetime clang-tidy argv: got {h.argvs()[2:]}")

        # 4. tidy: the .clang-tidy profile, where only errors count.
        code, out = h.run("--only", "tidy", path=h.clang_bin)
        want = ["src/core/scheduler.cpp:55: 'v' used after it was moved "
                "[bugprone-use-after-move]"]
        got = findings(out, "tidy")
        expect(code == 1 and got == want,
               f"tidy: exit {code}, findings {got}; want 1, {want}", out)
        expect(h.argvs() == [["--quiet", "-p", str(h.build), tu]
                             for tu in (src_a, src_b)],
               f"tidy argv: got {h.argvs()}")

        # 5. A justified suppression silences its finding and is marked
        #    used; an unmatched one is reported; an entry for a lane that
        #    did not run (thread-safety: no clang++ here) is not.
        justified = {"file": "src/core", "warning": "-Wconversion",
                     "justification": "fixture: the value always fits"}
        idle = {"file": "src/util", "justification": "fixture: matches nothing"}
        code, out = h.run(
            "--only", "thread-safety", "--only", "numeric-safety",
            path=h.gcc_bin, suppressions={"numeric-safety": [justified, idle],
                                          "thread-safety": [dict(idle)]})
        expect(code == 0 and not findings(out, "numeric-safety"),
               f"suppressed run: exit {code}, want 0 with no findings", out)
        expect("numeric-safety: note: unused suppression for src/util" in out,
               "unmatched numeric-safety suppression not reported", out)
        expect("unused suppression for src/core" not in out,
               "the matching suppression was reported unused", out)
        expect("thread-safety: note: unused" not in out,
               "a suppression of a lane that did not run was reported", out)

        # 6. Unjustified and unknown-lane entries are configuration errors.
        for bad in ({"numeric-safety": [{"file": "src/core", "warning": "*",
                                         "justification": "  "}]},
                    {"numeric": [{"file": "src/core", "justification": "x"}]}):
            code, out = h.run("--only", "numeric-safety", path=h.gcc_bin,
                              suppressions=bad)
            expect(code == 2, f"suppressions {bad}: exit {code}, want 2", out)

        # 7. Missing tooling: skip by default, error under --strict.
        code, out = h.run("--only", "thread-safety", path=h.gcc_bin)
        expect(code == 0 and "PASS*" in out,
               f"thread-safety without clang++: exit {code}, want 0 / PASS*",
               out)
        for args in (["--only", "thread-safety"], ["--only", "numeric-safety"]):
            code, out = h.run("--strict", *args, path=h.gcc_bin)
            expect(code == 2, f"--strict {args} without clang++: exit {code}, "
                              f"want 2", out)
        code, out = h.run("--only", "numeric-safety", path=h.clang_bin,
                          build="no-such-build")
        expect(code == 0 and "PASS*" in out,
               f"missing compile database: exit {code}, want 0 / PASS*", out)
        code, out = h.run("--strict", "--only", "numeric-safety",
                          path=h.clang_bin, build="no-such-build")
        expect(code == 2,
               f"--strict with no compile database: exit {code}, want 2", out)

    if failures:
        for f in failures:
            print(f"run_checks_selftest: FAIL: {f}", file=sys.stderr)
        print(f"run_checks_selftest: {len(failures)} failure(s)",
              file=sys.stderr)
        return 1
    print("run_checks_selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
