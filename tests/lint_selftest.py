#!/usr/bin/env python3
"""Self-test for tools/lint.py against the golden fixtures in
tests/lint_fixtures/.

Each fixture line tagged `// expect-lint: <rule>[, <rule>...]` must produce
exactly those findings (at that file:line) when the linter runs with
`--pretend-dir src`, and no untagged line may produce any.  Also checks:

  * exit codes: 1 on the violating fixtures, 0 on the clean fixture;
  * --rule selection: a run restricted to R10 reports only unordered-iter,
    selection by name (raw-sync) matches selection by number (R9), and a
    comma-separated list selects the union;
  * the default repo-wide run skips tests/lint_fixtures/ entirely.

Registered in ctest as `lint_selftest` (see tests/CMakeLists.txt).
"""
from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "lint_fixtures"
LINT = REPO / "tools" / "lint.py"


def lint_rule_number(rule: str) -> str | None:
    sys.path.insert(0, str(REPO / "tools"))
    import lint  # noqa: E402

    return lint.RULE_NUMBERS.get(rule)

EXPECT_RE = re.compile(r"//\s*expect-lint:\s*([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)")
FINDING_RE = re.compile(r"^(.*?):(\d+): \[R\d+/([a-z0-9-]+)\]")

Failures = list[str]


def run_lint(*args: str) -> tuple[set[tuple[str, int, str]], int, str]:
    proc = subprocess.run(
        [sys.executable, str(LINT), *args],
        capture_output=True, text=True, cwd=REPO,
    )
    findings = set()
    for line in proc.stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            findings.add((m.group(1), int(m.group(2)), m.group(3)))
    return findings, proc.returncode, proc.stdout + proc.stderr


def expected_findings(files: list[pathlib.Path]) -> set[tuple[str, int, str]]:
    expected = set()
    for f in files:
        rel = f.relative_to(REPO).as_posix()
        for lineno, line in enumerate(
                f.read_text(encoding="utf-8").splitlines(), start=1):
            m = EXPECT_RE.search(line)
            if m is None:
                continue
            for rule in re.split(r"\s*,\s*", m.group(1)):
                expected.add((rel, lineno, rule))
    return expected


def main() -> int:
    failures: Failures = []
    fixtures = sorted(FIXTURES.glob("*.cpp")) + sorted(FIXTURES.glob("*.hpp"))
    if not fixtures:
        print(f"lint_selftest: no fixtures under {FIXTURES}", file=sys.stderr)
        return 1
    rels = [f.relative_to(REPO).as_posix() for f in fixtures]

    # 1. Full fixture run: findings must match the expect-lint markers exactly.
    expected = expected_findings(fixtures)
    actual, rc, output = run_lint("--pretend-dir", "src", *rels)
    for miss in sorted(expected - actual):
        failures.append(f"expected finding not produced: {miss}")
    for extra in sorted(actual - expected):
        failures.append(f"unexpected finding: {extra}")
    if rc != 1:
        failures.append(f"fixture run exit code: got {rc}, want 1\n{output}")

    # 2. The clean fixture alone must pass.
    clean = "tests/lint_fixtures/clean.cpp"
    _, rc_clean, out_clean = run_lint("--pretend-dir", "src", clean)
    if rc_clean != 0:
        failures.append(f"clean fixture exit code: got {rc_clean}, want 0\n"
                        f"{out_clean}")

    # 3. --rule R10 restricts to unordered-iter findings only.
    r10, _, _ = run_lint("--rule", "R10", "--pretend-dir", "src", *rels)
    if not r10:
        failures.append("--rule R10 produced no findings on the fixtures")
    for f in sorted(r10):
        if f[2] != "unordered-iter":
            failures.append(f"--rule R10 leaked a non-R10 finding: {f}")
    want_r10 = {f for f in expected if f[2] == "unordered-iter"}
    if r10 != want_r10:
        failures.append(f"--rule R10 findings mismatch: got {sorted(r10)}, "
                        f"want {sorted(want_r10)}")

    # 4. Selection by name and by number agree.
    by_name, _, _ = run_lint("--rule", "raw-sync", "--pretend-dir", "src", *rels)
    by_number, _, _ = run_lint("--rule", "R9", "--pretend-dir", "src", *rels)
    if by_name != by_number:
        failures.append(f"--rule raw-sync vs --rule R9 disagree: "
                        f"{sorted(by_name)} vs {sorted(by_number)}")

    # 4b. A comma-separated --rule list selects exactly the union.
    listed, _, _ = run_lint("--rule", "R10,raw-sync", "--pretend-dir", "src",
                            *rels)
    if listed != r10 | by_name:
        failures.append(f"--rule R10,raw-sync is not the union of R10 and "
                        f"raw-sync: {sorted(listed)}")

    # 5. The default repo-wide run never descends into the fixtures.
    repo_findings, _, _ = run_lint()
    leaked = {f for f in repo_findings if "lint_fixtures" in f[0]}
    for f in sorted(leaked):
        failures.append(f"default run descended into fixtures: {f}")

    # 6. The R13 fixture replicates real pre-burn-down sites from src/core
    #    (see fp_reduction.cpp's header) and must flag them in pretend-dir
    #    mode -- the reduction-order hazard parallel ALS reintroduces.
    r13_hits = {f for f in actual if f[2] == "fp-reduction-order"}
    if not r13_hits:
        failures.append("no fp-reduction-order finding on the fixtures: the "
                        "pre-burn-down replica in fp_reduction.cpp must flag")

    # 6b. The lifetime rules (R15/R16/R17) each produce at least one hit on
    #     their dedicated fixtures -- the guard rail ahead of the
    #     work-stealing parallelism work must demonstrably fire.
    for rule in ("ref-capture", "view-member", "pointer-key",
                 "raw-file-write", "span-direct", "unguarded-mutex"):
        if not any(f[2] == rule for f in actual):
            failures.append(f"no {rule} finding on the fixtures")

    # 7. --list-rules exits 0 and mentions every registered rule number;
    #    retired R12 stays unused.
    proc = subprocess.run(
        [sys.executable, str(LINT), "--list-rules"],
        capture_output=True, text=True, cwd=REPO,
    )
    if proc.returncode != 0:
        failures.append(f"--list-rules exit code: got {proc.returncode}, want 0")
    listed = set(re.findall(r"\bR\d+\b", proc.stdout))
    for number in [f"R{i}" for i in range(1, 21) if i != 12]:
        if number not in listed:
            failures.append(f"--list-rules omits {number}")
    if "R12" in listed:
        failures.append("--list-rules lists retired R12")

    # 8. --json emits {rule: [findings]} that round-trips to the same
    #    (file, line, rule) set as the human-readable output, and exits 1.
    proc = subprocess.run(
        [sys.executable, str(LINT), "--json", "--pretend-dir", "src", *rels],
        capture_output=True, text=True, cwd=REPO,
    )
    if proc.returncode != 1:
        failures.append(f"--json fixture run exit code: got {proc.returncode}, "
                        f"want 1")
    try:
        payload = json.loads(proc.stdout)
        json_findings = {(entry["file"], entry["line"], rule)
                         for rule, entries in payload.items()
                         for entry in entries}
        if json_findings != actual:
            failures.append(f"--json findings mismatch: got "
                            f"{sorted(json_findings)}, want {sorted(actual)}")
        for rule, entries in payload.items():
            for entry in entries:
                if entry.get("number") != lint_rule_number(rule):
                    failures.append(f"--json {rule} entry has wrong number: "
                                    f"{entry}")
    except json.JSONDecodeError as e:
        failures.append(f"--json output is not valid JSON: {e}\n{proc.stdout}")

    if failures:
        for f in failures:
            print(f"lint_selftest: FAIL: {f}", file=sys.stderr)
        print(f"lint_selftest: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print(f"lint_selftest: OK ({len(fixtures)} fixtures, "
          f"{len(expected)} expected findings)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
