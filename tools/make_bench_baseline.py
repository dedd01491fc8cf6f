#!/usr/bin/env python3
"""Build a committed BENCH_*.json perf-trajectory baseline.

Usage:
  tools/make_bench_baseline.py perf_micro.json TELEMETRY.json -o OUT
  tools/make_bench_baseline.py perf_micro.json --prefix BM_AlsFit -o BENCH_als.json

perf_micro.json is bench/perf_micro's `--benchmark_format=json` output;
TELEMETRY.json is the snapshot perf_micro writes when METAS_TELEMETRY_OUT is
set (optional -- pure perf baselines such as BENCH_als.json omit it).  The
baseline keeps, per benchmark, the median cpu_time, the items-per-second
throughput and the median of every user counter the benchmark reports
(e.g. BM_AlsFitTraced's `trace_overhead` ratio), plus (when a telemetry
snapshot is given) the telemetry counters accumulated across the run -- enough for future PRs to diff against without
storing the full (machine-dependent) benchmark dump.  --prefix restricts the
baseline to benchmarks whose name starts with the given string, so one
perf_micro run can be split into per-gate baselines.

The output is deliberately coarse: absolute nanoseconds vary by machine, so
a baseline records them for trend context; a gate that compares against a
committed baseline (als-perf) therefore carries a generous budget and
catches step-change regressions only.  Tight budgets belong to same-machine
A/B gates such as telemetry-overhead-als (tools/check_regression.py).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("benchmark", help="google-benchmark JSON output")
    parser.add_argument("telemetry", nargs="?",
                        help="telemetry snapshot JSON (optional)")
    parser.add_argument("--prefix", default="",
                        help="keep only benchmarks whose name starts with this")
    parser.add_argument("-o", "--out", required=True,
                        help="baseline to write, e.g. BENCH_als.json")
    args = parser.parse_args(argv)

    with open(args.benchmark, encoding="utf-8") as f:
        bench = json.load(f)
    telemetry = {}
    if args.telemetry is not None:
        with open(args.telemetry, encoding="utf-8") as f:
            telemetry = json.load(f)

    # Everything google-benchmark emits per row that is NOT a user counter;
    # remaining numeric keys are counters the benchmark registered itself
    # (state.counters[...]), e.g. checkpoint_overhead or trace_overhead.
    builtin_keys = {
        "name", "run_name", "run_type", "repetitions", "repetition_index",
        "threads", "iterations", "real_time", "cpu_time", "time_unit",
        "items_per_second", "bytes_per_second", "family_index",
        "per_family_instance_index", "aggregate_name", "aggregate_unit",
        "label", "error_occurred", "error_message",
    }

    samples: dict[str, dict[str, list[float]]] = {}
    counters: dict[str, dict[str, list[float]]] = {}
    for b in bench.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        name = b.get("run_name", b.get("name", ""))
        if not name.startswith(args.prefix):
            continue
        entry = samples.setdefault(name, {"cpu_time": [], "items_per_second": []})
        entry["cpu_time"].append(float(b["cpu_time"]))
        if "items_per_second" in b:
            entry["items_per_second"].append(float(b["items_per_second"]))
        for key, value in b.items():
            if key in builtin_keys or not isinstance(value, (int, float)) \
                    or isinstance(value, bool):
                continue
            counters.setdefault(name, {}).setdefault(key, []).append(
                float(value))

    if not samples:
        print(f"make_bench_baseline: no benchmarks matching prefix "
              f"'{args.prefix}' in {args.benchmark}", file=sys.stderr)
        return 2

    out = {
        "baseline_version": 1,
        "context": {
            k: bench.get("context", {}).get(k)
            for k in ("host_name", "num_cpus", "mhz_per_cpu", "library_version")
        },
        "benchmarks": {
            name: {
                "median_cpu_time_ns": statistics.median(v["cpu_time"]),
                **({"median_items_per_second":
                        statistics.median(v["items_per_second"])}
                   if v["items_per_second"] else {}),
                **({"counters": {k: statistics.median(vals)
                                 for k, vals in sorted(counters[name].items())}}
                   if name in counters else {}),
            }
            for name, v in sorted(samples.items())
        },
        "telemetry_counters": telemetry.get("counters", {}),
        "telemetry_histograms": {
            name: {"count": h.get("count"), "sum": h.get("sum")}
            for name, h in telemetry.get("histograms", {}).items()
        },
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out} ({len(out['benchmarks'])} benchmarks, "
          f"{len(out['telemetry_counters'])} counters)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
