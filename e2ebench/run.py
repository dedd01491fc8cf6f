#!/usr/bin/env python3
"""End-to-end benchmark of the metAScritic pipeline (see e2ebench/README.md).

Builds metas_e2e from source, runs a workload over a fixed set of worlds
derived from --seed (one fresh metas_e2e process per world, one at a
time), checks the outputs, and prints every metric by name with its unit.
The last line of standard output is one JSON object:

  {"correct": bool, "attempted": metro runs, "failed": metro runs,
   "metrics": {name: {"value": v, "unit": u}}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end ones; with
--trace 1 its per_layer ones, from traced runs.

  python3 e2ebench/run.py --workload paper --seed 42 --seconds 30 --trace 0
  python3 e2ebench/run.py                      # every workload, seed 42
  python3 e2ebench/run.py --seed 1-10 --trace 1 # seed sweep + per-layer table
  python3 e2ebench/run.py --compare BUILD_A BUILD_B --pairs 10
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "e2ebench"
SPEC_PATH = ROOT / "BENCHMARK.json"

# Mean wall seconds one world of each workload takes on the reference host
# (process start + set-up + every focus metro), over dozens of seeds.  A run
# holds floor(seconds / CASE_S) worlds, so on average it lasts at most
# --seconds there; its inputs depend only on the seed and --seconds, and a
# faster build finishes the same work sooner.
CASE_S = {"small": 3.0, "paper": 10.0, "small-ckpt": 3.3}

# Work model behind run_s_per_work_s.  Wall time per world varies ~3x across
# seeds because the pipeline adapts how much it measures; dividing by the
# work it chose to do leaves the cost per unit of work, which is steady.
# One term per kind of work: every scheduler batch rebuilds the n x n
# estimate E_m; an ALS row solve costs in proportion to the rank; and each
# metro run touches its n^2 cells a fixed number of times more (final
# build, completion, exports).  The weights are least-squares fits on 92
# worlds of small and paper on the reference host, so the metric reads
# ~1.0 there.  The counts are fixed by the seed: a change that keeps the
# exports byte-identical moves this metric exactly as it moves wall time.
# A change in how much work the pipeline does leaves it flat; the gated
# work-shape counts below and the paired run time of --compare show that.
CELL_S = 0.37e-6          # per E_m cell rebuilt by a scheduler batch
ALS_ROW_RANK_S = 0.44e-6  # per ALS row solve, per unit of estimated rank
METRO_CELL_S = 2.2e-6     # per matrix cell of a metro, once per metro run

NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")
UNIT_CHARS = NAME_CHARS | set("/%")


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def mean(xs):
    return statistics.fmean(xs) if xs else float("nan")


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


# ---------------------------------------------------------------- records

def spans(rec):
    """Every node of the registry span tree metas_e2e printed."""
    out, todo = [], list(rec["telemetry"]["spans"])
    while todo:
        node = todo.pop()
        out.append(node)
        todo.extend(node.get("children", []))
    return out


def span_s(rec, name, field="total_ns"):
    return sum(n[field] for n in spans(rec) if n["name"] == name) * 1e-9


def self_s(rec, name):
    return span_s(rec, name, "self_ns")


def ctr(rec, name):
    return rec["telemetry"]["counters"].get(name, 0)


def ckpt(rec, field):
    return (rec["checkpoint"] or {}).get(field, 0)


def work_s(m):
    cells = m["ases"] ** 2
    return CELL_S * m["batches"] * cells + ALS_ROW_RANK_S * m["als_rows"] * m["rank"] + METRO_CELL_S * cells


def ok_metros(recs):
    return [m for r in recs for m in r["metros"] if m["ok"]]


# End-to-end metrics of one run (a list of per-world metas_e2e records).
E2E = {
    "setup_s": lambda recs: median([r["setup_s"] for r in recs]),
    # Median over metro runs: also shrugs off the few slowed by a busy host.
    "run_s_per_work_s": lambda recs: median([m["s"] / work_s(m) for m in ok_metros(recs)]),
    # How much work the pipeline does, as ratios that stay steady across
    # seeds where the raw counts do not: scheduler batches (each an n x n
    # E_m rebuild) per targeted traceroute, and ALS row solves per AS.
    "batches_per_traceroute": lambda recs: mean([m["batches"] / max(1, m["traceroutes"]) for m in ok_metros(recs)]),
    "als_rows_per_as": lambda recs: mean([m["als_rows"] / m["ases"] for m in ok_metros(recs)]),
    "peak_rss_mb": lambda recs: median([r["peak_rss_mb"] for r in recs]),
    "auprc": lambda recs: mean([m["auprc"] for m in ok_metros(recs)]),
    "precision": lambda recs: mean([m["precision"] for m in ok_metros(recs)]),
    "recall": lambda recs: mean([m["recall"] for m in ok_metros(recs)]),
    "fill_fraction": lambda recs: mean([m["fill_fraction"] for m in ok_metros(recs)]),
}

# Printed beside the end-to-end metrics but not gated: they vary too much
# from world to world for a bound (README.md, "End-to-end metrics").
CONTEXT = {
    "run_s": ("s", lambda recs: median([r["run_s"] for r in recs])),
    "traceroutes": ("count", lambda recs: median([r["traceroutes"] for r in recs])),
}

# Per-layer metrics: (name, unit, end-to-end metric it should move, value of
# one traced world record `r` given its untraced twin `b`).
LAYER = [
    ("world.unattributed_s", "s", "setup_s", lambda r, b: self_s(r, "bench.setup")),
    ("bgp.compute_table_s", "s", "setup_s", lambda r, b: span_s(r, "bgp.compute_table")),
    ("bgp.tables_computed", "count", "setup_s", lambda r, b: ctr(r, "bgp.tables_computed")),
    ("bgp.cache_hit_ratio", "ratio", "setup_s",
     lambda r, b: ctr(r, "bgp.table_cache_hits") / max(1, ctr(r, "bgp.table_cache_hits") + ctr(r, "bgp.tables_computed"))),
    ("measurement.public_archives_self_s", "s", "setup_s", lambda r, b: self_s(r, "measurement.public_archives")),
    ("traceroute.probes_issued", "count", "run_s_per_work_s", lambda r, b: ctr(r, "traceroute.probes_issued")),
    ("measurement.targeted_runs", "count", "auprc", lambda r, b: ctr(r, "measurement.targeted_runs")),
    ("measurement.informative_ratio", "ratio", "auprc",
     lambda r, b: ctr(r, "measurement.informative_results") / max(1, ctr(r, "measurement.targeted_runs"))),
    ("measurement.build_matrix_ms", "ms", "run_s_per_work_s", lambda r, b: median([m["build_matrix_ms"] for m in r["metros"]])),
    ("measurement.build_matrix_calls", "count", "run_s_per_work_s",
     lambda r, b: ctr(r, "scheduler.batches_run") + ctr(r, "scheduler.campaigns_run")
     + ctr(r, "pipeline.rank_candidates_evaluated") + len(r["metros"])),
    ("scheduler.fill_rows_to_self_s", "s", "run_s_per_work_s", lambda r, b: self_s(r, "scheduler.fill_rows_to")),
    ("scheduler.batches_run", "count", "batches_per_traceroute", lambda r, b: ctr(r, "scheduler.batches_run")),
    ("scheduler.picks_selected", "count", "batches_per_traceroute", lambda r, b: ctr(r, "scheduler.picks_selected")),
    ("scheduler.rows_given_up", "count", "fill_fraction", lambda r, b: ctr(r, "scheduler.rows_given_up")),
    ("als.solve_side_s", "s", "run_s_per_work_s", lambda r, b: span_s(r, "als.solve_side")),
    ("als.fit_self_s", "s", "run_s_per_work_s", lambda r, b: self_s(r, "als.fit")),
    ("als.fits_completed", "count", "als_rows_per_as", lambda r, b: ctr(r, "als.fits_completed")),
    ("als.rows_solved", "count", "als_rows_per_as", lambda r, b: ctr(r, "als.rows_solved")),
    ("als.ns_per_row", "ns", "run_s_per_work_s",
     lambda r, b: span_s(r, "als.solve_side") * 1e9 / max(1, ctr(r, "als.rows_solved"))),
    ("rank.iteration_self_s", "s", "run_s_per_work_s", lambda r, b: self_s(r, "pipeline.rank_iteration")),
    ("rank.candidates", "count", "als_rows_per_as", lambda r, b: ctr(r, "pipeline.rank_candidates_evaluated")),
    ("pipeline.final_s", "s", "run_s_per_work_s",
     lambda r, b: span_s(r, "pipeline.final_completion") + span_s(r, "pipeline.publish_ratings")),
    ("export.s", "s", "run_s_per_work_s", lambda r, b: span_s(r, "bench.export")),
    ("export.mb", "MB", "run_s_per_work_s", lambda r, b: r["export_bytes"] / 1e6),
    ("checkpoint.writes", "count", "run_s_per_work_s", lambda r, b: ckpt(r, "writes")),
    ("checkpoint.mb", "MB", "run_s_per_work_s", lambda r, b: ckpt(r, "bytes") / 1e6),
    ("checkpoint.encode_s", "s", "run_s_per_work_s", lambda r, b: ckpt(r, "encode_s")),
    ("checkpoint.write_s", "s", "run_s_per_work_s", lambda r, b: ckpt(r, "write_s")),
    ("checkpoint.load_s", "s", "run_s_per_work_s", lambda r, b: ckpt(r, "load_s")),
    ("trace.overhead", "ratio", "run_s_per_work_s", lambda r, b: r["run_s"] / b["run_s"] - 1.0),
    ("trace.dropped_events", "count", "run_s_per_work_s", lambda r, b: r["trace"]["dropped"]),
    ("process.cpu_s", "s", "run_s_per_work_s", lambda r, b: r["cpu_s"]),
    ("run.unattributed_frac", "ratio", "run_s_per_work_s",
     lambda r, b: (self_s(r, "bench.metro") + self_s(r, "pipeline.run")) / r["run_s"]),
]
LAYER_BY_NAME = {m[0]: m for m in LAYER}


# ------------------------------------------------------------ spec checks

def check_spec(spec):
    """Problems with BENCHMARK.json, or with this harness's view of it."""
    errs = []

    def name_ok(n):
        return isinstance(n, str) and 0 < len(n) <= 64 and n[0].isalnum() and set(n) <= NAME_CHARS

    def unit_ok(u):
        return isinstance(u, str) and 0 < len(u) <= 16 and set(u) <= UNIT_CHARS

    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        errs.append(f"top-level keys {sorted(spec)} != {sorted(keys)}")
        return errs
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        errs.append("run_seconds must be a whole number in 1..60")
    wls, e2e, layer = spec["workloads"], spec["end_to_end"], spec["per_layer"]
    if not 2 <= len(wls) <= 8:
        errs.append(f"{len(wls)} workloads, want 2..8")
    if not 1 <= len(e2e) <= 16:
        errs.append(f"{len(e2e)} end-to-end metrics, want 1..16")
    if not 1 <= len(layer) <= 128:
        errs.append(f"{len(layer)} per-layer metrics, want 1..128")
    names = [w.get("name") for w in wls] + [m.get("name") for m in e2e + layer]
    for n in names:
        if not name_ok(n):
            errs.append(f"bad name {n!r}")
    if len(set(names)) != len(names):
        errs.append("names are not unique")
    for w in wls:
        if set(w) != {"name", "why"} or not (0 < len(w["why"]) <= 200) or "\n" in w["why"]:
            errs.append(f"workload {w.get('name')!r}: want exactly a name and a one-line why")
        if w.get("name") not in CASE_S:
            errs.append(f"workload {w.get('name')!r} unknown to metas_e2e")
    for m in e2e:
        if set(m) != {"name", "unit", "better", "bound"}:
            errs.append(f"end-to-end {m.get('name')!r}: want name, unit, better, bound")
            continue
        if not isinstance(m["bound"], (int, float)) or not 0 < m["bound"] <= 0.25:
            errs.append(f"{m['name']}: bound must be in (0, 0.25]")
        if m["name"] not in E2E:
            errs.append(f"{m['name']}: no end-to-end definition in run.py")
    for m in layer:
        if set(m) != {"name", "unit", "better"}:
            errs.append(f"per-layer {m.get('name')!r}: want name, unit, better")
            continue
        if m["name"] not in LAYER_BY_NAME:
            errs.append(f"{m['name']}: no per-layer definition in run.py")
        elif LAYER_BY_NAME[m["name"]][2] not in {e["name"] for e in e2e}:
            errs.append(f"{m['name']}: moves {LAYER_BY_NAME[m['name']][2]!r}, not an end-to-end metric")
        elif LAYER_BY_NAME[m["name"]][1] != m["unit"]:
            errs.append(f"{m['name']}: unit differs from run.py")
    for m in e2e + layer:
        if not unit_ok(m.get("unit")) or m.get("better") not in ("higher", "lower"):
            errs.append(f"{m.get('name')!r}: bad unit or better")
    setup = [m for m in e2e if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        errs.append("setup_s (unit s, lower) is required")
    elif any(m.get("bound", 0) > setup[0].get("bound", 0) for m in e2e):
        errs.append("setup_s must have the largest bound")
    return errs


# ------------------------------------------------------------------- runs

def build(build_dir):
    """Configures (once) and builds metas_e2e; returns the binary path."""
    log = sys.stderr
    if not any((build_dir / f).exists() for f in ("Makefile", "build.ninja")):
        subprocess.run(["cmake", "-S", str(PKG), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "metas_e2e", "-j", jobs],
                   check=True, stdout=log, stderr=log)
    return build_dir / "metas_e2e"


def case_seed(seed, k):
    """World seed of the k-th world of a run: the run's seed itself first
    (so --seed 42 starts with the CLI's seed-42 world), then derived ones."""
    return seed if k == 0 else (seed * 1_000_003 + k) % 2**31


def run_world(binary, workload, seed, out_dir, traced=False):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--ckpt", str(out_dir / f"{workload}.ckpt")]
    if traced:
        cmd += ["--trace", str(out_dir / f"{workload}.trace.json")]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    try:
        rec = json.loads(p.stdout)
    except ValueError:
        raise RuntimeError(f"{' '.join(cmd)} exited {p.returncode} without a record:\n{p.stderr}")
    if p.returncode not in (0, 1):
        raise RuntimeError(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
    return rec


class Run:
    """One benchmark run: `worlds` worlds of one workload from one seed."""

    def __init__(self, binary, workload, seed, seconds, traced, out_dir):
        self.seed = seed
        # A traced run measures each world twice (untraced, then traced) to
        # get the tracing overhead, so it holds half as many worlds.
        per_world = CASE_S[workload] * (2 if traced else 1)
        self.worlds = max(1, int(seconds // per_world))
        self.plain, self.traced = [], []
        for k in range(self.worlds):
            s = case_seed(seed, k)
            self.plain.append(run_world(binary, workload, s, out_dir))
            if traced:
                self.traced.append(run_world(binary, workload, s, out_dir, traced=True))
        recs = self.plain + self.traced
        self.attempted = sum(len(r["metros"]) for r in self.plain)
        self.failed = sum(1 for r in self.plain for m in r["metros"] if not m["ok"])
        self.failures = [f for r in recs for f in r["failures"]]
        # Tracing must not change what the pipeline computes.
        self.failures += [f"seed {p['seed']}: traced exports differ from untraced"
                          for p, t in zip(self.plain, self.traced)
                          if p["export_sha256"] != t["export_sha256"]]
        self.correct = not self.failures

    def e2e(self):
        return {name: fn(self.plain) for name, fn in E2E.items()}

    def layer(self):
        return {name: median([fn(t, p) for t, p in zip(self.traced, self.plain)])
                for name, _, _, fn in LAYER}


# ---------------------------------------------------------------- reports

def fmt(v):
    return f"{v:.6g}" if isinstance(v, (int, float)) else str(v)


def print_table(title, rows):
    print(f"\n== {title} ==")
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())


def summarize(samples):
    lo, hi = quartiles(samples)
    med = median(samples)
    spread = (hi - lo) / abs(med) if med else float("nan")
    return med, lo, hi, spread


def report_runs(workload, runs, spec):
    """Prints the tables for one workload; returns (ok, medians)."""
    ok = all(r.correct for r in runs)
    seeds = sorted({r.seed for r in runs})
    rows = [("metric", "unit", "median", "q1", "q3", "n", "spread", "bound", "check")]
    medians = {}
    for m in spec["end_to_end"]:
        samples = [r.e2e()[m["name"]] for r in runs]
        med, lo, hi, spread = summarize(samples)
        medians[m["name"]] = (med, m["unit"])
        check = "-"
        if len(samples) >= 4:
            check = "ok" if spread <= m["bound"] else "SPREAD>BOUND"
            ok &= check == "ok"
        rows.append((m["name"], m["unit"], fmt(med), fmt(lo), fmt(hi), len(samples),
                     f"{spread:.3f}", m["bound"], check))
    for name, (unit, fn) in CONTEXT.items():
        med, lo, hi, spread = summarize([fn(r.plain) for r in runs])
        rows.append((name, unit, fmt(med), fmt(lo), fmt(hi), len(runs), f"{spread:.3f}", "-", "context"))
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    rows.append(("failed_frac", "ratio", fmt(failed / max(1, attempted)), "-", "-", attempted, "-", "-",
                 "ok" if failed == 0 else "FAILED"))
    print_table(f"{workload}: {len(runs)} run(s), seeds {seeds[0]}..{seeds[-1]}, "
                f"{runs[0].worlds} world(s) per run", rows)
    for r in runs:
        for f in r.failures:
            print(f"  FAILURE (seed {r.seed}): {f}")
    if runs[0].traced:
        rows = [("metric", "unit", "moves", "median", "q1", "q3", "n")]
        per_layer = {m["name"] for m in spec["per_layer"]}
        layers = [r.layer() for r in runs]
        for name, unit, moves, _ in LAYER:
            med, lo, hi, _ = summarize([lay[name] for lay in layers])
            if name in per_layer:
                medians[name] = (med, unit)
            rows.append((name, unit, moves, fmt(med), fmt(lo), fmt(hi), len(layers)))
        print_table(f"{workload}: per-layer (traced)", rows)
        for lay in layers:
            if lay["trace.dropped_events"] != 0:
                print(f"  FAILURE: trace dropped {lay['trace.dropped_events']} events")
                ok = False
            if lay["run.unattributed_frac"] > 0.10:
                print(f"  FAILURE: {lay['run.unattributed_frac']:.1%} of run time is unattributed")
                ok = False
    return ok, medians


def metric_json(values, names, units):
    """JSON metric map; a NaN (no metro succeeded) becomes null."""
    return {n: {"value": values[n] if values[n] == values[n] else None, "unit": units[n]}
            for n in names}


def verdict(a, b, better, bound, spread=None):
    """Verdict on B's runs against A's, paired by index.  `spread` is the
    run-to-run spread that decides "unresolved"; by default A's own."""
    sign = 1 if better == "lower" else -1
    a_med, a_lo, a_hi, a_spread = summarize(a)
    b_med = median(b)
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    worse = bool(a_med) and sign * (b_med - a_med) / abs(a_med) > bound
    if all(sign * (y - x) < 0 for x in a for y in b):
        return wins, "improved"
    if worse and all(sign * (y - x) > 0 for x in a for y in b):
        return wins, "worse"
    if (a_spread if spread is None else spread) > bound:
        return wins, "unresolved"
    if wins >= 0.9 * len(a) and sign * (a_med - b_med) > a_hi - a_lo:
        return wins, "improved"
    return wins, "worse" if worse else "unchanged"


def paired_run_ratio(a, b):
    """Median over the metro runs both sides completed of B's wall time over
    A's, matched by world and metro.  Both sides ran the same worlds, so
    this sees a change in how much work the pipeline does, which
    run_s_per_work_s divides away."""
    ratios = []
    for ra, rb in zip(a.plain, b.plain):
        b_s = {m["name"]: m["s"] for m in rb["metros"] if m["ok"]}
        ratios += [b_s[m["name"]] / m["s"] for m in ra["metros"] if m["ok"] and m["name"] in b_s]
    return median(ratios)


def compare(args, spec, out_dir):
    """A/B protocol: pairs alternate which build runs first."""
    bins = [Path(b).resolve() / "metas_e2e" for b in args.compare]
    for b in bins:
        if not b.exists():
            sys.exit(f"run.py: {b} not found; build e2ebench there first")
    all_ok, attempted, failed = True, 0, 0
    for wl in args.workload or [w["name"] for w in spec["workloads"]]:
        side = {0: [], 1: []}
        same_outputs = 0
        for p in range(args.pairs):
            seed = args.seeds[p % len(args.seeds)]
            order = (0, 1) if p % 2 == 0 else (1, 0)
            runs = {s: Run(bins[s], wl, seed, args.seconds, False, out_dir) for s in order}
            for s in (0, 1):
                side[s].append(runs[s])
                attempted += runs[s].attempted
                failed += runs[s].failed
                all_ok &= runs[s].correct
            same_outputs += ([r["export_sha256"] for r in runs[0].plain]
                             == [r["export_sha256"] for r in runs[1].plain])
        rows = [("metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "B wins", "verdict")]
        cell = "{} [{}, {}]"
        for m in spec["end_to_end"]:
            a = [r.e2e()[m["name"]] for r in side[0]]
            b = [r.e2e()[m["name"]] for r in side[1]]
            wins, v = verdict(a, b, m["better"], m["bound"])
            rows.append((m["name"], m["unit"], cell.format(*map(fmt, summarize(a)[:3])),
                         cell.format(*map(fmt, summarize(b)[:3])), f"{wins}/{len(a)}", v))
        # Raw wall time as B/A per pair, A reading 1; unresolved when the
        # ratios themselves spread wider than the time bound.
        ratios = [paired_run_ratio(a, b) for a, b in zip(side[0], side[1])]
        time_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "run_s_per_work_s")
        wins, v = verdict([1.0] * len(ratios), ratios, "lower", time_bound, spread=summarize(ratios)[3])
        rows.append(("run_s (B/A paired)", "ratio", "1", cell.format(*map(fmt, summarize(ratios)[:3])),
                     f"{wins}/{len(ratios)}", v))
        all_ok &= all(row[-1] != "worse" for row in rows[1:])
        print_table(f"{wl}: A={args.compare[0]} B={args.compare[1]}, {args.pairs} pairs, "
                    f"identical exports in {same_outputs}/{args.pairs}", rows)
    print(json.dumps({"correct": all_ok, "attempted": attempted, "failed": failed, "metrics": {}}))
    return 0 if all_ok else 1


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", help="workload (repeatable; default: all in BENCHMARK.json)")
    ap.add_argument("--seed", default="42", help="seed, list or range: 42 | 1,7 | 1-10")
    ap.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: run each world untraced and traced; report per-layer metrics")
    ap.add_argument("--reps", type=int, default=1, help="runs per workload and seed")
    ap.add_argument("--compare", nargs=2, metavar=("BUILD_A", "BUILD_B"),
                    help="A/B-compare two e2ebench build directories")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--build-dir", default=".bench_build", help="relative to the repository root")
    args = ap.parse_args()

    spec = json.loads(SPEC_PATH.read_text())
    errs = check_spec(spec)
    if errs:
        sys.exit("run.py: BENCHMARK.json: " + "; ".join(errs))
    args.seeds = parse_seeds(args.seed)
    args.seconds = args.seconds or spec["run_seconds"]
    for wl in args.workload or []:
        if wl not in CASE_S:
            sys.exit(f"run.py: unknown workload {wl!r}; known: {', '.join(CASE_S)}")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    if args.compare:
        return compare(args, spec, out_dir)

    build_dir = ROOT / args.build_dir
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"run.py: cannot build metas_e2e: {e}")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    single = len(workloads) == 1 and len(args.seeds) == 1 and args.reps == 1
    all_ok, attempted, failed, metrics = True, 0, 0, {}
    t0 = time.monotonic()
    for wl in workloads:
        runs = [Run(binary, wl, seed, args.seconds, args.trace == 1, out_dir)
                for seed in args.seeds for _ in range(args.reps)]
        attempted += sum(r.attempted for r in runs)
        failed += sum(r.failed for r in runs)
        if single:
            run = runs[0]
            all_ok = run.correct
            names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
            values = run.layer() if args.trace else run.e2e()
            metrics = metric_json(values, names, units)
            print_table(f"{wl} seed {run.seed}: {run.worlds} world(s), "
                        f"{time.monotonic() - t0:.1f} s", [("metric", "unit", "value")]
                        + [(n, units[n], fmt(values[n])) for n in names])
            for f in run.failures:
                print(f"  FAILURE: {f}")
            continue
        ok, medians = report_runs(wl, runs, spec)
        all_ok &= ok
        metrics.update(metric_json({f"{wl}/{n}": v for n, (v, _) in medians.items()},
                                   [f"{wl}/{n}" for n in medians],
                                   {f"{wl}/{n}": u for n, (_, u) in medians.items()}))
    print(json.dumps({"correct": all_ok, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
