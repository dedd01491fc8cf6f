#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark, registered as ctests by
e2ebench/CMakeLists.txt (run them with `ctest --test-dir BUILD_DIR`).

  selftest.py cli_parity --build-dir DIR
      metas_e2e's seed-42 small exports are byte-identical to
      `metascritic_cli --seed 42 --all-metros --scale small`, and
      checkpointing (small-ckpt) leaves them unchanged.
  selftest.py smoke --build-dir DIR
      two traced runs of small through run.py (a sweep prints both the
      end-to-end and the per-layer table): every BENCHMARK.json metric is
      printed with its unit, the trace dropped no events, at most 10% of
      run time is unattributed, and the BENCHMARK.json schema check
      accepts the committed file and rejects broken ones.
"""
import argparse
import copy
import hashlib
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

PKG = Path(__file__).resolve().parent
ROOT = PKG.parent
sys.path.insert(0, str(PKG))
import run  # noqa: E402


def run_world(build, workload, seed, tmp):
    p = subprocess.run([str(build / "metas_e2e"), "--workload", workload, "--seed", str(seed),
                        "--ckpt", str(tmp / "run.ckpt")], capture_output=True, text=True, check=True)
    return json.loads(p.stdout)


def cli_parity(build):
    with tempfile.TemporaryDirectory(dir=build) as t:
        tmp = Path(t)
        subprocess.run([str(build / "metascritic_cli"), "--seed", "42", "--all-metros", "--scale", "small",
                        "--quiet", "--out", str(tmp / "cli")], check=True, stdout=subprocess.DEVNULL)
        rec = run_world(build, "small", 42, tmp)
        digest = hashlib.sha256()
        for m in rec["metros"]:
            for kind in ("links", "ratings", "measurements"):
                digest.update((tmp / "cli" / f"{m['name']}_{kind}.csv").read_bytes())
        assert digest.hexdigest() == rec["export_sha256"], "metas_e2e exports differ from metascritic_cli's"
        ckpt = run_world(build, "small-ckpt", 42, tmp)
        assert ckpt["checkpoint"]["writes"] > 0, "small-ckpt wrote no checkpoint"
        assert ckpt["export_sha256"] == rec["export_sha256"], "checkpointing changed the exports"
    print("parity ok: small exports match the CLI and small-ckpt's")


def smoke(build):
    spec = json.loads(run.SPEC_PATH.read_text())
    assert run.check_spec(spec) == [], run.check_spec(spec)
    broken = [
        lambda s: s["workloads"].append({"name": "bad name", "why": "x"}),
        lambda s: s["workloads"].extend(copy.deepcopy(s["workloads"][:1]) * 8),
        lambda s: s["end_to_end"][1].pop("bound"),
        lambda s: s["end_to_end"].append({"name": "x", "unit": "s", "better": "lower", "bound": 0.5}),
        lambda s: s["per_layer"].append({"name": "no.such_metric", "unit": "s", "better": "lower"}),
        lambda s: s.pop("run_seconds"),
    ]
    for mutate in broken:
        s = copy.deepcopy(spec)
        mutate(s)
        assert run.check_spec(s), "schema check accepted a broken BENCHMARK.json"

    p = subprocess.run([sys.executable, str(PKG / "run.py"), "--workload", "small", "--seed", "42",
                        "--reps", "2", "--trace", "1", "--seconds", "5", "--build-dir", str(build)],
                       capture_output=True, text=True, cwd=ROOT)
    print(p.stdout)
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, result
    for m in spec["end_to_end"] + spec["per_layer"]:
        row = re.compile(rf"^{re.escape(m['name'])}\s+{re.escape(m['unit'])}\s", re.M)
        assert row.search(p.stdout), f"{m['name']} not printed with unit {m['unit']}"
        assert result["metrics"][f"small/{m['name']}"]["unit"] == m["unit"], m["name"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["small/trace.dropped_events"] == 0, "the trace dropped events"
    assert metrics["small/run.unattributed_frac"] <= 0.10, "more than 10% of run time is unattributed"
    print("smoke ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("test", choices=("cli_parity", "smoke"))
    ap.add_argument("--build-dir", required=True)
    args = ap.parse_args()
    build = Path(args.build_dir).resolve()
    (cli_parity if args.test == "cli_parity" else smoke)(build)


if __name__ == "__main__":
    main()
