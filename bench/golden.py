#!/usr/bin/env python3
"""Diff perfbench's simulated end-to-end figures against golden copies.

    python3 bench/golden.py [--update] [--file F] [--exe E]

Runs the perfbench executable (default _build/default/perfbench/main.exe,
built beforehand, e.g. by `make golden`) once per workload named in
BENCHMARK.json at each golden seed, with `--seconds 0 --trace 0`.
From each run's JSON line it keeps the six simulated end-to-end
metrics plus `attempted` and `failed`.  Those are a pure function of
the workload seed, so they must match bench/perfbench_golden.json
exactly; host-time metrics are not compared.

Exits 1 on a run reporting `"correct": false`, a run without a JSON
line, or any field that differs from the golden file.  Each difference
is printed as `workload seed field: old -> new`.  `--update` rewrites
the file from this tree's figures instead of comparing.
"""

import argparse
import json
import os
import subprocess
import sys

SEEDS = (11, 4242)
SIMULATED = ("knee_ops_per_s", "p50_ms", "p99_ms", "throughput_ops_per_s",
             "completed_frac", "outage_ms")
RUN_TIMEOUT_S = 600


def figures(exe, workload, seed):
    out = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S).stdout
    lines = [l for l in out.splitlines() if l.startswith("{")]
    if not lines:
        sys.exit(f"golden: {workload} seed {seed}: no JSON result")
    res = json.loads(lines[-1])
    if not res.get("correct"):
        sys.exit(f"golden: {workload} seed {seed}: correct: false")
    got = {name: res["metrics"][name]["value"] for name in SIMULATED}
    got["attempted"] = res["attempted"]
    got["failed"] = res["failed"]
    return got


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--update", action="store_true",
                    help="rewrite the golden file instead of comparing")
    ap.add_argument("--file", default=os.path.join("bench",
                                                   "perfbench_golden.json"))
    ap.add_argument("--exe", default=os.path.join("_build", "default",
                                                  "perfbench", "main.exe"))
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    fresh = {}
    for w in workloads:
        for seed in SEEDS:
            print(f"golden: {w} seed {seed}", file=sys.stderr, flush=True)
            fresh.setdefault(w, {})[str(seed)] = figures(args.exe, w, seed)
    if args.update:
        with open(args.file, "w") as f:
            json.dump(fresh, f, indent=2)
            f.write("\n")
        print(f"golden: wrote {args.file}")
        return 0
    with open(args.file) as f:
        golden = json.load(f)
    diffs = 0
    for w in workloads:
        for seed in SEEDS:
            old = golden.get(w, {}).get(str(seed), {})
            new = fresh[w][str(seed)]
            for field in list(SIMULATED) + ["attempted", "failed"]:
                if old.get(field) != new[field]:
                    diffs += 1
                    print(f"{w} {seed} {field}: {old.get(field)} -> "
                          f"{new[field]}")
    print(f"golden: {diffs} field(s) differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
