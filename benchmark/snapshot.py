#!/usr/bin/env python3
"""Write one ledger snapshot: every workload, untraced and traced.

    python3 benchmark/snapshot.py [--seed 1] [--spread A.json B.json]

Run it from the root of the checkout. The snapshot goes to
benchmark/results/BENCH_<stamp>.json with the machine, the Go version
and the commit it was taken on; --spread folds in the per-run results
that spread.py --json wrote for the two acceptance sets.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time


def sh(*cmd):
    return subprocess.run(cmd, capture_output=True, text=True).stdout.strip()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--spread", nargs="*", default=[])
    args = ap.parse_args()
    manifest = json.load(open("BENCHMARK.json"))
    snap = {
        "stamp": time.strftime("%Y%m%dT%H%M%SZ", time.gmtime()),
        "commit": sh("git", "rev-parse", "HEAD"),
        "dirty": bool(sh("git", "status", "--porcelain")),
        "go": sh("go", "version"),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "run_seconds": manifest["run_seconds"],
        "workloads": {},
    }
    for w in manifest["workloads"]:
        runs = {}
        for trace in (0, 1):
            with tempfile.NamedTemporaryFile(suffix=".json") as out:
                cmd = manifest["command"] + ["--workload", w["name"], "--seed", str(args.seed),
                                             "--seconds", str(manifest["run_seconds"]),
                                             "--trace", str(trace), "--out", out.name]
                p = subprocess.run(cmd, capture_output=True, text=True)
                if p.returncode != 0:
                    sys.exit(f"{w['name']} trace {trace}: exit {p.returncode}\n{p.stdout}{p.stderr}")
                run = json.load(open(out.name))
            # The harness spans of a replay run to thousands; the snapshot
            # keeps their self time per name (harness_self_ms).
            del run["spans"]
            runs["traced" if trace else "untraced"] = run
            print(w["name"], "trace", trace, "ok", flush=True)
        snap["workloads"][w["name"]] = runs
    sets = []
    for path in args.spread:
        per_workload = {}
        for name, rs in json.load(open(path)).items():
            per_workload[name] = {}
            for m in manifest["end_to_end"]:
                vs = [r["metrics"][m["name"]]["value"] for r in rs]
                q1, _, q3 = statistics.quantiles(vs, n=4)
                med = statistics.median(vs)
                per_workload[name][m["name"]] = {"median": med, "spread": (q3 - q1) / med, "values": vs}
        sets.append(per_workload)
    snap["acceptance_sets"] = sets
    os.makedirs("benchmark/results", exist_ok=True)
    path = f"benchmark/results/BENCH_{snap['stamp']}.json"
    json.dump(snap, open(path, "w"), indent=1)
    print("wrote", path)


if __name__ == "__main__":
    main()
