#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs each workload of BENCHMARK.json once per seed (ten seeds by
default), untraced, and prints for each end-to-end metric the median and
the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to
the metric's bound. A spread above a third of the bound is flagged.

    python3 benchmark/spread.py [--seeds 1-10] [--workload NAME] [--json OUT]

Run it from the root of the checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10", help="first-last")
    ap.add_argument("--workload", action="append", help="only these workloads")
    ap.add_argument("--json", help="write every run's result line to this file")
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    manifest = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    runs = {}
    worst = 0.0
    for w in manifest["workloads"]:
        name = w["name"]
        if args.workload and name not in args.workload:
            continue
        values = {m: [] for m in bounds}
        runs[name] = []
        for seed in range(first, last + 1):
            cmd = manifest["command"] + ["--workload", name, "--seed", str(seed),
                                         "--seconds", str(manifest["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{name} seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}")
            line = json.loads(out.stdout.strip().splitlines()[-1])
            if not line["correct"] or line["failed"]:
                sys.exit(f"{name} seed {seed}: {line}")
            runs[name].append({"seed": seed, **line})
            for m in bounds:
                values[m].append(line["metrics"][m]["value"])
        print(name)
        for m, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / med
            flag = ""
            if m != "setup_s" and spread > bounds[m] / 3:
                flag = "  <-- above a third of the bound"
                worst = max(worst, spread / bounds[m])
            print(f"  {m:12s} median {med:12.4f}  spread {spread:7.2%}  bound {bounds[m]:.0%}{flag}")
        sys.stdout.flush()
    if args.json:
        json.dump(runs, open(args.json, "w"), indent=1)
    if worst > 1:
        sys.exit("a spread exceeds its bound")


if __name__ == "__main__":
    main()
