#!/usr/bin/env python3
"""Runs the benchmark ten times per workload (by default), each run with
its own seed, at BENCHMARK.json's run_seconds, and prints every
end-to-end metric's median and its spread: the distance between the
first and third quartile (statistics.quantiles with n=4) as a share of
the median, next to the metric's bound from BENCHMARK.json.

Given earlier results files with --against, it also prints, for every
pair of sets, how far the later set's median moved from the earlier
one's as a share of the earlier: positive is worse, negative better.
A move beyond the bound either way is flagged.

Run from the repository root:

    python3 perfbench/spread.py --seed 100
    python3 perfbench/spread.py --seed 200 --against .bench_build/spread-100.json

Results are written to .bench_build/spread-<seed>.json. With --runs 0
nothing is run, and only the --against files are compared.
"""
import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time


def run_set(spec, runs, seed):
    results = {}
    for w in spec["workloads"]:
        name, vals = w["name"], []
        for i in range(runs):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed + i),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.time()
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{name} seed {seed + i}: exit {out.returncode}\n{out.stderr}")
            lines = out.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{name} seed {seed + i}: {lines}")
            print("\n".join(lines[:-1]) + f" [{time.time() - t0:.0f} s]", flush=True)
            vals.append({k: v["value"] for k, v in res["metrics"].items()})
        results[name] = vals
    os.makedirs(".bench_build", exist_ok=True)
    path = f".bench_build/spread-{seed}.json"
    with open(path, "w") as f:
        json.dump(results, f, indent=1)
    print(f"results: {path}")
    return path


def report(spec, paths):
    sets = [json.load(open(p)) for p in paths]
    labels = [os.path.basename(p) for p in paths]
    over = 0
    print(f"\n{'workload':12} {'metric':18} {'set':22} {'median':>12} {'spread':>7} {'bound':>6}")
    for w in spec["workloads"]:
        name = w["name"]
        for m in spec["end_to_end"]:
            metric, bound = m["name"], m["bound"]
            meds = []
            for label, s in zip(labels, sets):
                vals = [r[metric] for r in s[name]]
                med = statistics.median(vals)
                q = statistics.quantiles(vals, n=4)
                spread = (q[2] - q[0]) / med if med else 0
                meds.append(med)
                flag = ""
                if metric != "setup_s" and spread > bound:
                    flag, over = "  <-- over the bound", over + 1
                elif metric != "setup_s" and spread * 3 > bound:
                    flag = "  <-- over a third of the bound"
                print(f"{name:12} {metric:18} {label:22} {med:12.4f} {spread:7.3f} {bound:6.2f}{flag}")
            for (i, a), (j, b) in itertools.combinations(enumerate(meds), 2):
                move = (b - a) / a if a else 0
                if m["better"] == "higher":
                    move = -move
                flag = ""
                if abs(move) > bound:
                    flag, over = "  <-- moved more than the bound", over + 1
                print(f"{'':31} {labels[j]} vs {labels[i]}: {move:+.3f}{flag}")
    print(f"\n{over} figure(s) beyond their bound")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10, help="runs per workload; 0 = only compare")
    ap.add_argument("--seed", type=int, default=100, help="first seed; run i uses seed+i")
    ap.add_argument("--against", nargs="*", default=[], help="earlier results files")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    paths = list(args.against)
    if args.runs > 0:
        paths.append(run_set(spec, args.runs, args.seed))
    if paths:
        report(spec, paths)


if __name__ == "__main__":
    main()
