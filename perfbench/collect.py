#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises the spread.

Run from the root of the checkout:

    python3 perfbench/collect.py --runs 10 [--sets 2] [--workloads wan-cubic,s2-recv]
        [--trace] [--out perfbench/trajectory.json --label NAME]

A set makes --runs end-to-end runs of each workload, run i with
--seed i. For each end-to-end metric it prints the median, the
quartiles and the spread: the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median.
A metric is steady when its spread is below a third of its bound in
BENCHMARK.json, and every sim_* metric must read the same in every run.
With --sets 2 or more the sets run one after the other, and each later
set's median may be worse than the first set's by at most the bound.
With --trace it also makes one traced run per workload. With --out it
appends the summary as a point to the trajectory file. The exit code is
0 only if every run was correct, every metric steady and every set
agreed with the first.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def measure(spec, name, runs):
    """One set on one workload: its verdict and per-metric summary."""
    metrics = spec["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    correct = True
    for seed in range(1, runs + 1):
        res, _ = run_once(spec["command"], name, seed, spec["run_seconds"], 0)
        correct = correct and res["correct"] and res["failed"] == 0
        for m in values:
            values[m].append(res["metrics"][m]["value"])
    summary = {"correct": correct, "end_to_end": {}}
    ok = correct
    print(f"{name}: {runs} runs, all correct: {correct}")
    for m in metrics:
        xs = values[m["name"]]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        steady = spread < m["bound"] / 3
        if m["name"].startswith("sim_") and len(set(xs)) != 1:
            steady = False  # simulated outputs must repeat exactly
        ok = ok and steady
        summary["end_to_end"][m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": xs}
        print(f"  {m['name']:20s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {spread:.4f}  bound/3 {m['bound'] / 3:.4f}{'' if steady else '  NOT STEADY'}")
    return ok, summary


def worse_share(metric, first, later):
    """How much worse the later median is than the first, as a share of it."""
    d = (first - later) if metric["better"] == "higher" else (later - first)
    return d / first


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", default="")
    ap.add_argument("--label", default="")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = opts.workloads.split(",") if opts.workloads else [w["name"] for w in spec["workloads"]]
    point = {"label": opts.label, "host": f"{os.cpu_count()} CPUs, {platform.machine()}",
             "runs": opts.runs, "run_seconds": spec["run_seconds"], "sets": []}
    ok = True
    for k in range(opts.sets):
        print(f"set {k + 1} of {opts.sets}")
        summaries = {}
        for name in names:
            steady, summaries[name] = measure(spec, name, opts.runs)
            ok = ok and steady
        point["sets"].append(summaries)

    if opts.sets > 1:
        point["worse_than_first_set"] = {}
        for name in names:
            rows = {}
            for m in spec["end_to_end"]:
                first = point["sets"][0][name]["end_to_end"][m["name"]]["median"]
                shares = [worse_share(m, first, s[name]["end_to_end"][m["name"]]["median"])
                          for s in point["sets"][1:]]
                agree = all(x <= m["bound"] for x in shares)
                ok = ok and agree
                rows[m["name"]] = shares
                print(f"{name} {m['name']:20s} later sets worse than the first by "
                      f"{', '.join(f'{x:+.4f}' for x in shares)}  bound {m['bound']}"
                      f"{'' if agree else '  DISAGREE'}")
            point["worse_than_first_set"][name] = rows

    if opts.trace:
        point["traced"] = {}
        for name in names:
            res, lines = run_once(spec["command"], name, 1, spec["run_seconds"], 1)
            ok = ok and res["correct"]
            point["traced"][name] = {"correct": res["correct"],
                                     "per_layer": {k: v["value"] for k, v in res["metrics"].items()}}
            print(f"{name}: traced run correct: {res['correct']}")
            for line in lines:
                if "repetition" in line or "CHECK" in line:
                    print("  " + line)

    if opts.out:
        try:
            with open(opts.out) as f:
                doc = json.load(f)
        except FileNotFoundError:
            doc = {"points": []}
        doc["points"].append(point)
        with open(opts.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
