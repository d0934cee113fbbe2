#!/usr/bin/env python3
"""Checks the benchmark against its own declaration in BENCHMARK.json.

Run from the repository root:

  python3 l0bench/selfcheck.py spread --workload service_zipf --seeds 1-5
      Runs the benchmark untraced once per seed and prints, per end-to-end
      metric, the median and the quartile spread (Q3 - Q1, as
      statistics.quantiles(values, n=4) gives them) as a share of the
      median, against the metric's bound. Every run must be correct.

  python3 l0bench/selfcheck.py determinism --workload paper_suite --seeds 1,2
      Runs the first seed twice and the others once, untraced and traced.
      Every run must be correct, and the two runs of the first seed must
      agree exactly on every metric predictions.json marks deterministic.

Both subcommands accept --seconds (default: BENCHMARK.json's run_seconds)
and repeat --workload; without it they cover every workload. Both also
check that predictions.json has one entry per per-layer metric of
BENCHMARK.json (the binary takes its metric names and units from
BENCHMARK.json itself).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def load_predictions(bench):
    """Checks predictions.json against BENCHMARK.json and returns the set of
    metrics that are pure functions of the inputs (equal seeds must give
    equal values)."""
    with open(os.path.join(HERE, "predictions.json")) as f:
        doc = json.load(f)
    predictions = doc["per_layer"]
    declared = {m["name"] for m in bench["per_layer"]}
    predicted = {p["metric"] for p in predictions}
    if declared != predicted:
        sys.exit(f"predictions.json mismatch: missing {sorted(declared - predicted)}, "
                 f"extra {sorted(predicted - declared)}")
    workloads = {w["name"] for w in bench["workloads"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    for p in predictions:
        named = p["on"] + p["unchanged_on"] + p["not_measured_on"]
        if p["moves"] not in e2e | {None} or not set(named) <= workloads:
            sys.exit(f"predictions.json: bad entry {p}")
    if not set(doc["deterministic_end_to_end"]) <= e2e:
        sys.exit("predictions.json: deterministic_end_to_end names an unknown metric")
    return set(doc["deterministic_end_to_end"]) | {p["metric"] for p in predictions
                                                   if p["deterministic"]}


def run(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr}")
    sys.stderr.write(p.stderr)
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{workload} seed {seed}: bad result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: incorrect ({result['failed']} of "
                 f"{result['attempted']} ops failed)")
    return {k: v["value"] for k, v in result["metrics"].items()}


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(bench, workloads, seeds, seconds):
    worst = 0.0
    for w in workloads:
        runs = [run(bench, w, s, seconds, 0) for s in seeds]
        print(f"{w}: {len(runs)} runs, seeds {seeds[0]}..{seeds[-1]}")
        for m in bench["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med if med else float("inf")
            worst = max(worst, share / m["bound"])
            verdict = ("steady" if share < m["bound"] / 3
                       else "ok" if share <= m["bound"] else "NOISY")
            print(f"  {m['name']:12s} median {med:<14.6g} spread {share:7.2%} "
                  f"bound {m['bound']:.0%} {verdict}")
    print(f"worst spread / bound: {worst:.2f} (steady below 0.33)")


def determinism(bench, deterministic, workloads, seeds, seconds):
    for w in workloads:
        for trace in (0, 1):
            first = run(bench, w, seeds[0], seconds, trace)
            again = run(bench, w, seeds[0], seconds, trace)
            for s in seeds[1:]:
                run(bench, w, s, seconds, trace)
            diff = {k: (first[k], again[k]) for k in first
                    if k in deterministic and first[k] != again[k]}
            if diff:
                sys.exit(f"{w} trace {trace}: same seed, different values {diff}")
            print(f"{w} trace {trace}: deterministic metrics identical, "
                  f"all {len(seeds) + 1} runs correct")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", choices=["spread", "determinism"])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    bench = load_bench()
    deterministic = load_predictions(bench)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    seeds = seeds_of(args.seeds)
    if args.mode == "spread":
        spread(bench, workloads, seeds, seconds)
    else:
        determinism(bench, deterministic, workloads, seeds, seconds)


if __name__ == "__main__":
    main()
