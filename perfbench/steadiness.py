#!/usr/bin/env python3
"""Steadiness check for the perfbench benchmark.

Runs every workload of BENCHMARK.json in two interleaved sets of runs
(A and B), each run with its own seed, and prints per workload and
end-to-end metric:

- each set's median and quartiles;
- the spread of all runs (interquartile range over the median) against
  the metric's bound and a third of it;
- how much worse set B's median is than set A's, against the bound.

Run from the repository root:

    python3 perfbench/steadiness.py [--runs 5] [--seconds N] [--workloads a,b]

Raw results go to perfbench/out/steadiness.json. Exits non-zero when a
run fails, a spread (other than setup_s) exceeds its bound, or a set
median is worse than the other by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return result, elapsed


def worse_by(metric, first, second):
    """Share by which `second` is worse than `first` (negative: better)."""
    if metric["better"] == "lower":
        return (second - first) / first
    return (first - second) / first


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    parser.add_argument("--seconds", type=int, help="override run_seconds")
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--seed-base", type=int, default=100)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]
    metrics = bench["end_to_end"]

    values = {(s, w): [] for s in "AB" for w in workloads}
    raw = []
    seed = args.seed_base
    for i in range(args.runs):
        for set_name in "AB":
            for workload in workloads:
                result, elapsed = run_once(bench["command"], workload, seed, seconds)
                row = {m["name"]: result["metrics"][m["name"]]["value"] for m in metrics}
                values[(set_name, workload)].append(row)
                raw.append({"set": set_name, "workload": workload, "seed": seed,
                            "elapsed_s": elapsed, "attempted": result["attempted"],
                            "metrics": row})
                print(f"[{set_name}{i + 1}] {workload} seed {seed} ({elapsed:.0f} s): "
                      + ", ".join(f"{k}={v:.4g}" for k, v in row.items()), flush=True)
                seed += 1

    os.makedirs("perfbench/out", exist_ok=True)
    with open("perfbench/out/steadiness.json", "w") as f:
        json.dump(raw, f, indent=1)

    ok = True
    header = (f"{'workload':<14} {'metric':<16} {'A median':>11} {'A q1..q3':>23} "
              f"{'B median':>11} {'B q1..q3':>23} {'spread':>7} {'B worse':>8} {'bound':>6}")
    print()
    print(header)
    print("-" * len(header))
    for workload in workloads:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            a = [row[name] for row in values[("A", workload)]]
            b = [row[name] for row in values[("B", workload)]]
            qa, qb = quartiles(a), quartiles(b)
            q1, q2, q3 = quartiles(a + b)
            spread = (q3 - q1) / q2
            delta = worse_by(metric, qa[1], qb[1])
            flags = []
            if name != "setup_s" and spread > bound:
                flags.append("SPREAD>BOUND")
                ok = False
            elif name != "setup_s" and spread > bound / 3:
                flags.append("spread>bound/3")
            if delta > bound:
                flags.append("DELTA>BOUND")
                ok = False
            print(f"{workload:<14} {name:<16} {qa[1]:>11.4g} {qa[0]:>11.4g}..{qa[2]:<10.4g} "
                  f"{qb[1]:>11.4g} {qb[0]:>11.4g}..{qb[2]:<10.4g} {spread:>7.1%} "
                  f"{delta:>+8.1%} {bound:>6.2f} {' '.join(flags)}")
    print()
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
