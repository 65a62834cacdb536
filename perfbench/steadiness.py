#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end
metric's median, quartiles and spread (interquartile range over median).

Run from the repository root:

    python3 perfbench/steadiness.py --workloads replay,serve,route --seeds 1-10 --sets 2

Each run is the untraced command in BENCHMARK.json. A metric is steady
when its spread is below a third of its bound; setup_s is exempt from
the spread rule. With --sets 2 or more, every set runs the same seeds
again, and each later set's median must lie within the metric's bound
of the first set's (setup_s included). The tables go to standard
output; the exit code is 0 only if every check passed.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, elapsed


def run_set(command, workload, seeds, seconds):
    """Every metric's values over the seeds, and whether every run was
    correct with no failed operation."""
    values = {}
    elapsed = []
    ok = True
    for seed in seeds:
        result, secs = run_once(command, workload, seed, seconds)
        elapsed.append(secs)
        if not result["correct"] or result["failed"]:
            ok = False
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}", file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values, elapsed, ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(opts.seeds)

    ok = True
    for workload in opts.workloads.split(","):
        medians = []
        for n in range(opts.sets):
            values, elapsed, correct = run_set(bench["command"], workload, seeds,
                                               bench["run_seconds"])
            ok &= correct
            print(f"\n{workload}, set {n + 1}: {len(seeds)} seeds ({seeds[0]}..{seeds[-1]}), "
                  f"run {min(elapsed):.1f}-{max(elapsed):.1f} s\n")
            print("| metric | median | q1 | q3 | spread | bound | steady |")
            print("|---|---|---|---|---|---|---|")
            set_medians = {}
            for name, vals in values.items():
                q1, med, q3 = statistics.quantiles(vals, n=4)
                set_medians[name] = med
                spread = (q3 - q1) / med
                if name == "setup_s":
                    verdict = "-"
                else:
                    steady = spread < bounds[name] / 3
                    ok &= steady
                    verdict = "yes" if steady else "NO"
                print(f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} | "
                      f"{bounds[name]} | {verdict} |", flush=True)
            medians.append(set_medians)
        if len(medians) < 2:
            continue
        print(f"\n{workload}: medians of each set against set 1\n")
        print("| metric | " + " | ".join(f"set {n + 1}" for n in range(len(medians)))
              + " | largest change | bound | within |")
        print("|---|" + "---|" * len(medians) + "---|---|---|")
        for name, first in medians[0].items():
            changes = [abs(m[name] - first) / first for m in medians[1:]]
            within = max(changes) <= bounds[name]
            ok &= within
            print(f"| {name} | " + " | ".join(f"{m[name]:.6g}" for m in medians)
                  + f" | {max(changes):.4f} | {bounds[name]} | {'yes' if within else 'NO'} |",
                  flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
