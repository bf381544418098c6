#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs perfbench/run.sh once per seed for each workload and prints, for
every end-to-end metric the report prints (the result line's metrics and
the workload-specific ones above it), its unit, the median, the
quartiles as statistics.quantiles(values, n=4) gives them, and the
spread: the distance between the quartiles as a share of the median.
It stops at the first run that fails, a failed correctness check
included.

Run from the repository root; with --runs 1 it is the one command that
runs every workload once:

    python3 perfbench/steadiness.py --runs 10 --seconds 10 read-open answers-closed mixed-durable
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    values = {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}
    # The human-readable end-to-end section also carries the metrics
    # that exist on one workload only.
    section = False
    for line in lines[:-1]:
        if line.startswith("end-to-end"):
            section = True
            continue
        if section and not line.startswith("  "):
            break
        if section:
            name, value, unit = line.split()[:3]
            values.setdefault(name, (float(value), unit))
    return values


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    for w in args.workloads:
        runs = [run_once(w, args.first_seed + i, args.seconds, args.trace) for i in range(args.runs)]
        print(f"{w}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        for name, (_, unit) in runs[0].items():
            vals = [r[name][0] for r in runs if name in r]
            med = statistics.median(vals)
            q1, q3 = (statistics.quantiles(vals, n=4)[::2] if len(vals) > 1 else (med, med))
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:34s} {unit:6s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  spread {spread:7.3f}")
            print("      runs: " + " ".join(f"{v:.4g}" for v in vals))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
