#!/usr/bin/env python3
"""Steadiness tool: runs one workload N times, each with another seed, and
prints per metric the median, the interquartile range as a share of the
median (quartiles as statistics.quantiles(values, n=4) gives them), and
the min-max. These are the figures the bounds in BENCHMARK.json are set
from.

    python3 perfbench/steady.py --workload ipgeo-wire --runs 10 --seconds 20

Run it from the root of the checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        p = subprocess.run(cmd, capture_output=True, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {p.returncode}\n{p.stderr}")
        res = json.loads(lines[-1])
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']}", flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"\n{args.workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}, "
          f"--seconds {args.seconds} --trace {args.trace}")
    print(f"{'metric':36} {'median':>12} {'IQR/median':>11} {'min':>12} {'max':>12}  unit")
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
        spread = (q[2] - q[0]) / med if med else 0.0
        print(f"{name:36} {med:12.4f} {spread:11.4f} {min(v):12.4f} {max(v):12.4f}  {units[name]}")


if __name__ == "__main__":
    main()
