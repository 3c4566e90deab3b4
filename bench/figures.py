"""Reference figures: repeated benchmark runs and their spread.

    python3 bench/figures.py [--seeds 10] [--seconds 30] [--workloads a,b] [--trace]

Runs bench/run.py once per seed (1..N) on each workload, one run at a
time, and prints a Markdown table per workload: for each metric the
median, the first and third quartiles, and their distance as a share of
the median, plus the share of failed operations.  With --trace it makes
one traced run per workload (seed 1) instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def bench(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    for workload in args.workloads.split(","):
        seeds = [1] if args.trace else range(1, args.seeds + 1)
        runs = [bench(workload, s, args.seconds, args.trace) for s in seeds]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n### {workload}: {len(runs)} runs, correct {all(r['correct'] for r in runs)}, "
              f"failed share {sorted(shares)}\n")
        print("| metric | unit | median | q1 | q3 | (q3-q1)/median |")
        print("| --- | --- | --- | --- | --- | --- |")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"| {name} | {first['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.3f} |")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
