"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 bench/spread.py --seeds 10 [--workloads sg-solve mc] [--trace 0]
                            [--out bench/results/summary.json]

Seeds run in the outer loop and workloads in the inner one, so slow drift
of the machine is spread over all workloads.  For every metric it prints
the median of the per-run values, their quartiles (``statistics.quantiles``
with n=4) and the spread (q3 - q1) / median next to the metric's bound in
BENCHMARK.json.  ``--out`` writes the same figures as JSON, which is how
``baseline.json`` was made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        definition = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in definition["end_to_end"]}
    values: dict = {w: {} for w in args.workloads}
    runs: dict = {w: {"attempted": 0, "failed": 0, "incorrect": 0} for w in args.workloads}
    for seed in range(args.seeds):
        for w in args.workloads:
            cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(definition["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[w]["attempted"] += result["attempted"]
            runs[w]["failed"] += result["failed"]
            runs[w]["incorrect"] += not result["correct"]
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            shown = ", ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
                              if n in bounds)
            print(f"{w} seed {seed}: correct={result['correct']} {shown}", flush=True)

    summary = {}
    for w in args.workloads:
        summary[w] = {"runs": runs[w], "metrics": {}}
        print(f"\n{w}: {runs[w]}")
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            summary[w]["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                           "spread": spread, "n": len(vals)}
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"  {name:28s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:.3f}{flag}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
