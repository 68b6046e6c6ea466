#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --workloads churn serve --seeds 1-10

For every workload and end-to-end metric it prints the median of the
runs and the distance between the first and third quartile as a share of
the median, next to the metric's bound in ``BENCHMARK.json``.  A
benchmark is steady when every spread except ``setup_s``'s stays well
below its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=["churn", "serve"])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for workload in args.workloads:
        values = {}
        for seed in seeds_of(args.seeds):
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            started = time.perf_counter()
            run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            elapsed = time.perf_counter() - started
            try:
                result = json.loads(run.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                print(f"{workload} seed {seed}: exit {run.returncode}, no result\n"
                      f"{run.stderr[-2000:]}", flush=True)
                continue
            print(f"{workload} seed {seed}: {elapsed:.0f} s, exit {run.returncode}, "
                  f"correct {result['correct']}, "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            print(f"  {workload} {name}: median {median:.4g} spread {spread:.3f}"
                  + (f" bound {bound}" if bound is not None else ""), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
