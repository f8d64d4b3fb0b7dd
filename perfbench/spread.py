"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/spread.py

Runs every workload of BENCHMARK.json with seeds 1 to 10.  For each workload
and metric prints the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`), and the spread (q3 - q1) / median next
to the metric's bound from BENCHMARK.json.  Runs one benchmark process at a
time, each with the run length BENCHMARK.json sets.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        started = time.perf_counter()
        for seed in SEEDS:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs failed the gate", file=sys.stderr)
                return 1
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
        print(f"{workload}: {len(runs)} runs in {time.perf_counter() - started:.0f} s", flush=True)
        for metric in result["metrics"]:
            values = [r[metric] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median if median else float("nan")
            print(f"{workload:12s} {metric:45s} median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {share:.4f} bound {bounds[metric]}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
