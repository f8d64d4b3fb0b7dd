"""Benchmark driver for ionrabi.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The driver starts one fresh
interpreter for the workload (worker.py), which also times the fresh
interpreter starts behind setup_s, and waits for it.  Every child
gets one BLAS/OpenMP thread and no IONRABI_OUTDIR, and writes only below a
temporary directory inside the checkout that is removed afterwards.  Prints a
provenance line, then the result as one JSON object on the last line.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import per_layer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# One setting for every commit: BLAS threading moves results in both
# directions on a shared two-core machine (see NOTES.md).
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TIME_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("IONRABI_OUTDIR", None)
    env.update(BLAS_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    needed = [os.path.join(ROOT, "src", "ionrabi", "cli.py"),
              os.path.join(ROOT, "scenarios", "golden")]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print(f"run.py: not a source checkout of ionrabi, missing {missing}", file=sys.stderr)
        return 2

    env = child_env()
    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root)
    try:
        worker = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--tmp", tmp],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, TIME_LIMIT_S - (time.perf_counter() - started)))
    except subprocess.TimeoutExpired:
        print("run.py: the workload did not finish in time", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if worker.returncode != 0:
        print(f"run.py: worker exited with code {worker.returncode}", file=sys.stderr)
        return 1
    report = json.loads(worker.stdout.strip().splitlines()[-1])

    provenance = dict(report["provenance"], git_commit=git_commit(), seed=args.seed,
                      seconds=args.seconds, trace=args.trace, setup_s=report["setup_s"],
                      wall_s=report["wall_s"], cpu_s=report["cpu_s"],
                      failed_frac=report["failed"] / report["attempted"],
                      problems=report["problems"])
    print("provenance " + json.dumps(provenance))
    if args.trace:
        metrics = {m["name"]: {"value": report["layers"][m["name"]], "unit": m["unit"]}
                   for m in per_layer()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(report["wall_s"]), "unit": "s"},
            "cpu_s": {"value": statistics.median(report["cpu_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(report["setup_s"]), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
