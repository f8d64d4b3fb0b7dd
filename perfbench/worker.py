"""One benchmark run of one workload, in the fresh interpreter run.py starts.

Runs one untimed warm-up pass of the workload's command list, then timed
passes until --seconds have passed, checking every command's outputs with the
gate.  Between the timed passes it times SETUP_STARTS fresh interpreter
starts, spread evenly over the run.  With --trace 1 the timed passes
alternate between untraced and traced, so the per-layer figures and the
tracing overhead come from one process.
Prints one JSON object as its last line of standard output.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import ionrabi.cli  # noqa: E402
import gate  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_STARTS = 30
SETUP_PROBE = "import ionrabi.cli, ionrabi.runner"


def execute(cmd, out_dir: str):
    """Run one command through the public CLI: (exit code, stdout, wall s, cpu s)."""
    argv = list(cmd.argv) + (["--out", out_dir] if cmd.writes else [])
    buf = io.StringIO()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(buf):
            code = ionrabi.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # counted as a failed command; the run goes on
        traceback.print_exc()
        code = None
    return code, buf.getvalue(), time.perf_counter() - wall0, time.process_time() - cpu0


def setup_start() -> float:
    """Wall time of one fresh interpreter start up to a ready `ionrabi.cli`."""
    t0 = time.perf_counter()
    # No timeout: with one, subprocess polls the child in sleeps of up to
    # 50 ms, and every start time would be rounded up to that step.
    subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, check=True)
    return time.perf_counter() - t0


def run_pass(commands, pass_dir: str, refs: dict) -> dict:
    """Issue every command once; outputs are checked after the command's timing."""
    wall = cpu = 0.0
    failed = 0
    problems = []
    for i, cmd in enumerate(commands):
        out_dir = os.path.join(pass_dir, f"{i}-{cmd.label}")
        code, stdout, w, c = execute(cmd, out_dir)
        wall += w
        cpu += c
        found = ([f"{cmd.label}: exit code {code}"] if code != 0
                 else gate.check(cmd, out_dir, stdout, ROOT, refs.get(cmd.label)))
        failed += bool(found)
        problems += found
    shutil.rmtree(pass_dir, ignore_errors=True)
    return {"wall_s": wall, "cpu_s": cpu, "attempted": len(commands), "failed": failed,
            "problems": problems}


def provenance(workload: str, commands) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "commands": [["ionrabi", *c.argv] for c in commands],
        "workload": workload,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True, help="directory for the passes' outputs")
    args = parser.parse_args(argv)

    commands = workloads.ordered(args.workload, args.seed)
    refs = workloads.load_refs(args.workload)
    tracer = Tracer()
    instrumentation = layers.Instrumentation(tracer)
    layer_names = [m["name"] for m in layers.per_layer()]

    warmup = run_pass(commands, os.path.join(args.tmp, "warmup"), refs)
    timed, traced_metrics, setup = [], [], []
    measured = 0.0  # seconds of timed passes, fresh starts excluded
    while measured < args.seconds or len(timed) < (2 if args.trace else 1):
        # Starts spread over the run see the machine the passes see; the
        # machine changes speed over tens of seconds (NOTES.md).
        while len(setup) < SETUP_STARTS * measured / args.seconds:
            setup.append(setup_start())
        started = time.perf_counter()
        traced = bool(args.trace) and len(timed) % 2 == 1
        if traced:
            instrumentation.install()
        try:
            result = run_pass(commands, os.path.join(args.tmp, f"pass{len(timed)}"), refs)
        finally:
            instrumentation.uninstall()
        result["traced"] = traced
        if traced:
            seen = {s.name for s in tracer.spans}
            traced_metrics.append(layers.pass_metrics(tracer.spans, layer_names))
            tracer.clear()
            missed = [name for name in layers.EXPECTED[args.workload] if name not in seen]
            if missed:
                print(f"traced run recorded no calls of {missed}", file=sys.stderr)
                return 1
        timed.append(result)
        measured += time.perf_counter() - started
    while len(setup) < SETUP_STARTS:
        setup.append(setup_start())

    passes = [warmup, *timed]
    untraced = [p for p in timed if not p["traced"]]
    out = {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "problems": [q for p in passes for q in p["problems"]][:20],
        "wall_s": [p["wall_s"] for p in untraced],
        "cpu_s": [p["cpu_s"] for p in untraced],
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": provenance(args.workload, commands),
    }
    if args.trace:
        layer_values = layers.median_metrics(traced_metrics)
        layer_values["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in timed if p["traced"])
            - statistics.median(out["wall_s"]))
        out["layers"] = layer_values
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
