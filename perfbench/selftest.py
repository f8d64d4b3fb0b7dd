"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Runs commands through the same code as a benchmark pass and checks the
gate's verdicts: real outputs pass, a value moved by a tenth of the tolerance
passes, a value moved by ten times the tolerance fails (in a golden, in a
strided row of the landscape reference and in any row of a sweep trajectory,
whose reference stores every row), a landscape value in a row the reference
does not store fails once it moves by more than the column-sum tolerance, and
a command that exits non-zero counts as failed.  Exits 1 if any verdict is wrong.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import gate
import worker
import workloads


def _command(workload: str, label: str):
    return next(c for c in workloads.WORKLOADS[workload] if c.label == label)


def _perturb_csv(path: str, row: int, col: int, delta: float):
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = "%.17e" % (float(cells[col]) + delta)
    lines[row + 1] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _perturb_json(path: str, keys: tuple, delta: float):
    with open(path) as fh:
        doc = json.load(fh)
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] += delta
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _expect(name: str, problems: list, should_pass: bool) -> bool:
    ok = (not problems) == should_pass
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {problems[0] if problems else 'passes'}")
    return ok


def main() -> int:
    scratch = os.path.join(worker.ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=scratch)
    try:
        results = []
        fig2b = _command("scan", "fig2b-convergence")
        out = os.path.join(tmp, "fig2b")
        code, stdout, _, _ = worker.execute(fig2b, out)
        traj = os.path.join(out, workloads.FIG2B, "trajectory.csv")
        meta = os.path.join(out, workloads.FIG2B, "metadata.json")

        def check_fig2b():
            return ([f"exit code {code}"] if code != 0 else []) + gate.check(
                fig2b, out, stdout, worker.ROOT, None)

        results.append(_expect("fig2b against its golden", check_fig2b(), True))
        _perturb_csv(traj, 50, 1, 0.1 * fig2b.atol)
        results.append(_expect("fig2b sigma_z moved by atol/10", check_fig2b(), True))
        _perturb_csv(traj, 50, 1, 10 * fig2b.atol)
        results.append(_expect("fig2b sigma_z moved by 10 atol", check_fig2b(), False))
        worker.execute(fig2b, out)
        _perturb_json(meta, ("scenario", "model", "eta"), 10 * fig2b.atol)
        results.append(_expect("fig2b metadata eta moved by 10 atol", check_fig2b(), False))

        landscape = _command("scan", "landscape-201x400")
        ref = workloads.load_refs("scan")[landscape.label]
        out = os.path.join(tmp, "landscape")
        worker.execute(landscape, out)
        table = os.path.join(out, "landscape", "landscape.csv")

        def check_landscape():
            return gate.check(landscape, out, "", worker.ROOT, ref)

        results.append(_expect("landscape against its reference", check_landscape(), True))
        _perturb_csv(table, 0, 7, 10 * landscape.atol)
        results.append(_expect("landscape strided row moved by 10 atol", check_landscape(), False))
        worker.execute(landscape, out)
        _perturb_csv(table, 1, 7, 2 * 201 * landscape.atol)
        results.append(_expect("landscape unstored row moved by 2 x rows x atol",
                               check_landscape(), False))

        sweep = _command("scan", "sweep-eta")
        ref = workloads.load_refs("scan")[sweep.label]
        out = os.path.join(tmp, "sweep")
        worker.execute(sweep, out)
        point = os.path.join(out, sweep.refs[0])

        def check_sweep():
            return gate.check(sweep, out, "", worker.ROOT, ref)

        results.append(_expect("sweep against its references", check_sweep(), True))
        _perturb_csv(point, 1, 1, 10 * sweep.atol)
        results.append(_expect("sweep point sigma_z row 1 moved by 10 atol", check_sweep(), False))

        bad = workloads.Command("missing-scenario",
                                ("evolve", "--scenario", "perfbench/missing.scenario"),
                                golden=fig2b.golden)
        summary = worker.run_pass([fig2b, bad], os.path.join(tmp, "pass"), {})
        counted = summary["attempted"] == 2 and summary["failed"] == 1
        results.append(_expect("pass with a non-zero exit", summary["problems"], False) and counted)
        return 0 if all(results) else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
