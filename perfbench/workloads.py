"""The benchmark's workloads: fixed command lists for `ionrabi.cli.main`.

Nothing in a workload is random.  The run seed only fixes the order in which
a pass issues its commands.  Each command writes below its own `--out`
directory, and the gate compares what it wrote with a golden or a committed
reference (see gate.py).
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

__all__ = ["Command", "WORKLOADS", "ordered", "load_refs", "REFS_DIR"]

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")
# Absolute tolerance for eigendecomposition and f1 outputs (reruns on one
# machine differ by up to 3.6e-15).
GOLDEN_ATOL = 1e-12
# Absolute tolerance for fixed-step RK4 outputs, whose roundoff accumulates
# over thousands of steps and depends on the BLAS kernel.
RK4_ATOL = 1e-10


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple
    golden: tuple = ()   # (output path below --out, golden path below the repo root)
    refs: tuple = ()     # output paths below --out checked against refs/<workload>.json
    stdout: tuple = ()   # regexes whose first group is a printed float checked against refs
    atol: float = GOLDEN_ATOL

    @property
    def writes(self) -> bool:
        return bool(self.golden or self.refs)


def _golden_run(name: str, files=("trajectory.csv", "metadata.json")) -> tuple:
    return tuple((f"{name}/{f}", f"scenarios/golden/{name}/{f}") for f in files)


FIG2B = "fig2b-nonlinear-jc-no-revival"
SWEEP_ETAS = ("0.3", "0.35", "0.4", "0.45", "0.5", "0.55", "0.6", "0.65")
ZERO_PATTERNS = (r"barrier_eta\(\d+\) = (\S+)", r"f1\(\d+, eta\) = (\S+)")

WORKLOADS = {
    # The f1 loop and all three thread pools (landscape, sweep, convergence
    # companion).  The sweep varies model.eta, the paper's scan parameter:
    # an initial.n axis fails every point because sweep casts axis values to
    # float.
    "scan": (
        Command("landscape-201x400",
                ("landscape", "--n-max", "200", "--eta-min", "0.01", "--eta-max", "1",
                 "--grid", "400", "--threads", "2"),
                refs=("landscape/landscape.csv",)),
        *(Command(f"zero-{n}", ("f1", "--find-zero", str(n)), stdout=ZERO_PATTERNS)
          for n in (7, 10, 17, 60)),
        Command("sweep-eta",
                ("sweep", "--template", "scenarios/fig2b.scenario",
                 "--axis", f"model.eta=[{','.join(SWEEP_ETAS)}]", "--threads", "2"),
                golden=((f"{FIG2B}/model_eta=0.5/trajectory.csv",
                         f"scenarios/golden/{FIG2B}/trajectory.csv"),),
                refs=tuple(f"{FIG2B}/model_eta={eta}/trajectory.csv"
                           for eta in SWEEP_ETAS if eta != "0.5")),
        Command("fig2b-convergence",
                ("evolve", "--scenario", "scenarios/fig2b.scenario", "--check-convergence",
                 "--threads", "2"),
                golden=_golden_run(FIG2B)),
    ),
    # Both Lindblad RK4 pipelines on 82x82 density matrices, shortened to 3
    # of the paper's 100 cycles with truncation 40 and the 0.5-cycle record
    # spacing kept.  fig3 runs as pinned, without --check-convergence, which
    # it fails at truncation 40.
    "dissipative": (
        Command("fig3-short", ("evolve", "--scenario", "perfbench/fig3-short.scenario"),
                refs=("fig3-short/trajectory.csv", "fig3-short/metadata.json"), atol=RK4_ATOL),
        Command("fockprep-17",
                ("fockprep", "--target", "17", "--duration", "3", "--points", "7"),
                refs=("fockprep-n17/trajectory.csv", "fockprep-n17/report.json"), atol=RK4_ATOL),
    ),
    # The time-dependent two-tone RK4 (a pure state and four apply calls per
    # step), the n_max 40 -> 60 eigh convergence reruns and the nonlinear-QRM
    # reference, over one cycle of 2*pi/g instead of the default three.
    "twotone": (
        Command("validate-fig6",
                ("validate", "--scenario", "scenarios/fig6.scenario", "--t-cycles", "1"),
                refs=("fig6-nqrm-motional-filter/validation.json",), atol=RK4_ATOL),
    ),
}


def ordered(workload: str, seed: int) -> list:
    """The workload's commands in the order a pass issues them for this seed."""
    commands = list(WORKLOADS[workload])
    random.Random(seed).shuffle(commands)
    return commands


def load_refs(workload: str) -> dict:
    path = os.path.join(REFS_DIR, f"{workload}.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as fh:
        return json.load(fh)
