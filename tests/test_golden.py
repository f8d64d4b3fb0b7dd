"""Every committed golden under scenarios/golden/ is reproduced by the CLI,
and every figure scenario shows the paper's claim for that figure.

CSVs must have the exact header and row count and every value within ATOL;
metadata.json must have the same structure with every number within ATOL.
Reruns are not byte-identical (the last of the 17 written digits can move),
so the comparison carries a tolerance.  fig3 integrates 41,400 fixed RK4
steps, so its rounding drift can build up: it is held to RK4_ATOL.  Taking
each step as the two quadratic factors of the RK4 polynomial, not as four
right-hand sides, moved its values by at most 1.23e-11 (n_mean; fidelity
5.9e-16, sigma_z 7.2e-13).
"""
import csv
import json
import math
import operator
from pathlib import Path

import numpy as np
import pytest

from ionrabi.cli import main
from ionrabi.dynamics import Trajectory
from ionrabi.protocols import population_above, revival_ratio

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "scenarios" / "golden"
ATOL = 1e-12
RK4_ATOL = 1e-10

EVOLVED = {
    "fig2a": "fig2a-jc-collapse-revival",
    "fig2b": "fig2b-nonlinear-jc-no-revival",
    "fig3": "fig3-dissipative-fock-prep",
    "fig4": "fig4-nqrm-barrier-fock",
    "fig5": "fig5-qrm-dsc-revival",
    "fig6": "fig6-nqrm-motional-filter",
}


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def assert_csv_close(got, want, atol=ATOL):
    got_header, got_rows = _read_csv(got)
    want_header, want_rows = _read_csv(want)
    assert got_header == want_header
    assert len(got_rows) == len(want_rows)
    worst = max(abs(a - b) for ga, wa in zip(got_rows, want_rows) for a, b in zip(ga, wa))
    assert worst <= atol, f"{got}: largest difference {worst:.3e}"


def assert_json_close(got, want, atol=ATOL, where="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_json_close(got[key], want[key], atol, f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_json_close(g, w, atol, f"{where}[{i}]")
    elif isinstance(want, float) or (isinstance(want, int) and not isinstance(want, bool)):
        assert type(got) is type(want), where
        assert math.isclose(got, want, rel_tol=0.0, abs_tol=atol), where
    else:
        assert got == want, where


def test_fig1_landscape(tmp_path):
    assert main(["landscape", "--config", str(ROOT / "scenarios" / "fig1.scenario"),
                 "--out", str(tmp_path)]) == 0
    name = "fig1-f1-landscape"
    assert_csv_close(tmp_path / name / "landscape.csv", GOLDEN / name / "landscape.csv")


@pytest.fixture(scope="module")
def evolved(tmp_path_factory):
    """The output directory of a figure, evolved by the CLI once per module."""
    out = tmp_path_factory.mktemp("evolved")
    done = set()

    def outputs(fig):
        if fig not in done:
            assert main(["evolve", "--scenario", str(ROOT / "scenarios" / f"{fig}.scenario"),
                         "--out", str(out)]) == 0
            done.add(fig)
        return out / EVOLVED[fig]
    return outputs


@pytest.mark.parametrize("fig", sorted(EVOLVED))
def test_evolved_figure(evolved, fig):
    got_dir = evolved(fig)
    name = EVOLVED[fig]
    atol = RK4_ATOL if fig == "fig3" else ATOL
    assert_csv_close(got_dir / "trajectory.csv", GOLDEN / name / "trajectory.csv", atol)
    with open(got_dir / "metadata.json") as fh:
        got = json.load(fh)
    with open(GOLDEN / name / "metadata.json") as fh:
        want = json.load(fh)
    assert_json_close(got, want, atol)


def _at(traj, cycles):
    """Record indices at the given times in cycles, which must be on the grid."""
    idx = np.abs(traj.times[:, None] - np.atleast_1d(cycles)).argmin(axis=0)
    assert np.allclose(traj.times[idx], cycles, rtol=0.0, atol=1e-9)
    return idx


def _leak_beyond_initial_tail(traj, n_star):
    above = population_above(traj, n_star)
    return above.max() - above[0]


# figure -> (measure of its trajectory, comparison, bound), thresholds from
# the paper's claims; the revival time of the JC at nbar = 30 is sqrt(30) cycles
CLAIMS = {
    # JC: <sigma_z> collapses, then revives
    "fig2a": (lambda traj: revival_ratio(traj, math.sqrt(30)), operator.gt, 10.0),
    # nonlinear JC at eta = 0.5: no revival above the collapse plateau
    "fig2b": (lambda traj: revival_ratio(traj, math.sqrt(30)), operator.lt, 1.0),
    # nonlinear anti-JC plus qubit decay prepares |17> within 100 cycles
    "fig3": (lambda traj: traj.phonons[_at(traj, 100.0)[0], 17], operator.ge, 0.999),
    # the f1(7) zero keeps |0, down> below n = 8
    "fig4": (lambda traj: population_above(traj, 7).max(), operator.le, 1e-8),
    # the f1(10) zero: nothing climbs past n = 10 beyond the initial coherent tail
    "fig6": (lambda traj: _leak_beyond_initial_tail(traj, 10), operator.le, 1e-8),
    # deep-strong QRM returns to its initial state every 2*pi/omega_R = 2 cycles
    "fig5": (lambda traj: traj.fidelity[_at(traj, [2.0, 4.0, 6.0, 8.0, 10.0])].min(),
             operator.ge, 1.0 - 1e-9),
}


def _read_trajectory(path):
    """The Trajectory a trajectory.csv holds, its times the t column in
    cycles; an observable the scenario does not record is None."""
    header, rows = _read_csv(path)
    columns = dict(zip(header, np.array(rows).T))
    levels = [name for name in header if name.startswith("P_")]
    return Trajectory(times=columns["t"], sigma_z=columns.get("sigma_z"),
                      fidelity=columns.get("fidelity"), n_mean=columns.get("n_mean"),
                      phonons=np.column_stack([columns[n] for n in levels]) if levels else None)


@pytest.mark.parametrize("fig", sorted(CLAIMS))
def test_figure_claim(evolved, fig):
    measure, holds, bound = CLAIMS[fig]
    traj = _read_trajectory(evolved(fig) / "trajectory.csv")
    value = float(measure(traj))
    assert holds(value, bound), f"{fig}: measured {value:.6g}, bound {bound:g}"
