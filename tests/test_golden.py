"""Every committed golden under scenarios/golden/ is reproduced by the CLI.

CSVs must have the exact header and row count and every value within ATOL;
metadata.json must have the same structure with every number within ATOL.
Reruns are not byte-identical (the last of the 17 written digits can move),
so the comparison carries a tolerance.  fig3 integrates 41,400 fixed RK4
steps, so its rounding drift can build up: it is held to RK4_ATOL.
"""
import csv
import json
import math
from pathlib import Path

import pytest

from ionrabi.cli import main

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


@pytest.mark.parametrize("fig", sorted(EVOLVED))
def test_evolved_figure(tmp_path, fig):
    assert main(["evolve", "--scenario", str(ROOT / "scenarios" / f"{fig}.scenario"),
                 "--out", str(tmp_path)]) == 0
    name = EVOLVED[fig]
    atol = RK4_ATOL if fig == "fig3" else ATOL
    assert_csv_close(tmp_path / name / "trajectory.csv", GOLDEN / name / "trajectory.csv", atol)
    with open(tmp_path / name / "metadata.json") as fh:
        got = json.load(fh)
    with open(GOLDEN / name / "metadata.json") as fh:
        want = json.load(fh)
    assert_json_close(got, want, atol)
