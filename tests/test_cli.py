"""Command-line exit codes (0 ok, 2 schema, 3 numerical, 4 convergence) and sweeps."""
import json
from pathlib import Path

import pytest
import yaml

from ionrabi.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a value
        return exc.code


def _write(path, doc):
    path.write_text(yaml.safe_dump(doc))
    return str(path)


@pytest.fixture
def landscape_config(tmp_path):
    doc = yaml.safe_load((SCENARIOS / "fig1.scenario").read_text())
    doc["landscape"]["n_max"] = "ten"
    return _write(tmp_path / "bad.scenario", doc)


FIG4 = str(SCENARIOS / "fig4.scenario")


@pytest.mark.parametrize("argv", [
    ["landscape", "--config", "CONFIG"],
    ["landscape", "--n-max", "10", "--eta-min", "-0.1", "--eta-max", "1", "--grid", "5"],
    ["landscape", "--n-max", "10", "--eta-min", "0.1", "--eta-max", "1", "--grid", "0"],
    ["f1", "--eta", "-0.1", "--n", "3"],
    ["f1", "--eta", "0.5", "--n", "-2"],
    ["f1", "--find-zero", "0"],
    ["f1", "--find-zero", "3", "--bracket", "0.5", "0.1"],
    ["fockprep", "--target", "0"],
    ["sweep", "--template", FIG4, "--axis", "initial.n=[true]"],
    ["sweep", "--template", FIG4, "--axis", "initial.n=[one]"],
], ids=["config-n_max-string", "eta-min-negative", "grid-zero", "f1-eta-negative",
        "f1-n-negative", "find-zero-0", "bracket-reversed",
        "fockprep-target-0", "axis-bool", "axis-string"])
def test_bad_values_exit_2(argv, landscape_config, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # anything written by mistake lands in ./runs here
    assert exit_code([landscape_config if a == "CONFIG" else a for a in argv]) == 2
    assert "error" in capsys.readouterr().err.strip().splitlines()[-1]


def test_landscape_flags_write_table(tmp_path):
    assert exit_code(["landscape", "--n-max", "10", "--eta-min", "0.1", "--eta-max", "1",
                      "--grid", "5", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "landscape" / "landscape.csv").read_text().count("\n") == 12


def test_no_sign_change_exits_3():
    assert exit_code(["f1", "--find-zero", "1"]) == 3


def test_unconverged_truncation_exits_4(tmp_path):
    doc = yaml.safe_load((SCENARIOS / "fig5.scenario").read_text())
    doc["truncation"] = 15
    doc["times"].update(t_end=1.0, n_points=11)
    path = _write(tmp_path / "fig5-short.scenario", doc)
    assert exit_code(["evolve", "--scenario", path, "--check-convergence",
                      "--out", str(tmp_path)]) == 4


def test_sweep_integer_axis_runs_every_point(tmp_path):
    assert exit_code(["sweep", "--template", FIG4, "--axis", "initial.n=[0,1]",
                      "--axis", "model.eta=[0.67898]", "--out", str(tmp_path)]) == 0
    base = tmp_path / "fig4-nqrm-barrier-fock"
    index = json.loads((base / "index.json").read_text())
    assert [entry["status"] for entry in index] == ["ok", "ok"]
    assert [entry["point"]["initial.n"] for entry in index] == [0, 1]
    for n in (0, 1):
        assert (base / f"initial_n={n},model_eta=0.67898" / "trajectory.csv").is_file()


def test_sweep_failed_point_is_kept_in_index(tmp_path):
    assert exit_code(["sweep", "--template", FIG4, "--axis", "initial.n=[-1]",
                      "--out", str(tmp_path)]) == 3
    index = json.loads((tmp_path / "fig4-nqrm-barrier-fock" / "index.json").read_text())
    assert index[0]["status"] == "failed"
    assert index[0]["error"].startswith("SchemaError:")
