"""Command-line exit codes (0 ok, 2 schema, 3 numerical, 4 convergence) and sweeps."""
import csv
import json
import math
from pathlib import Path

import pytest
import yaml

from ionrabi.cli import main
from ionrabi.fock import barrier_eta, f1_diagonal
from ionrabi.models import ValidityWarning

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


FIG4 = str(SCENARIOS / "fig4.scenario")


@pytest.fixture
def bad_files(tmp_path):
    """Bad input files, by the placeholder that stands for them in an argv."""
    landscape = yaml.safe_load((SCENARIOS / "fig1.scenario").read_text())
    landscape["landscape"]["n_max"] = "ten"
    fig4 = yaml.safe_load(Path(FIG4).read_text())
    nan_g = dict(fig4, model=dict(fig4["model"], g=math.nan))
    inf_t = dict(fig4, times=dict(fig4["times"], t_end=math.inf))
    files = {"CONFIG": _write(tmp_path / "bad.scenario", landscape),
             "NAN_G": _write(tmp_path / "nan-g.scenario", nan_g),
             "INF_T": _write(tmp_path / "inf-t.scenario", inf_t)}
    # only an absent or null outputs section takes the default observables
    for key, value in (("OUTPUTS_LIST", []), ("OUTPUTS_ZERO", 0), ("OUTPUTS_FALSE", False)):
        files[key] = _write(tmp_path / f"{key.lower()}.scenario", dict(fig4, outputs=value))
    return files


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
    ["sweep", "--template", FIG4, "--axis", "model.eta=[.inf]"],
    ["sweep", "--template", FIG4, "--axis", "model.eta=0:inf:2"],
    ["evolve", "--scenario", "NAN_G"],
    ["evolve", "--scenario", "INF_T"],
    ["evolve", "--scenario", "OUTPUTS_LIST"],
    ["evolve", "--scenario", "OUTPUTS_ZERO"],
    ["evolve", "--scenario", "OUTPUTS_FALSE"],
    ["fockprep", "--target", "3", "--duration", "inf", "--points", "3"],
    ["fockprep", "--target", "3", "--g-khz", "inf"],
    ["fockprep", "--target", "3", "--nbar", "inf"],
    ["f1", "--eta", "inf", "--n", "3"],
    ["validate", "--scenario", FIG4, "--t-cycles", "-1"],
    ["validate", "--scenario", FIG4, "--tolerance", "-1"],
    ["fockprep", "--target", "3", "--duration", "0"],
    ["fockprep", "--target", "3", "--points", "1"],
], ids=["config-n_max-string", "eta-min-negative", "grid-zero", "f1-eta-negative",
        "f1-n-negative", "find-zero-0", "bracket-reversed",
        "fockprep-target-0", "axis-bool", "axis-string", "axis-inf", "axis-range-inf",
        "scenario-g-nan",
        "scenario-t_end-inf", "outputs-list", "outputs-zero", "outputs-false",
        "fockprep-duration-inf", "fockprep-g-inf", "fockprep-nbar-inf",
        "f1-eta-inf", "validate-t-cycles-negative", "validate-tolerance-negative",
        "fockprep-duration-0", "fockprep-points-1"])
def test_bad_values_exit_2(argv, bad_files, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # anything written by mistake lands in ./runs here
    assert exit_code([bad_files.get(a, a) for a in argv]) == 2
    assert "error" in capsys.readouterr().err.strip().splitlines()[-1]


def _f1_rows(text):
    header, *rows = text.splitlines()
    assert header == "n,f1"
    return [(int(n), float(v)) for n, v in (row.split(",") for row in rows)]


def test_f1_table_to_stdout_and_file(tmp_path, capsys):
    # %.17e round-trips a double, so both tables equal f1_diagonal exactly
    want = list(enumerate(f1_diagonal(12, 0.45).tolist()))
    assert exit_code(["f1", "--eta", "0.45", "--table", "--n-max", "12"]) == 0
    assert _f1_rows(capsys.readouterr().out) == want
    path = tmp_path / "f1.csv"
    assert exit_code(["f1", "--eta", "0.45", "--table", "--n-max", "12",
                      "--out-file", str(path)]) == 0
    assert capsys.readouterr().out == f"wrote {path}\n"
    assert _f1_rows(path.read_text()) == want


def test_landscape_flags_write_table(tmp_path):
    assert exit_code(["landscape", "--n-max", "10", "--eta-min", "0.1", "--eta-max", "1",
                      "--grid", "5", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "landscape" / "landscape.csv").read_text().count("\n") == 12


def test_landscape_writes_below_outdir_env(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("IONRABI_OUTDIR", str(tmp_path / "env"))
    assert exit_code(["landscape", "--n-max", "3", "--eta-min", "0.1", "--eta-max", "1",
                      "--grid", "2"]) == 0
    assert (tmp_path / "env" / "landscape" / "landscape.csv").is_file()
    assert not (tmp_path / "runs").exists()


# Reference output of fockprep --target 3 --duration 2 --points 5 (RK4, so
# compared at 1e-10): columns t, sigma_z, fidelity, n_mean, P_0 ... P_4
FOCKPREP_3 = [
    [0.0, -1.0, 0.33333333333363646, 0.9999999999813554, 0.5000000000002274,
     0.2500000000001137, 0.12500000000005684, 0.06250000000002844, 0.03125000000001421],
    [0.5, -0.7517270615142408, 0.16578741502425207, 1.7621087169817549, 0.055626906473017226,
     0.42922480629538873, 0.3542631550506464, 0.09838513218137458, 0.027215357217145932],
    [1.0, -0.8604996723695765, 0.1151680036266012, 2.300993346288929, 4.029316179920189e-05,
     0.13667042170149737, 0.5908971325853276, 0.2098921525518027, 0.022302451887913168],
    [1.5000000000000002, -0.918056299613179, 0.09437653113680353, 2.6080988531824625,
     8.462012911797427e-05, 0.022581159463103524, 0.537168577948273, 0.3776656424599325,
     0.018218708223248923],
    [2.0, -0.9433977317696933, 0.08345191870156066, 2.8083131621547084, 2.9367136443909473e-06,
     0.003133109021260985, 0.4023399873003381, 0.5320239669651834, 0.014880240150439997],
]


def test_thermal_start_without_lindblad_exits_2(tmp_path, monkeypatch, capsys):
    # a thermal start is a density matrix, which only the Lindblad evolver takes
    doc = yaml.safe_load((SCENARIOS / "fig6.scenario").read_text())
    doc.update(initial={"kind": "thermal", "nbar": 0.5, "qubit": "down"},
               times={"t_end": 0.1, "n_points": 3}, truncation=21)
    monkeypatch.chdir(tmp_path)
    assert exit_code(["evolve", "--scenario", _write(tmp_path / "hot.scenario", doc)]) == 2
    err = capsys.readouterr().err
    assert "hot.scenario.initial:" in err and "lindblad" in err
    assert not (tmp_path / "runs").exists()
    # gamma_ratio 0 runs it without dissipation
    doc["lindblad"] = {"gamma_ratio": 0}
    assert exit_code(["evolve", "--scenario", _write(tmp_path / "hot.scenario", doc)]) == 0


def test_fockprep_outputs(tmp_path):
    with pytest.warns(ValidityWarning, match="above target"):
        assert exit_code(["fockprep", "--target", "3", "--duration", "2", "--points", "5",
                          "--out", str(tmp_path)]) == 0
    base = tmp_path / "fockprep-n3"
    report = json.loads((base / "report.json").read_text())
    assert report["target_n"] == 3
    assert report["eta_used"] == barrier_eta(3)
    assert report["duration_cycles"] == 2.0
    for key, value in (("p_target_final", 0.5320239669651834),
                       ("initial_above_target", 0.06249999999957368),
                       ("max_above_target", 0.06249999999957374)):
        assert report[key] == pytest.approx(value, abs=1e-10)
    rows = list(csv.reader((base / "trajectory.csv").read_text().splitlines()))
    assert rows[0] == ["t", "sigma_z", "fidelity", "n_mean"] + [f"P_{n}" for n in range(41)]
    assert len(rows) == 1 + len(FOCKPREP_3)
    for row, expected in zip(rows[1:], FOCKPREP_3):
        assert [float(v) for v in row[:9]] == pytest.approx(expected, abs=1e-10)
    # the run's metadata reports the truncation the CSV was written at
    meta = json.loads((base / "metadata.json").read_text())
    assert rows[0][-1] == f"P_{meta['n_max']}"
    assert meta["integrator"]["trace_drift"] == report["trace_drift"]


def test_fockprep_target_above_truncation_exits_2(tmp_path, monkeypatch, capsys):
    # eta = 0.9 blocks the ladder at n = 4, so auto_n_max gives 40 < 45
    monkeypatch.chdir(tmp_path)
    assert exit_code(["fockprep", "--target", "45", "--eta", "0.9", "--duration", "1",
                      "--points", "2", "--out", str(tmp_path / "out")]) == 2
    assert "n_max=40" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_fockprep_target_above_barrier_scan_exits_2(tmp_path, monkeypatch, capsys):
    # the blockade level of barrier_eta(201) lies above the levels auto_n_max
    # scans, so the reason is the scan limit, not the fallback truncation
    monkeypatch.chdir(tmp_path)
    assert exit_code(["fockprep", "--target", "201", "--duration", "1", "--points", "2",
                      "--out", str(tmp_path / "out")]) == 2
    assert "n=200" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["evolve", "landscape"])
@pytest.mark.parametrize("name", ["../escaped", "ABSOLUTE", "a//b", "./a", "a/."])
def test_name_outside_out_exits_2(command, name, tmp_path, monkeypatch, capsys):
    # a scenario's name is a directory below --out; nothing may land elsewhere
    monkeypatch.chdir(tmp_path)
    name = name.replace("ABSOLUTE", str(tmp_path / "abs"))
    source = "fig1.scenario" if command == "landscape" else "fig5.scenario"
    doc = dict(yaml.safe_load((SCENARIOS / source).read_text()), name=name)
    path = _write(tmp_path / "named.scenario", doc)
    out = tmp_path / "out" / "deeper"
    argv = (["landscape", "--config", path] if command == "landscape"
            else ["evolve", "--scenario", path])
    assert exit_code(argv + ["--out", str(out)]) == 2
    assert "named.scenario.name:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["named.scenario"]


def test_fockprep_hot_start_widens_truncation(tmp_path):
    # a thermal nbar = 3 start needs 80 levels to hold its tail, more than the
    # ladder's default of 40
    with pytest.warns(ValidityWarning, match="above target"):
        assert exit_code(["fockprep", "--target", "3", "--nbar", "3", "--duration", "1",
                          "--points", "3", "--out", str(tmp_path)]) == 0
    header = (tmp_path / "fockprep-n3" / "trajectory.csv").read_text().splitlines()[0]
    assert header.split(",")[-1] == "P_80"


def test_fockprep_truncation_follows_eta_blockade(tmp_path):
    # eta = 0.3 blocks the ladder at n = 40, not at the target 17
    assert exit_code(["fockprep", "--target", "17", "--eta", "0.3", "--duration", "1",
                      "--points", "2", "--out", str(tmp_path)]) == 0
    header = (tmp_path / "fockprep-n17" / "trajectory.csv").read_text().splitlines()[0]
    assert header.split(",")[4:] == [f"P_{n}" for n in range(81)]


def test_auto_truncation_passes_convergence(tmp_path):
    doc = yaml.safe_load(Path(FIG4).read_text())
    del doc["truncation"]
    path = _write(tmp_path / "fig4-auto.scenario", doc)
    assert exit_code(["evolve", "--scenario", path, "--check-convergence",
                      "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / doc["name"] / "metadata.json").read_text())
    assert meta["n_max"] == 121


def test_fock_start_keeps_room_above_it(tmp_path):
    # |down, 60> under the anti-JC drive climbs to |up, 61>: at n_max 60 that
    # level is missing and sigma_z stays -1
    path = _write(tmp_path / "antijc-60.scenario", {
        "schema_version": 1, "name": "antijc-60", "model": {"kind": "AntiJC", "g": 10.0},
        "initial": {"kind": "fock", "n": 60, "qubit": "down"},
        "times": {"t_end": 0.025, "n_points": 3}})
    assert exit_code(["evolve", "--scenario", path, "--check-convergence",
                      "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "antijc-60" / "metadata.json").read_text())["n_max"] == 61


@pytest.mark.parametrize("command", ["evolve", "validate"])
def test_fock_start_above_pinned_truncation_exits_3(command, tmp_path, capsys):
    path = _write(tmp_path / "fock-500.scenario", {
        "schema_version": 1, "name": "fock-500", "model": {"kind": "JC", "g": 10.0},
        "initial": {"kind": "fock", "n": 500}, "times": {"t_end": 0.1, "n_points": 3},
        "truncation": 10})
    assert exit_code([command, "--scenario", path, "--out", str(tmp_path)]) == 3
    assert "TruncationTooSmall" in capsys.readouterr().err


def test_validate_writes_report(tmp_path):
    assert exit_code(["validate", "--scenario", str(SCENARIOS / "fig6.scenario"),
                      "--t-cycles", "0.1", "--out", str(tmp_path)]) == 0
    report = json.loads(
        (tmp_path / "fig6-nqrm-motional-filter" / "validation.json").read_text())
    assert report["truncation"]["converged"] is True
    assert report["rwa_crosscheck"]["valid"] is True


def test_no_sign_change_exits_3():
    # f1(1, eta) first vanishes at sqrt(2), outside this bracket
    assert exit_code(["f1", "--find-zero", "1", "--bracket", "0.001", "1.0"]) == 3
    # nor on [2, 50], though f1 underflows to -0 near eta = 38.6
    assert exit_code(["f1", "--find-zero", "1", "--bracket", "2", "50"]) == 3


def test_find_zero_default_bracket_holds_target_1(capsys):
    assert exit_code(["f1", "--find-zero", "1"]) == 0
    assert "barrier_eta(1) = 1.414213562373" in capsys.readouterr().out


def test_fockprep_target_2(tmp_path):
    # the blockade of target 2 sits at eta = sqrt(3 - sqrt(3)) = 1.126; the
    # nbar = 1 start holds 1/8 above it
    with pytest.warns(ValidityWarning, match="above target"):
        assert exit_code(["fockprep", "--target", "2", "--duration", "1", "--points", "2",
                          "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "fockprep-n2" / "report.json").read_text())
    assert report["eta_used"] == pytest.approx(math.sqrt(3.0 - math.sqrt(3.0)), abs=1e-15)


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


def test_sweep_exponent_axis_is_a_number(tmp_path):
    assert exit_code(["sweep", "--template", FIG4, "--axis", "model.eta=[1e-3]",
                      "--out", str(tmp_path)]) == 0
    index = json.loads((tmp_path / "fig4-nqrm-barrier-fock" / "index.json").read_text())
    assert [(entry["status"], entry["point"]) for entry in index] == [
        ("ok", {"model.eta": 0.001})]


def test_sweep_clashing_directories_exit_2(tmp_path, capsys):
    # both values print as 0.67898 to the 6 digits of a point's directory name
    assert exit_code(["sweep", "--template", FIG4, "--axis", "model.eta=[0.6789801,0.6789802]",
                      "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "0.6789801" in err and "0.6789802" in err
    assert list(tmp_path.iterdir()) == []


def test_sweep_failed_point_is_kept_in_index(tmp_path):
    assert exit_code(["sweep", "--template", FIG4, "--axis", "initial.n=[-1]",
                      "--out", str(tmp_path)]) == 3
    index = json.loads((tmp_path / "fig4-nqrm-barrier-fock" / "index.json").read_text())
    assert index[0]["status"] == "failed"
    assert index[0]["error"].startswith("SchemaError:")


def test_sweep_model_error_is_a_schema_error(tmp_path):
    assert exit_code(["sweep", "--template", FIG4, "--axis", "model.g=[-1]",
                      "--out", str(tmp_path)]) == 3
    index = json.loads((tmp_path / "fig4-nqrm-barrier-fock" / "index.json").read_text())
    assert index[0]["status"] == "failed"
    assert index[0]["error"].startswith("SchemaError: sweep:model_g=-1.model:")
