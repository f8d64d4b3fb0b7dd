import json
import math

import numpy as np
import pytest

from ionrabi import (
    HilbertSpace,
    ModelSpec,
    SchemaError,
    Trajectory,
    ValidityWarning,
    barrier_eta,
    build_hamiltonian,
    coherent_state,
    evolve_unitary,
    f1_landscape,
    f1_scalar,
    population_above,
    revival_ratio,
    run_fock_prep,
    scenario_from_dict,
)
from ionrabi import runner
from ionrabi.scenario import KHZ


def _fockprep(truncation, target_n=3, nbar=0.2, duration=30.0, n_points=61, gamma_ratio=2.0):
    """A ladder-climbing scenario at the blockade eta of target_n, g = 1 rad/s."""
    return scenario_from_dict({
        "schema_version": 1,
        "name": f"fockprep-n{target_n}",
        "model": {"kind": "NonlinearAntiJC", "g": 1.0 / KHZ, "eta": barrier_eta(target_n)},
        "initial": {"kind": "thermal", "nbar": nbar, "qubit": "down"},
        "times": {"t_end": duration, "n_points": n_points},
        "lindblad": {"gamma_ratio": gamma_ratio},
        "truncation": truncation,
    })


class TestFockPrep:
    def test_small_target_converges(self, tmp_path):
        report = run_fock_prep(_fockprep(14), 3, out_dir=tmp_path)
        assert report["p_target_final"] >= 0.99
        # monotone funneling: the blocked sector only holds its initial tail
        assert report["max_above_target"] <= report["initial_above_target"] + 1e-6
        assert report["trace_drift"] < 1e-8

    def test_without_dissipation_no_convergence(self, tmp_path):
        report = run_fock_prep(_fockprep(14, gamma_ratio=0.0), 3, out_dir=tmp_path)
        assert report["p_target_final"] < 0.99

    def test_ground_state_start(self, tmp_path):
        report = run_fock_prep(_fockprep(14, nbar=0.0), 3, out_dir=tmp_path)
        assert report["p_target_final"] >= 0.99
        assert report["initial_above_target"] == 0.0

    def test_warns_on_large_initial_tail(self, tmp_path):
        with pytest.warns(ValidityWarning, match="above target"):
            run_fock_prep(_fockprep(22, nbar=0.5, duration=0.5, n_points=3), 3, out_dir=tmp_path)

    def test_writes_run_outputs_and_report(self, tmp_path):
        report = run_fock_prep(_fockprep(14, duration=1.0, n_points=3), 3, out_dir=tmp_path)
        base = tmp_path / "fockprep-n3"
        assert json.loads((base / "report.json").read_text()) == report
        assert json.loads((base / "metadata.json").read_text())["n_max"] == 14
        assert (base / "trajectory.csv").is_file()

    def test_truncation_picked_once(self, tmp_path, monkeypatch):
        # the target check and the run share one auto_n_max, pinned into the
        # scenario the run writes to metadata.json
        calls = []
        barrier_index = runner._barrier_index
        monkeypatch.setattr(runner, "_barrier_index",
                            lambda eta: calls.append(eta) or barrier_index(eta))
        doc = _fockprep(None, duration=0.5, n_points=2).to_dict()
        run_fock_prep(scenario_from_dict(doc), 3, out_dir=tmp_path)
        assert len(calls) == 1
        meta = json.loads((tmp_path / "fockprep-n3" / "metadata.json").read_text())
        assert meta["n_max"] == meta["scenario"]["truncation"] == 40

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            run_fock_prep(_fockprep(14), 0, out_dir=tmp_path)
        # a target above the pinned truncation is refused before anything is written
        with pytest.raises(SchemaError, match="above the truncation"):
            run_fock_prep(_fockprep(7, target_n=8, nbar=0.0), 8, out_dir=tmp_path)
        doc = _fockprep(14).to_dict()
        del doc["lindblad"]
        with pytest.raises(SchemaError, match="lindblad"):
            run_fock_prep(scenario_from_dict(doc), 3, out_dir=tmp_path)
        # a pure start parses without one, and the protocol refuses it
        doc["initial"] = {"kind": "fock", "n": 0}
        with pytest.raises(SchemaError, match="preparation needs a lindblad section"):
            run_fock_prep(scenario_from_dict(doc), 3, out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []


def _qrm_run(eta, g, n_max, cycles, n_points):
    """DSC (nonlinear) QRM, omega_R = 1, from |down, alpha = 1>."""
    kind = "NonlinearQRM" if eta else "QRM"
    sp = HilbertSpace(n_max)
    H = build_hamiltonian(ModelSpec(kind=kind, eta=eta, g=g, omega_R=1.0, omega0_R=0.0), sp)
    times = np.linspace(0.0, cycles * 2 * math.pi / g, n_points)
    return evolve_unitary(H, coherent_state(sp, 1.0, "down"), times)


class TestFilterAnalysis:
    # fig4 and fig6 themselves are claims in test_golden.test_figure_claim

    def test_leakage_invariant_under_truncation_doubling(self):
        leaks = [population_above(_qrm_run(barrier_eta(10), 3.7, n_max, 8, 161), 10).max()
                 for n_max in (30, 60)]
        assert abs(leaks[0] - leaks[1]) < 1e-9

    def test_linear_control_leaks(self):
        # eta -> 0 control: without the blockade the DSC drive climbs far
        # beyond n = 10 (cf. the round trip of the linear model)
        traj = _qrm_run(0.0, 3.7, 60, 2, 81)
        assert population_above(traj, 10).max() > 0.5


def _trajectory(cycles, sigma_z):
    times = np.asarray(cycles, dtype=float)
    n = times.size
    return Trajectory(times=times, sigma_z=np.asarray(sigma_z, dtype=float),
                      fidelity=np.ones(n), n_mean=np.zeros(n), phonons=np.ones((n, 4)))


def _coherent_qrm(g_over_omega_R, eta):
    """fig5's start (coherent alpha = 1, omega0_R = 0, omega_R = 11.31) over five
    revival periods 2*pi/omega_R, g/omega_R cycles each, at the auto truncation."""
    model = {"kind": "NonlinearQRM", "eta": eta} if eta else {"kind": "QRM"}
    model.update(g=11.31 * g_over_omega_R, omega_R=11.31, omega0_R=0.0)
    return scenario_from_dict({
        "schema_version": 1,
        "name": "qrm-regimes",
        "model": model,
        "initial": {"kind": "coherent", "alpha": 1.0, "qubit": "down"},
        "times": {"t_end": 5 * g_over_omega_R, "n_points": 501},
    })


class TestLinearAgainstNonlinearQRM:
    # The paper's comparison from ultrastrong to deep-strong coupling.  The
    # bounds come from runs at auto_n_max + 20: linear revival fidelity
    # 1 - 1.6e-15 at worst; nonlinear leakage above n = 10 beyond the
    # initial tail 3.7e-20 at worst, least revival fidelity 0.9909 at
    # g/omega_R = 0.1 and 0.0316-0.1277 from 0.5 on.

    @pytest.mark.parametrize("g_over_omega_R, nonlinear_revives", [
        (0.1, True), (0.5, False), (1.0, False), (2.0, False), (4.0, False)])
    def test_linear_revives_nonlinear_stays_behind_barrier(self, g_over_omega_R,
                                                           nonlinear_revives):
        revivals = slice(100, None, 100)       # t = k g/omega_R cycles, k = 1..5
        linear, _ = runner.simulate_scenario(_coherent_qrm(g_over_omega_R, 0.0))
        assert np.allclose(linear.times[revivals], g_over_omega_R * np.arange(1, 6),
                           rtol=0.0, atol=1e-12)
        assert linear.fidelity[revivals].min() >= 1.0 - 1e-9

        nonlinear, _ = runner.simulate_scenario(_coherent_qrm(g_over_omega_R, barrier_eta(10)))
        above = population_above(nonlinear, 10)
        assert above.max() - above[0] <= 1e-12
        least = nonlinear.fidelity[revivals].min()
        assert least >= 0.98 if nonlinear_revives else least <= 0.2


class TestPopulationAbove:
    def test_sums_levels_above(self):
        traj = _trajectory([0.0, 1.0], [0.0, 0.0])
        traj.phonons = np.array([[0.5, 0.25, 0.125, 0.125], [1.0, 0.0, 0.0, 0.0]])
        assert np.array_equal(population_above(traj, 1), [0.25, 0.0])
        assert np.array_equal(population_above(traj, 3), [0.0, 0.0])


class TestCollapseRevival:
    # fig2a (revival) and fig2b (none) are claims in test_golden.test_figure_claim

    def test_tiny_coupling_is_static(self):
        sp = HilbertSpace(60)
        H = build_hamiltonian(ModelSpec(kind="JC", g=1e-6), sp)
        traj = evolve_unitary(H, coherent_state(sp, 1.0, "down"), np.linspace(0.0, 5.0, 11))
        assert np.abs(traj.sigma_z + 1.0).max() < 1e-6

    def test_known_ratio(self):
        # windows in cycles at t_r = 2: plateau [0.6, 1.4], revival [1.6, 2.4];
        # the initial drop (t < 0.5) and the tail (t > 2.5) lie outside both
        t = np.linspace(0.0, 3.0, 301)
        sz = np.full(t.size, 0.05)
        sz[t < 0.5] = -1.0
        sz[t > 2.5] = 1.0
        sz[(t > 1.5) & (t < 2.5)] = -0.5
        sz[np.isclose(t, 1.0)] = -0.2
        sz[np.isclose(t, 2.0)] = 0.8
        assert revival_ratio(_trajectory(t, sz), 2.0) == pytest.approx(4.0, rel=1e-15)

    def test_window_without_records(self):
        with pytest.raises(ValueError, match="no record"):
            revival_ratio(_trajectory(np.linspace(0.0, 0.5, 11), np.zeros(11)), 1.0)


class TestLandscape:
    def test_vacuum_row_closed_form(self):
        etas = np.linspace(0.0, 1.0, 21)
        mat = f1_landscape([0], etas)
        expected = np.log10(np.exp(-etas**2 / 2))
        assert np.abs(mat[0] - expected).max() < 1e-14

    def test_zero_eta_column(self):
        mat = f1_landscape(np.arange(30), [0.0])
        assert np.all(mat[:, 0] == 0.0)

    def test_eta_half_minima(self):
        mat = f1_landscape(np.arange(61), [0.5])
        col = mat[:, 0]
        minima = [n for n in range(1, 60) if col[n] < col[n - 1] and col[n] < col[n + 1]]
        assert minima == [14, 48]

    def test_floor_at_exact_zero(self):
        root = barrier_eta(7)
        mat = f1_landscape(np.arange(10), [root])
        assert mat[7, 0] == -16.0

    def test_pointwise_matches_scalar(self):
        ns = np.array([0, 5, 7, 14, 40])
        etas = np.array([0.0, 0.2, 0.5, barrier_eta(7), 0.9])
        mat = f1_landscape(ns, etas)
        for i, n in enumerate(ns):
            for j, eta in enumerate(etas):
                expected = max(np.log10(abs(f1_scalar(int(n), float(eta)))), -16.0)
                assert mat[i, j] == expected

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            f1_landscape([], [0.5])
