import math

import numpy as np
import pytest

from ionrabi import (
    FockPrepPlan,
    HilbertSpace,
    ModelSpec,
    ValidityWarning,
    barrier_eta,
    coherent_state,
    f1_landscape,
    f1_scalar,
    fock_state,
    refine_barrier,
    run_collapse_revival,
    run_filter_analysis,
    run_fock_prep,
)
from ionrabi.errors import NoBarrier


class TestFockPrep:
    def test_small_target_converges(self):
        plan = FockPrepPlan(target_n=3, initial_nbar=0.2, duration=30.0,
                            n_points=61, n_max=14)
        res = run_fock_prep(plan)
        assert res.p_target >= 0.99
        assert res.eta_used == pytest.approx(barrier_eta(3), abs=1e-12)
        # monotone funneling: the blocked sector only holds its initial tail
        assert res.max_above_target <= res.initial_above_target + 1e-6
        assert res.trajectory.meta["trace_drift"] < 1e-8

    def test_without_dissipation_no_convergence(self):
        plan = FockPrepPlan(target_n=3, initial_nbar=0.2, duration=30.0,
                            n_points=61, n_max=14, gamma_ratio=0.0)
        assert run_fock_prep(plan).p_target < 0.99

    def test_ground_state_start(self):
        plan = FockPrepPlan(target_n=3, initial_nbar=0.0, duration=30.0,
                            n_points=61, n_max=14)
        res = run_fock_prep(plan)
        assert res.p_target >= 0.99
        assert res.initial_above_target == 0.0

    def test_warns_on_large_initial_tail(self):
        with pytest.warns(ValidityWarning, match="above target"):
            run_fock_prep(FockPrepPlan(target_n=3, initial_nbar=0.5, duration=0.5,
                                       n_points=3, n_max=22))

    def test_validation(self):
        with pytest.raises(ValueError):
            FockPrepPlan(target_n=0)
        with pytest.raises(ValueError):
            run_fock_prep(FockPrepPlan(target_n=8, n_max=10))


class TestRefineBarrier:
    def test_locates_and_refines(self):
        n_star, eta = refine_barrier(0.67898, 40)
        assert n_star == 7
        assert abs(f1_scalar(7, eta)) < 1e-12

    def test_already_refined_is_kept(self):
        root = barrier_eta(10)
        n_star, eta = refine_barrier(root, 40)
        assert n_star == 10
        assert eta == root

    def test_no_barrier(self):
        with pytest.raises(NoBarrier):
            refine_barrier(0.05, 40)


class TestFilterAnalysis:
    def _spec(self, eta, ratio):
        return ModelSpec(kind="NonlinearQRM", eta=eta, g=ratio, omega_R=1.0,
                         omega0_R=0.0)

    def test_fock_input_no_leakage(self):
        sp = HilbertSpace(40)
        spec = self._spec(0.67898, 4.0)
        report = run_filter_analysis(spec, fock_state(sp, 0, "down"),
                                     T=20 * 2 * math.pi / spec.g,
                                     snapshot_times=[0.0, 10.0])
        assert report.barrier_n == 7
        assert report.initial_tail == 0.0
        assert report.leakage_max < 1e-9
        assert abs(report.eta_refined - 0.67898) < 5e-5
        assert len(report.phonon_snapshots) == 2

    def test_coherent_input_tail_conserved(self):
        sp = HilbertSpace(40)
        spec = self._spec(0.57838, 3.7)
        psi = coherent_state(sp, 1.0, "down")
        report = run_filter_analysis(spec, psi, T=20 * 2 * math.pi / spec.g)
        assert report.barrier_n == 10
        tail = sum(math.exp(-1.0) / math.factorial(n) for n in range(11, 41))
        assert report.initial_tail == pytest.approx(tail, rel=1e-6)
        assert report.leakage_max <= report.initial_tail + 1e-9

    def test_leakage_invariant_under_truncation_doubling(self):
        spec = self._spec(0.57838, 3.7)
        reports = []
        for n_max in (30, 60):
            psi = coherent_state(HilbertSpace(n_max), 1.0, "down")
            reports.append(run_filter_analysis(spec, psi, T=8 * 2 * math.pi / spec.g,
                                               n_points=161))
        assert abs(reports[0].leakage_max - reports[1].leakage_max) < 1e-9

    def test_linear_control_leaks(self):
        # eta -> 0 control: without the blockade the DSC drive climbs far
        # beyond n = 10 (cf. the round trip of the linear model)
        from ionrabi import build_hamiltonian, evolve_unitary
        sp = HilbertSpace(60)
        g = 3.7
        H = build_hamiltonian(ModelSpec(kind="QRM", g=g, omega_R=1.0, omega0_R=0.0), sp)
        psi = coherent_state(sp, 1.0, "down")
        traj = evolve_unitary(H, psi, np.linspace(0, 2 * 2 * math.pi / g, 81))
        above = traj.phonons[:, 11:].sum(axis=1)
        assert above.max() > 0.5

    def test_requires_nqrm(self):
        sp = HilbertSpace(20)
        with pytest.raises(ValueError):
            run_filter_analysis(ModelSpec(kind="QRM", g=1.0, omega_R=1.0, omega0_R=0.0),
                                fock_state(sp, 0), T=1.0)

    def test_no_barrier_below_truncation(self):
        sp = HilbertSpace(40)
        spec = self._spec(0.05, 4.0)
        with pytest.raises(NoBarrier):
            run_filter_analysis(spec, fock_state(sp, 0), T=1.0)


class TestCollapseRevival:
    def test_jc_shows_revival(self):
        res = run_collapse_revival("JC", math.sqrt(8), g=1.0)
        assert res.revival_ratio is not None and res.revival_ratio > 2.0
        assert res.t_revival == pytest.approx(2 * math.pi * math.sqrt(8))
        lo, hi = res.revival_window
        assert lo < res.t_revival < hi

    def test_nonlinear_run_mechanics(self):
        # suppression itself is an nbar = 30 phenomenon (acceptance suite);
        # here only the window bookkeeping on the 3x-long nonlinear run
        res = run_collapse_revival("NonlinearJC", math.sqrt(8), g=1.0, eta=0.5)
        assert res.sliding_max_ratio is not None
        assert res.meta["duration_factor"] == 3.0
        assert res.trajectory.times[-1] == pytest.approx(3 * 1.6 * res.t_revival)

    def test_tiny_coupling_is_static(self):
        res = run_collapse_revival("JC", 1.0, g=1e-6, T=5.0, n_points=11, n_max=60)
        assert np.abs(res.trajectory.sigma_z + 1.0).max() < 1e-6

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            run_collapse_revival("AntiJC", 1.0, g=1.0)


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
