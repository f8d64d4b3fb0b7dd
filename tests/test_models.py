import math

import numpy as np
import pytest

from ionrabi import (
    HilbertSpace,
    ModelSpec,
    Operator,
    TwoToneGenerator,
    ValidityWarning,
    annihilation_op,
    barrier_eta,
    build_hamiltonian,
    creation_op,
    f1_scalar,
    fock_state,
    number_op,
    parity_op,
    qubit_ops,
)
from ionrabi.fock import displacement_boson, hermiticity_defect
from ionrabi.models import DEFAULT_NU

KHZ = 2 * math.pi * 1e3


def _build(space, kind, **kw):
    return build_hamiltonian(ModelSpec(kind=kind, **kw), space)


def _two_tone(spec, space, t):
    """Checked snapshot of the two-tone Hamiltonian at time t."""
    return Operator(space, TwoToneGenerator(spec, space).matrix(t), hermitian=True)


class TestJC:
    def test_matrix_element(self, space):
        g = 0.7
        H = _build(space, "JC", g=g).mat
        assert H[space.index(1, 0), space.index(0, 1)] == pytest.approx(1j * g)

    def test_dark_ground_state(self, space):
        H = _build(space, "JC", g=1.0)
        psi = fock_state(space, 0, "down")
        assert np.abs(H.mat @ psi.data).max() == 0.0

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_block_eigenvalues(self, space, n):
        g = 1.3
        H = _build(space, "JC", g=g).mat
        idx = [space.index(0, n), space.index(1, n - 1)]
        ev = np.linalg.eigvalsh(H[np.ix_(idx, idx)])
        assert np.allclose(ev, [-g * math.sqrt(n), g * math.sqrt(n)])


class TestAntiJC:
    def test_matrix_element(self, space):
        g = 0.7
        H = _build(space, "AntiJC", g=g).mat
        assert H[space.index(1, 1), space.index(0, 0)] == pytest.approx(1j * g)

    def test_truncation_edge_dark_column(self, space):
        # |down, n_max> has no partner |up, n_max+1> after truncation
        H = _build(space, "AntiJC", g=1.0)
        psi = fock_state(space, space.n_max, "down")
        assert np.abs(H.mat @ psi.data).max() == 0.0

    @pytest.mark.parametrize("n", [0, 3, 7])
    def test_block_eigenvalues(self, space, n):
        g = 0.9
        H = _build(space, "AntiJC", g=g).mat
        idx = [space.index(0, n), space.index(1, n + 1)]
        ev = np.linalg.eigvalsh(H[np.ix_(idx, idx)])
        assert np.allclose(ev, [-g * math.sqrt(n + 1), g * math.sqrt(n + 1)])


class TestNonlinearJC:
    def test_ld_limit_equals_linear(self, space):
        H_lin = _build(space, "JC", g=1.0).mat
        H_nl = _build(space, "NonlinearJC", g=1.0, eta=1e-5).mat
        assert np.abs(H_nl - H_lin).max() < 1e-6 * np.abs(H_lin).max()

    def test_blockade_coupling_vanishes(self):
        sp = HilbertSpace(25)
        g = 1.0
        H = _build(sp, "NonlinearJC", g=g, eta=0.4518).mat
        assert abs(H[sp.index(1, 17), sp.index(0, 18)]) < 1e-3 * g

    def test_ground_coupling_closed_form(self, space):
        g, eta = 1.0, 0.5
        H = _build(space, "NonlinearJC", g=g, eta=eta).mat
        expected = g * math.exp(-0.125)
        assert abs(H[space.index(1, 0), space.index(0, 1)]) == pytest.approx(expected)

    def test_coupling_magnitudes(self, space):
        g, eta = 0.8, 0.3
        H = _build(space, "NonlinearJC", g=g, eta=eta).mat
        for n in range(1, space.n_max + 1):
            elem = H[space.index(1, n - 1), space.index(0, n)]
            assert abs(elem) == pytest.approx(g * math.sqrt(n) * abs(f1_scalar(n - 1, eta)))


class TestNonlinearAntiJC:
    def test_blockade(self):
        sp = HilbertSpace(25)
        g = 1.0
        H = _build(sp, "NonlinearAntiJC", g=g, eta=0.4518).mat
        assert abs(H[sp.index(1, 18), sp.index(0, 17)]) < 1e-3 * g

    def test_ld_limit(self, space):
        H_lin = _build(space, "AntiJC", g=1.0).mat
        H_nl = _build(space, "NonlinearAntiJC", g=1.0, eta=1e-5).mat
        assert np.abs(H_nl - H_lin).max() < 1e-6 * np.abs(H_lin).max()

    def test_dark_state_at_blockade(self):
        sp = HilbertSpace(25)
        g = 1.0
        H = _build(sp, "NonlinearAntiJC", g=g, eta=0.4518)
        psi = fock_state(sp, 17, "down")
        assert np.abs(H.mat @ psi.data).max() < 1e-3 * g


class TestQRM:
    def test_decoupled_spectrum(self, space):
        wR, w0R = 1.0, 0.35
        H = _build(space, "QRM", g=0.0, omega_R=wR, omega0_R=w0R).mat
        expected = np.sort(np.concatenate([wR * np.arange(space.dim_boson) - w0R / 2,
                                           wR * np.arange(space.dim_boson) + w0R / 2]))
        assert np.allclose(np.sort(np.linalg.eigvalsh(H)), expected, atol=1e-12)

    def test_degenerate_displaced_spectrum(self):
        # omega0=0: each sigma_y sector is a displaced oscillator with
        # spectrum omega*n - g^2/omega
        sp = HilbertSpace(80)
        w, g = 1.0, 0.3
        ev = np.sort(np.linalg.eigvalsh(_build(sp, "QRM", g=g, omega_R=w, omega0_R=0.0).mat))
        expected = np.repeat(w * np.arange(20) - g**2 / w, 2)
        assert np.allclose(ev[:40], expected, atol=1e-8)

    def test_structure_and_hermiticity(self, space):
        H = _build(space, "QRM", g=0.5, omega_R=1.0, omega0_R=0.4).mat
        d = space.dim_boson
        assert np.all(np.abs(np.imag(np.diag(H))) == 0)
        assert np.all(np.real(H[d:, :d]) == 0)  # coupling block purely imaginary
        assert hermiticity_defect(H) < 1e-12


class TestNonlinearQRM:
    def test_barrier_subspace_invariant(self):
        eta = barrier_eta(7)
        sp = HilbertSpace(40)
        g, wR = 4.0, 1.0
        H = _build(sp, "NonlinearQRM", g=g, eta=eta, omega_R=wR, omega0_R=0.0).mat
        low = list(range(0, 8)) + list(range(sp.dim_boson, sp.dim_boson + 8))
        high = [i for i in range(sp.dim_total) if i not in low]
        assert np.abs(H[np.ix_(high, low)]).max() < 1e-12 * g

    def test_ld_limit_equals_qrm(self, space):
        H_lin = _build(space, "QRM", g=0.7, omega_R=1.0, omega0_R=0.2).mat
        H_nl = _build(space, "NonlinearQRM", g=0.7, eta=1e-5, omega_R=1.0, omega0_R=0.2).mat
        assert np.abs(H_nl - H_lin).max() < 1e-6 * np.abs(H_lin).max()

    def test_g_zero_spectrum(self, space):
        wR, w0R = 0.9, 0.3
        H = _build(space, "NonlinearQRM", g=0.0, eta=0.6, omega_R=wR, omega0_R=w0R).mat
        expected = np.sort(np.concatenate([wR * np.arange(space.dim_boson) - w0R / 2,
                                           wR * np.arange(space.dim_boson) + w0R / 2]))
        assert np.allclose(np.sort(np.linalg.eigvalsh(H)), expected, atol=1e-12)


class TestParity:
    @pytest.mark.parametrize("eta", [0.0, 0.5])
    def test_rabi_models_commute_with_parity(self, eta):
        sp = HilbertSpace(30)
        if eta == 0.0:
            H = _build(sp, "QRM", g=1.1, omega_R=1.0, omega0_R=0.7).mat
        else:
            H = _build(sp, "NonlinearQRM", g=1.1, eta=eta, omega_R=1.0, omega0_R=0.7).mat
        P = parity_op(sp).mat
        comm = H @ P - P @ H
        assert np.abs(comm).max() < 1e-12 * np.abs(H).max()


class TestLDConvergenceRate:
    def test_quadratic_in_eta(self):
        # || H_nl(eta) - H_lin || / || H_lin || <= C eta^2 on n <= 10
        sp = HilbertSpace(10)
        H_lin = _build(sp, "JC", g=1.0).mat
        scale = np.linalg.norm(H_lin)
        ratios = {}
        for eta in (0.05, 0.025):
            diff = np.linalg.norm(_build(sp, "NonlinearJC", g=1.0, eta=eta).mat - H_lin)
            ratios[eta] = diff / scale / eta**2
        assert ratios[0.05] < 15.0
        # quadratic scaling: the eta^2-normalized ratio is eta-independent
        assert ratios[0.05] == pytest.approx(ratios[0.025], rel=0.05)


def _simulated(delta_r, delta_b):
    """(omega0_R, omega_R) of the nonlinear QRM that the two-tone detunings simulate."""
    sim = ModelSpec(kind="TwoTone", eta=0.3, g=1.0, nu=DEFAULT_NU,
                    delta_r=delta_r, delta_b=delta_b).simulated()
    assert (sim.kind, sim.eta, sim.g) == ("NonlinearQRM", 0.3, 1.0)
    return sim.omega0_R, sim.omega_R


class TestSimulatedFrequencies:
    def test_paper_detunings(self):
        dr, db = 11.31 * KHZ, -11.31 * KHZ
        w0R, wR = _simulated(dr, db)
        assert w0R == 0.0
        assert wR == pytest.approx(11.31 * KHZ)

    def test_zero(self):
        assert _simulated(0.0, 0.0) == (0.0, 0.0)

    def test_arithmetic(self):
        delta = 0.37
        w0R, wR = _simulated(0.0, -2 * delta)
        assert w0R == pytest.approx(delta)
        assert wR == pytest.approx(delta)

    def test_inverse(self):
        # two_tone() then simulated() is the identity on a nonlinear QRM
        nqrm = ModelSpec(kind="NonlinearQRM", eta=0.57838, g=41.847 * KHZ,
                         omega0_R=0.2 * KHZ, omega_R=11.31 * KHZ)
        tt = nqrm.two_tone()
        assert (tt.kind, tt.eta, tt.g, tt.nu) == ("TwoTone", nqrm.eta, nqrm.g, DEFAULT_NU)
        assert tt.Omega == pytest.approx(2 * nqrm.g / nqrm.eta)
        back = tt.simulated()
        assert (back.kind, back.eta, back.g) == ("NonlinearQRM", nqrm.eta, nqrm.g)
        assert (back.omega0_R, back.omega_R) == pytest.approx((nqrm.omega0_R, nqrm.omega_R))

    def test_other_kinds_simulate_themselves(self):
        spec = ModelSpec(kind="QRM", g=1.0, omega_R=0.5, omega0_R=0.1)
        assert spec.simulated() is spec

    @pytest.mark.parametrize("kind", ["JC", "QRM", "TwoTone"])
    def test_only_nonlinear_qrm_has_a_two_tone(self, kind):
        spec = _two_tone_spec() if kind == "TwoTone" else ModelSpec(kind=kind, g=1.0)
        with pytest.raises(ValueError, match="two-tone"):
            spec.two_tone()


def _two_tone_spec(eta=0.3, Omega=2.0, nu=400.0, dr=0.25, db=-0.25, phi_r=0.0, phi_b=0.0):
    return ModelSpec(kind="TwoTone", eta=eta, Omega=Omega, nu=nu,
                     delta_r=dr, delta_b=db, phi_r=phi_r, phi_b=phi_b)


class TestModelSpecValidation:
    def test_jc_requires_positive_g(self):
        with pytest.raises(ValueError):
            ModelSpec(kind="JC", g=0.0)
        with pytest.raises(ValueError):
            ModelSpec(kind="JC")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ModelSpec(kind="Dicke", g=1.0)

    def test_two_tone_derives_g(self):
        spec = _two_tone_spec(eta=0.4, Omega=3.0)
        assert spec.g == pytest.approx(0.4 * 3.0 / 2)

    def test_two_tone_g_crosscheck(self):
        with pytest.raises(ValueError, match="inconsistent coupling"):
            ModelSpec(kind="TwoTone", eta=0.4, Omega=3.0, nu=400.0, g=0.7,
                      delta_r=0.25, delta_b=-0.25)

    def test_two_tone_warns_on_large_detuning(self):
        with pytest.warns(ValidityWarning, match="delta_r"):
            _two_tone_spec(dr=80.0)

    def test_two_tone_warns_on_large_omega(self):
        with pytest.warns(ValidityWarning, match="Omega/nu"):
            _two_tone_spec(Omega=120.0)

    def test_two_tone_requires_nu(self):
        with pytest.raises(ValueError):
            ModelSpec(kind="TwoTone", eta=0.3, Omega=1.0, delta_r=0.1, delta_b=-0.1)

    @pytest.mark.parametrize("kind", ["JC", "AntiJC", "QRM"])
    def test_linear_kinds_reject_eta(self, kind):
        with pytest.raises(ValueError, match="eta = 0"):
            ModelSpec(kind=kind, g=1.0, eta=0.1)


class TestTwoTone:
    def test_hermitian_at_all_times(self):
        sp = HilbertSpace(15)
        spec = _two_tone_spec()
        for t in (0.0, 0.123, 1.7):
            H = _two_tone(spec, sp, t)
            assert hermiticity_defect(H.mat) < 1e-12

    def test_block_at_time_zero(self):
        sp = HilbertSpace(15)
        spec = _two_tone_spec()
        H = _two_tone(spec, sp, 0.0).mat
        d = sp.dim_boson
        expected = spec.Omega * displacement_boson(sp.n_max, 1j * spec.eta)
        assert np.abs(H[d:, :d] - expected).max() < 1e-12

    def test_carrier_magnitude_in_ld_limit(self):
        # eta -> 0: |<up,n|H|down,n>| = Omega |cos(((dr - db)/2 - nu) t)|
        sp = HilbertSpace(10)
        spec = _two_tone_spec(eta=1e-9)
        d = sp.dim_boson
        for t in (0.0, 0.003, 0.011):
            H = _two_tone(spec, sp, t).mat
            expected = spec.Omega * abs(
                math.cos(((spec.delta_r - spec.delta_b) / 2 - spec.nu) * t))
            assert abs(H[d + 3, 3]) == pytest.approx(expected, abs=1e-7)

    def test_generator_apply_matches_matrix(self, rng):
        sp = HilbertSpace(15)
        spec = _two_tone_spec()
        gen = TwoToneGenerator(spec, sp)
        psi = rng.normal(size=sp.dim_total) + 1j * rng.normal(size=sp.dim_total)
        psi /= np.linalg.norm(psi)
        for t in (0.0, 0.41, 2.3):
            assert np.abs(gen.apply(t, psi) - gen.matrix(t) @ psi).max() < 1e-12

    def test_generator_apply_block(self, rng):
        sp = HilbertSpace(15)
        gen = TwoToneGenerator(_two_tone_spec(), sp)
        X = rng.normal(size=(sp.dim_total, 3)) + 1j * rng.normal(size=(sp.dim_total, 3))
        for t in (0.0, 0.41):
            assert np.abs(gen.apply(t, X) - gen.matrix(t) @ X).max() < 1e-12

    @pytest.mark.parametrize("n_max", [2, 15, 40, 60])
    @pytest.mark.parametrize("eta", [0.1, 0.45, 0.578, 1.2])
    def test_displacement_is_real_between_phases(self, eta, n_max):
        # <m|D(i eta)|n> = i^(m-n) x real, so S^dag D(i eta) S is real for S = diag(i^n)
        d0 = displacement_boson(n_max, 1j * eta)
        s = np.array([1, 1j, -1, -1j])[np.arange(n_max + 1) % 4]
        assert np.abs((s.conj()[:, None] * d0 * s[None, :]).imag).max() == 0.0

    @pytest.mark.parametrize("shape", ["vector", "block", "column-slice", "column"])
    def test_generator_apply_across_times(self, rng, shape):
        # t1, t1, t2, t1: the phases kept from the last time are reused only
        # for that time.  pass 2 of evolve_unitary_td hands apply a leading
        # column slice of a block and, for a record step, one column of it.
        sp = HilbertSpace(40)
        gen = TwoToneGenerator(_two_tone_spec(eta=0.578, dr=0.3, db=-0.1,
                                              phi_r=0.7, phi_b=-1.9), sp)
        big = rng.normal(size=(sp.dim_total, 7)) + 1j * rng.normal(size=(sp.dim_total, 7))
        X = {"vector": big[:, 0].copy(), "block": big, "column-slice": big[:, :4],
             "column": big[:, 3]}[shape]
        for t in (0.013, 0.013, 0.41, 0.013):
            out = gen.apply(t, X)
            assert out.shape == X.shape
            assert np.abs(out - gen.matrix(t) @ X).max() < 1e-12

    def test_frame_makes_drive_periodic(self):
        # e^{-iKt} H(t) e^{iKt} repeats with the period; K's own shift is constant
        sp = HilbertSpace(15)
        # unequal detunings: with delta_b = -delta_r a wrong sign of the up-block
        # shift delta_r - nu would still look periodic
        gen = TwoToneGenerator(_two_tone_spec(dr=0.3, db=-0.1, phi_r=0.7, phi_b=-1.9), sp)
        assert gen.period == pytest.approx(2 * math.pi / (2 * 400.0 - 0.1 - 0.3))

        def rotated(t):
            w = np.exp(-1j * gen.frame * t)
            return w[:, None] * gen.matrix(t) * w.conj()[None, :]

        for t in (0.0, 0.0037, 0.021):
            assert np.abs(rotated(t + gen.period) - rotated(t)).max() < 1e-12
            assert np.abs(rotated(t + 0.5 * gen.period) - rotated(t)).max() > 0.1

    def test_requires_a_period(self):
        # 2 nu + delta_b - delta_r = 0 leaves the rotating-frame drive constant
        with pytest.raises(ValueError, match="period"):
            ModelSpec(kind="TwoTone", eta=0.3, Omega=2.0, nu=1.0, delta_r=1.5, delta_b=-0.5)

    def test_phase_mask_matches_direct_displacement(self):
        sp = HilbertSpace(20)
        spec = _two_tone_spec(eta=0.45)
        gen = TwoToneGenerator(spec, sp)
        t = 0.37
        direct = displacement_boson(sp.n_max, 1j * spec.eta * np.exp(1j * spec.nu * t))
        d = sp.dim_boson
        H = gen.matrix(t)
        c = gen.tone_coeff(t)
        assert np.abs(H[d:, :d] / c - direct).max() < 1e-12


class TestBuilderHermiticity:
    def test_all_builders(self):
        sp = HilbertSpace(20)
        mats = [
            _build(sp, "JC", g=1.0).mat,
            _build(sp, "AntiJC", g=1.0).mat,
            _build(sp, "NonlinearJC", g=1.0, eta=0.5).mat,
            _build(sp, "NonlinearAntiJC", g=1.0, eta=0.5).mat,
            _build(sp, "QRM", g=1.0, omega_R=0.5, omega0_R=0.3).mat,
            _build(sp, "NonlinearQRM", g=1.0, eta=0.5, omega_R=0.5, omega0_R=0.3).mat,
            _two_tone(_two_tone_spec(), sp, 0.77).mat,
        ]
        for mat in mats:
            assert hermiticity_defect(mat) < 1e-12


class TestDispatch:
    def test_kinds(self, space):
        # against the same models built from the ladder and Pauli operators
        a, ad, n = (op(space).mat for op in (annihilation_op, creation_op, number_op))
        sz, sp, sm, _ = (op.mat for op in qubit_ops(space))
        g, wR, w0R = 0.7, 0.5, 0.1
        cases = [
            ("JC", {}, 1j * g * (sp @ a - sm @ ad)),
            ("AntiJC", {}, 1j * g * (sp @ ad - sm @ a)),
            ("QRM", {"omega_R": wR, "omega0_R": w0R},
             w0R / 2 * sz + wR * n + 1j * g * (sp - sm) @ (a + ad)),
        ]
        for kind, kw, expected in cases:
            H = _build(space, kind, g=g, **kw).mat
            assert np.abs(H - expected).max() < 1e-14

    def test_two_tone_rejected(self, space):
        with pytest.raises(ValueError, match="time-dependent"):
            build_hamiltonian(_two_tone_spec(), space)
