import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from ionrabi import (
    HilbertSpace,
    ModelSpec,
    Operator,
    QuantumState,
    TwoToneGenerator,
    annihilation_op,
    barrier_eta,
    build_hamiltonian,
    coherent_state,
    evolve_lindblad,
    evolve_unitary,
    evolve_unitary_td,
    expectation,
    fock_state,
    number_op,
    overlap_fidelity,
    parse_scenario,
    phonon_distribution,
    qubit_ops,
    rwa_crosscheck,
    scenario_from_dict,
    thermal_state,
)
from ionrabi import dynamics, fock
from ionrabi.dynamics import (
    _RK4_FACTORS,
    _lindblad_coo,
    _min_eigenvalue,
    _quadratic_pattern,
    _rk4_factors,
    coherent_required_n_max,
    thermal_required_n_max,
)
from ionrabi.errors import (
    PositivityLoss,
    SpaceMismatch,
    StepTooLarge,
    TruncationTooSmall,
)
from ionrabi.fock import _sectors
from ionrabi.runner import _state_n_requirement, simulate_scenario

ROOT = Path(__file__).resolve().parent.parent


def _build(space, kind, **kw):
    return build_hamiltonian(ModelSpec(kind=kind, **kw), space)


class TestQuantumState:
    def test_shape_sets_purity(self, space):
        psi = fock_state(space, 1, "up")
        rho = psi.to_density()
        assert psi.is_pure and not rho.is_pure
        assert rho.to_density() is rho

    @pytest.mark.parametrize("case", ["vector-length", "rectangular", "three-axes",
                                      "not-normalized", "trace", "not-hermitian"])
    def test_rejects(self, space, case):
        D = space.dim_total
        rho = np.zeros((D, D), dtype=complex)
        rho[0, 0] = 1.0
        skew = rho.copy()
        skew[0, 1] = 0.5    # trace 1, no matching [1, 0] entry
        data, match = {
            "vector-length": (np.eye(D + 1)[0], "shape"),
            "rectangular": (rho[:, :-1], "shape"),
            "three-axes": (rho[None], "shape"),
            "not-normalized": (np.full(D, 1.0), "not normalized"),
            "trace": (2.0 * rho, "trace"),
            "not-hermitian": (skew, "not hermitian"),
        }[case]
        with pytest.raises(ValueError, match=match):
            QuantumState(space, data)


class TestFockState:
    def test_amplitude(self, space):
        psi = fock_state(space, 3, "down")
        assert psi.data[space.index(0, 3)] == 1.0
        assert np.linalg.norm(psi.data) == 1.0

    def test_number_expectation(self, space):
        psi = fock_state(space, 4, "up")
        assert expectation(number_op(space), psi) == pytest.approx(4.0, abs=1e-14)

    def test_self_fidelity(self, space):
        psi = fock_state(space, 2, "down")
        assert overlap_fidelity(psi, psi) == pytest.approx(1.0)

    def test_rejects_overflow(self, space):
        with pytest.raises(TruncationTooSmall) as info:
            fock_state(space, space.n_max + 1, "down")
        assert info.value.required_n_max == space.n_max + 1

    def test_rejects_negative_index(self, space):
        with pytest.raises(ValueError):
            fock_state(space, -1, "down")

    @pytest.mark.parametrize("qubit", ["g", "e", "UP", 0, 1, None])
    def test_qubit_is_down_or_up(self, space, qubit):
        with pytest.raises(ValueError, match="'down' or 'up'"):
            fock_state(space, 0, qubit)


class TestCoherentState:
    def test_alpha_zero_is_vacuum(self, space):
        psi = coherent_state(space, 0.0, "down")
        assert np.array_equal(psi.data, fock_state(space, 0, "down").data)

    def test_poisson_ground_weight(self):
        sp = HilbertSpace(30)
        psi = coherent_state(sp, 1.0, "down")
        assert phonon_distribution(psi)[0] == pytest.approx(math.exp(-1.0), abs=1e-10)

    def test_mean_phonon_number(self):
        sp = HilbertSpace(120)
        psi = coherent_state(sp, math.sqrt(30), "down")
        assert expectation(number_op(sp), psi) == pytest.approx(30.0, abs=1e-8)

    def test_truncation_rejected(self):
        sp = HilbertSpace(40)
        with pytest.raises(TruncationTooSmall) as err:
            coherent_state(sp, math.sqrt(30), "down")
        assert err.value.required_n_max > 60

    @pytest.mark.parametrize("alpha", [0.5, 1, 3, 5.5])
    def test_required_n_max_is_one_bound(self, alpha):
        # coherent_state's rejection and the runner's auto truncation share
        # coherent_required_n_max
        required = coherent_required_n_max(alpha)
        coherent_state(HilbertSpace(required), alpha)
        with pytest.raises(TruncationTooSmall) as err:
            coherent_state(HilbertSpace(required - 1), alpha)
        assert err.value.required_n_max == required

    def test_poisson_distribution(self):
        sp = HilbertSpace(40)
        pn = phonon_distribution(coherent_state(sp, 1.0, "down"))
        expected = np.array([math.exp(-1.0) / math.factorial(n) for n in range(10)])
        assert np.abs(pn[:10] - expected).max() < 1e-8


class TestThermalState:
    def test_nbar_zero(self, space):
        rho = thermal_state(space, 0.0, "down")
        assert rho.data[0, 0] == 1.0
        assert np.trace(rho.data).real == pytest.approx(1.0)

    def test_nbar_one_geometric(self):
        sp = HilbertSpace(40)
        pn = phonon_distribution(thermal_state(sp, 1.0, "down"))
        assert pn[0] == pytest.approx(0.5, abs=1e-10)
        for k in (1, 2, 5):
            assert pn[k] == pytest.approx(0.5 ** (k + 1), rel=1e-9)

    def test_tail_above_17(self):
        sp = HilbertSpace(40)
        pn = phonon_distribution(thermal_state(sp, 1.0, "down"))
        assert pn[18:].sum() == pytest.approx(2.0 ** -18, rel=1e-3)

    def test_truncation_rejected(self):
        with pytest.raises(TruncationTooSmall):
            thermal_state(HilbertSpace(20), 1.0, "down")

    def test_positive(self):
        rho = thermal_state(HilbertSpace(40), 1.0, "down")
        assert np.linalg.eigvalsh(rho.data)[0] >= -1e-12

    @pytest.mark.parametrize("nbar", [0.5, 1.0, 3.0, 10.0])
    def test_required_n_max_is_one_bound(self, nbar):
        # thermal_state's rejection and the runner's auto truncation share
        # thermal_required_n_max, and the state fits at that truncation
        required = thermal_required_n_max(nbar)
        with pytest.raises(TruncationTooSmall) as err:
            thermal_state(HilbertSpace(1), nbar)
        assert err.value.required_n_max == required
        scenario = scenario_from_dict({
            "schema_version": 1, "name": "thermal",
            "model": {"kind": "JC", "g": 1.0},
            "initial": {"kind": "thermal", "nbar": nbar, "qubit": "down"},
            "times": {"t_end": 1.0, "n_points": 2},
            "lindblad": {"gamma_ratio": 0.0},
        })
        assert _state_n_requirement(scenario)[0] == required
        thermal_state(HilbertSpace(required), nbar)
        # and it is the smallest truncation that fits
        with pytest.raises(TruncationTooSmall):
            thermal_state(HilbertSpace(required - 1), nbar)


def _random_grid_with_repeats():
    # sorted, with _BLOCK + 5 times entered twice: irregular and zero gaps
    base = np.random.default_rng(16).uniform(0.2, 6.0, 2 * dynamics._BLOCK)
    return np.sort(np.concatenate((base, base[:dynamics._BLOCK + 5])))


# linspace grids by their length (1: a block with no gaps), and an irregular one
_GRIDS = [*(pytest.param(np.linspace(0.2, 6.0, n), id=str(n))
            for n in (1, dynamics._BLOCK, dynamics._BLOCK + 1, 3 * dynamics._BLOCK + 5)),
          pytest.param(_random_grid_with_repeats(), id="random-with-repeats")]


class TestEvolveUnitary:
    def test_zero_hamiltonian(self, space):
        H = Operator(space, np.zeros((space.dim_total,) * 2))
        psi = fock_state(space, 2, "up")
        traj = evolve_unitary(H, psi, np.linspace(0, 5, 11), keep_states=True)
        assert np.allclose(traj.fidelity, 1.0)
        assert np.array_equal(traj.states[10], psi.data)

    def test_jc_rabi_oscillation(self, space):
        g = 1.0
        H = _build(space, "JC", g=g)
        psi = fock_state(space, 1, "down")
        times = np.linspace(0, 4.0, 41)
        traj = evolve_unitary(H, psi, times)
        assert np.abs(traj.fidelity - np.cos(g * times) ** 2).max() < 1e-12
        assert traj.states is None   # kept only on request

    def test_qrm_dsc_revival(self):
        sp = HilbertSpace(70)
        w = 1.0
        H = _build(sp, "QRM", g=2.0, omega_R=w, omega0_R=0.0)
        psi = coherent_state(sp, 1.0, "down")
        times = np.array([0.0, math.pi / w, 2 * math.pi / w])
        traj = evolve_unitary(H, psi, times)
        assert traj.fidelity[2] > 0.999
        assert traj.fidelity[1] < 0.2

    def test_rejects_non_hermitian(self, space):
        mat = np.zeros((space.dim_total,) * 2, dtype=complex)
        mat[0, 1] = 1.0
        H = Operator(space, mat)
        with pytest.raises(ValueError, match="hermitian"):
            evolve_unitary(H, fock_state(space, 0), np.linspace(0, 1, 3))

    def test_norm_preserved(self, space):
        H = _build(space, "JC", g=1.0)
        psi = fock_state(space, 3, "down")
        traj = evolve_unitary(H, psi, np.linspace(0, 20, 101), keep_states=True)
        assert np.abs(np.linalg.norm(traj.states, axis=1) - 1.0).max() < 1e-10

    def test_energy_conserved(self):
        sp = HilbertSpace(40)
        H = _build(sp, "QRM", g=1.0, omega_R=1.0, omega0_R=0.4)
        psi = coherent_state(sp, 1.0, "down")
        traj = evolve_unitary(H, psi, np.linspace(0, 10, 21), keep_states=True)
        energies = [expectation(H, QuantumState(sp, s)) for s in traj.states]
        e0 = energies[0]
        assert max(abs(e - e0) for e in energies) < 1e-9 * max(1.0, abs(e0))

    @pytest.mark.parametrize("times", _GRIDS)
    def test_blocks_match_expm(self, times):
        space = HilbertSpace(20)
        H = _build(space, "NonlinearQRM", g=1.0, eta=0.4, omega_R=0.7, omega0_R=0.3)
        psi = coherent_state(space, 1.2, "down")
        traj = evolve_unitary(H, psi, times, keep_states=True)
        d = space.dim_boson
        # expm chained over the gaps between the sorted times: each exponent is
        # small, so each expm takes few squarings, and no eigh is involved
        ref = psi.data
        for i, gap in enumerate(np.diff(times, prepend=0.0)):
            ref = expm(-1j * H.mat * gap) @ ref
            pg, pe = np.abs(ref[:d]) ** 2, np.abs(ref[d:]) ** 2
            assert np.abs(traj.states[i] - ref).max() < 1e-12
            assert np.abs(traj.phonons[i] - (pg + pe)).max() < 1e-12
            assert traj.sigma_z[i] == pytest.approx(pe.sum() - pg.sum(), abs=1e-12)
            assert traj.n_mean[i] == pytest.approx(np.arange(d) @ (pg + pe), abs=1e-12)
            assert traj.fidelity[i] == pytest.approx(abs(np.vdot(psi.data, ref)) ** 2, abs=1e-12)
        assert traj.meta == {"method": "eigh", "n_times": len(times)}

    def test_long_phases_match_direct_exp(self):
        # fig2b's H and grid: |w t| reaches 192 rad, and each block's phases
        # are a running product over up to _BLOCK - 1 gaps
        sp = HilbertSpace(120)
        H = _build(sp, "NonlinearJC", g=45.24, eta=0.5)
        psi = coherent_state(sp, math.sqrt(30), "down")
        times = np.linspace(0.0, 3 * 1.6 * math.sqrt(30) * 2 * math.pi / 45.24, 2401)
        traj = evolve_unitary(H, psi, times, keep_states=True)
        w, V = np.linalg.eigh(H.mat)
        ref = V @ (np.exp(-1j * np.outer(w, times)) * (V.conj().T @ psi.data)[:, None])
        assert np.abs(w).max() * times[-1] > 150
        assert np.abs(traj.states - ref.T).max() < 1e-12

    def test_states_across_blocks(self, space):
        H = _build(space, "JC", g=1.0)
        psi = coherent_state(space, 1.0, "down")
        times = np.linspace(0.0, 5.0, 3 * dynamics._BLOCK + 5)
        traj = evolve_unitary(H, psi, times, keep_states=True)
        assert traj.states.shape == (len(times), space.dim_total)
        for i, t in enumerate(times):
            assert np.abs(traj.states[i] - expm(-1j * H.mat * t) @ psi.data).max() < 1e-12

    @pytest.mark.parametrize("route", ["unitary", "unitary_td"])
    def test_norm_guard_names_first_time(self, space, route):
        # the recorder names the time of the first bad record, on either route
        H = _build(space, "JC", g=1.0)
        psi = fock_state(space, 2, "down")
        psi.data *= 1.001
        times = np.linspace(0.5, 3.0, 2 * dynamics._BLOCK + 1)
        with pytest.raises(StepTooLarge, match=r"at t=0\.5$"):
            if route == "unitary":
                evolve_unitary(H, psi, times)
            else:
                evolve_unitary_td(_ConstantDrive(H.mat, dt_max=2e-3), psi, times)


@pytest.mark.parametrize("times", [[0.0, math.inf], [0.0, math.nan, 1.0], [-math.inf, 0.0]],
                         ids=["inf", "nan", "-inf"])
@pytest.mark.parametrize("route", ["unitary", "unitary_td", "lindblad"])
def test_rejects_non_finite_times(space, route, times):
    H = _build(space, "JC", g=1.0)
    psi = fock_state(space, 2, "down")
    bad = next(i for i, t in enumerate(times) if not math.isfinite(t))
    with pytest.raises(ValueError, match=rf"^times\[{bad}\] = \S+ is not finite$"):
        if route == "unitary":
            evolve_unitary(H, psi, times)
        elif route == "unitary_td":
            evolve_unitary_td(_ConstantDrive(H.mat, dt_max=2e-3), psi, times)
        else:
            evolve_lindblad(H, [(1.0, qubit_ops(space)[2])], psi.to_density(),
                            times)


def _random_hermitian(space, rng):
    d = space.dim_total
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return Operator(space, (a + a.conj().T) / (2.0 * math.sqrt(d)))


def _parity_sectors(space):
    """|down, even> + |up, odd> and its complement, each ascending."""
    n = np.arange(space.dim_boson)
    even = np.concatenate([n[n % 2 == 0], space.dim_boson + n[n % 2 == 1]])
    odd = np.concatenate([n[n % 2 == 1], space.dim_boson + n[n % 2 == 0]])
    return np.sort(even), np.sort(odd)


class TestSectors:
    def test_nonlinear_jc_doublets(self):
        sp = HilbertSpace(40)
        H = _build(sp, "NonlinearJC", g=1.0, eta=0.4)
        singlets, doublets = _sectors(H.mat, np.arange(sp.dim_total))
        assert singlets.tolist() == [[sp.index(0, 0)], [sp.index(1, 40)]]
        assert doublets.tolist() == [[sp.index(0, n), sp.index(1, n - 1)] for n in range(1, 41)]

    @pytest.mark.parametrize("kind,kw", [
        ("QRM", dict(g=1.0, omega_R=0.7, omega0_R=0.3)),
        ("NonlinearQRM", dict(g=1.0, eta=0.4, omega_R=0.7, omega0_R=0.3)),
    ])
    def test_rabi_parity_chains(self, kind, kw):
        sp = HilbertSpace(30)
        H = _build(sp, kind, **kw)
        (chains,) = _sectors(H.mat, np.arange(sp.dim_total))
        assert chains.shape == (2, sp.n_max + 1)
        assert [c.tolist() for c in chains] == [c.tolist() for c in _parity_sectors(sp)]

    def test_fig4_start_keeps_one_parity(self):
        sc = parse_scenario(ROOT / "scenarios" / "fig4.scenario")
        sp = HilbertSpace(sc.truncation)
        H = build_hamiltonian(sc.model_spec(), sp)
        psi = fock_state(sp, 0, "down")
        (sector,) = _sectors(H.mat, np.flatnonzero(psi.data))
        even, odd = _parity_sectors(sp)
        assert sector.tolist() == [even.tolist()]
        times = np.linspace(0.0, 20.0 * 2 * math.pi / sc.model_spec().g, 201)
        traj = evolve_unitary(H, psi, times, keep_states=True)
        assert not np.any(traj.states[:, odd])
        assert np.abs(np.linalg.norm(traj.states[:, even], axis=1) - 1.0).max() < 1e-12

    def test_dense_hermitian_is_one_sector(self, space, rng):
        H = _random_hermitian(space, rng)
        (sector,) = _sectors(H.mat, np.array([3]))
        assert sector.tolist() == [list(range(space.dim_total))]

    def test_untouched_sectors_dropped(self):
        sp = HilbertSpace(10)
        H = _build(sp, "JC", g=1.0)
        live = np.array([sp.index(0, 4), sp.index(1, 10)])
        singlets, doublets = _sectors(H.mat, live)
        assert singlets.tolist() == [[sp.index(1, 10)]]
        assert doublets.tolist() == [[sp.index(0, 4), sp.index(1, 3)]]

    @pytest.mark.parametrize("case", ["JC", "NonlinearQRM", "random"])
    def test_route_matches_expm(self, case, rng):
        sp = HilbertSpace(20)
        if case == "JC":
            H = _build(sp, "JC", g=1.0)
            psi = coherent_state(sp, 1.5, "down")
        elif case == "NonlinearQRM":
            H = _build(sp, "NonlinearQRM", g=1.0, eta=0.4, omega_R=0.7, omega0_R=0.3)
            psi = fock_state(sp, 3, "up")
        else:
            H = _random_hermitian(sp, rng)
            data = rng.normal(size=sp.dim_total) + 1j * rng.normal(size=sp.dim_total)
            psi = QuantumState(sp, data / np.linalg.norm(data))
        times = np.linspace(0.0, 8.0, 2 * dynamics._BLOCK + 7)
        traj = evolve_unitary(H, psi, times, keep_states=True)
        for i, t in enumerate(times):
            assert np.abs(traj.states[i] - expm(-1j * H.mat * t) @ psi.data).max() < 1e-12
        assert traj.meta == {"method": "eigh", "n_times": len(times)}


class _ConstantDrive:
    """H(t) = H.  With frame K = 0 every period is valid; 1.3 divides no
    record spacing used here, so both M^k and pass 2 are exercised."""

    def __init__(self, H, dt_max, period=1.3):
        self.H = H
        self.dt_max = dt_max
        self.period = period
        self.frame = np.zeros(H.shape[0])

    def apply(self, t, X, out):
        return np.matmul(self.H, X, out=out)


def _rk4_reference(apply, psi0, times, dt_max):
    """Step-by-step vector RK4 through every record time."""
    psi, out = psi0.copy(), [psi0.copy()]
    for t0, t1 in zip(times[:-1], times[1:]):
        steps = max(1, math.ceil((t1 - t0) / dt_max))
        dt = (t1 - t0) / steps
        for j in range(steps):
            t = t0 + j * dt
            k1 = apply(t, psi)
            k2 = apply(t + dt / 2, psi - 0.5j * dt * k1)
            k3 = apply(t + dt / 2, psi - 0.5j * dt * k2)
            k4 = apply(t + dt, psi - 1j * dt * k3)
            psi = psi - 1j * dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(psi.copy())
    return np.array(out)


def _fig6_nqrm(omega_R=11.31 * 2 * math.pi * 1e3):
    """fig6's nonlinear QRM (g, eta and, by default, omega_R of the scenario)."""
    return ModelSpec(kind="NonlinearQRM", eta=0.57838, g=41.847 * 2 * math.pi * 1e3,
                     omega_R=omega_R)


def _fig6_max_deviation(monkeypatch, steps_per_trap_period):
    """validate's one-cycle fig6 cross-check, with the two-tone RK4 step set."""
    class Stepped(TwoToneGenerator):
        def __init__(self, spec, space):
            super().__init__(spec, space)
            self.dt_max = 2 * math.pi / (steps_per_trap_period * spec.nu)

    monkeypatch.setattr(dynamics, "TwoToneGenerator", Stepped)
    spec = _fig6_nqrm().two_tone()
    return rwa_crosscheck(spec, fock_state(HilbertSpace(40), 0, "down"),
                          T=2 * math.pi / spec.g).max_deviation


class _Widths:
    """Wraps a drive and keeps the largest block width handed to apply, and
    every `out` it is handed: a kept array cannot be freed, so its memory is
    not handed out again, and distinct data pointers are distinct arrays."""

    def __init__(self, drive):
        self.drive = drive
        self.dt_max, self.period, self.frame = drive.dt_max, drive.period, drive.frame
        self.widest = 1
        self.outs = []

    def apply(self, t, X, out):
        if X.ndim == 2:
            self.widest = max(self.widest, X.shape[1])
        self.outs.append(out)
        return self.drive.apply(t, X, out)


class TestEvolveUnitaryTd:
    def test_constant_matches_eigendecomposition(self, space):
        g = 1.0
        H = _build(space, "JC", g=g)
        psi = fock_state(space, 1, "down")
        times = np.linspace(0, 10.0 / g, 21)
        ref = evolve_unitary(H, psi, times, keep_states=True)
        traj = evolve_unitary_td(_ConstantDrive(H.mat, dt_max=2e-3), psi, times,
                                 keep_states=True)
        assert np.abs(traj.states - ref.states).max() < 1e-8

    def test_zero_drive_is_identity(self, space):
        psi = fock_state(space, 5, "up")
        drive = _ConstantDrive(np.zeros((space.dim_total,) * 2), dt_max=0.1)
        traj = evolve_unitary_td(drive, psi, np.linspace(0, 3, 7))
        assert np.allclose(traj.fidelity, 1.0)
        assert traj.states is None

    def test_step_too_large(self, space):
        H = _build(space, "JC", g=1.0)
        psi = fock_state(space, 8, "down")
        with pytest.raises(StepTooLarge):
            evolve_unitary_td(_ConstantDrive(H.mat, dt_max=2.0), psi, np.linspace(0, 50, 3))

    def test_requires_dt_max_without_spec(self, space):
        class NoStep:
            period = 1.3
            frame = np.zeros(space.dim_total)

            def apply(self, t, X, out):
                out[...] = X
                return out

        with pytest.raises(AttributeError, match="dt_max"):
            evolve_unitary_td(NoStep(), fock_state(space, 0), np.linspace(0, 1, 3))

    def test_names_earliest_bad_record(self):
        # a slow norm gain from the anti-hermitian 1.5e-7j I first passes the
        # 1e-6 bound at t = 0.5; the record at 3.9 sits nearest its period's
        # start, so a check in pass 2's sweep order would name it first
        sp = HilbertSpace(4)
        H = _build(sp, "JC", g=1.0).mat + 1.5e-7j * np.eye(sp.dim_total)
        psi = fock_state(sp, 2, "down")
        psi.data *= math.sqrt(1 + 0.9e-6)   # past the constructor's norm check
        with pytest.raises(StepTooLarge, match=r"at t=0\.5$"):
            evolve_unitary_td(_ConstantDrive(H, dt_max=2e-3), psi, [0.0, 0.5, 1.0, 2.0, 3.9])

    def test_period_drift_counts_once_per_period(self, space):
        # |down,0> is dark under the JC, so its own norm never moves; the
        # identity's columns drift by about 5e-8 per period at this step,
        # which 100 periods push past 1e-6
        drive = _ConstantDrive(_build(space, "JC", g=1.0).mat, dt_max=0.02)
        psi = fock_state(space, 0, "down")
        assert evolve_unitary_td(drive, psi, [0.0, 2.0]).meta["norm_drift"] < 1e-7
        with pytest.raises(StepTooLarge, match="accumulated norm drift"):
            evolve_unitary_td(drive, psi, [0.0, 131.0])

    def test_two_tone_matches_stepwise_rk4(self):
        # about 13 drive periods in 11 records, none on a period boundary
        spec = ModelSpec(kind="TwoTone", eta=0.5, Omega=8.0, nu=80.0,
                         delta_r=0.3, delta_b=-0.1, phi_r=0.3, phi_b=-0.8)
        gen = TwoToneGenerator(spec, HilbertSpace(12))
        psi = coherent_state(gen.space, 0.7, "down")
        times = np.linspace(0.0, 0.5, 11)
        traj = evolve_unitary_td(gen, psi, times, keep_states=True)
        assert traj.meta["n_steps"] < 0.5 / gen.dt_max / 4
        # stepped with the dense H(t), so the reference shares no code with apply
        ref = _rk4_reference(lambda t, X: gen.matrix(t) @ X, psi.data, times, gen.dt_max / 2)
        assert np.abs(traj.states - ref).max() < 1e-10

    def test_step_of_400_per_trap_period(self, monkeypatch):
        # The step keeps validate's one-cycle fig6 max_deviation within 1e-10
        # of the committed benchmark reference, which the earlier route that
        # stepped the whole span made at 200 steps per trap period.  This
        # route at 200 steps misses it (3.1e-10 measured); 400 meet it.
        spec = ModelSpec(kind="TwoTone", eta=0.5, Omega=8.0, nu=80.0)
        assert TwoToneGenerator(spec, HilbertSpace(2)).dt_max == 2 * math.pi / (400 * 80.0)
        ref = json.loads((ROOT / "perfbench" / "refs" / "twotone.json").read_text())
        want = (ref["validate-fig6"]["files"]["fig6-nqrm-motional-filter/validation.json"]
                ["rwa_crosscheck"]["max_deviation"])
        assert abs(_fig6_max_deviation(monkeypatch, 400) - want) < 1e-10
        assert abs(_fig6_max_deviation(monkeypatch, 200) - want) > 1e-10

    def test_seed_block_and_identity_agree(self):
        # at D = 6, five records in five periods step a block of their five
        # seeds; thirteen records in thirteen periods step the identity
        # instead, so no block is wider than D.  Every record's chain of
        # steps is the same either way.
        spec = ModelSpec(kind="TwoTone", eta=0.5, Omega=8.0, nu=80.0,
                         delta_r=0.3, delta_b=-0.1, phi_r=0.3, phi_b=-0.8)
        gen = TwoToneGenerator(spec, HilbertSpace(2))
        psi = QuantumState(gen.space, np.array([0.6, 0.8j, 0, 0, 0, 0]))
        runs = {}
        for n in (5, 13):
            times = np.linspace(0.0, 0.48, n)
            assert len(np.unique(np.floor(times / gen.period))) == n
            drive = _Widths(gen)
            runs[n] = evolve_unitary_td(drive, psi, times, keep_states=True).states
            assert drive.widest == gen.space.dim_total   # pass 1's identity
        assert np.abs(runs[5] - runs[13][::3]).max() < 1e-13

    @pytest.mark.parametrize("n", [5, 13], ids=["seed-block", "identity"])
    def test_stage_arrays_allocated_once(self, n):
        # about 400 steps over both passes, on the seed-block route (5 seeds)
        # or the identity route (13 seeds > D = 6), and every apply writes
        # into one of two arrays: the block's K and the record vector steps'
        spec = ModelSpec(kind="TwoTone", eta=0.5, Omega=8.0, nu=80.0,
                         delta_r=0.3, delta_b=-0.1, phi_r=0.3, phi_b=-0.8)
        drive = _Widths(TwoToneGenerator(spec, HilbertSpace(2)))
        psi = QuantumState(drive.drive.space, np.array([0.6, 0.8j, 0, 0, 0, 0]))
        traj = evolve_unitary_td(drive, psi, np.linspace(0.0, 0.48, n))
        assert traj.meta["n_steps"] >= 100
        assert len(drive.outs) == 4 * traj.meta["n_steps"]
        assert len({out.__array_interface__["data"][0] for out in drive.outs}) <= 2


class TestEvolveLindblad:
    def test_closed_system_limit(self, space):
        g = 1.0
        H = _build(space, "JC", g=g)
        psi = fock_state(space, 1, "down")
        times = np.linspace(0, 5, 11)
        ref = evolve_unitary(H, psi, times)
        _, _, sm, _ = qubit_ops(space)
        traj = evolve_lindblad(H, [(0.0, sm)], psi.to_density(), times,
                               dt_max=5e-3)
        assert np.abs(traj.fidelity - ref.fidelity).max() < 1e-8
        assert traj.states is None

    def test_amplitude_damping_analytic(self, space):
        gamma = 0.8
        H = Operator(space, np.zeros((space.dim_total,) * 2))
        _, _, sm, _ = qubit_ops(space)
        rho0 = fock_state(space, 0, "up").to_density()
        times = np.linspace(0, 4.0, 17)
        traj = evolve_lindblad(H, [(gamma, sm)], rho0, times,
                               dt_max=1e-2)
        assert np.abs(traj.sigma_z - (-1.0 + 2.0 * np.exp(-gamma * times))).max() < 1e-9

    def test_trace_preserved(self, space):
        H = _build(space, "NonlinearAntiJC", g=1.0, eta=0.5)
        _, _, sm, _ = qubit_ops(space)
        rho0 = thermal_state(space, 0.2, "down")
        traj = evolve_lindblad(H, [(2.0, sm)], rho0,
                               np.linspace(0, 10, 21))
        assert traj.meta["trace_drift"] < 1e-8

    def test_state_stays_hermitian_positive(self, space):
        H = _build(space, "NonlinearAntiJC", g=1.0, eta=0.6)
        _, _, sm, _ = qubit_ops(space)
        traj = evolve_lindblad(H, [(2.0, sm)],
                               thermal_state(space, 0.2, "down"),
                               np.linspace(0, 8, 9), keep_states=True)
        assert traj.states.shape == (9, space.dim_total, space.dim_total)
        rho = traj.states[8]
        assert np.abs(rho - rho.conj().T).max() < 1e-10
        assert np.linalg.eigvalsh(rho)[0] > -1e-8

    def test_dark_state_fixed_point(self):
        # |down,17><down,17| is annihilated by both the commutator and the
        # dissipator when eta sits exactly on the f1 zero
        sp = HilbertSpace(40)
        g = 1.0
        eta = barrier_eta(17)
        H = _build(sp, "NonlinearAntiJC", g=g, eta=eta).mat
        d = sp.dim_boson
        rho = np.zeros((sp.dim_total,) * 2, dtype=complex)
        rho[17, 17] = 1.0
        gamma = 2.0 * g
        sm = np.zeros((sp.dim_total,) * 2, dtype=complex)
        sm[:d, d:] = np.eye(d)
        rhs = (-1j * (H @ rho - rho @ H)
               + gamma * (sm @ rho @ sm.conj().T
                          - 0.5 * (sm.conj().T @ sm @ rho + rho @ sm.conj().T @ sm)))
        assert np.linalg.norm(rhs) < 1e-10 * g

    def test_positivity_loss_on_unstable_step(self, space):
        # RK4 preserves the trace exactly even when unstable, so divergence
        # surfaces through the positivity monitor
        H = Operator(space, np.zeros((space.dim_total,) * 2))
        _, _, sm, _ = qubit_ops(space)
        rho0 = fock_state(space, 0, "up").to_density()
        with pytest.raises(PositivityLoss):
            evolve_lindblad(H, [(1.0, sm)], rho0,
                            np.linspace(0, 40, 11), dt_max=4.0)

    def test_trace_guard_names_first_time(self, space, monkeypatch):
        # an anti-hermitian part i eps I grows the trace as e^{2 eps t}: 1e-5 over
        # the first record span, beyond PHONON_SUM_TOL, while rho stays positive.
        # The hermiticity check refuses such an H, so it is let through here to
        # reach the trace guard behind it.
        H = _build(space, "JC", g=1.0)
        H = Operator(space, H.mat + 1e-5j * np.eye(space.dim_total))
        sm = qubit_ops(space)[2]
        monkeypatch.setattr(dynamics, "hermiticity_defect", lambda mat: 0.0)
        with pytest.raises(StepTooLarge, match=r"at t=0\.5$"):
            evolve_lindblad(H, [(0.5, sm)], thermal_state(space, 0.2, "down"),
                            np.linspace(0, 1, 3))

    def test_rejects_non_hermitian(self, space):
        H = _build(space, "JC", g=1.0)
        H = Operator(space, H.mat + 1e-5j * np.eye(space.dim_total))
        sm = qubit_ops(space)[2]
        with pytest.raises(ValueError, match="hermitian"):
            evolve_lindblad(H, [(0.5, sm)], thermal_state(space, 0.2, "down"),
                            np.linspace(0, 1, 3))

    def test_non_positive_start_raises_at_first_time(self, space):
        # trace 1 and hermitian, so QuantumState takes it, with an eigenvalue
        # of -0.5: record 0 meets the positivity guard before any step
        D = space.dim_total
        rho = np.zeros((D, D), dtype=complex)
        rho[0, 0], rho[1, 1] = 1.5, -0.5
        H = Operator(space, np.zeros((D, D)))
        with pytest.raises(PositivityLoss, match=r"-5\.000e-01 < -1e-6 at t=0\.0$"):
            evolve_lindblad(H, [], QuantumState(space, rho), [0.0, 1.0])

    def test_hermiticity_checked_twice_a_run(self, monkeypatch):
        # a scenario run checks H once in evolve_lindblad and rho0 once as a
        # density QuantumState; build_hamiltonian and qubit_ops check nothing
        calls = []

        def counted(mat, real=fock.hermiticity_defect):
            calls.append(mat.shape)
            return real(mat)

        monkeypatch.setattr(fock, "hermiticity_defect", counted)
        monkeypatch.setattr(dynamics, "hermiticity_defect", counted)
        scenario = scenario_from_dict({
            "schema_version": 1, "name": "lindblad",
            "model": {"kind": "NonlinearAntiJC", "g": 45.24, "eta": 0.4518},
            "initial": {"kind": "thermal", "nbar": 1.0, "qubit": "down"},
            "times": {"t_end": 0.5, "n_points": 3},
            "lindblad": {"gamma_ratio": 2.0},
            "truncation": 40,
        })
        simulate_scenario(scenario)
        assert calls == [(82, 82), (82, 82)]

    def test_rejects_negative_rate(self, space):
        _, _, sm, _ = qubit_ops(space)
        for rate in (-0.1, math.nan):   # a NaN rate is no rate 0
            with pytest.raises(ValueError, match="collapse rate"):
                evolve_lindblad(_build(space, "JC", g=1.0), [(rate, sm)],
                                thermal_state(space, 0.2, "down"), np.linspace(0, 1, 3))

    def test_rejects_non_operator_channel(self, space):
        _, _, sm, _ = qubit_ops(space)
        with pytest.raises(TypeError, match="Operator"):
            evolve_lindblad(_build(space, "JC", g=1.0), [(0.5, sm.mat)],
                            thermal_state(space, 0.2, "down"), np.linspace(0, 1, 3))

    def test_channel_generator_matches_list(self, space):
        # the channels are read once, so a generator gives the list's trajectory
        H = _build(space, "JC", g=1.0)
        _, _, sm, _ = qubit_ops(space)
        channels = [(0.3, sm), (0.0, sm), (0.2, annihilation_op(space))]
        rho0 = fock_state(space, 1, "up").to_density()
        times = np.linspace(0, 2, 5)
        listed = evolve_lindblad(H, channels, rho0, times)
        generated = evolve_lindblad(H, (c for c in channels), rho0, times)
        np.testing.assert_array_equal(generated.phonons, listed.phonons)
        np.testing.assert_array_equal(generated.sigma_z, listed.sigma_z)
        assert generated.meta == listed.meta

    def test_split_rate_matches_single_channel(self, space):
        # qubit decay at rate gamma equals two identical channels at gamma/2
        g, gamma = 1.0, 0.7
        H = _build(space, "JC", g=g)
        _, _, sm, _ = qubit_ops(space)
        rho0 = fock_state(space, 1, "up").to_density()
        times = np.linspace(0, 3, 7)
        single = evolve_lindblad(H, [(gamma, sm)], rho0, times)
        split = evolve_lindblad(H, [(gamma / 2, sm), (gamma / 2, sm)],
                                rho0, times)
        assert np.abs(single.sigma_z - split.sigma_z).max() < 1e-9

    @pytest.mark.parametrize("op", ["sigma_minus", "a"])
    def test_collapse_operator_space_checked(self, space, op):
        other = HilbertSpace(space.n_max + 3)
        C = qubit_ops(other)[2] if op == "sigma_minus" else annihilation_op(other)
        with pytest.raises(SpaceMismatch):
            evolve_lindblad(_build(space, "JC", g=1.0), [(0.5, C)],
                            thermal_state(space, 0.2, "down"), np.linspace(0, 1, 3))


def _dense_reference(H, terms, rho0, times, dt_max):
    """The dense right-hand side on all of rho, with the same RK4 steps as
    evolve_lindblad: the reference for the reduced route."""
    ops = [(rate, C.mat, C.mat.conj().T, C.mat.conj().T @ C.mat) for rate, C in terms]

    def rhs(rho):
        out = -1j * (H.mat @ rho - rho @ H.mat)
        for rate, C, Cd, CdC in ops:
            out += rate * (C @ rho @ Cd - 0.5 * (CdC @ rho + rho @ CdC))
        return out

    rho = rho0.to_density().data
    states = [rho]
    for t0, t1 in zip(times[:-1], times[1:]):
        steps = max(1, math.ceil((t1 - t0) / dt_max))
        dt = (t1 - t0) / steps
        for _ in range(steps):
            k1 = rhs(rho)
            k2 = rhs(rho + (0.5 * dt) * k1)
            k3 = rhs(rho + (0.5 * dt) * k2)
            k4 = rhs(rho + dt * k3)
            rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(rho)
    return states


def _asymmetric_thermal(sp, nbar):
    """A thermal |down> state, hermitian within 1e-10, whose zero pattern is not
    symmetric: <down,0|rho|down,3> = 1e-12 but <down,3|rho|down,0> = 0."""
    rho = thermal_state(sp, nbar, "down").data.copy()
    rho[sp.index(0, 0), sp.index(0, 3)] = 1e-12
    return QuantumState(sp, rho)


def _coo(H, terms, rho0):
    """`_lindblad_coo` of evolve_lindblad's generator for H and (rate, C) terms."""
    A = -1j * H.mat - 0.5 * sum(rate * C.mat.conj().T @ C.mat for rate, C in terms)
    return _lindblad_coo(rho0.data, A, [(rate, C.mat) for rate, C in terms])


def _large_set(case):
    """H, terms and rho0 at truncation 40 from a coherent start with qubit decay:
    the QRM reaches all of rho, the nonlinear JC all but |up,40>."""
    sp = HilbertSpace(40)
    if case == "qrm_sigma_minus":
        H = _build(sp, "QRM", g=1.0, omega_R=1.0, omega0_R=0.4)
    else:
        H = _build(sp, "NonlinearJC", g=1.0, eta=0.4518)
    return H, [(1.0, qubit_ops(sp)[2])], coherent_state(sp, 1.0, "down").to_density()


class TestReducedLindblad:
    def _check_against_dense(self, H, terms, rho0, times):
        traj = evolve_lindblad(H, terms, rho0, times, keep_states=True)
        ref = _dense_reference(H, terms, rho0, times, traj.meta["dt"])
        worst = np.abs(traj.states - np.array(ref)).max()
        assert worst <= 1e-12

    def test_anti_jc_decay_matches_dense(self, space):
        # thermal start: only the anti-JC ladder |down,n> <-> |up,n+1> is reached
        H = _build(space, "NonlinearAntiJC", g=1.0, eta=0.5)
        sm = qubit_ops(space)[2]
        self._check_against_dense(H, [(2.0, sm)], thermal_state(space, 0.2, "down"),
                                  np.linspace(0, 3, 7))

    def test_asymmetric_start_matches_dense(self, space):
        # the symmetrized set steps <down,3|rho|down,0> beside <down,0|rho|down,3>
        H = _build(space, "NonlinearAntiJC", g=1.0, eta=0.5)
        sm = qubit_ops(space)[2]
        self._check_against_dense(H, [(2.0, sm)], _asymmetric_thermal(space, 0.2),
                                  np.linspace(0, 1, 3))

    def test_qrm_two_channels_match_dense(self, space):
        # coherent start under the QRM with two channels: nothing reduces
        H = _build(space, "QRM", g=1.0, omega_R=1.0, omega0_R=0.4)
        terms = [(0.6, qubit_ops(space)[2]), (0.3, annihilation_op(space))]
        rho0 = coherent_state(space, 0.8, "down")
        D = space.dim_total
        A = -1j * H.mat - 0.5 * sum(rate * C.mat.conj().T @ C.mat for rate, C in terms)
        assert len(_lindblad_coo(rho0.to_density().data, A,
                                 [(rate, C.mat) for rate, C in terms])[0]) == D * D
        self._check_against_dense(H, terms, rho0, np.linspace(0, 2, 5))

    def test_non_uniform_times_match_dense(self, space):
        # record spans of different lengths, and one of length 0, give a new dt,
        # so new factor values, at almost every record
        H = _build(space, "NonlinearAntiJC", g=1.0, eta=0.5)
        sm = qubit_ops(space)[2]
        self._check_against_dense(H, [(2.0, sm)], thermal_state(space, 0.2, "down"),
                                  np.array([0.0, 0.013, 0.4, 0.4, 0.41, 1.3, 2.0]))

    @pytest.mark.parametrize("case", ["qrm_sigma_minus", "nonlinear_jc_coherent"])
    def test_large_set_builds_no_dense_generator(self, case):
        # about 6,600 stepped elements: one dense s x s complex matrix would be
        # about 700 MB.  The JC ladder (no |up,40>) takes the factors' product,
        # merged from 168,810 pairs.  The QRM keeps the pair, and its count of
        # the product's 1.45 M pairs stops early: 29.8 MB, where counting all of
        # them peaked at 44.9 MB and merging them at 129 MB
        H, terms, rho0 = _large_set(case)
        size = {"qrm_sigma_minus": 82 * 82, "nonlinear_jc_coherent": 81 * 81}[case]
        assert len(_coo(H, terms, rho0)[0]) == size
        tracemalloc.start()
        try:
            traj = evolve_lindblad(H, terms, rho0, np.array([0.0, 3e-3]),
                                   dt_max=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.meta["n_steps"] == 3
        assert peak < {"qrm_sigma_minus": 40e6, "nonlinear_jc_coherent": 100e6}[case]

    def test_ladder_step_is_one_matrix(self, rng):
        # fig3's set at truncation 40: the product of the two quadratic factors
        # has 1,269 entries, where the pair has 839 each
        sp = HilbertSpace(40)
        H = _build(sp, "NonlinearAntiJC", g=1.0, eta=0.4518)
        terms = [(2.0, qubit_ops(sp)[2])]
        flat, tgt, src, val = _coo(H, terms, thermal_state(sp, 1.0, "down"))
        s, h = len(flat), 0.01
        rows, qcols, qstarts, Id, L, L2 = _quadratic_pattern(tgt, src, val, s)
        assert len(rows) == 839
        (cols, row_starts, v), = _rk4_factors(tgt, src, val, s)(h)
        assert len(v) == 1269
        x = rng.normal(size=s) + 1j * rng.normal(size=s)
        y = x
        for a, b in _RK4_FACTORS:
            y = np.add.reduceat((Id + a * h * L + b * h * h * L2) * y[qcols], qstarts)
        assert np.abs(np.add.reduceat(v * x[cols], row_starts) - y).max() < 1e-14

    def test_qrm_step_keeps_factor_pair(self):
        # the QRM's product would have 388,303 entries against 2 x 98,949
        H, terms, rho0 = _large_set("qrm_sigma_minus")
        factors = _rk4_factors(*_coo(H, terms, rho0)[1:], 82 * 82)(1e-3)
        assert [len(v) for _, _, v in factors] == [98949, 98949]

    @pytest.mark.parametrize("case", ["anti_jc_thermal", "qrm_two_channels"])
    def test_block_minimum_matches_dense(self, case):
        sp = HilbertSpace(40)
        if case == "anti_jc_thermal":
            H = _build(sp, "NonlinearAntiJC", g=1.0, eta=0.4518)
            terms = [(2.0, qubit_ops(sp)[2])]
            rho0 = thermal_state(sp, 1.0, "down")
        else:
            H = _build(sp, "QRM", g=1.0, omega_R=1.0, omega0_R=0.4)
            terms = [(0.6, qubit_ops(sp)[2]), (0.3, annihilation_op(sp))]
            rho0 = coherent_state(sp, 0.8, "down").to_density()
        D = sp.dim_total
        A = -1j * H.mat - 0.5 * sum(rate * C.mat.conj().T @ C.mat for rate, C in terms)
        flat = _lindblad_coo(rho0.data, A, [(rate, C.mat) for rate, C in terms])[0]
        blocks = _sectors(np.bincount(flat, minlength=D * D).reshape(D, D), np.arange(D))
        # |up,0> is outside the anti-JC set, a 1 x 1 block beside |down,40>; the
        # rest pairs |down,n> with |up,n+1>.  The QRM set is all of rho.
        sizes = {"anti_jc_thermal": [(2, 1), (40, 2)], "qrm_two_channels": [(1, D)]}[case]
        assert [b.shape for b in blocks] == sizes
        traj = evolve_lindblad(H, terms, rho0, np.linspace(0, 0.2, 3),
                               keep_states=True)
        for rho in traj.states:
            assert abs(_min_eigenvalue(rho, blocks) - np.linalg.eigvalsh(rho)[0]) < 1e-15

    def test_anti_jc_thermal_reaches_4n_plus_1(self):
        sp = HilbertSpace(40)
        g, gamma = 1.0, 2.0
        H = _build(sp, "NonlinearAntiJC", g=g, eta=0.4518)
        sm = qubit_ops(sp)[2]
        rho0 = thermal_state(sp, 1.0, "down")
        A = -1j * H.mat - 0.5 * gamma * sm.mat.conj().T @ sm.mat
        flat = _lindblad_coo(rho0.data, A, [(gamma, sm.mat)])[0]
        assert len(flat) == 4 * sp.n_max + 1 == 161
        traj = evolve_lindblad(H, [(gamma, sm)], rho0,
                               np.linspace(0, 0.5, 2), keep_states=True)
        rho = traj.states[1]
        off_set = np.ones(rho.size, dtype=bool)
        off_set[flat] = False
        assert np.all(rho.ravel()[off_set] == 0)
        assert np.count_nonzero(rho) == 161
        # never re-hermitized: the generator keeps rho hermitian to rounding
        assert np.abs(rho - rho.conj().T).max() < 1e-15


def _boolean_closure(rho0, A, jumps):
    """The reachable set by dense boolean matmuls: the closure of rho0's
    symmetrized support under the patterns of A rho, rho A^dag and C rho C^dag,
    one hop per iteration.  The oracle for `_lindblad_coo`'s index pairing."""
    pa = A != 0
    pcs = [C != 0 for _, C in jumps]
    m = rho0 != 0
    m = m | m.T
    while True:
        left = pa @ m
        grown = m | left | left.T
        for pc in pcs:
            grown |= pc @ m @ pc.T
        if np.array_equal(grown, m):
            return np.flatnonzero(m)
        m = grown


def test_rk4_factors_multiply_back():
    # (1 + a1 z + b1 z^2)(1 + a2 z + b2 z^2) = 1 + z + z^2/2 + z^3/6 + z^4/24
    (a1, b1), (a2, b2) = _RK4_FACTORS
    got = [1.0, a1 + a2, b1 + b2 + a1 * a2, a1 * b2 + a2 * b1, b1 * b2]
    assert np.abs(np.array(got) - [1.0, 1.0, 1 / 2, 1 / 6, 1 / 24]).max() < 1e-15


class TestLindbladCoo:
    def _generator(self, sp, model, channels):
        if model == "anti_jc":
            H = _build(sp, "NonlinearAntiJC", g=1.0, eta=0.4518)
        else:
            H = _build(sp, "QRM", g=1.0, omega_R=1.0, omega0_R=0.4)
        ops = {"sm": qubit_ops(sp)[2], "a": annihilation_op(sp)}
        terms = [(rate, ops[name]) for name, rate in channels]
        A = -1j * H.mat - 0.5 * sum(rate * C.mat.conj().T @ C.mat for rate, C in terms)
        return H, terms, A, [(rate, C.mat) for rate, C in terms]

    @pytest.mark.parametrize("model,channels,start,size", [
        ("anti_jc", [("sm", 2.0)], "thermal", 161),
        ("qrm", [("sm", 0.6), ("a", 0.3)], "vacuum", 3362),
        ("qrm", [], "coherent", 82 * 82),
        # the (0, 3) coherence adds the blocks 3 rungs off the diagonal
        ("anti_jc", [("sm", 2.0)], "asymmetric", 161 + 2 * (37 * 4 + 2)),
    ])
    def test_set_matches_boolean_closure(self, model, channels, start, size):
        sp = HilbertSpace(40)
        _, _, A, jumps = self._generator(sp, model, channels)
        rho0 = {"thermal": lambda: thermal_state(sp, 1.0, "down"),
                "vacuum": lambda: fock_state(sp, 0, "down").to_density(),
                "coherent": lambda: coherent_state(sp, 0.8, "down").to_density(),
                "asymmetric": lambda: _asymmetric_thermal(sp, 1.0)}[start]().data
        flat, tgt, src, val = _lindblad_coo(rho0, A, jumps)
        assert np.array_equal(flat, _boolean_closure(rho0, A, jumps))
        assert len(flat) == size
        # closed under transposition, and the COO names only set positions
        D = sp.dim_total
        rows, cols = np.divmod(flat, D)
        assert np.array_equal(np.sort(cols * D + rows), flat)
        assert np.all(np.diff(tgt) >= 0) and tgt.max() < len(flat) and src.max() < len(flat)
        assert len(tgt) == len(src) == len(val)


class TestObservables:
    def test_sigma_z_on_up(self, space):
        sz = qubit_ops(space)[0]
        assert expectation(sz, fock_state(space, 5, "up")) == pytest.approx(1.0)

    def test_space_mismatch(self):
        op = number_op(HilbertSpace(4))
        psi = fock_state(HilbertSpace(5), 0)
        with pytest.raises(SpaceMismatch):
            expectation(op, psi)

    def test_density_fidelity(self, space):
        psi = fock_state(space, 2, "down")
        rho = thermal_state(space, 0.0, "down")
        # <psi|rho|psi> with rho = |0><0|
        assert overlap_fidelity(fock_state(space, 0, "down"), rho) == pytest.approx(1.0)
        assert overlap_fidelity(psi, rho) == pytest.approx(0.0, abs=1e-14)

    def test_phonon_distribution_sums_sectors(self, space):
        psi_dn = fock_state(space, 1, "down").data
        psi_up = fock_state(space, 2, "up").data
        mix = (psi_dn + psi_up) / math.sqrt(2)
        pn = phonon_distribution(QuantumState(space, mix))
        assert pn[1] == pytest.approx(0.5)
        assert pn[2] == pytest.approx(0.5)


class TestRwaCrosscheck:
    def test_zero_drive_zero_deviation(self):
        # Omega = 0: the two-tone frame transform must cancel the simulated
        # model's free evolution exactly, validating the sign convention
        spec = ModelSpec(kind="TwoTone", eta=0.5, Omega=0.0, nu=80.0,
                         delta_r=0.25, delta_b=-0.25)
        report = rwa_crosscheck(spec, fock_state(HilbertSpace(12), 0, "down"), T=2.0,
                                n_records=9)
        assert report.max_deviation < 1e-12

    def test_deviation_over_several_blocks(self):
        # fig6's drive over one cycle, 150 records: the nonlinear-QRM side takes
        # three blocks, the last one partial; the value is the per-time route's
        spec = _fig6_nqrm().two_tone()
        report = rwa_crosscheck(spec, fock_state(HilbertSpace(20), 0, "down"),
                                T=2 * math.pi / spec.g, n_records=150)
        assert report.max_deviation == pytest.approx(0.000609518190894387, abs=1e-12)

    @pytest.mark.parametrize("g_over_omega_R, deviation", [
        (0.1, 0.0005144387113399373),
        (0.5, 0.0005040300042039592),
        (1.0, 0.0006690822438305544),
        (2.0, 0.0019136080413882928),
        (4.0, 0.0038574216323326027),
    ])
    def test_coupling_regimes(self, g_over_omega_R, deviation):
        # fig6's g, eta and coherent alpha = 1 start over three cycles, from
        # ultrastrong to deep-strong coupling: the two-tone drive stays within the
        # RWA tolerance in every regime, with the top level empty
        nqrm = _fig6_nqrm()
        spec = _fig6_nqrm(omega_R=nqrm.g / g_over_omega_R).two_tone()
        psi0 = coherent_state(HilbertSpace(40), 1.0, "down")
        report = rwa_crosscheck(spec, psi0, T=3.0 * 2.0 * math.pi / spec.g)
        assert report.max_deviation < 0.01
        assert report.max_deviation == pytest.approx(deviation, abs=1e-10)
        assert report.top_population < 1e-26

    def test_requires_two_tone(self):
        with pytest.raises(ValueError):
            rwa_crosscheck(ModelSpec(kind="QRM", g=1.0, omega_R=0.5, omega0_R=0.0),
                           fock_state(HilbertSpace(12), 0, "down"), T=1.0)
