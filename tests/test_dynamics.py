import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import poisson

from ionrabi import (
    HilbertSpace,
    ModelSpec,
    Operator,
    QuantumState,
    TwoToneGenerator,
    barrier_eta,
    build_hamiltonian,
    coherent_state,
    evolve_lindblad,
    evolve_unitary,
    evolve_unitary_td,
    fock_state,
    parse_scenario,
    rwa_crosscheck,
    scenario_from_dict,
    thermal_state,
)
from ionrabi import dynamics, fock
from ionrabi.dynamics import (
    _RK4_FACTORS,
    _lindblad_coo,
    _min_eigenvalue,
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

from oracles import (
    annihilation_op,
    expectation,
    number_op,
    overlap_fidelity,
    phonon_distribution,
    qubit_ops,
    two_tone_matrix,
)

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

    @pytest.mark.parametrize("alpha, required", [
        (0.5, 8), (1, 12), (3, 34), (5.5, 71),
        # a running sum of linear-space weights misses the next six: 1 - sum
        # cancels, and exp(-|alpha|^2) is subnormal past |alpha|^2 = 708
        (15.481, 344), (24.154, 744), (26.9, 901), (27, 907), (27.25, 922), (28, 969),
        (30, 1097), (50, 2825), (100, 10643)])
    def test_required_n_max_is_poisson_sf_bound(self, alpha, required):
        # the smallest n_max whose Poisson(|alpha|^2) tail is below 1e-10
        assert coherent_required_n_max(alpha) == required
        assert poisson.sf(required, alpha ** 2) < 1e-10 <= poisson.sf(required - 1, alpha ** 2)
        coherent_state(HilbertSpace(required), alpha)

    def test_poisson_distribution(self):
        sp = HilbertSpace(40)
        pn = phonon_distribution(coherent_state(sp, 1.0, "down"))
        expected = np.array([math.exp(-1.0) / math.factorial(n) for n in range(10)])
        assert np.abs(pn[:10] - expected).max() < 1e-8


class TestThermalState:
    def test_rejects_negative_nbar(self, space):
        with pytest.raises(ValueError, match="nbar must be >= 0"):
            thermal_state(space, -0.1)

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
        # fig2b's H and grid: |w t| reaches 192 rad; its first block's phases
        # are direct exps, and each of its 37 later blocks' the block before's
        # times the jumps of _BLOCK times
        sp = HilbertSpace(120)
        H = _build(sp, "NonlinearJC", g=45.24, eta=0.5)
        psi = coherent_state(sp, math.sqrt(30), "down")
        times = np.linspace(0.0, 3 * 1.6 * math.sqrt(30) * 2 * math.pi / 45.24, 2401)
        traj = evolve_unitary(H, psi, times, keep_states=True)
        w, V = np.linalg.eigh(H.mat)
        ref = V @ (np.exp(-1j * np.outer(w, times)) * (V.conj().T @ psi.data)[:, None])
        assert np.abs(w).max() * times[-1] > 150
        assert np.abs(traj.states - ref.T).max() < 1e-12

    @pytest.mark.parametrize("times", [
        pytest.param(np.linspace(0.0, 40.0, 2 * dynamics._CHAIN * dynamics._BLOCK + 7),
                     id="linspace"),
        pytest.param(np.sort(np.random.default_rng(25).uniform(
            0.0, 40.0, dynamics._CHAIN * dynamics._BLOCK + 3 * dynamics._BLOCK)), id="random")])
    def test_chains_match_direct_exp(self, times):
        # grids longer than a chain of _CHAIN blocks: the chains after the
        # first restart from direct exps
        sp = HilbertSpace(20)
        H = _build(sp, "NonlinearQRM", g=1.0, eta=0.4, omega_R=0.7, omega0_R=0.3)
        psi = coherent_state(sp, 1.2, "down")
        traj = evolve_unitary(H, psi, times, keep_states=True)
        w, V = np.linalg.eigh(H.mat)
        ref = V @ (np.exp(-1j * np.outer(w, times)) * (V.conj().T @ psi.data)[:, None])
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


def _evolve(route, H, state, times):
    """Evolve `state` under the constant H on one of the three routes."""
    if route == "unitary":
        return evolve_unitary(H, state, times)
    if route == "unitary_td":
        return evolve_unitary_td(_ConstantDrive(H.mat, dt_max=2e-3), state, times)
    return evolve_lindblad(H, [], state, times)


@pytest.mark.parametrize("times, match", [([[0.0, 1.0]], "non-empty 1-d grid"),
                                          ([1.0, 0.0], "non-decreasing")],
                         ids=["2-d", "decreasing"])
@pytest.mark.parametrize("route", ["unitary", "unitary_td", "lindblad"])
def test_rejects_bad_grid(space, route, times, match):
    with pytest.raises(ValueError, match=match):
        _evolve(route, _build(space, "JC", g=1.0), fock_state(space, 2), times)


@pytest.mark.parametrize("route", ["unitary", "unitary_td", "lindblad"])
def test_rejects_state_on_another_space(route):
    # each evolver raises before it steps, where a drive's apply would fail on a shape
    H = _build(HilbertSpace(10), "JC", g=1.0)
    with pytest.raises(SpaceMismatch):
        _evolve(route, H, fock_state(HilbertSpace(12), 0), [0.0, 1.0])


@pytest.mark.parametrize("route", ["unitary", "unitary_td"])
def test_rejects_density_start(space, route):
    with pytest.raises(ValueError, match="requires a pure initial state"):
        _evolve(route, _build(space, "JC", g=1.0), fock_state(space, 0).to_density(),
                [0.0, 1.0])


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
    record spacing used here, so both the seeds M^k and pass 2's segments are
    exercised.  Its phases are t itself, a float or one time per column, and
    apply ignores them."""

    def __init__(self, H, dt_max, period=1.3):
        self.H = H
        self.dt_max = dt_max
        self.period = period
        self.frame = np.zeros(H.shape[0])

    def phases(self, t):
        return t

    def apply(self, ph, X, out):
        return np.matmul(self.H, X, out=out)


class _PassOneLeak(_ConstantDrive):
    """_ConstantDrive at dt_max 0.02 plus the anti-hermitian i leak X on
    D-wide applies only, pass 1's."""

    def __init__(self, H, leak):
        super().__init__(H, dt_max=0.02)
        self.leak = leak

    def apply(self, ph, X, out):
        np.matmul(self.H, X, out=out)
        if X.shape == self.H.shape:
            out += 1j * self.leak * X
        return out


class _PeriodicDrive:
    """H(t) = H0 + cos(2 pi t / period) H1 with frame K = 0.  A power-of-two
    period and step make every grid point and offset exact, so a record on a
    grid point takes no partial step."""

    def __init__(self, H0, H1, period=1.0, dt_max=1 / 64):
        self.H0, self.H1 = H0, H1
        self.period, self.dt_max = period, dt_max
        self.frame = np.zeros(len(H0))

    def matrix(self, t):
        return self.H0 + math.cos(2 * math.pi * t / self.period) * self.H1

    def phases(self, t):
        return np.cos(2 * math.pi * np.asarray(t) / self.period)

    def apply(self, ph, X, out):
        np.matmul(self.H0, X, out=out)
        out += ph * (self.H1 @ X)
        return out


# Butcher's sixth-order tableau as published (c_i, a_i), and b: the reference
# steps share no coefficient layout with dynamics' slope stack
_BUTCHER6 = ((0.0, ()), (1 / 3, (1 / 3,)), (2 / 3, (0.0, 2 / 3)),
             (1 / 3, (1 / 12, 1 / 3, -1 / 12)), (1 / 2, (-1 / 16, 9 / 8, -3 / 16, -3 / 8)),
             (1 / 2, (0.0, 9 / 8, -3 / 8, -3 / 4, 1 / 2)),
             (1.0, (9 / 44, -9 / 11, 63 / 44, 18 / 11, 0.0, -16 / 11)))
_BUTCHER6_B = (11 / 120, 0.0, 27 / 40, 27 / 40, -4 / 15, -4 / 15, 11 / 120)


def _rk6(matrix, t, h, psi):
    """One step of Butcher's tableau for i dpsi/dt = matrix(t) psi."""
    ks = []
    for c, a in _BUTCHER6:
        arg = psi + h * sum((aj * kj for aj, kj in zip(a, ks)), np.zeros_like(psi))
        ks.append(-1j * (matrix(t + c * h) @ arg))
    return psi + h * sum(b * kj for b, kj in zip(_BUTCHER6_B, ks))


def _grid_chain(drive, psi0, times):
    """Vector steps of the tableau with drive.matrix(t) through the grid
    t0 + j dt of evolve_unitary_td (dt = period / ceil(period / dt_max)),
    with one partial step from the grid point below each record to the record."""
    dt = drive.period / math.ceil(drive.period / drive.dt_max)
    psi, j, out = psi0, 0, []
    for t in times:
        while times[0] + (j + 1) * dt <= t:
            psi = _rk6(drive.matrix, times[0] + j * dt, dt, psi)
            j += 1
        h = t - times[0] - j * dt
        out.append(_rk6(drive.matrix, times[0] + j * dt, h, psi) if h > 0 else psi)
    return np.array(out)


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
    """validate's one-cycle fig6 cross-check, with the two-tone step bound set."""
    class Stepped(TwoToneGenerator):
        def __init__(self, spec, space):
            super().__init__(spec, space)
            self.dt_max = 2 * math.pi / (steps_per_trap_period * spec.nu)

    monkeypatch.setattr(dynamics, "TwoToneGenerator", Stepped)
    spec = _fig6_nqrm().two_tone()
    return rwa_crosscheck(spec, fock_state(HilbertSpace(40), 0, "down"),
                          np.linspace(0.0, 2 * math.pi / spec.g, 61)).max_deviation


class _Widths:
    """Wraps a drive and keeps every `out` handed to apply, whose widths are
    the blocks' (1 for a vector), and every t handed to phases: a kept array
    cannot be freed, so its memory is not handed out again, and distinct data
    pointers are distinct arrays or rows."""

    def __init__(self, drive):
        self.drive = drive
        self.dt_max, self.period, self.frame = drive.dt_max, drive.period, drive.frame
        self.outs, self.times = [], []

    @property
    def widths(self):
        return [out.shape[1] if out.ndim == 2 else 1 for out in self.outs]

    def phases(self, t):
        self.times.append(t)
        return self.drive.phases(t)

    def apply(self, ph, X, out):
        self.outs.append(out)
        return self.drive.apply(ph, X, out)


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

            def phases(self, t):
                return t

            def apply(self, ph, X, out):
                out[...] = X
                return out

        with pytest.raises(AttributeError, match="dt_max"):
            evolve_unitary_td(NoStep(), fock_state(space, 0), np.linspace(0, 1, 3))

    def test_names_earliest_bad_record(self):
        # a slow norm gain from the anti-hermitian 0.5e-7j I first passes the
        # 1e-6 bound at t = 0.5, while the summed drift bounds ||psi||^2 by
        # about 5.2e-7; the record at 3.9 sits nearest its period's start, so
        # a check in pass 2's sweep order would name it first
        sp = HilbertSpace(4)
        H = _build(sp, "JC", g=1.0).mat + 0.5e-7j * np.eye(sp.dim_total)
        psi = fock_state(sp, 2, "down")
        psi.data *= math.sqrt(1 + 0.97e-6)   # past the constructor's norm check
        with pytest.raises(StepTooLarge, match=r"at t=0\.5$"):
            evolve_unitary_td(_ConstantDrive(H, dt_max=2e-3), psi, [0.0, 0.5, 1.0, 2.0, 3.9])

    def test_period_drift_counts_once_per_period(self, space):
        # |down,0> is dark under the JC, so its own norm never moves; the
        # identity's columns drift by about 1.3e-8 per period at this step,
        # which 100 periods push past 1e-6
        drive = _ConstantDrive(_build(space, "JC", g=1.0).mat, dt_max=0.05)
        psi = fock_state(space, 0, "down")
        assert evolve_unitary_td(drive, psi, [0.0, 2.0]).meta["norm_drift"] < 1e-7
        with pytest.raises(StepTooLarge, match="accumulated norm drift"):
            evolve_unitary_td(drive, psi, [0.0, 131.0])

    @pytest.mark.parametrize("t", [1.2, 2.5])
    def test_drift_bounds_record_norm(self, t):
        # only pass 1's D-wide applies see the anti-hermitian 1e-7j I, so a
        # record's norm grows by about 1e-7 t: k periods through its seed and
        # one partial period through its snapshot.  Pass 1's drift, about
        # 1.3e-7 a period, counts k + 1 times (at 1.2, k = 0)
        sp = HilbertSpace(3)
        drive = _PassOneLeak(_build(sp, "JC", g=1.0).mat, 1e-7)
        traj = evolve_unitary_td(drive, fock_state(sp, 3, "down"), [0.0, t], keep_states=True)
        grown = np.abs(np.linalg.norm(traj.states, axis=1) - 1.0).max()
        assert grown > 0.9e-7 * t
        assert traj.meta["norm_drift"] >= grown

    def test_drift_guard_on_norm_squared(self):
        # twice the leak grows the record at t = 2.5 by about 5e-7 in ||psi||,
        # 1e-6 in ||psi||^2: the summed drift, stated on ||psi||^2 as the
        # recorder's check is, raises first
        sp = HilbertSpace(3)
        drive = _PassOneLeak(_build(sp, "JC", g=1.0).mat, 2e-7)
        with pytest.raises(StepTooLarge, match="accumulated norm drift"):
            evolve_unitary_td(drive, fock_state(sp, 3, "down"), [0.0, 2.5])

    def test_sixth_order(self):
        # halving the step cuts the one-period propagator's error 2^6 = 64
        # times (RK4 would cut it 16 times), against 128 cells a period
        spec = ModelSpec(kind="TwoTone", eta=0.5, Omega=8.0, nu=80.0,
                         delta_r=0.3, delta_b=-0.1, phi_r=0.3, phi_b=-0.8)
        gen = TwoToneGenerator(spec, HilbertSpace(2))

        def one_period(cells):
            gen.dt_max = gen.period / cells
            return np.array([evolve_unitary_td(gen, QuantumState(gen.space, e),
                                               [0.0, gen.period], keep_states=True).states[1]
                             for e in np.eye(gen.space.dim_total)])

        ref = one_period(128)
        coarse, fine = (np.abs(one_period(cells) - ref).max() for cells in (8, 16))
        assert fine > 1e-12
        assert coarse / fine > 50

    def test_two_tone_matches_stepwise_rk4(self):
        # about 13 drive periods in 11 records, none on a period boundary
        spec = ModelSpec(kind="TwoTone", eta=0.5, Omega=8.0, nu=80.0,
                         delta_r=0.3, delta_b=-0.1, phi_r=0.3, phi_b=-0.8)
        gen = TwoToneGenerator(spec, HilbertSpace(12))
        psi = coherent_state(gen.space, 0.7, "down")
        times = np.linspace(0.0, 0.5, 11)
        traj = evolve_unitary_td(gen, psi, times, keep_states=True)
        assert traj.meta["n_steps"] < 0.5 / gen.dt_max / 4
        # stepped with the dense H(t), so the reference shares no code with
        # apply, and at an eighth of the step, so its own error is about 1e-12
        ref = _rk4_reference(lambda t, X: two_tone_matrix(gen, t) @ X, psi.data, times,
                             gen.dt_max / 8)
        assert np.abs(traj.states - ref).max() < 1e-10

    def test_step_of_100_per_trap_period(self, monkeypatch):
        # The step keeps validate's one-cycle fig6 max_deviation within 1e-11
        # of the committed benchmark reference, made by RK4 over the whole
        # span at 200 steps per trap period: 100 steps meet it (3.8e-12
        # measured), 80 miss it (2.0e-11).
        spec = ModelSpec(kind="TwoTone", eta=0.5, Omega=8.0, nu=80.0)
        assert TwoToneGenerator(spec, HilbertSpace(2)).dt_max == 2 * math.pi / (100 * 80.0)
        ref = json.loads((ROOT / "perfbench" / "refs" / "twotone.json").read_text())
        want = (ref["validate-fig6"]["files"]["fig6-nqrm-motional-filter/validation.json"]
                ["rwa_crosscheck"]["max_deviation"])
        assert abs(_fig6_max_deviation(monkeypatch, 100) - want) < 1e-11
        assert abs(_fig6_max_deviation(monkeypatch, 80) - want) > 1e-11

    def test_seed_block_and_identity_agree(self):
        # at D = 6, the nine records of segment 0 (t0 and cells 0-4) lie in
        # eight periods, more than D, so its lane is its pass-1 snapshot, pass
        # 1's identity at t0, and each record reads off as X @ seed; the three
        # of segment 4 (cells 27, 28 and 30) step their three seeds.  Dropping
        # the last three periods of segment 0 leaves it five seeds, a lane of
        # five.  Either way each lane is a group of its own, and every
        # record's state is the same.
        spec = ModelSpec(kind="TwoTone", eta=0.5, Omega=8.0, nu=80.0,
                         delta_r=0.3, delta_b=-0.1, phi_r=0.3, phi_b=-0.8)
        gen = TwoToneGenerator(spec, HilbertSpace(2))
        psi = QuantumState(gen.space, np.array([0.6, 0.8j, 0, 0, 0, 0]))
        n_grid = math.ceil(gen.period / gen.dt_max)
        dt = gen.period / n_grid
        assert (n_grid, dynamics._SEGMENTS) == (51, 8)    # segment 4: cells 25-30
        at = sorted([(0, 0.0)] + [(k, 0.5 + 0.6 * k) for k in range(8)]
                    + [(k, 25.5 + 1.6 * k) for k in (1, 2, 3)])
        times = np.array([k * gen.period + c * dt for k, c in at])
        runs, widths = {}, {}
        for drop in (0, 3):
            keep = [i for i, (k, c) in enumerate(at) if not (c < 6 and k >= 8 - drop)]
            drive = _Widths(gen)
            runs[drop] = evolve_unitary_td(drive, psi, times[keep], keep_states=True).states
            widths[drop] = drive.widths[7 * n_grid:]   # pass 2 and the partial steps
        # seven applies a step: 4 or 2 steps of segment 0, 3 of segment 4, and
        # the partial steps of all records but t0's, D at a time
        assert widths[0] == [6] * 7 * 4 + [3] * 7 * 3 + [6] * 7 + [5] * 7
        assert widths[3] == [5] * 7 * 2 + [3] * 7 * 3 + [6] * 7 + [2] * 7
        kept = [i for i, (k, c) in enumerate(at) if not (c < 6 and k >= 5)]
        assert np.abs(runs[0][kept] - runs[3]).max() < 1e-13

    def test_lanes_packed_in_lockstep(self, rng):
        # period 1 and dt = 1/64 (segments of 8 cells) at D = 6.  Lanes, in
        # order: segment 0 four seeds over cells 0-7, segment 1 the snapshot
        # (seven periods) over cells 8-10, segment 2 two seeds in cell 16,
        # segment 3 three seeds over cells 25-31 and segment 4 two over
        # 33-34.  A snapshot lane fills a group, so the groups split at D
        # after segment 0 and after segment 1; segments 2 and 3 share one
        # (5 wide; unequal spans of 0 and 6 cells), and segment 4 takes its
        # own, as 5 + 2 > 6.
        H0, H1 = (_random_hermitian(HilbertSpace(2), rng).mat for _ in range(2))
        drive = _Widths(_PeriodicDrive(H0, H1))
        at = ([(0, 0.0), (1, 2.5), (2, 5.25), (3, 7.5)] + [(k, 8.5 + k % 3) for k in range(7)]
              + [(1, 16.25), (4, 16.75), (0, 25.5), (2, 28.5), (5, 31.0), (3, 33.5), (6, 34.5)])
        times = np.sort([k + c / 64 for k, c in at])
        psi = QuantumState(HilbertSpace(2), np.array([0.6, 0.8j, 0, 0, 0, 0]))
        traj = evolve_unitary_td(drive, psi, times, keep_states=True)
        assert np.abs(traj.states - _grid_chain(drive.drive, psi.data, times)).max() < 1e-12
        assert max(drive.widths) == 6
        # pass 2, seven applies a step: the groups' longest spans are 7, 2, 6
        # and 1 cells; then the 16 records past their grid points, 6 at a time
        groups = [(4, 7, 1), (6, 2, 1), (5, 6, 2), (2, 1, 1)]
        pass2 = [(w, lanes) for w, span, lanes in groups for _ in range(7 * span)]
        assert drive.widths[7 * 64:] == [w for w, _ in pass2] + [6] * 14 + [4] * 7
        # a group of one lane takes phases at float times, a group of two at
        # one time per column, and so do partial steps: five builds a step,
        # four on a step that continues the grid
        builds = [lanes for _, span, lanes in groups for _ in range(5 + 4 * (span - 1))]
        times = drive.times[5 + 4 * 63:]
        assert [np.ndim(t) for t in times] == [lanes > 1 for lanes in builds] + [1] * 5 * 3

    def test_phases_once_per_stage_time(self, rng):
        # period 1, dt = 1/64 and one record in cell 2 past its grid point:
        # pass 1's 64 steps, pass 2's two and the partial step.  A step takes
        # phases at its five distinct stage times t + c h (c = 0, 1/3, 2/3,
        # 1/2, 1), and a step continuing the grid takes its c = 0 phases
        # from the step before
        H0, H1 = (_random_hermitian(HilbertSpace(2), rng).mat for _ in range(2))
        drive = _Widths(_PeriodicDrive(H0, H1))
        psi = QuantumState(HilbertSpace(2), np.array([0.6, 0.8j, 0, 0, 0, 0]))
        traj = evolve_unitary_td(drive, psi, [0.0, 2.5 / 64])
        assert traj.meta["n_steps"] == 64 + 2 + 1
        assert len(drive.times) == 5 * 3 + 4 * (64 - 1 + 2 - 1)
        want = [0.0] + [(j + c) / 64 for j in range(64) for c in (1 / 3, 2 / 3, 1 / 2, 1)]
        assert np.abs(np.array(drive.times[:5 + 4 * 63]) - want).max() < 1e-15

    @pytest.mark.parametrize("case", ["segment-starts", "grid-points", "last-cell", "single-t0",
                                      "wide-segment"])
    def test_records_match_grid_chain(self, case, rng):
        # period 1 and dt = 1/64: 64 cells, segments of 8, exact offsets
        H0, H1 = (_random_hermitian(HilbertSpace(2), rng).mat for _ in range(2))
        drive = _PeriodicDrive(H0, H1)
        times = {
            # one record at the start of each segment, one segment a period
            "segment-starts": [q + q / 8 for q in range(8)],
            # on grid points, so no partial step
            "grid-points": [0.0, 3 / 64, 1 + 17 / 64, 2 + 40 / 64, 2 + 41 / 64],
            "last-cell": [0.0, 0.99, 1.999, 3 - 2 ** -10],
            "single-t0": [0.3],
            # nine periods in segment 0, more than D = 6
            "wide-segment": [k + (k + 0.37) / 64 for k in range(9)],
        }[case]
        psi = QuantumState(HilbertSpace(2), np.array([0.6, 0.8j, 0, 0, 0, 0]))
        traj = evolve_unitary_td(drive, psi, times, keep_states=True)
        assert np.abs(traj.states - _grid_chain(drive, psi.data, np.array(times))).max() < 1e-12

    def test_drift_in_partial_step_raises(self, space):
        # only the records' partial steps, one time per column, see the
        # anti-hermitian 1e-2j I: a step of 1e-3 gains 1e-5 of norm
        class Leaky(_ConstantDrive):
            def apply(self, ph, X, out):
                np.matmul(self.H, X, out=out)
                if np.ndim(ph):
                    out += 1e-2j * X
                return out

        drive = Leaky(_build(space, "JC", g=1.0).mat, dt_max=2e-3)
        psi = fock_state(space, 3, "down")
        assert evolve_unitary_td(drive, psi, [0.0, 0.5]).meta["norm_drift"] < 1e-6
        with pytest.raises(StepTooLarge, match=r"accumulated norm drift .* \(dt=1\.000e-03\)"):
            evolve_unitary_td(drive, psi, [0.0, 0.501])

    def test_fig6_step_counts(self):
        # fig6's drive at D = 82 (51 cells a period, 238 periods a cycle):
        # 2,401 records over one cycle take pass 1, 43 steps of pass 2 (eight
        # snapshot lanes of about six cells, a group each) and their partial
        # steps 82 records at a time; validate's one-cycle cross-check takes
        # pass 1, six steps of one group of its eight lanes and one partial
        spec = _fig6_nqrm().two_tone()
        gen = TwoToneGenerator(spec, HilbertSpace(40))
        assert math.ceil(gen.period / gen.dt_max) == 51
        cycle = 2 * math.pi / spec.g
        dense = evolve_unitary_td(gen, coherent_state(gen.space, 1.0, "down"),
                                  np.linspace(0.0, cycle, 2401))
        assert dense.meta["n_steps"] <= 124
        check = evolve_unitary_td(gen, fock_state(gen.space, 0, "down"),
                                  np.linspace(0.0, cycle, 61))
        assert check.meta["n_steps"] <= 58

    @pytest.mark.parametrize("n", [5, 13], ids=["seed-block", "identity"])
    def test_stage_arrays_allocated_once(self, n):
        # 51 steps of pass 1 and a few more, with five records in segment 0
        # (a lane of their five seeds) or thirteen (more than D = 6: the
        # segment's snapshot of pass 1's identity), and every apply writes
        # into one of the six slope rows allocated once
        spec = ModelSpec(kind="TwoTone", eta=0.5, Omega=8.0, nu=80.0,
                         delta_r=0.3, delta_b=-0.1, phi_r=0.3, phi_b=-0.8)
        drive = _Widths(TwoToneGenerator(spec, HilbertSpace(2)))
        psi = QuantumState(drive.drive.space, np.array([0.6, 0.8j, 0, 0, 0, 0]))
        period = drive.period
        times = np.arange(n) * period * (1 + 1 / 128) + 0.3 * period / 8
        traj = evolve_unitary_td(drive, psi, times)
        assert traj.meta["n_steps"] > 51
        assert max(drive.widths[7 * 51:]) == min(n, 6)
        assert len(drive.outs) == 7 * traj.meta["n_steps"]
        assert len({out.__array_interface__["data"][0] for out in drive.outs}) == 6


class TestEvolveLindblad:
    def test_closed_system_limit(self, space, monkeypatch):
        # a quarter of the default step: at the default the RK4 error in the
        # fidelity reaches 2.2e-8
        monkeypatch.setattr(dynamics, "_STEP_BOUND", dynamics._STEP_BOUND / 4)
        g = 1.0
        H = _build(space, "JC", g=g)
        psi = fock_state(space, 1, "down")
        times = np.linspace(0, 5, 11)
        ref = evolve_unitary(H, psi, times)
        _, _, sm, _ = qubit_ops(space)
        traj = evolve_lindblad(H, [(0.0, sm)], psi.to_density(), times)
        assert np.abs(traj.fidelity - ref.fidelity).max() < 1e-8
        assert traj.states is None

    def test_amplitude_damping_analytic(self, space, monkeypatch):
        # a quarter of the default step: at the default the RK4 error in
        # sigma_z reaches 4.0e-8
        monkeypatch.setattr(dynamics, "_STEP_BOUND", dynamics._STEP_BOUND / 4)
        gamma = 0.8
        H = Operator(space, np.zeros((space.dim_total,) * 2))
        _, _, sm, _ = qubit_ops(space)
        rho0 = fock_state(space, 0, "up").to_density()
        times = np.linspace(0, 4.0, 17)
        traj = evolve_lindblad(H, [(gamma, sm)], rho0, times)
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

    def test_positivity_loss_on_unstable_step(self, space, monkeypatch):
        # RK4 preserves the trace exactly even when unstable, so divergence
        # surfaces through the positivity monitor.  The step is the bound over
        # ||H|| + Gamma ||C||^2 = 1 here, so a bound of 4 steps dt = 4
        H = Operator(space, np.zeros((space.dim_total,) * 2))
        _, _, sm, _ = qubit_ops(space)
        rho0 = fock_state(space, 0, "up").to_density()
        monkeypatch.setattr(dynamics, "_STEP_BOUND", 4.0)
        with pytest.raises(PositivityLoss):
            evolve_lindblad(H, [(1.0, sm)], rho0, np.linspace(0, 40, 11))

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
            traj = evolve_lindblad(H, terms, rho0, np.array([0.0, 3e-3]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the default step: 4 steps on the QRM, 1 on the JC ladder
        assert traj.meta["n_steps"] == math.ceil(3e-3 / traj.meta["dt"])
        assert peak < {"qrm_sigma_minus": 40e6, "nonlinear_jc_coherent": 100e6}[case]

    def test_ladder_step_is_one_matrix(self):
        # fig3's set at truncation 40: the pattern Q of I, L and L^2 has 839
        # entries and the product of the two quadratic factors on it 1,269,
        # fewer than the pair's 2 x 839, so the step is that one matrix: p(hL)
        # of the dense reduced generator
        sp = HilbertSpace(40)
        H = _build(sp, "NonlinearAntiJC", g=1.0, eta=0.4518)
        terms = [(2.0, qubit_ops(sp)[2])]
        flat, tgt, src, val = _coo(H, terms, thermal_state(sp, 1.0, "down"))
        s, h = len(flat), 0.01
        assert s == 161
        hL = np.zeros((s, s), dtype=complex)
        np.add.at(hL, (tgt, src), h * val)
        eye = np.eye(s)
        want = eye + hL @ (eye + hL @ (eye / 2 + hL @ (eye / 6 + hL / 24)))
        pattern = np.eye(s, dtype=int)
        pattern[tgt, src] = 1
        Q = (pattern @ pattern > 0).astype(int)
        assert np.count_nonzero(Q) == 839
        (cols, row_starts, v), = _rk4_factors(tgt, src, val, s)(h)
        assert len(v) == np.count_nonzero(Q @ Q) == 1269
        got = np.zeros((s, s), dtype=complex)
        got[np.repeat(np.arange(s), np.diff(row_starts, append=len(v))), cols] = v
        assert np.abs(got - want).max() < 1e-14

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
        with pytest.raises(SpaceMismatch):
            overlap_fidelity(fock_state(HilbertSpace(4), 0), psi)

    def test_density_fidelity(self, space, rng):
        psi = fock_state(space, 2, "down")
        rho = thermal_state(space, 0.0, "down")
        # <psi|rho|psi> with rho = |0><0|
        assert overlap_fidelity(fock_state(space, 0, "down"), rho) == pytest.approx(1.0)
        assert overlap_fidelity(psi, rho) == pytest.approx(0.0, abs=1e-14)
        # a thermal reference against a random pure state
        rho = thermal_state(space, 0.2, "up")
        psi = rng.normal(size=space.dim_total) + 1j * rng.normal(size=space.dim_total)
        psi = QuantumState(space, psi / np.linalg.norm(psi))
        want = np.vdot(psi.data, rho.data @ psi.data).real
        assert abs(overlap_fidelity(rho, psi) - want) <= 1e-14

    def test_phonon_distribution_sums_sectors(self, space):
        psi_dn = fock_state(space, 1, "down").data
        psi_up = fock_state(space, 2, "up").data
        mix = (psi_dn + psi_up) / math.sqrt(2)
        pn = phonon_distribution(QuantumState(space, mix))
        assert pn[1] == pytest.approx(0.5)
        assert pn[2] == pytest.approx(0.5)


    def test_recorder_matches_observables(self, space, rng):
        # records 2..8 of a block of random pure states against a random pure reference
        D, m = space.dim_total, 7
        block = rng.normal(size=(D, m)) + 1j * rng.normal(size=(D, m))
        block /= np.linalg.norm(block, axis=0)
        ref = rng.normal(size=D) + 1j * rng.normal(size=D)
        ref = QuantumState(space, ref / np.linalg.norm(ref))
        rec = dynamics._Recorder(ref, np.arange(m + 2.0), 1e-12)
        rec.record(2, block)
        sz, n = qubit_ops(space)[0], number_op(space)
        for j in range(m):
            psi = QuantumState(space, block[:, j].copy())
            assert abs(rec.sigma_z[2 + j] - expectation(sz, psi)) <= 1e-14
            assert abs(rec.n_mean[2 + j] - expectation(n, psi)) <= 1e-14
            assert np.abs(rec.phonons[2 + j] - phonon_distribution(psi)).max() <= 1e-14
            assert abs(rec.fidelity[2 + j] - overlap_fidelity(ref, psi)) <= 1e-14


class TestRwaCrosscheck:
    def test_zero_drive_zero_deviation(self):
        # Omega = 0: the two-tone frame transform must cancel the simulated
        # model's free evolution exactly, validating the sign convention
        spec = ModelSpec(kind="TwoTone", eta=0.5, Omega=0.0, nu=80.0,
                         delta_r=0.25, delta_b=-0.25)
        report = rwa_crosscheck(spec, fock_state(HilbertSpace(12), 0, "down"),
                                np.linspace(0.0, 2.0, 9))
        assert report.max_deviation < 1e-12

    def test_deviation_over_several_blocks(self):
        # fig6's drive over one cycle, 150 records: the nonlinear-QRM side takes
        # three blocks, the last one partial; the value is the per-time route's
        spec = _fig6_nqrm().two_tone()
        report = rwa_crosscheck(spec, fock_state(HilbertSpace(20), 0, "down"),
                                np.linspace(0.0, 2 * math.pi / spec.g, 150))
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
        report = rwa_crosscheck(spec, psi0, np.linspace(0.0, 3.0 * 2.0 * math.pi / spec.g, 61))
        assert report.max_deviation < 0.01
        assert report.max_deviation == pytest.approx(deviation, abs=1e-10)
        assert report.top_population < 1e-26

    def test_requires_two_tone(self):
        with pytest.raises(ValueError):
            rwa_crosscheck(ModelSpec(kind="QRM", g=1.0, omega_R=0.5, omega0_R=0.0),
                           fock_state(HilbertSpace(12), 0, "down"), np.linspace(0.0, 1.0, 61))
