"""Property tests over random parameters: f1, hermiticity, parity and the
Lindblad trace."""
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ionrabi import (
    HilbertSpace,
    LindbladSpec,
    ModelSpec,
    QuantumState,
    TwoToneGenerator,
    annihilation_op,
    build_hamiltonian,
    evolve_lindblad,
    f1_scalar,
    parity_op,
    qubit_ops,
)
from ionrabi.fock import hermiticity_defect

from f1_oracle import f1_series

SPACE = HilbertSpace(12)
FEW = settings(max_examples=30, deadline=None)

etas = st.floats(0.0, 1.0)
couplings = st.floats(0.01, 10.0)
frequencies = st.floats(-10.0, 10.0)
KINDS = ("JC", "AntiJC", "NonlinearJC", "NonlinearAntiJC", "QRM", "NonlinearQRM")


def _build(space, kind, g, eta=0.0, omega_R=0.0, omega0_R=0.0):
    """build_hamiltonian for any time-independent kind; linear kinds drop eta."""
    if not kind.startswith("Nonlinear"):
        eta = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a nonlinear kind at eta = 0 warns
        spec = ModelSpec(kind=kind, g=g, eta=eta, omega_R=omega_R, omega0_R=omega0_R)
    return build_hamiltonian(spec, space)


@FEW
@given(n=st.integers(0, 60), eta=etas)
def test_series_matches_recurrence(n, eta):
    a, b = f1_series(n, eta), f1_scalar(n, eta)
    assert abs(a - b) <= max(1e-12 * max(abs(a), abs(b)), 1e-16)


@FEW
@given(kind=st.sampled_from(KINDS), g=couplings, eta=etas, omega_R=frequencies,
       omega0_R=frequencies)
def test_time_independent_models_are_hermitian(kind, g, eta, omega_R, omega0_R):
    H = _build(SPACE, kind, g, eta, omega_R, omega0_R)
    assert hermiticity_defect(H.mat) < 1e-12


@FEW
@given(eta=st.floats(0.05, 1.0), Omega=st.floats(1.0, 100.0),
       delta_r=st.floats(-50.0, 50.0), delta_b=st.floats(-50.0, 50.0), t=st.floats(0.0, 1.0))
def test_two_tone_is_hermitian(eta, Omega, delta_r, delta_b, t):
    # |delta|/nu <= 0.05 and Omega/nu <= 0.1 keep the drive inside its validity range
    spec = ModelSpec(kind="TwoTone", eta=eta, Omega=Omega, nu=1000.0,
                     delta_r=delta_r, delta_b=delta_b)
    assert hermiticity_defect(TwoToneGenerator(spec, SPACE).matrix(t)) < 1e-12


@FEW
@given(kind=st.sampled_from(("QRM", "NonlinearQRM")), g=couplings, eta=etas,
       omega_R=frequencies, omega0_R=frequencies)
def test_rabi_models_commute_with_parity(kind, g, eta, omega_R, omega0_R):
    P = parity_op(SPACE).mat
    H = _build(SPACE, kind, g, eta, omega_R, omega0_R).mat
    assert np.abs(H @ P - P @ H).max() <= 1e-12 * np.abs(H).max()


@settings(max_examples=15, deadline=None)
@given(g=couplings, eta=etas, gamma_ratio=st.floats(0.0, 4.0),
       phonon_loss=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_lindblad_preserves_trace(g, eta, gamma_ratio, phonon_loss, seed):
    space = HilbertSpace(5)
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(space.dim_total,) * 2) + 1j * rng.normal(size=(space.dim_total,) * 2)
    rho = A @ A.conj().T
    rho0 = QuantumState(space, rho / np.trace(rho).real)
    # one right-hand side for sigma- alone and for sigma- with phonon loss
    terms = [(gamma_ratio * g, qubit_ops(space)[2])]
    if phonon_loss:
        terms.append((gamma_ratio * g, annihilation_op(space)))
    traj = evolve_lindblad(_build(space, "NonlinearAntiJC", g, eta), LindbladSpec(terms), rho0,
                           np.linspace(0.0, 2.0 / g, 5))
    assert traj.meta["trace_drift"] < 1e-10
    assert np.abs(traj.phonons.sum(axis=1) - 1.0).max() < 1e-10
