"""Test oracles: independent references for what the package computes by
its own routes, and the operators the tests build states and checks from.

No command of the package calls these:
  - f1_series, f1 from the alternating finite sum, an independent route to
    the Laguerre recurrence that fock.f1_diagonal runs;
  - the ladder, number, parity and Pauli operators on a HilbertSpace (the
    runner builds the one sigma_minus it evolves with in place);
  - expectation, overlap_fidelity and phonon_distribution of one state, which
    dynamics._Recorder computes for every record of a trajectory;
  - two_tone_matrix, the dense two-tone H(t) that TwoToneGenerator.apply
    acts with, without materializing it.
"""
import math

import numpy as np

from ionrabi._dd import dd_add, dd_div_scalar, dd_mul, two_prod
from ionrabi.dynamics import QuantumState
from ionrabi.errors import SpaceMismatch
from ionrabi.fock import HilbertSpace, Operator, _boson_a, _validate_f1_args, displacement_boson


# ---------------------------------------------------------------------------
# f1
# ---------------------------------------------------------------------------

def f1_series(n: int, eta: float) -> float:
    """f1 from the alternating finite sum (terminates at l = n).

    Terms are generated by exact ratios and accumulated in compensated
    double-double arithmetic; the alternating cancellation near the zeros
    would otherwise swamp the value with roundoff.
    """
    _validate_f1_args(n, eta)
    xh, xl = two_prod(float(eta), float(eta))
    th, tl = 1.0, 0.0  # T_0 = 1
    sh, sl = 1.0, 0.0
    for l in range(n):
        # T_{l+1} = T_l * (-x) * (n - l) / ((l+1)(l+2))
        th, tl = dd_mul(th, tl, -xh, -xl)
        th, tl = dd_mul(th, tl, float(n - l), 0.0)
        th, tl = dd_div_scalar(th, tl, float((l + 1) * (l + 2)))
        sh, sl = dd_add(sh, sl, th, tl)
    return math.exp(-0.5 * eta * eta) * (sh + sl)


# ---------------------------------------------------------------------------
# ladder, number, parity and Pauli operators
# ---------------------------------------------------------------------------

def annihilation_op(space: HilbertSpace) -> Operator:
    """a on the boson factor, identity on the qubit:  <m|a|n> = sqrt(n) d_{m,n-1}."""
    return Operator(space, np.kron(np.eye(2), _boson_a(space.n_max)))


def creation_op(space: HilbertSpace) -> Operator:
    return Operator(space, np.kron(np.eye(2), _boson_a(space.n_max).conj().T))


def number_op(space: HilbertSpace) -> Operator:
    diag = np.concatenate([np.arange(space.dim_boson)] * 2).astype(complex)
    return Operator(space, np.diag(diag))


def parity_op(space: HilbertSpace) -> Operator:
    """sigma_z * (-1)^n, the conserved parity of the (nonlinear) Rabi models."""
    signs = (-1.0) ** np.arange(space.dim_boson)
    diag = np.concatenate([-signs, signs]).astype(complex)
    return Operator(space, np.diag(diag))


def qubit_ops(space: HilbertSpace):
    """(sigma_z, sigma_plus, sigma_minus, sigma_x), identity on the boson factor.

    sigma_z|up> = +|up>, sigma_z|down> = -|down>, sigma_plus = |up><down|.
    """
    d, dim = space.dim_boson, space.dim_total
    sp = np.eye(dim, k=-d)    # |up, n><down, n|
    sm = np.eye(dim, k=d)
    return (Operator(space, np.diag(np.repeat([-1.0, 1.0], d))), Operator(space, sp),
            Operator(space, sm), Operator(space, sp + sm))


# ---------------------------------------------------------------------------
# observables of one state
# ---------------------------------------------------------------------------

def _trace_product(A: np.ndarray, B: np.ndarray) -> complex:
    """Tr(A B) of two D x D matrices: the sum of A^T * B, elementwise."""
    return complex(np.vdot(A.conj().T, B))


def expectation(op: Operator, state: QuantumState) -> float:
    """<O> = Tr(O rho) for a hermitian operator; rejects a residual imaginary
    part > 1e-10."""
    if op.space.n_max != state.space.n_max:
        raise SpaceMismatch("operator and state live on different spaces")
    val = _trace_product(op.mat, state.to_density().data)
    if abs(val.imag) > 1e-10 * max(1.0, abs(val)):
        raise ValueError(f"expectation has imaginary part {val.imag:.3e}; operator not hermitian?")
    return val.real


def overlap_fidelity(ref: QuantumState, state: QuantumState) -> float:
    """The overlap Tr(rho_ref rho) (not Uhlmann): |<psi0|psi>|^2 for pure
    states, <psi0|rho|psi0> when one of them is pure."""
    if ref.space.n_max != state.space.n_max:
        raise SpaceMismatch("states live on different spaces")
    return _trace_product(ref.to_density().data, state.to_density().data).real


def phonon_distribution(state: QuantumState) -> np.ndarray:
    """P_n summed over the two qubit sectors: rho's diagonal."""
    d = state.space.dim_boson
    diag = np.real(np.diag(state.to_density().data))
    return diag[:d] + diag[d:]


# ---------------------------------------------------------------------------
# dense two-tone Hamiltonian
# ---------------------------------------------------------------------------

def two_tone_matrix(gen, t: float) -> np.ndarray:
    """The dense H(t) of a TwoToneGenerator: its coupling block
    tone_coeff(t) P(t) D(i eta) P(t)^dag, P(t) = diag(e^{i nu n t}), built
    from displacement_boson directly rather than from the generator's real
    factor R."""
    d = gen.space.dim_boson
    d0 = displacement_boson(gen.space.n_max, 1j * gen.spec.eta)
    ph = np.exp(1j * gen.spec.nu * t * gen.nb)
    block = gen.tone_coeff(t) * (ph[:, None] * d0 * ph.conj()[None, :])
    H = np.zeros((2 * d, 2 * d), dtype=complex)
    H[d:, :d] = block
    H[:d, d:] = block.conj().T
    return H
