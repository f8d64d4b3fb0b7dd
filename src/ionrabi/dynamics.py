"""State preparation, unitary/Lindblad propagation, and observable extraction.

Evolution strategies:
  - time-independent H: one stacked hermitian eigendecomposition per size of
    sector, the connected blocks of H's nonzero pattern that psi0 touches,
    then the record times in blocks of _BLOCK: each block's phases are
    exps from one table per call and size times a start, V^dag psi0 in the
    first block of each chain of _CHAIN blocks (its own times' exps) and the
    block before's phases in every later one (the exps of the jumps of
    _BLOCK times); one batched matmul per size and block (evolve_unitary;
    exact up to linear algebra);
  - time-dependent H: a drive that repeats with period T' in a rotating
    frame W(t) = e^{iKt} (the two-tone drive, TwoToneGenerator; Floquet).
    Pass 1 steps the identity over one period with a fixed sixth-order
    Runge-Kutta step (Butcher's seven stages) to get the one-period
    propagator M and snapshots of U in _SEGMENTS segments of it; the state
    at t0 + k T' + s is e^{iKkT'} U(t0 + s) M^k psi0, so pass 2 steps each
    segment's lane, its snapshot times its seeds M^k psi0 (or the snapshot
    alone, if they are more than D), to its records, with lanes packed side
    by side into groups at most D wide that step together, one time per
    column, and the records' partial steps to their offsets s are block
    steps.  This pays off when the span holds many drive periods, and pass
    1 runs even if it holds none.  The drive writes H(t) X into an array it
    is handed, so the stages reuse eight rows allocated once per call.
    Nothing is renormalized; the summed norm drift and every record's norm
    are checked;
  - Lindblad: fixed-step classical RK4 on the elements of rho the generator
    can reach from rho0.  The set is the closure of rho0's support under the
    exact nonzero patterns of H rho, rho H, C rho C^dag, C^dag C rho and
    rho C^dag C; no element is dropped on a threshold, and every element
    outside it is exactly 0 for all time (e.g. 4 n_max + 1 of the
    (2 n_max + 2)^2 elements for the anti-JC with qubit decay from a thermal
    |down>, the weak U(1) symmetry of that generator).  One index-pairing
    pass, `_lindblad_coo`, finds the set and the generator's COO map L on
    it; each step is RK4's polynomial p(dt L) as one sparse matrix, the
    product of its two quadratic factors in L, when that has fewer nonzeros
    than the pair (the JC-family ladders), and as the pair otherwise.  One
    sparse square, `_square_pattern`, pairs I + L with itself for the
    factors' shared pattern, and that pattern with itself for the product.
    The step is fixed by H and the channels (_STEP_BOUND).
Fixed steps keep golden outputs deterministic and reproducible.  Every
evolver hands its records to one _Recorder, which checks each record's norm
or trace once, keeps the states if asked (keep_states) and builds the Trajectory.
Time carries no unit here: `times` are in units of 1/H, as H's entries are
frequencies, and a Trajectory's times are the caller's grid.  Conversion to the
paper's cycles of 2*pi/g belongs to the scenario layer (runner.simulate_scenario).

Trace/norm/positivity are monitored, not silently repaired: drifts beyond
tolerance raise StepTooLarge / PositivityLoss so step-size bugs surface.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PositivityLoss, SpaceMismatch, StepTooLarge, TruncationTooSmall
from .fock import HilbertSpace, Operator, _log_factorials, _sectors, hermiticity_defect
from .models import ModelSpec, TwoToneGenerator, build_hamiltonian

__all__ = [
    "QuantumState", "Trajectory", "fock_state", "coherent_state", "thermal_state",
    "coherent_required_n_max", "thermal_required_n_max", "evolve_unitary", "evolve_unitary_td",
    "evolve_lindblad", "expectation", "overlap_fidelity", "phonon_distribution",
    "rwa_crosscheck", "RwaReport",
]

_QUBIT_INDEX = {"down": 0, "up": 1}

NORM_TOL = 1e-10
TRACE_TOL = 1e-8
PHONON_SUM_TOL = 1e-6
# record times per matmul and record in evolve_unitary.  Its ten calls in the
# fig2b eta sweep plus its convergence reruns (D = 242 and 282), one BLAS
# thread on a shared 2-vCPU Xeon, best of five passes (range over three to
# six runs): 0.18-0.20 s at 16, 0.12-0.13 s at 32, 0.10-0.11 s at 64,
# 0.10-0.12 s at 128, where 128 doubles the block's four D x _BLOCK arrays
# (1.2 MB more at D = 282)
_BLOCK = 64
# blocks per chain of phases in evolve_unitary: a chain's first block takes
# direct exps, so no phase is more than _CHAIN - 1 rounded products from one
_CHAIN = 64
# segments of the period in evolve_unitary_td, a D x D snapshot each (< 1 MB at D = 82)
_SEGMENTS = 8
# Butcher's explicit 7-stage sixth-order Runge-Kutta step (J. Austral. Math. Soc. 4, 179
# (1964)), on a stack [X, k1, ..., k6] of slopes k = -i h H(t + c h) (stage argument):
# row i of _RK6_STAGE is stage i + 1's argument over the stack's first i + 1 rows, and
# _RK6_ROW the row each stage's slope goes to.  Stage 7's goes to k2's, since b2 = 0 and
# stage 7's argument is k2's last use, so _RK6_STEP, the step's weights over k1..k6,
# holds b7 = 11/120 in k2's place.
_RK6_C = (0.0, 1 / 3, 2 / 3, 1 / 3, 1 / 2, 1 / 2, 1.0)
_RK6_STAGE = np.array([
    [1, 0, 0, 0, 0, 0, 0],
    [1, 1 / 3, 0, 0, 0, 0, 0],
    [1, 0, 2 / 3, 0, 0, 0, 0],
    [1, 1 / 12, 1 / 3, -1 / 12, 0, 0, 0],
    [1, -1 / 16, 9 / 8, -3 / 16, -3 / 8, 0, 0],
    [1, 0, 9 / 8, -3 / 8, -3 / 4, 1 / 2, 0],
    [1, 9 / 44, -9 / 11, 63 / 44, 18 / 11, 0, -16 / 11],
])
_RK6_ROW = (1, 2, 3, 4, 5, 6, 2)
_RK6_STEP = np.array([11 / 120, 11 / 120, 27 / 40, 27 / 40, -4 / 15, -4 / 15])
# p(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, the RK4 step, is the product of 1 + a z + b z^2
# over these (a, b), one per conjugate root pair (np.roots at import pages in LAPACK)
_RK4_FACTORS = ((0.08525331300540473, 0.15755219957394268),
                (0.9147466869945958, 0.26446261479905014))
# product cells (row x column) paired at a time in _square_pattern: a 1 MB mask
_PAIR_CELLS = 1 << 20
# the Lindblad step obeys (||H|| + sum Gamma ||C||^2) dt <= _STEP_BOUND
_STEP_BOUND = 0.05


@dataclass
class QuantumState:
    """A state on a HilbertSpace, D = space.dim_total: a pure state vector of
    shape (D,), normalized within NORM_TOL, or a density matrix of shape
    (D, D) with trace 1 within TRACE_TOL and a hermiticity defect of at most
    1e-10.  Any other shape raises ValueError."""

    space: HilbertSpace
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        dim = self.space.dim_total
        if self.data.shape == (dim,):
            if abs(np.linalg.norm(self.data) ** 2 - 1.0) > NORM_TOL:
                raise ValueError("pure state is not normalized")
        elif self.data.shape == (dim, dim):
            if abs(np.trace(self.data).real - 1.0) > TRACE_TOL:
                raise ValueError("density matrix trace differs from 1")
            if hermiticity_defect(self.data) > 1e-10:
                raise ValueError("density matrix is not hermitian")
        else:
            raise ValueError(f"state must have shape ({dim},) or ({dim}, {dim}), "
                             f"got {self.data.shape}")

    @property
    def is_pure(self) -> bool:
        return self.data.ndim == 1

    def to_density(self) -> "QuantumState":
        if not self.is_pure:
            return self
        return QuantumState(self.space, np.outer(self.data, self.data.conj()))


def _qubit_index(qubit) -> int:
    try:
        return _QUBIT_INDEX[qubit]
    except (KeyError, TypeError):
        raise ValueError(f"qubit must be 'down' or 'up', got {qubit!r}") from None


def fock_state(space: HilbertSpace, n: int, qubit="down") -> QuantumState:
    """|qubit, n> basis state.  Rejects n above n_max (TruncationTooSmall)."""
    if n < 0:
        raise ValueError(f"Fock index {n} must be >= 0")
    if n > space.n_max:
        raise TruncationTooSmall(f"Fock index {n} exceeds truncation n_max={space.n_max}",
                                 required_n_max=n)
    psi = np.zeros(space.dim_total, dtype=complex)
    psi[space.index(_qubit_index(qubit), n)] = 1.0
    return QuantumState(space, psi)


def coherent_required_n_max(alpha: complex) -> int:
    """Smallest n_max with Poisson(|alpha|^2) mass beyond it below 1e-10 (1 at
    alpha = 0): the weights' tail in log space, as coherent_state builds them,
    summed from the top of a table to n = |alpha|^2 + t, t = 10 |alpha| + 30,
    where the Poisson tail bound exp(-t^2 / (2 |alpha|^2 + 2t/3)) is below e^-45."""
    lam = abs(alpha) ** 2
    if lam == 0:
        return 1
    n = np.arange(math.ceil(lam + 10.0 * abs(alpha) + 30.0) + 1)
    weights = np.exp(n * math.log(lam) - lam - _log_factorials(len(n)))
    tail = np.cumsum(weights[::-1])[::-1]   # tail[m]: the mass at m and above
    return int(np.argmax(tail < 1e-10)) - 1


def thermal_required_n_max(nbar: float) -> int:
    """Smallest truncation for a thermal state of nbar > 0: its mass beyond
    n_max is ratio^(n_max+1) with ratio = nbar/(nbar+1), at most 1e-10 from here on."""
    ratio = nbar / (nbar + 1.0)
    return math.ceil(math.log(1e-10) / math.log(ratio)) - 1


def coherent_state(space: HilbertSpace, alpha: complex, qubit="down") -> QuantumState:
    """Coherent state |alpha> (x) |qubit>, renormalized after truncation.

    Rejects n_max below coherent_required_n_max(alpha) (TruncationTooSmall).
    """
    lam = abs(alpha) ** 2
    required = coherent_required_n_max(alpha)
    if space.n_max < required:
        raise TruncationTooSmall(
            f"coherent state with |alpha|^2={lam:.4g} needs n_max >= {required} "
            f"to hold all but 1e-10 of its weight, got n_max={space.n_max}",
            required_n_max=required,
        )
    n = np.arange(space.dim_boson)
    logfact = _log_factorials(space.dim_boson)
    if lam > 0:
        logw = -lam / 2.0 + n * math.log(abs(alpha)) - logfact / 2.0
        amps = np.exp(logw) * np.exp(1j * np.angle(alpha) * n)
    else:
        amps = (n == 0).astype(complex)
    amps = amps / math.sqrt(float(np.sum(np.abs(amps) ** 2)))
    psi = np.zeros(space.dim_total, dtype=complex)
    q = _qubit_index(qubit)
    psi[q * space.dim_boson:(q + 1) * space.dim_boson] = amps
    return QuantumState(space, psi)


def thermal_state(space: HilbertSpace, nbar: float, qubit="down") -> QuantumState:
    """Thermal phonon density matrix P_k = nbar^k/(nbar+1)^{k+1} (x) |qubit><qubit|.

    Rejects n_max below thermal_required_n_max(nbar) (TruncationTooSmall).
    """
    if nbar < 0:
        raise ValueError("nbar must be >= 0")
    k = np.arange(space.dim_boson)
    if nbar == 0:
        weights = (k == 0).astype(float)
    else:
        ratio = nbar / (nbar + 1.0)
        required = thermal_required_n_max(nbar)
        if space.n_max < required:
            raise TruncationTooSmall(
                f"thermal state nbar={nbar} keeps tail mass "
                f"{ratio ** (space.n_max + 1):.3e} > 1e-10 beyond n_max={space.n_max}",
                required_n_max=required,
            )
        weights = np.exp(k * math.log(ratio)) / (nbar + 1.0)
    weights = weights / weights.sum()
    rho = np.zeros((space.dim_total, space.dim_total), dtype=complex)
    q = _qubit_index(qubit)
    sl = slice(q * space.dim_boson, (q + 1) * space.dim_boson)
    rho[sl, sl] = np.diag(weights)
    return QuantumState(space, rho)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Time grid plus per-time observables.

    times are in the unit of the grid they came from: 1/H from an evolver,
    cycles of 2*pi/g from runner.simulate_scenario or a trajectory CSV read
    back.  `states`, kept only on request, holds the state at times[i] in row
    i: (n_times, D) if pure, (n_times, D, D) if not.
    """

    times: np.ndarray
    sigma_z: np.ndarray
    fidelity: np.ndarray
    n_mean: np.ndarray
    phonons: np.ndarray                      # (n_times, dim_boson)
    states: np.ndarray | None = None
    meta: dict = field(default_factory=dict)


class _Recorder:
    """Observables of every record on ref's space, and its state with keep_states; a
    record whose ||psi||^2 or trace is more than `tol` from 1 (`drift`: the largest)
    raises StepTooLarge."""

    def __init__(self, ref: QuantumState, times: np.ndarray, tol: float, keep_states=False):
        n_times = len(times)
        self.d = ref.space.dim_boson
        self.ref = ref
        self.times = times
        self.tol = tol
        self.sigma_z = np.empty(n_times)
        self.fidelity = np.empty(n_times)
        self.n_mean = np.empty(n_times)
        self.phonons = np.empty((n_times, self.d))
        self.states = np.empty((n_times,) + ref.data.shape, dtype=complex) if keep_states else None
        self._nb = np.arange(self.d)
        self._ref_conj = ref.data.conj() if ref.is_pure else None
        self.drift = 0.0

    def record(self, i: int, states: np.ndarray):
        """Record from record i on: against a pure reference, a C-contiguous
        block of pure states, one column per record i, i+1, ...; against a
        density reference, one density matrix for record i."""
        d = self.d
        if self.ref.is_pure:
            prob = _abs2(states)
            fid = _abs2(self._ref_conj @ states)
        else:
            prob = np.real(np.diag(states))[:, None]
            fid = _trace_product(self.ref.data, states).real
        pg, pe = prob[:d], prob[d:]
        pn = pg + pe
        total = pn.sum(axis=0)
        # inverted comparison so NaN (diverged integration) fails too
        bad = np.flatnonzero(~(np.abs(total - 1.0) <= self.tol))
        if bad.size:
            raise StepTooLarge(f"norm/trace drifted to {total[bad[0]]} "
                               f"at t={self.times[i + bad[0]]}")
        self.drift = max(self.drift, float(np.abs(total - 1.0).max()))
        block = slice(i, i + pn.shape[1])
        self.sigma_z[block] = pe.sum(axis=0) - pg.sum(axis=0)
        self.n_mean[block] = self._nb @ pn
        self.phonons[block] = pn.T
        self.fidelity[block] = fid
        if self.states is not None:
            self.states[block] = states.T if self.ref.is_pure else states

    def trajectory(self, meta: dict) -> Trajectory:
        return Trajectory(self.times, self.sigma_z, self.fidelity, self.n_mean, self.phonons,
                          states=self.states, meta=meta)


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 of a C-contiguous complex array as re^2 + im^2 on its interleaved
    float view."""
    v = z.view(float)
    out = np.square(v[..., 0::2])
    out += np.square(v[..., 1::2])
    return out


def _trace_product(A: np.ndarray, B: np.ndarray) -> complex:
    """Tr(A B) of two D x D matrices: the sum of A^T * B, elementwise."""
    return complex(np.vdot(A.conj().T, B))


def _check_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 1:
        raise ValueError("times must be a non-empty 1-d grid")
    bad = np.flatnonzero(~np.isfinite(times))
    if bad.size:
        raise ValueError(f"times[{bad[0]}] = {times[bad[0]]} is not finite")
    if np.any(np.diff(times) < 0):
        raise ValueError("times must be monotone non-decreasing")
    return times


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def evolve_unitary(H: Operator, psi0: QuantumState, times,
                   keep_states: bool = False) -> Trajectory:
    """psi(t) = exp(-iHt) psi0, sector by sector.

    The sectors are the connected components of H's nonzero pattern that
    psi0's support touches (_sectors): the excitation-number doublets of the
    JC family, the two parity chains of the QRM family, all of a dense H.
    An exactly zero coupling decouples them, so every other amplitude stays
    exactly 0.  Sectors of one size share a stacked eigh H = V diag(w) V^dag;
    the record times go in blocks of _BLOCK, each one batched matmul
    V (e^{-i w t^T} * V^dag psi0) per size, scattered into a D x _BLOCK block
    of states whose other rows stay 0.  The phases come from one table per
    call and size, e^{-i w a} for each distinct exponent a, and the blocks
    run in chains of _CHAIN.  Every block gathers its columns of the table
    and multiplies them by a start: the first block of a chain the columns
    of its own times by V^dag psi0, each later block the columns of the
    jumps from the times _BLOCK records earlier by the block before's
    phases, one product a phase, so no phase is more than _CHAIN - 1
    rounded products from a direct exp.  fig2b's 2,401-point linspace grid
    (38 blocks) has 73 distinct exponents: the 64 times of its first block
    and 9 jumps; a grid whose gaps all differ has about one per time.  A
    block holds at most four complex D x _BLOCK arrays (248 kB each at
    D = 242) besides the table and the kept states.  psi0 must be pure and
    H have hermiticity_defect(H.mat) <= 1e-12 (ValueError otherwise).  The
    recorder raises StepTooLarge at the first t whose ||psi||^2 is more than
    2 NORM_TOL from 1, that is ||psi|| more than NORM_TOL.
    """
    if not psi0.is_pure:
        raise ValueError("evolve_unitary requires a pure initial state")
    if H.space.n_max != psi0.space.n_max:
        raise SpaceMismatch("H and psi0 live on different spaces")
    if hermiticity_defect(H.mat) > 1e-12:
        raise ValueError("evolve_unitary requires a hermitian Hamiltonian")
    times = _check_times(times)
    n, chain = len(times), _CHAIN * _BLOCK
    # each time's exponent: its own time in the first block of a chain, else
    # the jump from the time _BLOCK records earlier.  The distinct exponents,
    # and each time's index among them (stable: numpy's default sort pages in
    # its SIMD kernels, which peak RSS counts)
    arg = times.copy()
    arg[_BLOCK:] -= times[:-_BLOCK]
    head = np.arange(n) % chain < _BLOCK
    arg[head] = times[head]
    step = np.sort(arg, kind="stable")
    step = step[np.diff(step, prepend=-np.inf) > 0]
    which = np.searchsorted(step, arg)
    groups = []
    for idx in _sectors(H.mat, np.flatnonzero(psi0.data)):
        w, V = np.linalg.eigh(H.mat[idx[:, :, None], idx[:, None, :]])
        coeff = V.conj().swapaxes(1, 2) @ psi0.data[idx][:, :, None]
        groups.append((idx.ravel(), np.exp(-1j * w[:, :, None] * step), V, coeff))
    last = [None] * len(groups)    # each group's phases of the block before
    rec = _Recorder(psi0, times, 2 * NORM_TOL, keep_states)
    # one block of states for all blocks but a shorter last: rows outside the
    # sectors stay 0, and the recorder copies what it keeps
    psi = np.zeros((len(psi0.data), min(n, _BLOCK)), dtype=complex)
    for i in range(0, n, _BLOCK):
        m = min(_BLOCK, n - i)
        if m < psi.shape[1]:
            psi = np.zeros((len(psi0.data), m), dtype=complex)
        for j, (rows, table, V, coeff) in enumerate(groups):
            phase = table[:, :, which[i:i + m]]
            phase *= coeff if i % chain == 0 else last[j][:, :, :m]
            last[j] = phase
            psi[rows] = (V @ phase).reshape(len(rows), m)
        rec.record(i, psi)
    return rec.trajectory({"method": "eigh", "n_times": len(times)})


def evolve_unitary_td(drive, psi0: QuantumState, times, keep_states: bool = False) -> Trajectory:
    """psi(t) for i d psi/dt = H(t) psi, with H(t) periodic in a rotating frame.

    `drive` supplies apply(t, X, out), which writes H(t) @ X into `out` and
    returns it, for X of shape (D,) or (D, m), t a float or m times (column
    i at t[i]) and `out` a C-contiguous array of X's shape that does not
    overlap X; the step bound dt_max; and a diagonal `frame` K and `period`
    T' such that e^{-iKt} H(t) e^{iKt} + K repeats with period T'
    (TwoToneGenerator; a constant H has K = 0 and any T').  With t0 =
    times[0], U(t) the propagator from t0 and M = e^{-iKT'} U(t0 + T'),
    every record time t = t0 + k T' + s with 0 <= s < T' has

        psi(t) = e^{iKkT'} U(t0 + s) M^k psi0.

    Both passes step the grid t0 + j dt, dt = T' / ceil(T' / dt_max), with
    Butcher's explicit sixth-order Runge-Kutta step (seven applies a step,
    _RK6_STAGE); a record's cell is the j with j dt <= s < (j+1) dt.  Pass 1
    steps the D x D identity over one period to get M, keeping U at the
    first record's cell of each of _SEGMENTS equal segments (a snapshot).
    The seeds M^k psi0, one per period that holds a record, take one matvec
    a period: powers of M by repeated squaring would save most of them, but
    round about g times as much as g matvecs (over fig6's 20 cycles, 4,760
    periods, 1.3e-13 from long-double products of the same M; the matvecs
    1.0e-14).  Pass 2 gives each segment a lane from its snapshot's cell to
    its last record's: the snapshot times the seeds of its periods, or the
    snapshot itself if they are more than D (a record then reads off as
    X @ seed).  The lanes, in order, are packed side by side into groups at
    most D wide, and each group steps its lanes together, one time per
    column, for as many steps as its longest lane spans; a shorter lane
    steps on past its last record unread.  A group of one lane steps at
    float times, whose phases the drive keeps from one step's end to the
    next's start.  Then the records past their grid points take their
    partial steps s - j dt, D at a time, as block steps with one time and
    one step per column.  Every step writes into eight rows allocated once
    per call, viewed C-contiguous at the block's width: the state, six
    slopes and the stage argument; each snapshot but cell 0's (the
    identity) is a D x D copy.

    Cost: pass 1 is ceil(T'/dt_max) D-wide steps, pass 2 one step per cell
    of each group's longest lane, plus one step per D records.  With fig6's
    drive (D = 82, 51 cells a period, 238 periods a cycle; one BLAS thread,
    2-vCPU Xeon) validate's one-cycle cross-check takes 58 steps and about
    24 ms, of which pass 1 is 18, and 2,401 records over a cycle 124 steps
    and about 74 ms.  Stepping the span directly takes ceil(T'/dt_max)
    vector steps a period, so a span of a few periods runs slower than that.

    Nothing is renormalized: the per-step change of the largest column norm
    is summed, pass 1's k + 1 times for the last period k that holds a
    record (its seed takes M k times, its snapshot once more), and a sum
    > 1e-6 raises StepTooLarge, as does a record whose ||psi||^2 is more
    than 1e-6 from 1 (the recorder's check, on all records in time order,
    so it names the earliest).  psi0 must be pure (ValueError) and span
    len(drive.frame) amplitudes (SpaceMismatch).
    """
    if not psi0.is_pure:
        raise ValueError("evolve_unitary_td requires a pure initial state")
    if len(drive.frame) != psi0.space.dim_total:
        raise SpaceMismatch("drive and psi0 live on different spaces")
    times = _check_times(times)
    t0, period = times[0], drive.period
    k = np.floor((times - t0) / period).astype(int)
    s = np.maximum(times - t0 - k * period, 0.0)
    n_grid = math.ceil(period / drive.dt_max)
    dt = period / n_grid
    cell = np.minimum((s / dt).astype(int), n_grid - 1)
    n_steps = 0
    drift = 0.0
    D = psi0.data.shape[0]
    # the state, the slopes and the stage argument (_RK6_STAGE's stack and a
    # last row) at width D, viewed at the width in use
    block = np.empty((8, D * D), dtype=complex)

    def rows(width):
        return block[:, :D * width].reshape(8, D, width)

    def step(S, t, h, end, weight=1.0, norm=None):
        """S[0] <- the RK6 step of S[0] from t to end = t + h, with S[1:7] the
        slopes and S[7] the stage argument; h a float or one step per column.
        Returns S[0]'s column norms, given its old ones as `norm` when the
        step continues from the last one.  On the grid, `end` is the next
        step's t, so the drive's phases kept for it are reused."""
        nonlocal n_steps, drift
        flat = S.reshape(8, -1).view(float)
        X, T = S[0], S[7]
        norm_x = _column_norms(X) if norm is None else norm
        for i, (c, row) in enumerate(zip(_RK6_C, _RK6_ROW)):
            if i:
                np.matmul(_RK6_STAGE[i, :i + 1], flat[:i + 1], out=flat[7])
            drive.apply(end if c == 1.0 else t + c * h, T if i else X, S[row])
            S[row] *= -1j * h
        np.matmul(_RK6_STEP, flat[1:7], out=flat[7])
        X += T
        norm_y = _column_norms(X)
        drift += weight * float(np.max(np.abs(norm_y - norm_x)))
        n_steps += 1
        if not (drift <= 1e-6):
            raise StepTooLarge(
                f"accumulated norm drift {drift:.3e} > 1e-6 at t={np.max(end)} "
                f"(dt={np.max(h):.3e}); reduce dt_max"
            )
        return norm_y

    # one seed M^k psi0 per period k that holds a record (times, so k, are
    # sorted), and each record's seed column; each segment's and each cell's
    # records are runs of the records in order of cell (a stable sort: numpy's
    # default sort pages in about 0.5 MB of SIMD code)
    new_period = np.diff(k, prepend=-1) > 0
    periods = k[new_period]
    col = np.cumsum(new_period) - 1
    by_cell = np.argsort(cell, kind="stable")
    first = np.searchsorted(cell[by_cell], np.arange(n_grid + 1))
    edges = first[np.arange(_SEGMENTS + 1) * n_grid // _SEGMENTS]
    segments = [by_cell[a:b] for a, b in zip(edges, edges[1:]) if a < b]
    starts = {int(cell[r[0]]) for r in segments} - {0}    # U at cell 0 is the identity
    S = rows(D)
    S[0] = np.eye(D)
    snaps, norm = {}, None
    for j in range(n_grid):
        if j in starts:
            snaps[j] = S[0].copy()
        norm = step(S, t0 + j * dt, dt, t0 + (j + 1) * dt, periods[-1] + 1, norm)
    M = np.multiply(np.exp(-1j * drive.frame * period)[:, None], S[0], out=S[0])
    seeds = np.empty((D, len(periods)), dtype=complex)
    phi, done = psi0.data, 0
    for c, p in enumerate(periods):
        for _ in range(p - done):
            phi = M @ phi
        seeds[:, c], done = phi, p

    # each segment's lane: its snapshot's cell, its span in cells, its seed
    # columns and its width; the lanes, in order, packed into groups at most
    # D wide
    groups, width = [], D
    for recs in segments:
        lo = int(cell[recs[0]])
        used = np.flatnonzero(np.bincount(col[recs], minlength=len(periods)))
        lane = (lo, int(cell[recs[-1]]) - lo, used, min(len(used), D))
        if width + lane[3] > D:
            groups.append([])
            width = 0
        groups[-1].append(lane)
        width += lane[3]
    psi = np.empty((D, len(times)), dtype=complex)
    for group in groups:
        los, spans, useds, widths = zip(*group)
        edges = np.cumsum((0,) + widths)
        S = rows(edges[-1])
        for lo, used, a, b in zip(los, useds, edges, edges[1:]):
            snap = snaps.pop(lo) if lo else np.eye(D)
            S[0][:, a:b] = snap if len(used) > D else snap @ seeds[:, used]
        # each column's cell at the group's first step; one lane's is one float
        base = los[0] if len(group) == 1 else np.repeat(los, widths)
        norm = None
        for n in range(max(spans) + 1):
            if n:
                norm = step(S, t0 + (base + n - 1) * dt, dt, t0 + (base + n) * dt, norm=norm)
            for lo, span, used, a, b in zip(los, spans, useds, edges, edges[1:]):
                if n <= span:
                    at = by_cell[first[lo + n]:first[lo + n + 1]]
                    psi[:, at] = (S[0][:, a:b] @ seeds[:, col[at]] if len(used) > D
                                  else S[0][:, a + np.searchsorted(used, col[at])])
    # the partial steps from the cells' grid points, D records at a time
    part = np.flatnonzero(s > cell * dt)
    for i in range(0, len(part), D):
        at = part[i:i + D]
        S = rows(len(at))
        S[0] = psi[:, at]
        step(S, t0 + cell[at] * dt, s[at] - cell[at] * dt, t0 + s[at])
        psi[:, at] = S[0]
    rec = _Recorder(psi0, times, PHONON_SUM_TOL, keep_states)
    rec.record(0, np.exp(1j * np.outer(drive.frame, k * period)) * psi)
    return rec.trajectory({"method": "rk6_floquet", "dt_max": drive.dt_max, "period": period,
                           "n_steps": n_steps, "norm_drift": drift})


def _column_norms(A):
    """The column norms of a C-contiguous complex (D, m) block, or the norm of
    a (D,) vector as a 1-array: one einsum over the interleaved float view."""
    sq = np.einsum("ij,ij->j", *[A.view(float).reshape(len(A), -1)] * 2)
    return np.sqrt(sq[0::2] + sq[1::2])


def _column_pairs(key, cols, n):
    """Pair every entry p of `key` with each operator nonzero e in column key[p].

    `cols` lists the column of each nonzero, sorted; returns index arrays (p, e).
    """
    count = np.bincount(cols, minlength=n)
    start = np.cumsum(count) - count
    reps = count[key]
    p = np.repeat(np.arange(len(key)), reps)
    first = np.cumsum(reps) - reps
    e = np.arange(len(p)) - np.repeat(first - start[key], reps)
    return p, e


def _nonzeros_by_column(M):
    """(rows, cols, values) of the nonzeros of M, sorted by column."""
    cols, rows = np.nonzero(M.T)
    return rows, cols, M[rows, cols]


def _lindblad_coo(rho0, A, jumps):
    """Reachable set and generator of drho/dt = A rho + rho A^dag + sum rate C rho C^dag.

    Returns (flat, targets, sources, values): the row-major flat indices of
    the elements of rho that can ever be nonzero, sorted, and the generator as
    a COO map on them, as positions in `flat`, sorted by target.  The set is
    the closure of rho0's symmetrized support under the exact nonzero
    patterns of A rho, rho A^dag and C rho C^dag: the index pairing is
    repeated until it names no new target, so its last pass is the COO and
    nothing is dropped on a threshold.  The symmetrized start keeps the set
    closed under transposition (rho A^dag's pattern is the transpose of
    A rho's), so rho_ij and rho_ji are stepped together even from a start
    whose zero pattern is not symmetric.
    """
    d_total = A.shape[0]
    ar, ac, av = _nonzeros_by_column(A)
    channels = [(rate, *_nonzeros_by_column(C)) for rate, C in jumps]
    mask = rho0 != 0
    mask = (mask | mask.T).ravel()
    while True:
        flat = np.flatnonzero(mask)
        rows, cols = np.divmod(flat, d_total)
        # A rho: source (k, j) -> target (i, j) for A[i, k] != 0
        p, e = _column_pairs(rows, ac, d_total)
        tgt, src, val = [ar[e] * d_total + cols[p]], [p], [av[e]]
        # rho A^dag: source (i, k) -> target (i, j) for A[j, k] != 0
        p, e = _column_pairs(cols, ac, d_total)
        tgt.append(rows[p] * d_total + ar[e]); src.append(p); val.append(av[e].conj())
        for rate, cr, cc, cv in channels:
            # C rho C^dag: source (k, l) -> target (i, j) for C[i, k], C[j, l] != 0
            p, e1 = _column_pairs(rows, cc, d_total)
            q, e2 = _column_pairs(cols[p], cc, d_total)
            p, e1 = p[q], e1[q]
            tgt.append(cr[e1] * d_total + cr[e2]); src.append(p)
            val.append(rate * cv[e1] * cv[e2].conj())
        tgt = np.concatenate(tgt)
        if mask[tgt].all():
            break
        mask[tgt] = True
    tgt = np.searchsorted(flat, tgt)
    order = np.argsort(tgt, kind="stable")
    return flat, tgt[order], np.concatenate(src)[order], np.concatenate(val)[order]


def _square_pattern(rows, cols, s, limit=None):
    """The pattern of M M, for M's entries (rows, cols) sorted by row, where M
    holds the identity; None if a `limit` is given and M M has at least that
    many entries.

    Returns (p, e, first, rows, cols, row_starts): the pairs of an entry p of
    the left factor (i <- j) with an entry e of the right one (j <- k), sorted
    by their product entry (i <- k); where each product entry's pairs start;
    the product's entries, sorted by row, then column; and where each row's
    entries start, as M M too holds every row.  The pairs are formed a
    band of rows at a time, _PAIR_CELLS product cells.  Given a limit, each
    band's entries are counted on a boolean mask of its cells, and counting
    stops once the product entries so far plus M's entries in the rows not
    yet paired reach it: M holds the identity, so each row of M M holds its
    row of M, and that sum is a lower bound.  A pattern that loses is neither
    sorted nor paired in full (the QRM with qubit decay at s = 6,724 stops
    after 0.55 M of its 1.45 M pairs).
    """
    band = min(s, max(1, _PAIR_CELLS // s))
    starts = np.arange(0, s + band, band)
    bounds = np.searchsorted(rows, starts)
    parts, found = [], 0
    for r0, lo, hi in zip(starts, bounds[:-1], bounds[1:]):
        p, e = _column_pairs(cols[lo:hi], rows, s)
        key = rows[lo + p] * s + cols[e]
        if limit is not None:
            seen = np.zeros(band * s, dtype=bool)
            seen[key - r0 * s] = True
            found += np.count_nonzero(seen)
            if found + len(rows) - hi >= limit:
                return None
        parts.append((lo + p, e, key))
    p, e, key = (np.concatenate(a) for a in zip(*parts))
    del parts   # free the bands' arrays before the sort allocates its own
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    rows, cols = np.divmod(key[first], s)
    return p[order], e[order], first, rows, cols, np.flatnonzero(np.diff(rows, prepend=-1))


def _rk4_factors(tgt, src, val, s):
    """p(hL), RK4's step on the s reachable elements, L the COO map (tgt, src,
    val), as a function of h: the sparse factors (cols, row_starts, values) to
    apply in turn, each x <- reduceat(values * x[cols], row_starts).

    The two quadratic factors 1 + a hL + b h^2 L^2 (_RK4_FACTORS) share the
    pattern Q of (I + L)^2, whose I I, L I and L L pairs sum to I, L and L^2
    on it; their product P is one factor instead when its pattern, Q Q, has
    fewer entries than the two together.  _square_pattern pairs both.
    """
    # I's entries, then L's, stably sorted by row: each row's diagonal first
    order = np.argsort(np.concatenate([np.arange(s), tgt]), kind="stable")
    rows, cols = (np.concatenate([np.arange(s), a])[order] for a in (tgt, src))
    v = np.concatenate([np.zeros(s), val])[order]
    p, e, first, rows, cols, row_starts = _square_pattern(rows, cols, s)
    # v is 0 on I's entries: the pairs whose right entry is I's sum to L, the
    # rest to L^2, and I is Q's diagonal
    Id = (rows == cols).astype(float)
    L = np.add.reduceat(np.where(order[e] >= s, 0, v[p]), first)
    L2 = np.add.reduceat(v[p] * v[e], first)
    product = _square_pattern(rows, cols, s, limit=2 * len(rows))

    def factors(h):
        f1, f2 = (Id + (a * h) * L + (b * h * h) * L2 for a, b in _RK4_FACTORS)
        if product is None:
            return [(cols, row_starts, f1), (cols, row_starts, f2)]
        p, e, first, _, pcols, prow_starts = product
        return [(pcols, prow_starts, np.add.reduceat(f2[p] * f1[e], first))]

    return factors


def _min_eigenvalue(rho: np.ndarray, blocks: list) -> float:
    """Least eigenvalue of a rho that is block diagonal over `blocks` (_sectors)."""
    return float(min(np.linalg.eigvalsh(rho[b[:, :, None], b[:, None, :]]).min() for b in blocks))


def evolve_lindblad(H: Operator, channels, rho0: QuantumState, times,
                    keep_states: bool = False) -> Trajectory:
    """Fixed-step RK4 for drho/dt = -i[H,rho] + sum Gamma (C rho C^dag - {C^dag C, rho}/2).

    `channels` yields (Gamma, C) pairs once; a negative Gamma raises ValueError,
    a C that is no Operator TypeError and one off rho0's space SpaceMismatch.
    Steps only the elements of rho the generator can reach from rho0 (module
    docstring), with `_lindblad_coo`'s COO map L on them; rate-0 channels are left out.
    rho0 is a pure state or a density matrix; H must have
    hermiticity_defect(H.mat) <= 1e-12 (ValueError otherwise).  Each record
    span takes the fewest equal steps dt with (||H|| + sum Gamma ||C||^2) dt
    <= _STEP_BOUND, with ||H|| = max |eig H| and ||C||^2 the top eigenvalue
    of C^dag C.  A step is x <- p(dt L) x, RK4's polynomial, as one
    gather-multiply-reduceat per sparse factor, valued once per dt
    (_rk4_factors): the product P of the quadratic factors
    1 + a dt L + b dt^2 L^2 (_RK4_FACTORS) when P has fewer entries than the
    two together, as on the JC-family ladders (1,269 against 2 x 839 at
    s = 161, fig3 at truncation 40), else the two factors on their shared
    pattern of I, L and L^2 (the QRM with qubit decay, whose P would have
    388,303 entries against 2 x 98,949).  No s x s matrix is built.  One
    BLAS thread: 6-8 us a step at s = 161; 0.8-1.0 ms at s = 6,724 (QRM,
    qubit decay).
    Every record, rho0 at times[0] included (a span of zero steps), raises
    PositivityLoss on a non-finite entry or an eigenvalue below -1e-6 (one
    stacked eigvalsh per size of block of the set's pattern), and
    StepTooLarge at a t whose trace is more than 1e-6 from 1; trace_drift is
    the largest over the records.  Nothing is projected back.
    """
    rho0 = rho0.to_density()
    if H.space.n_max != rho0.space.n_max:
        raise SpaceMismatch("H and rho0 live on different spaces")
    jumps = []
    for rate, op in channels:
        if not rate >= 0:   # also NaN, which would drop the channel
            raise ValueError(f"collapse rate must be >= 0, got {rate}")
        if not isinstance(op, Operator):
            raise TypeError("collapse operators must be Operator instances")
        if op.space.n_max != rho0.space.n_max:
            raise SpaceMismatch("collapse operator and rho0 live on different spaces")
        if rate > 0:
            jumps.append((rate, op.mat))
    if hermiticity_defect(H.mat) > 1e-12:
        raise ValueError("evolve_lindblad requires a hermitian Hamiltonian")
    times = _check_times(times)
    D = H.space.dim_total
    # drho/dt = A rho + rho A^dag + sum rate C rho C^dag, A = -iH - sum rate C^dag C / 2
    A = -1j * H.mat
    budget = float(np.abs(np.linalg.eigvalsh(H.mat)).max())
    for rate, C in jumps:
        CdC = C.conj().T @ C
        A = A - 0.5 * rate * CdC
        budget += rate * float(np.linalg.eigvalsh(CdC)[-1])
    dt = _STEP_BOUND / budget if budget > 0 else math.inf
    flat, tgt, src, val = _lindblad_coo(rho0.data, A, jumps)
    factors = _rk4_factors(tgt, src, val, len(flat))
    # every index is live, so an index outside the set is a 1 x 1 block holding 0
    blocks = _sectors(np.bincount(flat, minlength=D * D).reshape(D, D), np.arange(D))

    rec = _Recorder(rho0, times, PHONON_SUM_TOL, keep_states)
    x = rho0.data.ravel()[flat]
    t, h = times[0], None
    n_steps = 0
    for i in range(len(times)):
        span = times[i] - t
        steps = max(1, math.ceil(span / dt)) if span > 0 else 0
        if steps and span / steps != h:
            h = span / steps
            step = factors(h)
        for _ in range(steps):
            for cols, row_starts, v in step:
                x = np.add.reduceat(v * x[cols], row_starts)
        n_steps += steps
        t = times[i]
        if not np.all(np.isfinite(x.view(float))):
            raise PositivityLoss(f"density matrix diverged before t={t}")
        rho = np.zeros((D, D), dtype=complex)
        rho.ravel()[flat] = x
        min_eig = _min_eigenvalue(rho, blocks)
        if not (min_eig >= -1e-6):
            raise PositivityLoss(f"min eigenvalue {min_eig:.3e} < -1e-6 at t={t}")
        rec.record(i, rho)
    return rec.trajectory({"method": "rk4_lindblad", "dt": dt, "n_steps": n_steps,
                           "trace_drift": rec.drift})


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

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
# vibrational-RWA cross-check
# ---------------------------------------------------------------------------

@dataclass
class RwaReport:
    """Outcome of the two-tone vs nonlinear-QRM comparison; the caller judges it."""

    max_deviation: float
    top_population: float   # largest population of level n_max in the two-tone run


def rwa_crosscheck(spec: ModelSpec, psi0: QuantumState, times) -> RwaReport:
    """Evolve psi0, whose space sets the truncation, under the full two-tone
    drive and under the nonlinear QRM it simulates over the grid `times`
    (units of 1/H), both keeping their states, and report
    max_t (1 - |<psi_full(t)|psi_NQRM(t)>|^2).

    The two trajectories are compared in a common frame: the two-tone state
    is mapped by exp(-i H0 t) with H0 the free part of the simulated model
    spec.simulated(), omega0_R/2 sigma_z + omega_R a^dag a (the diagonal of
    its H), which aligns the interaction picture of the drive with the
    Schroedinger picture of the simulated model.  H0 is diagonal, so every
    record is aligned and compared in one array step.  A spec of any other
    kind than TwoTone raises ValueError (TwoToneGenerator).
    """
    full = evolve_unitary_td(TwoToneGenerator(spec, psi0.space), psi0, times, keep_states=True)
    H_sim = build_hamiltonian(spec.simulated(), psi0.space)
    sim = evolve_unitary(H_sim, psi0, times, keep_states=True)

    aligned = np.exp(-1j * np.outer(full.times, np.real(np.diag(H_sim.mat)))) * full.states
    overlap = np.einsum("ij,ij->i", aligned.conj(), sim.states)
    return RwaReport(
        max_deviation=max(0.0, float(np.max(1.0 - np.abs(overlap) ** 2))),
        top_population=float(full.phonons[:, -1].max()),
    )
