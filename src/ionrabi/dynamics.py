"""State preparation, unitary/Lindblad propagation, and observable extraction.

Evolution strategies:
  - time-independent H: one stacked hermitian eigendecomposition per size of
    sector, the connected blocks of H's nonzero pattern that psi0 touches,
    then the record times in blocks of _BLOCK: the phases e^{-iwt} from one
    exp per eigenvalue at the block's first time and one per distinct gap,
    and a cumulative product over the block; one batched matmul per size and
    block (evolve_unitary; exact up to linear algebra);
  - time-dependent H: a drive that repeats with period T' in a rotating
    frame W(t) = e^{iKt} (the two-tone drive, TwoToneGenerator; Floquet).
    Pass 1 steps the identity over one period with fixed-step RK4 to get
    the one-period propagator M; the state at t0 + k T' + s is
    e^{iKkT'} U(t0 + s) M^k psi0, so pass 2 steps the seeds M^k psi0 (or
    the identity, if there are more seeds than D) over the same grid in
    [t0, t0 + T'), and each record takes one more vector step to its
    offset s.  This pays off when the span holds many drive periods.  The
    drive writes H(t) X into an array it is handed, so the RK4 stages reuse
    a few arrays allocated once per call, not about 20 fresh ones a step.
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
    than the pair (the JC-family ladders), and as the pair otherwise.
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
from .fock import HilbertSpace, Operator, _sectors, hermiticity_defect
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
# record times per matmul in evolve_unitary.  The fig2b eta sweep plus its
# convergence reruns (D = 242 and 282), one BLAS thread on a 2-vCPU Xeon, best
# of three (range over three runs): 0.27-0.30 s at 16, 0.19-0.20 s at 32,
# 0.15-0.16 s at 64, 0.15-0.17 s at 128, where 128 adds 0.5 MB of peak RSS
_BLOCK = 64
# p(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, the RK4 step, is the product of 1 + a z + b z^2
# over these (a, b), one per conjugate root pair (np.roots at import pages in LAPACK)
_RK4_FACTORS = ((0.08525331300540473, 0.15755219957394268),
                (0.9147466869945958, 0.26446261479905014))
# product cells (row x column) counted at a time in _product_pattern: a 1 MB mask
_PAIR_CELLS = 1 << 20


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
    """Smallest n_max with Poisson(|alpha|^2) mass beyond it below 1e-10."""
    lam = abs(alpha) ** 2
    if lam == 0:
        return 1
    p = math.exp(-lam)
    acc = p
    n = 0
    while 1.0 - acc >= 1e-10 and n < 100000:
        n += 1
        p *= lam / n
        acc += p
    return n


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
    logfact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1.0, space.dim_boson)))])
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
        self.drift = 0.0

    def record(self, i: int, states: np.ndarray):
        """Record from record i on: against a pure reference, a block of pure
        states, one column per record i, i+1, ...; against a density
        reference, one density matrix for record i."""
        d = self.d
        if self.ref.is_pure:
            prob = np.abs(states) ** 2
            fid = np.abs(self.ref.data.conj() @ states) ** 2
        else:
            prob = np.real(np.diag(states))[:, None]
            fid = _fidelity_raw(self.ref, states)
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


def _fidelity_raw(ref: QuantumState, state: np.ndarray) -> float:
    if ref.is_pure:
        if state.ndim == 1:
            return float(abs(np.vdot(ref.data, state)) ** 2)
        return float(np.real(np.vdot(ref.data, state @ ref.data)))
    # mixed reference: overlap Tr(rho_ref rho)
    if state.ndim == 1:
        return float(np.real(np.vdot(state, ref.data @ state)))
    return float(np.real(np.vdot(ref.data.conj().T, state)))


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
    V (e^{-i w t^T} * V^dag psi0) per size, scattered into a zeroed D x _BLOCK
    block of states.  The phases take one exp per eigenvalue at the block's
    first time (times V^dag psi0) and one per distinct gap between its times,
    and a cumulative product along the block, so no phase is more than
    _BLOCK - 1 rounded products from a direct exp; a linspace grid has a few
    distinct gaps a block, a grid whose gaps all differ one exp per time.
    A block holds at most three complex D x _BLOCK arrays (248 kB each at
    D = 242) besides the kept states.  psi0 must be pure and H have
    hermiticity_defect(H.mat) <= 1e-12 (ValueError otherwise).  The
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
    groups = []
    for idx in _sectors(H.mat, np.flatnonzero(psi0.data)):
        w, V = np.linalg.eigh(H.mat[idx[:, :, None], idx[:, None, :]])
        coeff = V.conj().swapaxes(1, 2) @ psi0.data[idx][:, :, None]
        groups.append((idx.ravel(), -1j * w[:, :, None], V, coeff))
    rec = _Recorder(psi0, times, 2 * NORM_TOL, keep_states)
    for i in range(0, len(times), _BLOCK):
        t = times[i:i + _BLOCK]
        # one gap per time, the first 0: its slot takes the direct exp at t[0]
        gaps = np.diff(t, prepend=t[0])
        # the distinct gaps, and each gap's index among them (stable: numpy's
        # default sort pages in its SIMD kernels, which peak RSS counts)
        step = np.sort(gaps, kind="stable")
        step = step[np.diff(step, prepend=-np.inf) > 0]
        which = np.searchsorted(step, gaps)
        psi = np.zeros((len(psi0.data), len(t)), dtype=complex)
        for rows, minus_iw, V, coeff in groups:
            phase = np.exp(minus_iw * step)[:, :, which]
            phase[:, :, :1] = np.exp(minus_iw * t[0]) * coeff
            np.cumprod(phase, axis=2, out=phase)
            psi[rows] = (V @ phase).reshape(len(rows), len(t))
        rec.record(i, psi)
    return rec.trajectory({"method": "eigh", "n_times": len(times)})


def evolve_unitary_td(drive, psi0: QuantumState, times, keep_states: bool = False) -> Trajectory:
    """psi(t) for i d psi/dt = H(t) psi, with H(t) periodic in a rotating frame.

    `drive` supplies apply(t, X, out), which writes H(t) @ X into `out` and
    returns it, for X of shape (D,) or (D, m) and `out` a C-contiguous array
    of X's shape that does not overlap X; the RK4 step bound dt_max; and a
    diagonal `frame` K and `period` T' such that
    e^{-iKt} H(t) e^{iKt} + K repeats with period T' (TwoToneGenerator; a
    constant H has K = 0 and any T').  With t0 = times[0], U(t) the
    propagator from t0 and M = e^{-iKT'} U(t0 + T'), every record time
    t = t0 + k T' + s with 0 <= s < T' has

        psi(t) = e^{iKkT'} U(t0 + s) M^k psi0.

    Both passes step the grid t0 + j dt, dt = T' / ceil(T' / dt_max), with
    classical RK4.  Pass 1 steps the D x D identity over one period to get
    M; the M^k psi0 are matvecs, one seed per period that holds a record.
    Pass 2 steps the block of seeds over the grid, dropping each seed after
    its last record, or the identity when there are more seeds than D, so
    it is never wider than D; each record is read off at the grid point
    below its offset and takes one more vector step of at most dt.  The
    steps write into four arrays allocated once: the state and the next
    state, taken in turn, the slope K and the stage argument T, as
    C-contiguous views at the block's width; the record vector steps have
    four D-long arrays of their own.  States are bit-identical to a step
    that allocates its stages (np.multiply(K, c, out=T); T += X gives
    X + c*K).

    Cost: each pass is ceil(T'/dt_max) steps of a block at most D wide, plus
    one vector step per record, where stepping the span directly takes
    ceil(T'/dt_max) vector steps for every period in it.  So the route pays
    off when the span holds many more drive periods than a D-wide step costs
    vector steps: about 4 at D = 82 and 15 at D = 152 for TwoToneGenerator
    at one BLAS thread on a 2-vCPU Xeon (fig6's drive has 238 periods per
    cycle).  A span of a few periods runs slower than stepping it directly.

    Nothing is renormalized: the per-step change of the largest column norm
    is summed, pass 1's once for every period used, and a sum > 1e-6 raises
    StepTooLarge, as does a record whose ||psi||^2 is more than 1e-6 from 1
    (the recorder's check, on all records in time order, so it names the
    earliest).
    """
    if not psi0.is_pure:
        raise ValueError("evolve_unitary_td requires a pure initial state")
    times = _check_times(times)
    t0, period = times[0], drive.period
    k = np.floor((times - t0) / period).astype(int)
    s = np.maximum(times - t0 - k * period, 0.0)
    n_grid = math.ceil(period / drive.dt_max)
    dt = period / n_grid
    cell = np.minimum((s / dt).astype(int), n_grid - 1)
    n_steps = 0
    drift = 0.0

    def step(X, Y, K, T, t, h, weight=1.0, norm=None):
        """Y <- the RK4 step of X from t to t + h, with K and T (the stage
        argument) of X's shape; returns Y's column norms, given X's as `norm`
        when the step continues from the last one."""
        nonlocal n_steps, drift
        drive.apply(t, X, K)
        np.multiply(K, -1j * h / 6.0, out=Y)
        Y += X
        for a, b, tk in ((-0.5j * h, -1j * h / 3.0, t + h / 2),
                         (-0.5j * h, -1j * h / 3.0, t + h / 2), (-1j * h, -1j * h / 6.0, t + h)):
            np.multiply(K, a, out=T)
            T += X
            drive.apply(tk, T, K)
            np.multiply(K, b, out=T)
            Y += T
        norm_y = _column_norms(Y)
        grown = norm_y - (_column_norms(X) if norm is None else norm)
        drift += weight * float(np.max(np.abs(grown)))
        n_steps += 1
        if not (drift <= 1e-6):
            raise StepTooLarge(
                f"accumulated norm drift {drift:.3e} > 1e-6 at t={t + h} "
                f"(dt={h:.3e}); reduce dt_max"
            )
        return norm_y

    D = psi0.data.shape[0]
    order = np.argsort(s, kind="stable")
    # one seed M^k psi0 per period k that holds a record, in columns ordered by
    # the sweep position of the seed's last record, latest first, so the seeds
    # pass 2 still needs are always the leading `needed[r]` columns.  Only
    # stable sorts: numpy's default sort pages in about 0.5 MB of SIMD code.
    new_period = np.diff(k, prepend=-1) > 0    # times, so k, are sorted
    periods = k[new_period]
    col = np.cumsum(new_period) - 1
    final = np.zeros(len(periods), dtype=int)
    np.maximum.at(final, col[order], np.arange(len(times)))
    by_final = np.argsort(-final, kind="stable")
    slot = np.argsort(by_final, kind="stable")
    col = slot[col]
    needed = np.searchsorted(-final[by_final], -np.arange(len(times)), side="right")
    wide = len(periods) > D
    # rows for X, Y, K and T at the widest block, viewed at the width in use;
    # the record vector steps take vec's rows, so they never write into the block
    block = np.empty((4, D * (D if wide or periods[-1] > 0 else len(periods))), dtype=complex)
    vec = np.empty((4, D), dtype=complex)
    if periods[-1] > 0:
        X, Y, K, T = (b[:D * D].reshape(D, D) for b in block)
        X[...] = np.eye(D)
        norm = None
        for j in range(n_grid):
            norm = step(X, Y, K, T, t0 + j * dt, dt, periods[-1], norm)
            X, Y = Y, X
        M = np.exp(-1j * drive.frame * period)[:, None] * X
    seeds = np.empty((D, len(periods)), dtype=complex)
    phi, done = psi0.data, 0
    for c, p in enumerate(periods):
        for _ in range(p - done):
            phi = M @ phi
        seeds[:, slot[c]], done = phi, p

    m = D if wide else len(periods)
    X, Y, K, T = (b[:D * m].reshape(D, m) for b in block)
    X[...] = np.eye(D) if wide else seeds
    norm, j = None, 0
    psi = np.empty((D, len(times)), dtype=complex)
    for r, i in enumerate(order):
        if not wide and m > needed[r]:   # seeds drop: copy the rest to Y's row
            old, m, norm = X, needed[r], None
            X, Y, K, T = (a.ravel()[:D * m].reshape(D, m) for a in (Y, X, K, T))
            X[...] = old[:, :m]
        while j < cell[i]:
            norm = step(X, Y, K, T, t0 + j * dt, dt, norm=norm)
            X, Y = Y, X
            j += 1
        psi[:, i] = X @ seeds[:, col[i]] if wide else X[:, col[i]]
        if s[i] > j * dt:
            vec[0] = psi[:, i]
            step(*vec, t0 + j * dt, s[i] - j * dt)
            psi[:, i] = vec[1]
    rec = _Recorder(psi0, times, PHONON_SUM_TOL, keep_states)
    rec.record(0, np.exp(1j * np.outer(drive.frame, k * period)) * psi)
    return rec.trajectory({"method": "rk4_floquet", "dt_max": drive.dt_max, "period": period,
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


def _quadratic_pattern(tgt, src, val, s):
    """I, L and L^2 on one (row, column) pattern, for L the COO map (tgt, src, val).

    Returns (rows, cols, row_starts, Id, L, L2): the pattern's entries sorted
    by row, then column, where each row's entries start, and each matrix's
    values on it.  It holds every diagonal, so every row.
    """
    # L^2's terms pair entry p (i <- j) with each entry e (j <- k)
    p, e = _column_pairs(src, tgt, s)
    key = (np.concatenate([np.arange(s), tgt, tgt[p]]) * s
           + np.concatenate([np.arange(s), src, src[e]]))
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    rows, cols = np.divmod(key[first], s)
    raw = np.concatenate([np.ones(s), val, val[p] * val[e]])[order]
    power = np.repeat([0, 1, 2], [s, len(val), len(p)])[order]
    Id, L, L2 = (np.add.reduceat(np.where(power == k, raw, 0), first) for k in range(3))
    return rows, cols, np.flatnonzero(np.diff(rows, prepend=-1)), Id, L, L2


def _product_pattern(rows, cols, s):
    """The pattern of Q Q, for Q's entries (rows, cols) sorted by row, if it
    has fewer than 2 nnz(Q) entries; None if not.

    Returns (p, e, first, cols, row_starts): the pairs of an entry p of the
    left factor (i <- j) with an entry e of the right one (j <- k), sorted by
    their product entry (i <- k); where each product entry's pairs start; and
    the product's columns and row starts.  The pairs are formed a band of
    rows at a time, _PAIR_CELLS product cells, and each band's entries are
    counted on a boolean mask of its cells.  Counting stops once the product
    entries so far plus Q's entries in the rows not yet paired reach
    2 nnz(Q): Q holds the identity, so each row of Q Q holds its row of Q,
    and that sum is a lower bound.  A pattern that loses is neither sorted
    nor paired in full (the QRM with qubit decay at s = 6,724 stops after
    0.55 M of its 1.45 M pairs).
    """
    n = len(rows)
    band = min(s, max(1, _PAIR_CELLS // s))
    starts = np.arange(0, s + band, band)
    bounds = np.searchsorted(rows, starts)
    parts, found = [], 0
    for r0, lo, hi in zip(starts, bounds[:-1], bounds[1:]):
        p, e = _column_pairs(cols[lo:hi], rows, s)
        key = rows[lo + p] * s + cols[e]
        seen = np.zeros(band * s, dtype=bool)
        seen[key - r0 * s] = True
        found += np.count_nonzero(seen)
        if found + n - hi >= 2 * n:
            return None
        parts.append((lo + p, e, key))
    p, e, key = (np.concatenate(a) for a in zip(*parts))
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    prows, pcols = np.divmod(key[first], s)
    return p[order], e[order], first, pcols, np.flatnonzero(np.diff(prows, prepend=-1))


def _rk4_factors(tgt, src, val, s):
    """p(hL), RK4's step on the s reachable elements, L the COO map (tgt, src,
    val), as a function of h: the sparse factors (cols, row_starts, values) to
    apply in turn, each x <- reduceat(values * x[cols], row_starts).

    The two quadratic factors 1 + a hL + b h^2 L^2 (_RK4_FACTORS) share the
    pattern Q of I, L and L^2; their product P is one factor instead when its
    pattern, Q Q, has fewer entries than the two together (_product_pattern).
    """
    rows, cols, row_starts, Id, L, L2 = _quadratic_pattern(tgt, src, val, s)
    product = _product_pattern(rows, cols, s)

    def factors(h):
        f1, f2 = (Id + (a * h) * L + (b * h * h) * L2 for a, b in _RK4_FACTORS)
        if product is None:
            return [(cols, row_starts, f1), (cols, row_starts, f2)]
        p, e, first, pcols, prow_starts = product
        return [(pcols, prow_starts, np.add.reduceat(f2[p] * f1[e], first))]

    return factors


def _min_eigenvalue(rho: np.ndarray, blocks: list) -> float:
    """Least eigenvalue of a rho that is block diagonal over `blocks` (_sectors)."""
    return float(min(np.linalg.eigvalsh(rho[b[:, :, None], b[:, None, :]]).min() for b in blocks))


def evolve_lindblad(H: Operator, channels, rho0: QuantumState, times,
                    dt_max: float | None = None, keep_states: bool = False) -> Trajectory:
    """Fixed-step RK4 for drho/dt = -i[H,rho] + sum Gamma (C rho C^dag - {C^dag C, rho}/2).

    `channels` yields (Gamma, C) pairs once; a negative Gamma raises ValueError,
    a C that is no Operator TypeError and one off rho0's space SpaceMismatch.
    Steps only the elements of rho the generator can reach from rho0 (module
    docstring), with `_lindblad_coo`'s COO map L on them; rate-0 channels are left out.
    rho0 is a pure state or a density matrix; H must have
    hermiticity_defect(H.mat) <= 1e-12 (ValueError otherwise).  The default
    step obeys (||H|| + sum Gamma ||C||^2) dt <= 0.05, with ||H|| =
    max |eig H| and ||C||^2 the top eigenvalue of C^dag C.  A step is
    x <- p(dt L) x, RK4's polynomial, as one gather-multiply-reduceat per
    sparse factor, valued once per dt (_rk4_factors): the product P of the
    quadratic factors 1 + a dt L + b dt^2 L^2 (_RK4_FACTORS) when P has
    fewer entries than the two together, as on the JC-family ladders (1,269
    against 2 x 839 at s = 161, fig3 at truncation 40), else the two factors
    on their shared pattern of I, L and L^2 (the QRM with qubit decay, whose
    P would have 388,303 entries against 2 x 98,949).  No s x s matrix is
    built.  One BLAS thread: 6-8 us a step at s = 161; 0.8-1.0 ms at
    s = 6,724 (QRM, qubit decay).
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
    bound = 0.05 / budget if budget > 0 else math.inf
    # explicit dt_max is trusted (and monitored); the default obeys the bound
    dt_eff = bound if dt_max is None else dt_max
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
        steps = max(1, math.ceil(span / dt_eff)) if span > 0 else 0
        if steps and span / steps != h:
            h = span / steps
            step = factors(h)
        for _ in range(steps):
            for cols, row_starts, v in step:
                x = np.add.reduceat(v * x[cols], row_starts)
        n_steps += steps
        t = times[i]
        if not np.all(np.isfinite(x.view(float))):
            raise PositivityLoss(f"density matrix diverged before t={t}; reduce dt_max")
        rho = np.zeros((D, D), dtype=complex)
        rho.ravel()[flat] = x
        min_eig = _min_eigenvalue(rho, blocks)
        if not (min_eig >= -1e-6):
            raise PositivityLoss(f"min eigenvalue {min_eig:.3e} < -1e-6 at t={t}")
        rec.record(i, rho)
    return rec.trajectory({"method": "rk4_lindblad", "dt": dt_eff, "n_steps": n_steps,
                           "trace_drift": rec.drift})


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

def expectation(op: Operator, state: QuantumState) -> float:
    """<O> for a hermitian operator; rejects a residual imaginary part > 1e-10."""
    if op.space.n_max != state.space.n_max:
        raise SpaceMismatch("operator and state live on different spaces")
    if state.is_pure:
        val = complex(np.vdot(state.data, op.mat @ state.data))
    else:
        val = complex(np.trace(op.mat @ state.data))
    if abs(val.imag) > 1e-10 * max(1.0, abs(val)):
        raise ValueError(f"expectation has imaginary part {val.imag:.3e}; operator not hermitian?")
    return val.real


def overlap_fidelity(ref: QuantumState, state: QuantumState) -> float:
    """|<psi0|psi>|^2 for pure states, <psi0|rho|psi0> against a density.

    For two densities this is the overlap Tr(rho_ref rho) (not Uhlmann).
    """
    if ref.space.n_max != state.space.n_max:
        raise SpaceMismatch("states live on different spaces")
    return _fidelity_raw(ref, state.data)


def phonon_distribution(state: QuantumState) -> np.ndarray:
    """P_n summed over the two qubit sectors."""
    d = state.space.dim_boson
    if state.is_pure:
        return np.abs(state.data[:d]) ** 2 + np.abs(state.data[d:]) ** 2
    diag = np.real(np.diag(state.data))
    return diag[:d] + diag[d:]


# ---------------------------------------------------------------------------
# vibrational-RWA cross-check
# ---------------------------------------------------------------------------

@dataclass
class RwaReport:
    """Outcome of the two-tone vs nonlinear-QRM comparison; the caller judges it."""

    max_deviation: float
    top_population: float   # largest population of level n_max in the two-tone run


def rwa_crosscheck(spec: ModelSpec, psi0: QuantumState, T: float,
                   n_records: int = 61) -> RwaReport:
    """Evolve psi0, whose space sets the truncation, under the full two-tone
    drive and under the nonlinear QRM it simulates over [0, T] (units of 1/H,
    n_records times), both keeping their states, and report
    max_t (1 - |<psi_full(t)|psi_NQRM(t)>|^2).

    The two trajectories are compared in a common frame: the two-tone state
    is mapped by exp(-i H0 t) with H0 the free part of the simulated model
    spec.simulated(), omega0_R/2 sigma_z + omega_R a^dag a (the diagonal of
    its H), which aligns the interaction picture of the drive with the
    Schroedinger picture of the simulated model.  H0 is diagonal, so every
    record is aligned and compared in one array step.  A spec of any other
    kind than TwoTone raises ValueError (TwoToneGenerator).
    """
    times = np.linspace(0.0, T, n_records)

    full = evolve_unitary_td(TwoToneGenerator(spec, psi0.space), psi0, times, keep_states=True)
    H_sim = build_hamiltonian(spec.simulated(), psi0.space)
    sim = evolve_unitary(H_sim, psi0, times, keep_states=True)

    aligned = np.exp(-1j * np.outer(times, np.real(np.diag(H_sim.mat)))) * full.states
    overlap = np.einsum("ij,ij->i", aligned.conj(), sim.states)
    return RwaReport(
        max_deviation=max(0.0, float(np.max(1.0 - np.abs(overlap) ** 2))),
        top_population=float(full.phonons[:, -1].max()),
    )
