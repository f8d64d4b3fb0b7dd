"""State preparation, unitary/Lindblad propagation, and observable extraction.

Evolution strategies:
  - time-independent H: one hermitian eigendecomposition, then pure phase
    application per requested time (exact up to linear algebra);
  - time-dependent H: a drive that repeats with period T' in a rotating
    frame W(t) = e^{iKt} (the two-tone drive, TwoToneGenerator; Floquet).
    Pass 1 steps the identity over one period with fixed-step RK4 to get
    the one-period propagator M; the state at t0 + k T' + s is
    e^{iKkT'} U(t0 + s) M^k psi0, so pass 2 steps the seeds M^k psi0 (or
    the identity, if there are more seeds than D) over the same grid in
    [t0, t0 + T'), and each record takes one more vector step to its
    offset s.  This pays off when the span holds many drive periods.
    Nothing is renormalized; the summed norm drift and every record's norm
    are checked;
  - Lindblad: fixed-step classical RK4 on the elements of rho the generator
    can reach from rho0.  The set is the closure of rho0's support under the
    exact nonzero patterns of H rho, rho H, C rho C^dag, C^dag C rho and
    rho C^dag C; no element is dropped on a threshold, and every element
    outside it is exactly 0 for all time (e.g. 4 n_max + 1 of the
    (2 n_max + 2)^2 elements for the anti-JC with qubit decay from a thermal
    |down>, the weak U(1) symmetry of that generator).  The generator is a
    sparse COO map on that set, built once per call.
Fixed steps keep golden outputs deterministic and reproducible.

Trace/norm/positivity are monitored, not silently repaired: drifts beyond
tolerance raise StepTooLarge / PositivityLoss so step-size bugs surface.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PositivityLoss, SpaceMismatch, StepTooLarge, TruncationTooSmall
from .fock import HilbertSpace, Operator, hermiticity_defect
from .models import ModelSpec, TwoToneGenerator, build_hamiltonian, default_n_max

__all__ = [
    "QuantumState",
    "LindbladSpec",
    "Trajectory",
    "fock_state",
    "coherent_state",
    "thermal_state",
    "coherent_required_n_max",
    "thermal_required_n_max",
    "evolve_unitary",
    "evolve_unitary_td",
    "evolve_lindblad",
    "expectation",
    "overlap_fidelity",
    "phonon_distribution",
    "rwa_crosscheck",
    "RwaReport",
]

_QUBIT_INDEX = {"down": 0, "g": 0, "up": 1, "e": 1}

NORM_TOL = 1e-10
TRACE_TOL = 1e-8
PHONON_SUM_TOL = 1e-6


@dataclass
class QuantumState:
    """Pure state vector or density matrix on a HilbertSpace."""

    space: HilbertSpace
    data: np.ndarray
    kind: str  # 'pure' | 'density'

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        dim = self.space.dim_total
        if self.kind == "pure":
            if self.data.shape != (dim,):
                raise ValueError(f"pure state must have shape ({dim},)")
            if abs(np.linalg.norm(self.data) ** 2 - 1.0) > NORM_TOL:
                raise ValueError("pure state is not normalized")
        elif self.kind == "density":
            if self.data.shape != (dim, dim):
                raise ValueError(f"density matrix must have shape ({dim},{dim})")
            if abs(np.trace(self.data).real - 1.0) > TRACE_TOL:
                raise ValueError("density matrix trace differs from 1")
            if hermiticity_defect(self.data) > 1e-10:
                raise ValueError("density matrix is not hermitian")
        else:
            raise ValueError(f"kind must be 'pure' or 'density', got {self.kind!r}")

    @property
    def is_pure(self) -> bool:
        return self.kind == "pure"

    def to_density(self) -> "QuantumState":
        if self.kind == "density":
            return self
        return QuantumState(self.space, np.outer(self.data, self.data.conj()), "density")

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of the density matrix (positivity check, on demand)."""
        rho = self.to_density().data
        return float(np.linalg.eigvalsh(rho)[0])


def _qubit_index(qubit) -> int:
    if isinstance(qubit, str):
        try:
            return _QUBIT_INDEX[qubit.lower()]
        except KeyError:
            raise ValueError(f"qubit must be 'down' or 'up', got {qubit!r}") from None
    if qubit in (0, 1):
        return int(qubit)
    raise ValueError(f"qubit must be 'down'/'up' or 0/1, got {qubit!r}")


def fock_state(space: HilbertSpace, n: int, qubit="down") -> QuantumState:
    """|qubit, n> basis state."""
    if not 0 <= n <= space.n_max:
        raise ValueError(f"Fock index {n} exceeds truncation n_max={space.n_max}")
    psi = np.zeros(space.dim_total, dtype=complex)
    psi[space.index(_qubit_index(qubit), n)] = 1.0
    return QuantumState(space, psi, "pure")


def coherent_required_n_max(alpha: complex, tail: float = 1e-10) -> int:
    """Smallest n_max with Poisson(|alpha|^2) mass beyond it below `tail`."""
    lam = abs(alpha) ** 2
    if lam == 0:
        return 1
    p = math.exp(-lam)
    acc = p
    n = 0
    while 1.0 - acc >= tail and n < 100000:
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

    Rejects truncations holding less than 1 - 1e-10 of the Poisson weight.
    """
    lam = abs(alpha) ** 2
    n = np.arange(space.dim_boson)
    logfact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1.0, space.dim_boson)))])
    if lam > 0:
        logw = -lam / 2.0 + n * math.log(abs(alpha)) - logfact / 2.0
        amps = np.exp(logw) * np.exp(1j * np.angle(alpha) * n)
    else:
        amps = (n == 0).astype(complex)
    held = float(np.sum(np.abs(amps) ** 2))
    if 1.0 - held > 1e-10:
        raise TruncationTooSmall(
            f"coherent state with |alpha|^2={lam:.4g} keeps tail mass "
            f"{1.0 - held:.3e} > 1e-10 beyond n_max={space.n_max}",
            required_n_max=coherent_required_n_max(alpha),
        )
    amps = amps / math.sqrt(held)
    psi = np.zeros(space.dim_total, dtype=complex)
    q = _qubit_index(qubit)
    psi[q * space.dim_boson:(q + 1) * space.dim_boson] = amps
    return QuantumState(space, psi, "pure")


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
    return QuantumState(space, rho, "density")


@dataclass
class LindbladSpec:
    """Collapse channels: list of (rate Gamma >= 0, collapse Operator)."""

    terms: list

    def __post_init__(self):
        for rate, op in self.terms:
            if rate < 0:
                raise ValueError(f"collapse rate must be >= 0, got {rate}")
            if not isinstance(op, Operator):
                raise TypeError("collapse operators must be Operator instances")


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Time grid plus per-time observables.

    times are in the raw units of 1/H; `cycles` converts to the paper's
    2*pi/g axis when g is known.
    """

    times: np.ndarray
    sigma_z: np.ndarray
    fidelity: np.ndarray
    n_mean: np.ndarray
    phonons: np.ndarray                      # (n_times, dim_boson)
    g: float | None = None
    snapshots: dict = field(default_factory=dict)   # time index -> raw state copy
    meta: dict = field(default_factory=dict)

    @property
    def cycles(self) -> np.ndarray:
        if self.g is None:
            return self.times
        return self.times * self.g / (2.0 * math.pi)


class _Recorder:
    def __init__(self, space: HilbertSpace, ref: QuantumState, n_times: int,
                 snapshot_indices=None):
        self.d = space.dim_boson
        self.ref = ref
        self.sigma_z = np.empty(n_times)
        self.fidelity = np.empty(n_times)
        self.n_mean = np.empty(n_times)
        self.phonons = np.empty((n_times, self.d))
        self.snapshots = {}
        self._snap = set(snapshot_indices or ())
        self._nb = np.arange(self.d)

    def record(self, i: int, state: np.ndarray):
        d = self.d
        if state.ndim == 1:
            pg = np.abs(state[:d]) ** 2
            pe = np.abs(state[d:]) ** 2
            fid = _fidelity_raw(self.ref, state)
        else:
            diag = np.real(np.diag(state))
            pg, pe = diag[:d], diag[d:]
            fid = _fidelity_raw(self.ref, state)
        pn = pg + pe
        total = pn.sum()
        # inverted comparison so NaN (diverged integration) fails too
        if not (abs(total - 1.0) <= PHONON_SUM_TOL):
            raise StepTooLarge(f"phonon distribution sum drifted to {total} at record {i}")
        self.sigma_z[i] = pe.sum() - pg.sum()
        self.n_mean[i] = float(self._nb @ pn)
        self.phonons[i] = pn
        self.fidelity[i] = fid
        if i in self._snap:
            self.snapshots[i] = state.copy()


def _fidelity_raw(ref: QuantumState, state: np.ndarray) -> float:
    if ref.is_pure:
        if state.ndim == 1:
            return float(abs(np.vdot(ref.data, state)) ** 2)
        return float(np.real(np.vdot(ref.data, state @ ref.data)))
    # mixed reference: overlap Tr(rho_ref rho)
    if state.ndim == 1:
        return float(np.real(np.vdot(state, ref.data @ state)))
    return float(np.real(np.trace(ref.data @ state)))


def _check_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 1:
        raise ValueError("times must be a non-empty 1-d grid")
    if np.any(np.diff(times) < 0):
        raise ValueError("times must be monotone non-decreasing")
    return times


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def evolve_unitary(H: Operator, psi0: QuantumState, times, g: float | None = None,
                   snapshot_indices=None) -> Trajectory:
    """psi(t) = exp(-iHt) psi0 via one hermitian eigendecomposition."""
    if not psi0.is_pure:
        raise ValueError("evolve_unitary requires a pure initial state")
    if H.space.n_max != psi0.space.n_max:
        raise SpaceMismatch("H and psi0 live on different spaces")
    if not H.hermitian and hermiticity_defect(H.mat) > 1e-12:
        raise ValueError("evolve_unitary requires a hermitian Hamiltonian")
    times = _check_times(times)
    w, V = np.linalg.eigh(H.mat)
    coeff = V.conj().T @ psi0.data
    rec = _Recorder(H.space, psi0, len(times), snapshot_indices)
    for i, t in enumerate(times):
        psi = V @ (np.exp(-1j * w * t) * coeff)
        norm = np.linalg.norm(psi)
        if abs(norm - 1.0) > NORM_TOL:
            raise StepTooLarge(f"norm drifted to {norm} at t={t}")
        rec.record(i, psi)
    return Trajectory(times, rec.sigma_z, rec.fidelity, rec.n_mean, rec.phonons,
                      g=g, snapshots=rec.snapshots,
                      meta={"method": "eigh", "n_times": len(times)})


def evolve_unitary_td(drive, psi0: QuantumState, times, g: float | None = None,
                      snapshot_indices=None) -> Trajectory:
    """psi(t) for i d psi/dt = H(t) psi, with H(t) periodic in a rotating frame.

    `drive` supplies apply(t, X) = H(t) @ X for X of shape (D,) or (D, m), the
    RK4 step bound dt_max, and a diagonal `frame` K and `period` T' such that
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
    below its offset and takes one more vector step of at most dt.

    Cost: each pass is ceil(T'/dt_max) steps of a block at most D wide, plus
    one vector step per record, where stepping the span directly takes
    ceil(T'/dt_max) vector steps for every period in it.  So the route pays
    off when the span holds many more drive periods than a D-wide step costs
    vector steps: about 6 at D = 82 and 32 at D = 152 for TwoToneGenerator
    at one BLAS thread (fig6's drive has 238 periods per cycle).  A span of a
    few periods runs slower than stepping it directly.

    Nothing is renormalized: the per-step change of the largest column norm
    is summed, pass 1's once for every period used, and a sum > 1e-6 raises
    StepTooLarge, as does a record whose ||psi||^2 is more than 1e-6 from 1
    (the recorder's check).
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

    def step(X, t, h, weight=1.0):
        nonlocal n_steps, drift
        k1 = drive.apply(t, X)
        k2 = drive.apply(t + h / 2, X + (-0.5j * h) * k1)
        k3 = drive.apply(t + h / 2, X + (-0.5j * h) * k2)
        k4 = drive.apply(t + h, X + (-1j * h) * k3)
        Y = X + (-1j * h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        grown = np.linalg.norm(Y, axis=0) - np.linalg.norm(X, axis=0)
        drift += weight * float(np.max(np.abs(grown)))
        n_steps += 1
        if not (drift <= 1e-6):
            raise StepTooLarge(
                f"accumulated norm drift {drift:.3e} > 1e-6 at t={t + h} "
                f"(dt={h:.3e}); reduce dt_max"
            )
        return Y

    D = psi0.data.shape[0]
    order = np.argsort(s, kind="stable")
    # one seed M^k psi0 per period k that holds a record, in columns ordered by
    # the sweep position of the seed's last record, latest first, so the seeds
    # pass 2 still needs are always the leading `needed[r]` columns.  Only
    # stable sorts: numpy's default sort pages in about 0.5 MB of SIMD code.
    new_period = np.diff(k, prepend=-1) > 0    # times, so k, are sorted
    periods = k[new_period]
    col = np.cumsum(new_period) - 1
    last = np.zeros(len(periods), dtype=int)
    np.maximum.at(last, col[order], np.arange(len(times)))
    by_last = np.argsort(-last, kind="stable")
    slot = np.argsort(by_last, kind="stable")
    col = slot[col]
    needed = np.searchsorted(-last[by_last], -np.arange(len(times)), side="right")
    if periods[-1] > 0:
        U = np.eye(D, dtype=complex)
        for j in range(n_grid):
            U = step(U, t0 + j * dt, dt, weight=periods[-1])
        M = np.exp(-1j * drive.frame * period)[:, None] * U
    seeds = np.empty((D, len(periods)), dtype=complex)
    phi, done = psi0.data, 0
    for c, p in enumerate(periods):
        for _ in range(p - done):
            phi = M @ phi
        seeds[:, slot[c]], done = phi, p

    wide = len(periods) > D
    X = np.eye(D, dtype=complex) if wide else seeds
    j = 0
    rec = _Recorder(psi0.space, psi0, len(times), snapshot_indices)
    for r, i in enumerate(order):
        if not wide:
            X = X[:, :needed[r]]
        while j < cell[i]:
            X = step(X, t0 + j * dt, dt)
            j += 1
        psi = X @ seeds[:, col[i]] if wide else X[:, col[i]]
        if s[i] > j * dt:
            psi = step(psi, t0 + j * dt, s[i] - j * dt)
        rec.record(i, np.exp(1j * drive.frame * (k[i] * period)) * psi)
    return Trajectory(times, rec.sigma_z, rec.fidelity, rec.n_mean, rec.phonons,
                      g=g, snapshots=rec.snapshots,
                      meta={"method": "rk4_floquet", "dt_max": drive.dt_max, "period": period,
                            "n_steps": n_steps, "norm_drift": drift})


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


def _reachable(rho0, A, jumps) -> np.ndarray:
    """Row-major flat indices of the elements of rho that can ever be nonzero.

    Closure of the support of rho0 under the exact nonzero patterns of
    A rho, rho A^dag and C rho C^dag, by boolean matmuls; nothing is dropped
    on a threshold.  The support is symmetrized first, so the set is closed
    under transposition (rho A^dag's pattern is the transpose of A rho's)
    and the per-step hermitization stays on it.
    """
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


def _lindblad_coo(A, jumps, flat, d_total):
    """COO (targets, sources, values) of drho/dt = A rho + rho A^dag + sum rate C rho C^dag
    on the reachable elements `flat`, as positions in `flat`, sorted by target.

    Only reachable sources are paired, and by closure every target is reachable.
    """
    rows, cols = np.divmod(flat, d_total)
    ar, ac, av = _nonzeros_by_column(A)
    # A rho: source (k, j) -> target (i, j) for A[i, k] != 0
    p, e = _column_pairs(rows, ac, d_total)
    tgt, src, val = [ar[e] * d_total + cols[p]], [p], [av[e]]
    # rho A^dag: source (i, k) -> target (i, j) for A[j, k] != 0
    p, e = _column_pairs(cols, ac, d_total)
    tgt.append(rows[p] * d_total + ar[e]); src.append(p); val.append(av[e].conj())
    for rate, C in jumps:
        cr, cc, cv = _nonzeros_by_column(C)
        # C rho C^dag: source (k, l) -> target (i, j) for C[i, k], C[j, l] != 0
        p, e1 = _column_pairs(rows, cc, d_total)
        q, e2 = _column_pairs(cols[p], cc, d_total)
        p, e1 = p[q], e1[q]
        tgt.append(cr[e1] * d_total + cr[e2]); src.append(p)
        val.append(rate * cv[e1] * cv[e2].conj())
    tgt = np.searchsorted(flat, np.concatenate(tgt))
    order = np.argsort(tgt, kind="stable")
    return tgt[order], np.concatenate(src)[order], np.concatenate(val)[order]


def evolve_lindblad(H: Operator, lindblad: LindbladSpec, rho0: QuantumState, times,
                    dt_max: float | None = None, g: float | None = None,
                    snapshot_indices=None) -> Trajectory:
    """Fixed-step RK4 for drho/dt = -i[H,rho] + sum Gamma (C rho C^dag - {C^dag C, rho}/2).

    Only the elements of rho that the generator can reach from rho0 are
    stepped: the closure of rho0's support under the exact nonzero patterns
    of H, C and C^dag C (`_reachable`).  Every other element is exactly 0
    for all time, and no element is dropped on a threshold.  The generator
    is a COO map on that set, built once per call; channels with rate 0 are
    left out.  Collapse operators must live on rho0's space (SpaceMismatch).

    The step obeys (||H|| + sum Gamma ||C||^2) dt <= 0.05.  Every step
    re-hermitizes rho (a transpose permutation on the set) and raises
    StepTooLarge on a trace drift > 1e-6.  At each record time rho is
    scattered back into a full matrix; a non-finite entry or an eigenvalue
    < -1e-6 raises PositivityLoss (positivity is monitored, never projected
    back), and snapshots hold the full matrix.
    """
    rho0 = rho0.to_density()
    if H.space.n_max != rho0.space.n_max:
        raise SpaceMismatch("H and rho0 live on different spaces")
    for _, op in lindblad.terms:
        if op.space.n_max != rho0.space.n_max:
            raise SpaceMismatch("collapse operator and rho0 live on different spaces")
    times = _check_times(times)
    D = H.space.dim_total
    norm_H = float(np.linalg.norm(H.mat, 2))
    budget = norm_H + sum(rate * np.linalg.norm(op.mat, 2) ** 2
                          for rate, op in lindblad.terms)
    bound = 0.05 / budget if budget > 0 else math.inf
    # explicit dt_max is trusted (and monitored); the default obeys the bound
    dt_eff = bound if dt_max is None else dt_max

    # drho/dt = A rho + rho A^dag + sum rate C rho C^dag, A = -iH - sum rate C^dag C / 2
    jumps = [(rate, op.mat) for rate, op in lindblad.terms if rate > 0]
    A = -1j * H.mat
    for rate, C in jumps:
        A = A - 0.5 * rate * (C.conj().T @ C)
    flat = _reachable(rho0.data, A, jumps)
    rows, cols = np.divmod(flat, D)
    tgt, src, val = _lindblad_coo(A, jumps, flat, D)
    targets, starts = np.unique(tgt, return_index=True)
    transpose = np.searchsorted(flat, cols * D + rows)
    diagonal = np.flatnonzero(rows == cols)

    def rhs(x):
        out = np.zeros_like(x)
        out[targets] = np.add.reduceat(val * x[src], starts)
        return out

    rec = _Recorder(H.space, rho0, len(times), snapshot_indices)
    x = rho0.data.ravel()[flat]
    t = times[0]
    max_trace_drift = 0.0
    n_steps = 0
    rec.record(0, rho0.data)
    for i in range(1, len(times)):
        span = times[i] - t
        steps = max(1, math.ceil(span / dt_eff)) if span > 0 else 0
        dt = span / steps if steps else 0.0
        for _ in range(steps):
            k1 = rhs(x)
            k2 = rhs(x + (0.5 * dt) * k1)
            k3 = rhs(x + (0.5 * dt) * k2)
            k4 = rhs(x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            x = 0.5 * (x + x[transpose].conj())
            n_steps += 1
            tr_drift = abs(x[diagonal].real.sum() - 1.0)
            max_trace_drift = max(max_trace_drift, tr_drift)
            if not (tr_drift <= 1e-6):
                raise StepTooLarge(
                    f"trace drifted by {tr_drift:.3e} > 1e-6 (dt={dt:.3e}); reduce dt_max"
                )
        t = times[i]
        if not np.all(np.isfinite(x.view(float))):
            raise PositivityLoss(f"density matrix diverged before t={t}; reduce dt_max")
        rho = np.zeros((D, D), dtype=complex)
        rho.ravel()[flat] = x
        min_eig = float(np.linalg.eigvalsh(rho)[0])
        if not (min_eig >= -1e-6):
            raise PositivityLoss(f"min eigenvalue {min_eig:.3e} < -1e-6 at t={t}")
        rec.record(i, rho)
    return Trajectory(times, rec.sigma_z, rec.fidelity, rec.n_mean, rec.phonons,
                      g=g, snapshots=rec.snapshots,
                      meta={"method": "rk4_lindblad", "dt": dt_eff, "n_steps": n_steps,
                            "trace_drift": max_trace_drift})


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
    """Outcome of the two-tone vs nonlinear-QRM comparison."""

    max_deviation: float
    tolerance: float
    valid: bool
    omega_over_nu: float
    n_records: int
    meta: dict = field(default_factory=dict)


def rwa_crosscheck(spec: ModelSpec, psi0: QuantumState | None = None,
                   T: float | None = None, tolerance: float = 0.01,
                   n_max: int | None = None, n_records: int = 61) -> RwaReport:
    """Evolve psi0 under the full two-tone drive and under the nonlinear QRM
    it simulates, and report max_t (1 - |<psi_full(t)|psi_NQRM(t)>|^2).

    The two trajectories are compared in a common frame: the two-tone state
    is mapped by exp(+i H0 t) with H0 = (delta_b+delta_r)/4 sigma_z
    + (delta_b-delta_r)/2 a^dag a, which aligns the interaction picture of
    the drive with the Schroedinger picture of the simulated model.
    meta["top_population"] is the largest population of the top Fock level
    n_max in the two-tone run, a one-pass truncation signal.
    """
    if spec.kind != "TwoTone":
        raise ValueError("rwa_crosscheck requires a TwoTone ModelSpec")
    omega0_R, omega_R = spec.simulated()
    if n_max is None:
        n_max = default_n_max(g=spec.g, omega_R=omega_R or None)
    space = HilbertSpace(n_max)
    if psi0 is None:
        psi0 = fock_state(space, 0, "down")
    if T is None:
        T = 3.0 * 2.0 * math.pi / spec.g
    times = np.linspace(0.0, T, n_records)

    traj_full = evolve_unitary_td(TwoToneGenerator(spec, space), psi0, times, g=spec.g,
                                  snapshot_indices=range(n_records))

    H_sim = build_hamiltonian(ModelSpec(kind="NonlinearQRM", eta=spec.eta, g=spec.g,
                                        omega_R=omega_R, omega0_R=omega0_R), space)
    traj_sim = evolve_unitary(H_sim, psi0, times, g=spec.g,
                              snapshot_indices=range(n_records))

    nb = np.arange(space.dim_boson)
    h0 = np.concatenate([
        0.25 * (spec.delta_b + spec.delta_r) * (-1.0) + 0.5 * (spec.delta_b - spec.delta_r) * nb,
        0.25 * (spec.delta_b + spec.delta_r) * (+1.0) + 0.5 * (spec.delta_b - spec.delta_r) * nb,
    ])
    max_dev = 0.0
    for i, t in enumerate(times):
        aligned = np.exp(1j * h0 * t) * traj_full.snapshots[i]
        dev = 1.0 - abs(np.vdot(aligned, traj_sim.snapshots[i])) ** 2
        max_dev = max(max_dev, float(dev))
    return RwaReport(
        max_deviation=max_dev,
        tolerance=tolerance,
        valid=max_dev < tolerance,
        omega_over_nu=spec.Omega / spec.nu,
        n_records=n_records,
        meta={"T": T, "n_max": n_max, "omega0_R": omega0_R, "omega_R": omega_R,
              "rk4_steps": traj_full.meta["n_steps"],
              "top_population": float(traj_full.phonons[:, -1].max())},
    )
