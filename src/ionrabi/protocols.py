"""Experiment drivers composed from models + dynamics: dissipative Fock-state
preparation, blockade/filter analysis, collapse-revival comparison, and the
f1 landscape map.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import (
    QuantumState,
    Trajectory,
    coherent_required_n_max,
    coherent_state,
    evolve_unitary,
)
from .errors import NoBarrier
from .fock import HilbertSpace, barrier_eta, f1_diagonal
from .models import ModelSpec, ValidityWarning, build_hamiltonian
from .runner import simulate_scenario
from .scenario import KHZ, SCHEMA_VERSION, scenario_from_dict

__all__ = [
    "FockPrepPlan",
    "FockPrepResult",
    "run_fock_prep",
    "FilterReport",
    "run_filter_analysis",
    "CollapseRevivalResult",
    "run_collapse_revival",
    "f1_landscape",
    "refine_barrier",
]

LANDSCAPE_FLOOR = -16.0


# ---------------------------------------------------------------------------
# dissipative Fock-state preparation
# ---------------------------------------------------------------------------

@dataclass
class FockPrepPlan:
    """Ladder-climbing plan: nonlinear anti-JC drive plus qubit decay funnels
    an arbitrary low-lying state into |down, target_n>.

    eta defaults to the blockade value barrier_eta(target_n); gamma_ratio is
    Gamma/g = 2 and the duration 100 cycles of 2*pi/g unless overridden.
    g is in rad/s and is converted to the scenario's 2*pi*kHz.
    """

    target_n: int
    eta: float | None = None
    g: float = 1.0
    gamma_ratio: float = 2.0
    initial_nbar: float = 1.0
    duration: float = 100.0      # in 2*pi/g cycles
    n_points: int = 201
    n_max: int | None = None

    def __post_init__(self):
        if self.target_n < 1:
            raise ValueError("target_n must be >= 1")


@dataclass
class FockPrepResult:
    trajectory: Trajectory
    final_phonons: np.ndarray
    p_target: float
    eta_used: float
    initial_above_target: float
    max_above_target: float


def run_fock_prep(plan: FockPrepPlan) -> FockPrepResult:
    """Evolve thermal (x) |down> under H_naJC(eta) with qubit decay Gamma, as a
    scenario run by simulate_scenario."""
    n_max = plan.n_max if plan.n_max is not None else max(2 * plan.target_n, 40)
    if n_max < 2 * plan.target_n:
        raise ValueError(f"truncation n_max={n_max} < 2*target_n={2 * plan.target_n}")
    eta = plan.eta if plan.eta is not None else barrier_eta(plan.target_n)
    scenario = scenario_from_dict({
        "schema_version": SCHEMA_VERSION,
        "name": f"fockprep-n{plan.target_n}",
        "model": {"kind": "NonlinearAntiJC", "g": plan.g / KHZ, "eta": eta},
        "initial": {"kind": "thermal", "nbar": plan.initial_nbar, "qubit": "down"},
        "times": {"t_end": plan.duration, "n_points": plan.n_points},
        "lindblad": {"gamma_ratio": plan.gamma_ratio},
        "truncation": n_max,
    }, source="fockprep")
    traj, _ = simulate_scenario(scenario)
    above = traj.phonons[:, plan.target_n + 1:].sum(axis=1)
    if above[0] > 1e-3:
        warnings.warn(
            f"initial population {above[0]:.2e} above target n={plan.target_n}; the "
            "ladder cannot bring it back below the blockade",
            ValidityWarning,
        )
    return FockPrepResult(
        trajectory=traj,
        final_phonons=traj.phonons[-1].copy(),
        p_target=float(traj.phonons[-1, plan.target_n]),
        eta_used=eta,
        initial_above_target=float(above[0]),
        max_above_target=float(above.max()),
    )


# ---------------------------------------------------------------------------
# blockade / motional filter
# ---------------------------------------------------------------------------

def refine_barrier(eta: float, n_max: int, window: float = 0.05,
                   coarse_tol: float = 1e-2) -> tuple[int, float]:
    """Locate the blockade index n* nearest to the supplied eta and refine eta
    onto the exact zero of f1(n*, .).

    Returns (n*, eta_refined).  Raises NoBarrier when no f1 zero sits within
    `window` of eta for any n < n_max.
    """
    f1 = f1_diagonal(n_max, eta)
    candidates = [n for n in range(1, n_max) if abs(f1[n]) < coarse_tol]
    if not candidates:
        raise NoBarrier(f"no f1 zero below n_max={n_max} for eta={eta}")
    n_star = min(candidates, key=lambda n: abs(f1[n]))
    if abs(f1[n_star]) < 1e-10:
        return n_star, eta
    lo = max(1e-4, eta - window)
    hi = min(1.0, eta + window)
    refined = barrier_eta(n_star, (lo, hi))
    return n_star, refined


@dataclass
class FilterReport:
    """Blockade quality of a nonlinear-QRM run: max population ever found
    above the barrier index, with the initial tail reported separately."""

    barrier_n: int
    eta_input: float
    eta_refined: float
    leakage_max: float
    initial_tail: float
    trajectory: Trajectory
    phonon_snapshots: dict = field(default_factory=dict)  # requested time -> P_n


def run_filter_analysis(spec: ModelSpec, initial: QuantumState, T: float,
                        snapshot_times=(), n_points: int = 401) -> FilterReport:
    """Evolve `initial` under the nonlinear QRM and measure leakage above the
    f1 barrier.

    The supplied eta is first refined onto the exact f1 zero (the blockade is
    an exact decoupling only at the root; experimentally this is the
    calibration of the Lamb-Dicke parameter).
    """
    if spec.kind != "NonlinearQRM":
        raise ValueError("run_filter_analysis expects a NonlinearQRM spec")
    space = initial.space
    n_star, eta_ref = refine_barrier(spec.eta, space.n_max)
    H = build_hamiltonian(replace(spec, eta=eta_ref), space)
    times = np.linspace(0.0, T, n_points)
    traj = evolve_unitary(H, initial, times, g=spec.g)
    above = traj.phonons[:, n_star + 1:].sum(axis=1)
    snaps = {}
    for ts in snapshot_times:
        i = int(np.argmin(np.abs(times - ts)))
        snaps[float(times[i])] = traj.phonons[i].copy()
    return FilterReport(
        barrier_n=n_star,
        eta_input=spec.eta,
        eta_refined=eta_ref,
        leakage_max=float(above.max()),
        initial_tail=float(above[0]),
        trajectory=traj,
        phonon_snapshots=snaps,
    )


# ---------------------------------------------------------------------------
# collapse / revival comparison
# ---------------------------------------------------------------------------

@dataclass
class CollapseRevivalResult:
    trajectory: Trajectory
    t_revival: float
    collapse_window: tuple[float, float] | None
    revival_window: tuple[float, float] | None
    plateau_amplitude: float | None       # A_c: max |<sigma_z>| in the collapse window
    revival_amplitude: float | None       # A_r: max |<sigma_z>| in the revival window
    revival_ratio: float | None           # A_r / A_c
    sliding_max_ratio: float | None       # max over same-width windows / A_c
    meta: dict = field(default_factory=dict)


# Window geometry relative to the linear revival time t_r = 2*pi*sqrt(nbar)/g.
# The collapse plateau is sampled mid-way between the initial decay and the
# first revival; the sliding scan skips the initial transient.
_COLLAPSE_WIN = (0.3, 0.7)
_REVIVAL_WIN = (0.8, 1.2)
_SLIDE_START = 0.3
_SLIDE_STEP = 0.05
NONLINEAR_DURATION_FACTOR = 3.0


def _window_max(times, values, lo, hi):
    mask = (times >= lo) & (times <= hi)
    if not mask.any():
        return None
    return float(np.abs(values[mask]).max())


def run_collapse_revival(model: str, alpha: complex, g: float, eta: float = 0.5,
                         T: float | None = None, n_points: int | None = None,
                         n_max: int | None = None) -> CollapseRevivalResult:
    """<sigma_z>(t) for |down, alpha> under the (non)linear JC model, with
    collapse-plateau and revival amplitudes measured in windows around the
    linear revival time t_r = 2*pi*sqrt(nbar)/g.

    The nonlinear run defaults to 3x the linear duration (f1 slows the
    exchange); window definitions travel in the metadata since the
    underlying phenomenon is qualitative.
    """
    if model not in ("JC", "NonlinearJC"):
        raise ValueError("model must be 'JC' or 'NonlinearJC'")
    nbar = abs(alpha) ** 2
    if n_max is None:
        n_max = max(120, coherent_required_n_max(alpha))
    space = HilbertSpace(n_max)
    t_r = 2.0 * math.pi * math.sqrt(nbar) / g if nbar > 0 else math.inf
    if T is None:
        T = 1.6 * t_r
        if model == "NonlinearJC":
            T *= NONLINEAR_DURATION_FACTOR
    if n_points is None:
        # >= 8 samples per sigma_z oscillation period pi/(g sqrt(nbar))
        period = math.pi / (g * max(math.sqrt(nbar), 1.0))
        n_points = max(2, int(math.ceil(T / (period / 8.0))) + 1)

    spec = ModelSpec(kind=model, g=g, eta=eta if model == "NonlinearJC" else 0.0)
    H = build_hamiltonian(spec, space)
    psi0 = coherent_state(space, alpha, "down")
    times = np.linspace(0.0, T, n_points)
    traj = evolve_unitary(H, psi0, times, g=g)

    cw = (_COLLAPSE_WIN[0] * t_r, _COLLAPSE_WIN[1] * t_r)
    rw = (_REVIVAL_WIN[0] * t_r, _REVIVAL_WIN[1] * t_r)
    a_c = _window_max(times, traj.sigma_z, *cw) if math.isfinite(t_r) else None
    a_r = _window_max(times, traj.sigma_z, *rw) if math.isfinite(t_r) else None
    ratio = (a_r / a_c) if a_c and a_r else None

    sliding = None
    if a_c and math.isfinite(t_r):
        width = (_REVIVAL_WIN[1] - _REVIVAL_WIN[0]) * t_r
        best = 0.0
        start = _SLIDE_START * t_r
        while start + width <= times[-1] + 1e-12:
            w = _window_max(times, traj.sigma_z, start, start + width)
            if w is not None:
                best = max(best, w)
            start += _SLIDE_STEP * t_r
        sliding = best / a_c if best else None

    return CollapseRevivalResult(
        trajectory=traj,
        t_revival=t_r,
        collapse_window=cw if math.isfinite(t_r) else None,
        revival_window=rw if math.isfinite(t_r) else None,
        plateau_amplitude=a_c,
        revival_amplitude=a_r,
        revival_ratio=ratio,
        sliding_max_ratio=sliding,
        meta={"model": model, "alpha": alpha, "eta": spec.eta,
              "T": T, "n_points": n_points, "n_max": n_max,
              "collapse_window_rel": _COLLAPSE_WIN, "revival_window_rel": _REVIVAL_WIN,
              "duration_factor": NONLINEAR_DURATION_FACTOR if model == "NonlinearJC" else 1.0},
    )


# ---------------------------------------------------------------------------
# f1 landscape
# ---------------------------------------------------------------------------

def f1_landscape(n_values, eta_values) -> np.ndarray:
    """log10|f1(n, eta)| on the grid, floored at -16 to avoid -inf.

    Shape (len(n_values), len(eta_values)), from one f1_diagonal call over
    all eta.
    """
    n_values = np.asarray(n_values, dtype=int)
    eta_values = np.asarray(eta_values, dtype=float)
    if n_values.size == 0 or eta_values.size == 0:
        raise ValueError("landscape grids must be non-empty")
    f1 = f1_diagonal(int(n_values.max()), eta_values)[n_values]
    with np.errstate(divide="ignore"):
        return np.maximum(np.log10(np.abs(f1)), LANDSCAPE_FLOOR)
