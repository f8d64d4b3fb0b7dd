"""Experiment drivers composed from models + dynamics: dissipative Fock-state
preparation and the f1 landscape map, plus two measures over a Trajectory
that state the paper's figure claims: the population above a blockade level
(population_above) and the collapse-revival ratio of <sigma_z>
(revival_ratio).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, thermal_required_n_max
from .fock import barrier_eta, f1_diagonal
from .models import ValidityWarning
from .runner import simulate_scenario
from .scenario import KHZ, SCHEMA_VERSION, scenario_from_dict

__all__ = [
    "FockPrepPlan",
    "FockPrepResult",
    "run_fock_prep",
    "population_above",
    "revival_ratio",
    "f1_landscape",
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
    n_max = plan.n_max
    if n_max is None:
        # a hotter start needs more levels than the ladder does
        nbar = plan.initial_nbar
        n_max = max(2 * plan.target_n, 40, thermal_required_n_max(nbar) if nbar > 0 else 0)
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
    above = population_above(traj, plan.target_n)
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
# figure claims over a trajectory
# ---------------------------------------------------------------------------

def population_above(traj: Trajectory, n: int) -> np.ndarray:
    """Per record, the phonon population above level n: sum_{m>n} P_m."""
    return traj.phonons[:, n + 1:].sum(axis=1)


def revival_ratio(traj: Trajectory, t_revival: float) -> float:
    """max|<sigma_z>| in [0.8, 1.2] t_revival over the max in [0.3, 0.7]
    t_revival: the revival against the collapse plateau, both windows
    relative to the linear revival time.  Times are in cycles (traj.cycles).
    """
    t = traj.cycles
    peaks = []
    for lo, hi in ((0.8, 1.2), (0.3, 0.7)):
        mask = (t >= lo * t_revival) & (t <= hi * t_revival)
        if not mask.any():
            raise ValueError(f"no record in [{lo}, {hi}] x t_revival = {t_revival}")
        peaks.append(np.abs(traj.sigma_z[mask]).max())
    return float(peaks[0] / peaks[1])


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
