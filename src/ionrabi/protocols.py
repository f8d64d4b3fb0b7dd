"""Experiment drivers composed from models + dynamics: dissipative Fock-state
preparation, run as a Scenario (run_fock_prep), and the f1 landscape map,
plus two measures over a Trajectory that state the paper's figure claims:
the population above a blockade level (population_above) and the
collapse-revival ratio of <sigma_z> (revival_ratio).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory
from .fock import f1_diagonal
from .models import ValidityWarning
from .runner import auto_n_max, simulate_scenario
from .scenario import Scenario

__all__ = [
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
class FockPrepResult:
    trajectory: Trajectory
    p_target: float
    initial_above_target: float
    max_above_target: float


def run_fock_prep(scenario: Scenario, target_n: int) -> FockPrepResult:
    """Run a ladder-climbing scenario (nonlinear anti-JC drive plus qubit decay
    funnel a low-lying state into |down, target_n>, blocked there by f1) and
    measure the population at and above target_n.  Runs at auto_n_max, raised
    to 2 target_n unless the scenario pins a truncation, which must reach it.
    """
    if target_n < 1:
        raise ValueError("target_n must be >= 1")
    n_max = auto_n_max(scenario)
    if scenario.truncation is None:
        n_max = max(n_max, 2 * target_n)
    elif n_max < 2 * target_n:
        raise ValueError(f"truncation n_max={n_max} < 2*target_n={2 * target_n}")
    traj, _ = simulate_scenario(scenario, n_max)
    above = population_above(traj, target_n)
    if above[0] > 1e-3:
        warnings.warn(
            f"initial population {above[0]:.2e} above target n={target_n}; the "
            "ladder cannot bring it back below the blockade",
            ValidityWarning,
        )
    return FockPrepResult(
        trajectory=traj,
        p_target=float(traj.phonons[-1, target_n]),
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
