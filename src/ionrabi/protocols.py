"""Experiment drivers composed from models + dynamics: dissipative Fock-state
preparation (run_fock_prep) and the f1 landscape map, plus two measures over
a Trajectory that state the paper's figure claims: the population above a
blockade level (population_above) and the collapse-revival ratio of
<sigma_z> (revival_ratio).

run_fock_prep is a plain scenario run (runner.run, at runner.auto_n_max, the
one truncation rule) plus a report: it writes trajectory.csv, metadata.json
and report.json into one directory.
"""
from __future__ import annotations

import os
import warnings
from dataclasses import replace

import numpy as np

from .dynamics import Trajectory
from .errors import SchemaError
from .fock import f1_diagonal
from .models import ValidityWarning
from .runner import auto_n_max, run, write_json
from .scenario import Scenario

__all__ = [
    "run_fock_prep",
    "population_above",
    "revival_ratio",
    "f1_landscape",
]

LANDSCAPE_FLOOR = -16.0


# ---------------------------------------------------------------------------
# dissipative Fock-state preparation
# ---------------------------------------------------------------------------

def run_fock_prep(scenario: Scenario, target_n: int, out_dir=None) -> dict:
    """Run a ladder-climbing scenario (nonlinear anti-JC drive plus qubit decay
    funnel a low-lying state into |down, target_n>, blocked there by f1) with
    runner.run, which writes trajectory.csv and metadata.json at
    auto_n_max(scenario), pinned as the scenario's truncation (so metadata.json
    echoes it); then measure the population at and above target_n, write it
    to report.json beside them and return that report.  A target above
    auto_n_max raises SchemaError before anything is written.
    """
    if target_n < 1:
        raise ValueError("target_n must be >= 1")
    if scenario.lindblad is None:
        raise SchemaError(f"{scenario.name}: Fock-state preparation needs a lindblad section")
    n_max = auto_n_max(scenario)
    if target_n > n_max:
        raise SchemaError(f"{scenario.name}: target n={target_n} lies above the "
                          f"truncation n_max={n_max}")
    # pinned, so run does not pick the truncation a second time
    result = run(replace(scenario, truncation=n_max), out_dir)
    traj = result.trajectory
    above = population_above(traj, target_n)
    if above[0] > 1e-3:
        warnings.warn(
            f"initial population {above[0]:.2e} above target n={target_n}; the "
            "ladder cannot bring it back below the blockade",
            ValidityWarning,
        )
    report = {
        "target_n": target_n,
        "eta_used": scenario.model["eta"],
        "p_target_final": float(traj.phonons[-1, target_n]),
        "initial_above_target": float(above[0]),
        "max_above_target": float(above.max()),
        "g_rad_per_s": scenario.model_spec().g,
        "gamma_ratio": scenario.lindblad["gamma_ratio"],
        "duration_cycles": scenario.times["t_end"],
        "trace_drift": traj.meta["trace_drift"],
    }
    write_json(os.path.join(os.path.dirname(result.csv_path), "report.json"), report)
    return report


# ---------------------------------------------------------------------------
# figure claims over a trajectory
# ---------------------------------------------------------------------------

def population_above(traj: Trajectory, n: int) -> np.ndarray:
    """Per record, the phonon population above level n: sum_{m>n} P_m."""
    return traj.phonons[:, n + 1:].sum(axis=1)


def revival_ratio(traj: Trajectory, t_revival: float) -> float:
    """max|<sigma_z>| in [0.8, 1.2] t_revival over the max in [0.3, 0.7]
    t_revival: the revival against the collapse plateau, both windows
    relative to the linear revival time.  t_revival is in traj.times' unit:
    cycles of 2*pi/g for a trajectory from runner.simulate_scenario or read
    back from its CSV.
    """
    t = traj.times
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
