"""Scenario execution: deterministic CSV/JSON outputs and parameter sweeps.

Determinism contract: fixed steps, no RNG.  A rerun reproduces the
committed goldens within 1e-12, not byte for byte: values are written with
17 significant digits, and the last of them can differ between runs.
"""
from __future__ import annotations

import csv
import json
import math
import os
import time
from copy import deepcopy
from dataclasses import dataclass

import numpy as np

from . import __version__
from .dynamics import (
    LindbladSpec,
    coherent_required_n_max,
    coherent_state,
    evolve_lindblad,
    evolve_unitary,
    evolve_unitary_td,
    fock_state,
    thermal_required_n_max,
    thermal_state,
)
from .errors import ConvergenceFailure
from .fock import HilbertSpace, f1_diagonal, qubit_ops
from .models import TwoToneGenerator, build_hamiltonian, default_n_max
from .scenario import Scenario, scenario_from_dict

__all__ = [
    "RunResult",
    "run",
    "sweep",
    "simulate_scenario",
    "check_truncation_convergence",
    "write_trajectory_csv",
    "write_landscape_csv",
    "write_json",
    "output_dir",
    "OUTDIR_ENV",
]

OUTDIR_ENV = "IONRABI_OUTDIR"
# --check-convergence and validate rerun at n_max + CONVERGENCE_BUMP and
# require every recorded observable to move by less than CONVERGENCE_TOL.
CONVERGENCE_BUMP = 20
CONVERGENCE_TOL = 1e-6
_FMT = "%.17e"


def output_dir(explicit, name) -> str:
    """The directory `name` below the explicit flag, else $IONRABI_OUTDIR, else
    ./runs; created if missing."""
    path = os.path.join(explicit or os.environ.get(OUTDIR_ENV) or "runs", name)
    os.makedirs(path, exist_ok=True)
    return path


def write_json(path, obj):
    """Indented, key-sorted JSON with a trailing newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class RunResult:
    name: str
    csv_path: str
    metadata_path: str
    wall_time_s: float
    convergence: str  # 'skipped' | 'pass'


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def _initial_state(scenario: Scenario, space: HilbertSpace):
    init = scenario.initial
    qubit = init["qubit"]
    if init["kind"] == "fock":
        return fock_state(space, init["n"], qubit)
    if init["kind"] == "coherent":
        return coherent_state(space, init["alpha"], qubit)
    return thermal_state(space, init["nbar"], qubit)


def _state_n_requirement(scenario: Scenario) -> tuple[int, float]:
    """(minimum n_max holding the initial state, coherent-equivalent radius)."""
    init = scenario.initial
    if init["kind"] == "fock":
        return max(init["n"], 1), math.sqrt(init["n"])
    if init["kind"] == "coherent":
        alpha = abs(init["alpha"])
        return coherent_required_n_max(alpha), alpha
    nbar = init["nbar"]
    if nbar == 0:
        return 1, 0.0
    return thermal_required_n_max(nbar), math.sqrt(nbar)


def _barrier_index(eta: float, scan_to: int = 200) -> int | None:
    if eta <= 0:
        return None
    f1 = f1_diagonal(scan_to, eta)
    small = np.nonzero(np.abs(f1[1:]) < 1e-2)[0]
    return int(small[0] + 1) if small.size else None


def auto_n_max(scenario: Scenario) -> int:
    """Truncation default when the scenario does not pin one."""
    if scenario.truncation is not None:
        return scenario.truncation
    spec = scenario.model_spec()
    n_state, alpha = _state_n_requirement(scenario)
    n_barrier = None
    omega_R = None
    if spec.kind in ("NonlinearJC", "NonlinearAntiJC", "NonlinearQRM", "TwoTone"):
        n_barrier = _barrier_index(spec.eta)
    if spec.kind in ("QRM", "NonlinearQRM"):
        omega_R = spec.omega_R or None
    elif spec.kind == "TwoTone":
        omega_R = spec.simulated()[1] or None
    return max(n_state, default_n_max(g=spec.g, omega_R=omega_R,
                                      alpha=alpha, n_barrier=n_barrier))


def simulate_scenario(scenario: Scenario, n_max: int | None = None):
    """Run the scenario at the given (or auto) truncation; returns (Trajectory, n_max)."""
    if n_max is None:
        n_max = auto_n_max(scenario)
    spec = scenario.model_spec()
    space = HilbertSpace(n_max)
    state0 = _initial_state(scenario, space)
    g = spec.g
    cycle = 2.0 * math.pi / g
    times = np.linspace(0.0, scenario.times["t_end"] * cycle, scenario.times["n_points"])
    snap_idx = sorted({int(np.argmin(np.abs(times - ts * cycle)))
                       for ts in scenario.outputs["snapshot_times"]})

    if scenario.lindblad is not None:
        H = build_hamiltonian(spec, space)
        _, _, sm, _ = qubit_ops(space)
        lb = LindbladSpec([(scenario.lindblad["gamma_ratio"] * g, sm)])
        traj = evolve_lindblad(H, lb, state0.to_density(), times, g=g,
                               snapshot_indices=snap_idx)
    elif spec.kind == "TwoTone":
        traj = evolve_unitary_td(TwoToneGenerator(spec, space), state0, times, g=g,
                                 snapshot_indices=snap_idx)
    else:
        H = build_hamiltonian(spec, space)
        traj = evolve_unitary(H, state0, times, g=g, snapshot_indices=snap_idx)
    return traj, n_max


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def write_trajectory_csv(path, traj, observables):
    """One row per time point; t in cycles of 2*pi/g, 17 significant digits."""
    columns = [("t", traj.cycles)]
    for obs in observables:
        if obs == "phonons":
            for n in range(traj.phonons.shape[1]):
                columns.append((f"P_{n}", traj.phonons[:, n]))
        else:
            columns.append((obs, getattr(traj, obs)))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _ in columns])
        for i in range(len(traj.times)):
            writer.writerow([_FMT % col[i] for _, col in columns])


def write_metadata(path, scenario: Scenario, n_max: int, traj):
    write_json(path, {
        "scenario": scenario.to_dict(),
        "n_max": n_max,
        "dim_total": 2 * (n_max + 1),
        "g_rad_per_s": scenario.model_spec().g,
        "time_unit": "cycles of 2*pi/g",
        "frequency_unit_config": "2*pi*kHz",
        "integrator": {k: v for k, v in traj.meta.items()},
        "package_version": __version__,
        "determinism": "fixed-step integrators, no RNG; byte-identical reruns "
                       "on the same platform and BLAS configuration",
    })


def run(scenario: Scenario, out_dir=None, check_convergence: bool = False) -> RunResult:
    """Execute one scenario and write trajectory.csv + metadata.json.

    With check_convergence, the run goes through check_truncation_convergence
    and raises ConvergenceFailure when the truncation is not adequate.
    """
    base = output_dir(out_dir, scenario.name)
    started = time.perf_counter()
    verdict = "skipped"
    if check_convergence:
        converged, delta, n_max, traj = check_truncation_convergence(scenario)
        if not converged:
            raise ConvergenceFailure(
                f"{scenario.name}: observables changed by {delta:.3e} >= "
                f"{CONVERGENCE_TOL} when n_max {n_max} -> {n_max + CONVERGENCE_BUMP}"
            )
        verdict = "pass"
    else:
        traj, n_max = simulate_scenario(scenario)
    csv_path = os.path.join(base, "trajectory.csv")
    meta_path = os.path.join(base, "metadata.json")
    write_trajectory_csv(csv_path, traj, scenario.outputs["observables"])
    write_metadata(meta_path, scenario, n_max, traj)
    return RunResult(scenario.name, csv_path, meta_path,
                     time.perf_counter() - started, verdict)


def _trajectory_delta(a, b) -> float:
    """Largest change of any recorded observable between two truncations."""
    delta = max(
        float(np.abs(a.sigma_z - b.sigma_z).max()),
        float(np.abs(a.fidelity - b.fidelity).max()),
        float(np.abs(a.n_mean - b.n_mean).max()),
    )
    na, nb = a.phonons.shape[1], b.phonons.shape[1]
    common = min(na, nb)
    delta = max(delta, float(np.abs(a.phonons[:, :common] - b.phonons[:, :common]).max()))
    for traj, n in ((a, na), (b, nb)):
        if n > common:
            delta = max(delta, float(np.abs(traj.phonons[:, common:]).max()))
    return delta


def check_truncation_convergence(scenario: Scenario):
    """(converged, max_delta, n_max, trajectory): run at the auto truncation
    n_max and at n_max + CONVERGENCE_BUMP and compare; trajectory is the run
    at n_max."""
    n_max = auto_n_max(scenario)
    traj, _ = simulate_scenario(scenario, n_max)
    bumped, _ = simulate_scenario(scenario, n_max + CONVERGENCE_BUMP)
    delta = _trajectory_delta(traj, bumped)
    return delta < CONVERGENCE_TOL, delta, n_max, traj


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _set_key_path(doc: dict, path: str, value):
    keys = path.split(".")
    node = doc
    for key in keys[:-1]:
        if key not in node or not isinstance(node[key], dict):
            raise KeyError(f"axis key path {path!r} not found in scenario")
        node = node[key]
    node[keys[-1]] = value


def _point_tag(axes_values: dict) -> str:
    parts = [f"{path.replace('.', '_')}={value:.6g}" for path, value in axes_values.items()]
    return ",".join(parts)


def sweep(template: Scenario, axes: list, out_dir=None) -> list:
    """Run the template over the cartesian grid of (key_path, values) axes.

    Each value is set as given, so an integer field such as initial.n needs
    integer values.  Writes each point into its own directory plus an
    index.json mapping grid points to result paths; failed points are
    preserved in the index with their error.
    """
    grid = [{}]
    for path, values in axes:
        grid = [dict(point, **{path: v}) for point in grid for v in values]
    base = output_dir(out_dir, template.name)

    results = []
    index = []
    for point in grid:
        entry = {"point": point}
        try:
            doc = deepcopy(template.to_dict())
            for path, value in point.items():
                _set_key_path(doc, path, value)
            tag = _point_tag(point)
            doc["name"] = f"{template.name}/{tag}"
            res = run(scenario_from_dict(doc, source=f"sweep:{tag}"), out_dir=out_dir)
            entry.update(status="ok", name=res.name, csv=res.csv_path,
                         metadata=res.metadata_path)
            results.append(res)
        except Exception as exc:  # preserved in the failure manifest
            entry.update(status="failed", error=f"{type(exc).__name__}: {exc}")
        index.append(entry)
    write_json(os.path.join(base, "index.json"), index)
    return results


# ---------------------------------------------------------------------------
# landscape
# ---------------------------------------------------------------------------

def write_landscape_csv(path, n_values, eta_values, matrix):
    """Rows n, columns eta: header 'n,<eta1>,<eta2>,...' then one row per n."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n"] + ["%.17g" % e for e in eta_values])
        for i, n in enumerate(n_values):
            writer.writerow([str(int(n))] + [_FMT % v for v in matrix[i]])
