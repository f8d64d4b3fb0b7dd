"""Scenario execution: deterministic CSV/JSON outputs and parameter sweeps.

Determinism contract: fixed steps, no RNG.  A rerun reproduces the
committed goldens within 1e-12, and fig3's, whose 41,400 RK4 steps build up
rounding drift, within 1e-10; not byte for byte: values are written with
18 significant digits (%.17e), and the last of them can differ between runs.
The text of a value is byte for byte that of '%.17e' % value: the CSV
writer builds it for a chunk of rows at a time with the array kernel
_e17.format_e17, which formats non-finite values and values within its
error bound of a rounding tie with '%' itself.
"""
from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, _e17
from .dynamics import (
    Trajectory,
    coherent_required_n_max,
    coherent_state,
    evolve_lindblad,
    evolve_unitary,
    evolve_unitary_td,
    fock_state,
    thermal_required_n_max,
    thermal_state,
)
from .errors import ConvergenceFailure, SchemaError
from .fock import HilbertSpace, f1_diagonal, qubit_ops
from .models import TwoToneGenerator, build_hamiltonian
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
BARRIER_SCAN = 200  # the highest level _barrier_index scans for a sign change of f1
# values per chunk in _write_csv (whole rows, at least one): each chunk is one
# _e17.csv_rows, its memory bounded; 4,096 wrote the 201 x 400 landscape fastest
# (9 ms in process, best of 15, one core of a shared 2-vCPU machine, against
# 10.5 ms at 2,048 and 12.5 ms at 8,192, whose temporaries leave the cache):
# 10 rows of it, 2,048 of a 2-column trajectory
_CSV_VALUES = 4096


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
    csv_path: str
    metadata_path: str
    wall_time_s: float
    trajectory: Trajectory


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
        # one level of room: a sideband exchange from |n> reaches |n + 1>
        return init["n"] + 1, math.sqrt(init["n"])
    if init["kind"] == "coherent":
        alpha = abs(init["alpha"])
        return coherent_required_n_max(alpha), alpha
    nbar = init["nbar"]
    if nbar == 0:
        return 1, 0.0
    return thermal_required_n_max(nbar), math.sqrt(nbar)


def _barrier_index(eta: float) -> int | None:
    """The blockade level n* of eta: the first n >= 1 with f1(n, eta) <= 0, or
    the level below it when that one has the smaller |f1|.  None when f1
    keeps its sign up to BARRIER_SCAN, as at eta = 0, where f1 is 1."""
    f1 = f1_diagonal(BARRIER_SCAN, eta)
    crossed = np.nonzero(f1[1:] <= 0)[0]
    if not crossed.size:
        return None
    n = int(crossed[0]) + 1
    return n - 1 if n > 1 and abs(f1[n - 1]) < abs(f1[n]) else n


def auto_n_max(scenario: Scenario) -> int:
    """The scenario's `truncation`, else the largest of: 40; the initial
    state's own bound (_state_n_requirement); 2 n* for eta > 0, n* the
    blockade level (_barrier_index); and, when omega_R != 0,
    coherent_required_n_max(|alpha| + 2g/|omega_R|), the coherent start's
    tail bound at the displaced radius, as deep-strong coupling displaces the
    mode by up to 2g/omega_R beyond the initial radius (omega_R of the
    simulated model).
    """
    if scenario.truncation is not None:
        return scenario.truncation
    spec = scenario.model_spec()
    n_state, alpha = _state_n_requirement(scenario)
    candidates = [40, n_state]
    n_barrier = _barrier_index(spec.eta)
    if n_barrier is not None:
        candidates.append(2 * n_barrier)
    omega_R = spec.simulated().omega_R
    if omega_R:
        candidates.append(coherent_required_n_max(alpha + 2.0 * spec.g / abs(omega_R)))
    return max(candidates)


def time_grid(g: float, t_end: float, n_points: int) -> np.ndarray:
    """n_points evenly spaced times from 0 to t_end cycles of 2*pi/g, in the
    evolvers' unit of 1/H.  The only conversion from cycles to 1/H:
    simulate_scenario and validate's cross-check take their grids from here."""
    return np.linspace(0.0, t_end * (2.0 * math.pi / g), n_points)


def simulate_scenario(scenario: Scenario, n_max: int | None = None):
    """Run the scenario at the given (or auto) truncation; returns (Trajectory, n_max).

    The evolvers take the grid in units of 1/H (time_grid); the trajectory
    comes back with its times in cycles of 2*pi/g, the scenario's unit.
    """
    if n_max is None:
        n_max = auto_n_max(scenario)
    spec = scenario.model_spec()
    space = HilbertSpace(n_max)
    state0 = _initial_state(scenario, space)
    g = spec.g
    times = time_grid(g, scenario.times["t_end"], scenario.times["n_points"])

    if scenario.lindblad is not None:
        H = build_hamiltonian(spec, space)
        _, _, sm, _ = qubit_ops(space)
        traj = evolve_lindblad(H, [(scenario.lindblad["gamma_ratio"] * g, sm)], state0, times)
    elif spec.kind == "TwoTone":
        traj = evolve_unitary_td(TwoToneGenerator(spec, space), state0, times)
    else:
        H = build_hamiltonian(spec, space)
        traj = evolve_unitary(H, state0, times)
    return replace(traj, times=times * g / (2.0 * math.pi)), n_max


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _write_csv(path, header, columns):
    """The header, then one row per index of the (n,) and (n, m) arrays in
    `columns`, side by side; CRLF line ends, as csv.writer writes them.
    Integer columns are written with '%d', all others as float64 with
    '%.17e', byte for byte: _e17.csv_rows builds the text of a chunk of rows at
    a time in array arithmetic, and formats only non-finite values and
    values within its error bound of a rounding tie with '%'."""
    columns = [np.asarray(col) for col in columns]
    rows = max(1, _CSV_VALUES // sum(col.shape[1] if col.ndim == 2 else 1 for col in columns))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for a in range(0, len(columns[0]), rows):
            fh.write(_e17.csv_rows([col[a:a + rows] for col in columns]))


def write_trajectory_csv(path, traj, observables):
    """One row per time point; t is traj.times (cycles of 2*pi/g from
    simulate_scenario), 18 significant digits."""
    header, columns = ["t"], [traj.times]
    for obs in observables:
        if obs == "phonons":
            header += [f"P_{n}" for n in range(traj.phonons.shape[1])]
            columns.append(traj.phonons)
        else:
            header.append(obs)
            columns.append(getattr(traj, obs))
    _write_csv(path, header, columns)


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
    """Execute one scenario and write trajectory.csv + metadata.json; the
    result hands back the trajectory.  Every scenario run goes through here.

    With check_convergence, the run goes through check_truncation_convergence
    and raises ConvergenceFailure when the truncation is not adequate.
    """
    started = time.perf_counter()
    if check_convergence:
        converged, delta, n_max, traj = check_truncation_convergence(scenario)
        if not converged:
            raise ConvergenceFailure(
                f"{scenario.name}: observables changed by {delta:.3e} >= "
                f"{CONVERGENCE_TOL} when n_max {n_max} -> {n_max + CONVERGENCE_BUMP}"
            )
    else:
        traj, n_max = simulate_scenario(scenario)
    base = output_dir(out_dir, scenario.name)
    csv_path = os.path.join(base, "trajectory.csv")
    meta_path = os.path.join(base, "metadata.json")
    write_trajectory_csv(csv_path, traj, scenario.outputs["observables"])
    write_metadata(meta_path, scenario, n_max, traj)
    return RunResult(csv_path, meta_path, time.perf_counter() - started, traj)


def _trajectory_delta(a, b) -> float:
    """Largest change of any recorded observable between two truncations."""
    delta = max(
        float(np.abs(a.sigma_z - b.sigma_z).max()),
        float(np.abs(a.fidelity - b.fidelity).max()),
        float(np.abs(a.n_mean - b.n_mean).max()),
    )
    na, nb = a.phonons.shape[1], b.phonons.shape[1]
    common = min(na, nb)
    diff = a.phonons[:, :common] - b.phonons[:, :common]
    delta = max(delta, float(np.abs(diff, out=diff).max()))
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
        if not isinstance(node.get(key), dict):
            raise SchemaError(f"axis key path {path!r} names no field of the scenario")
        node = node[key]
    node[keys[-1]] = value


def _point_tag(axes_values: dict) -> str:
    parts = [f"{path.replace('.', '_')}={value:.6g}" for path, value in axes_values.items()]
    return ",".join(parts)


def sweep(template: Scenario, axes: list, out_dir=None) -> list:
    """Run the template over the cartesian grid of (key_path, values) axes.

    Each value is set as given, so an integer field such as initial.n needs
    integer values.  Writes each point into its own directory plus an
    index.json mapping grid points to result paths; failed points, such as
    one whose value or leaf key the schema rejects, are preserved in the
    index with their error.  Returns the index entries; no trajectory is
    kept.  A `name` axis (each point is named after the template and its
    values), a key path whose keys before the last name no mapping of the
    template, and two points whose directory names (values to 6 significant
    digits) coincide raise SchemaError before anything is written.
    """
    grid, doc = [{}], template.to_dict()
    for path, values in axes:
        if path == "name":
            raise SchemaError("axis key path 'name' cannot vary: each point is named "
                              "after the template and its axis values")
        # on a copy: every point sets the same paths in this order
        _set_key_path(doc, path, None)
        grid = [dict(point, **{path: v}) for point in grid for v in values]
    tags = {}
    for point in grid:
        tag = _point_tag(point)
        if tag in tags:
            raise SchemaError(f"sweep points {tags[tag]} and {point} share the "
                              f"output directory {tag!r}")
        tags[tag] = point
    base = output_dir(out_dir, template.name)

    index = []
    for tag, point in tags.items():
        entry = {"point": point}
        try:
            doc = template.to_dict()
            for path, value in point.items():
                _set_key_path(doc, path, value)
            doc["name"] = f"{template.name}/{tag}"
            res = run(scenario_from_dict(doc, source=f"sweep:{tag}"), out_dir=out_dir)
            entry.update(status="ok", name=doc["name"], csv=res.csv_path,
                         metadata=res.metadata_path)
            del res  # hold no trajectory while the next point runs
        except Exception as exc:  # preserved in the failure manifest
            entry.update(status="failed", error=f"{type(exc).__name__}: {exc}")
        index.append(entry)
    write_json(os.path.join(base, "index.json"), index)
    return index


# ---------------------------------------------------------------------------
# landscape
# ---------------------------------------------------------------------------

def write_landscape_csv(path, n_values, eta_values, matrix):
    """Rows n, columns eta: header 'n,<eta1>,<eta2>,...' then one row per n."""
    _write_csv(path, ["n"] + ["%.17g" % e for e in eta_values], [n_values, matrix])
