"""The package namespace: each module's __all__, re-exported by ionrabi."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ionrabi

MODULES = ["errors", "fock", "models", "dynamics", "protocols", "scenario", "runner"]

# the names ionrabi/__init__.py once listed one by one
LISTED = """
ConvergenceFailure IonRabiError NoSignChange PositivityLoss SchemaError SpaceMismatch
StepTooLarge TruncationTooSmall HilbertSpace Operator barrier_eta f1_diagonal f1_scalar
ModelSpec TwoToneGenerator ValidityWarning build_hamiltonian QuantumState
RwaReport Trajectory coherent_state evolve_lindblad evolve_unitary evolve_unitary_td
fock_state rwa_crosscheck thermal_state f1_landscape population_above revival_ratio
run_fock_prep Scenario parse_scenario scenario_from_dict RunResult
check_truncation_convergence run sweep
""".split()

# the names only the tests called, now in tests/oracles.py
MOVED = """
annihilation_op creation_op number_op parity_op expectation overlap_fidelity
phonon_distribution qubit_ops
""".split()


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_are_package_exports(name):
    module = importlib.import_module(f"ionrabi.{name}")
    assert [n for n in module.__all__ if getattr(ionrabi, n, None) is not getattr(module, n)] == []


def test_listed_names_still_exported():
    assert [n for n in LISTED if not hasattr(ionrabi, n)] == []


def test_moved_names_left_the_package():
    modules = [ionrabi] + [importlib.import_module(f"ionrabi.{name}") for name in MODULES]
    assert [(m.__name__, n) for m in modules for n in MOVED if hasattr(m, n)] == []
    assert not hasattr(ionrabi.TwoToneGenerator, "matrix")


def test_cli_import_loads_no_yaml():
    # scenario.YamlLoader imports yaml on its first call, not at package import;
    # nor fractions or decimal: the CSV writer's power-of-ten table is built
    # from integers on first use
    src = str(Path(ionrabi.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, ionrabi.cli, ionrabi.runner; "
            "sys.exit(any(m in sys.modules for m in ('yaml', 'fractions', 'decimal')))")
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0
