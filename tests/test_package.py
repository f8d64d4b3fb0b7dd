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
StepTooLarge TruncationTooSmall HilbertSpace Operator annihilation_op barrier_eta
creation_op f1_diagonal f1_scalar number_op parity_op qubit_ops ModelSpec TwoToneGenerator
ValidityWarning build_hamiltonian QuantumState RwaReport Trajectory coherent_state
evolve_lindblad evolve_unitary evolve_unitary_td expectation fock_state overlap_fidelity
phonon_distribution rwa_crosscheck thermal_state f1_landscape population_above
revival_ratio run_fock_prep Scenario parse_scenario scenario_from_dict RunResult
check_truncation_convergence run sweep
""".split()


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_are_package_exports(name):
    module = importlib.import_module(f"ionrabi.{name}")
    assert [n for n in module.__all__ if getattr(ionrabi, n, None) is not getattr(module, n)] == []


def test_listed_names_still_exported():
    assert [n for n in LISTED if not hasattr(ionrabi, n)] == []


def test_cli_import_loads_no_yaml():
    # scenario.YamlLoader imports yaml on its first call, not at package import
    src = str(Path(ionrabi.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, ionrabi.cli, ionrabi.runner; sys.exit('yaml' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0
