"""ionrabi: trapped-ion spin-boson simulator beyond the Lamb-Dicke regime.

Builds the Jaynes-Cummings, anti-Jaynes-Cummings and quantum Rabi
Hamiltonians and their nonlinear forms on a truncated qubit+phonon space
with one builder, build_hamiltonian (a linear model is its nonlinear form at
eta = 0, where f1 is exactly 1).  ModelSpec.simulated() gives the nonlinear
QRM that a two-tone drive simulates and ModelSpec.two_tone() the drive that
simulates a nonlinear QRM.  Evolves pure states and density matrices:
eigh for a time-independent H; for the two-tone drive (TwoToneGenerator),
which is periodic in a rotating frame, RK4 over one period and powers of
that period's propagator, with no renormalization (evolve_unitary_td); and
Lindblad RK4.  Drives dissipative Fock-state preparation, enabled by the
zeros of the nonlinear sideband function f1, and measures the figure claims
on a Trajectory: the population above a blockade level (population_above)
and the collapse-revival ratio of <sigma_z> (revival_ratio).
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceFailure,
    IonRabiError,
    NoSignChange,
    PositivityLoss,
    SchemaError,
    SpaceMismatch,
    StepTooLarge,
    TruncationTooSmall,
)
from .fock import (
    HilbertSpace,
    Operator,
    annihilation_op,
    barrier_eta,
    creation_op,
    f1_diagonal,
    f1_scalar,
    number_op,
    parity_op,
    qubit_ops,
)
from .models import (
    ModelSpec,
    TwoToneGenerator,
    ValidityWarning,
    build_hamiltonian,
)
from .dynamics import (
    QuantumState,
    RwaReport,
    Trajectory,
    coherent_state,
    evolve_lindblad,
    evolve_unitary,
    evolve_unitary_td,
    expectation,
    fock_state,
    overlap_fidelity,
    phonon_distribution,
    rwa_crosscheck,
    thermal_state,
)
from .protocols import (
    f1_landscape,
    population_above,
    revival_ratio,
    run_fock_prep,
)
from .scenario import Scenario, parse_scenario, scenario_from_dict
from .runner import (
    RunResult,
    check_truncation_convergence,
    run,
    sweep,
)
