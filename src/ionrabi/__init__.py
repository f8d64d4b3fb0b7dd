"""ionrabi: trapped-ion spin-boson simulator beyond the Lamb-Dicke regime.

Builds the Jaynes-Cummings, anti-Jaynes-Cummings and quantum Rabi
Hamiltonians and their nonlinear forms on a truncated qubit+phonon space
with one builder, build_hamiltonian (a linear model is its nonlinear form at
eta = 0, where f1 is exactly 1).  Evolves pure states and density matrices:
eigh for a time-independent H; for the two-tone drive (TwoToneGenerator),
which is periodic in a rotating frame, RK4 over one period and powers of
that period's propagator, with no renormalization (evolve_unitary_td); and
Lindblad RK4.  Drives the blockade/filter and dissipative
Fock-state-preparation protocols enabled by the zeros of the nonlinear
sideband function f1.
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceFailure,
    IonRabiError,
    NoBarrier,
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
    displacement_matrix,
    f1_diagonal,
    f1_operator,
    f1_scalar,
    f1_series,
    identity_op,
    number_op,
    parity_op,
    qubit_ops,
    rabi_rate,
)
from .models import (
    ModelSpec,
    TwoToneGenerator,
    ValidityWarning,
    build_hamiltonian,
    default_n_max,
    sideband_detunings,
    simulated_frequencies,
)
from .dynamics import (
    LindbladSpec,
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
    CollapseRevivalResult,
    FilterReport,
    FockPrepPlan,
    FockPrepResult,
    f1_landscape,
    refine_barrier,
    run_collapse_revival,
    run_filter_analysis,
    run_fock_prep,
)
from .scenario import Scenario, parse_scenario, scenario_from_dict
from .runner import (
    RunResult,
    check_truncation_convergence,
    run,
    sweep,
)
