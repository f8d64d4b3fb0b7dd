"""ionrabi: trapped-ion spin-boson simulator beyond the Lamb-Dicke regime.

Builds linear/nonlinear Jaynes-Cummings, anti-Jaynes-Cummings and quantum
Rabi Hamiltonians on a truncated qubit+phonon space, evolves pure states and
density matrices (unitary and Lindblad), and drives the blockade/filter and
dissipative Fock-state-preparation protocols enabled by the zeros of the
nonlinear sideband function f1.
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
    NonlinearCoupling,
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
    build_anti_jc,
    build_hamiltonian,
    build_jc,
    build_nonlinear_anti_jc,
    build_nonlinear_jc,
    build_nonlinear_qrm,
    build_qrm,
    build_two_tone,
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
