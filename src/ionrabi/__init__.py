"""ionrabi: trapped-ion spin-boson simulator beyond the Lamb-Dicke regime.

Builds the Jaynes-Cummings, anti-Jaynes-Cummings and quantum Rabi
Hamiltonians and their nonlinear forms on a truncated qubit+phonon space
with one builder, build_hamiltonian (a linear model is its nonlinear form at
eta = 0, where f1 is exactly 1).  ModelSpec.simulated() gives the nonlinear
QRM that a two-tone drive simulates and ModelSpec.two_tone() the drive that
simulates a nonlinear QRM.  Evolves pure states and density matrices:
eigh for a time-independent H; for the two-tone drive (TwoToneGenerator),
which is periodic in a rotating frame, sixth-order Runge-Kutta over one
period and that period's propagator applied to the start once a period
(successive matvecs), with no renormalization (evolve_unitary_td); and
Lindblad RK4.  Drives dissipative Fock-state preparation, enabled by the
zeros of the nonlinear sideband function f1, and measures the figure claims
on a Trajectory: the population above a blockade level (population_above)
and the collapse-revival ratio of <sigma_z> (revival_ratio).

The package namespace is each module's __all__, re-exported below: each
module's list is the one record of its public names.
"""

__version__ = "0.1.0"

from .errors import *
from .fock import *
from .models import *
from .dynamics import *
from .protocols import *
from .scenario import *
from .runner import *
