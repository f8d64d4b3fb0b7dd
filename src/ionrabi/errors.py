"""Exception types shared across the simulator."""

__all__ = ["IonRabiError", "SpaceMismatch", "TruncationTooSmall", "NoSignChange",
           "StepTooLarge", "PositivityLoss", "SchemaError", "ConvergenceFailure"]


class IonRabiError(Exception):
    """Base class for all package errors."""


class SpaceMismatch(IonRabiError):
    """Operators/states built on different Hilbert spaces were combined."""


class TruncationTooSmall(IonRabiError):
    """Fock truncation cannot hold the requested state to tolerance."""

    def __init__(self, message, required_n_max=None):
        super().__init__(message)
        self.required_n_max = required_n_max


class NoSignChange(IonRabiError):
    """Root bracketing failed: f1(n, eta) does not change sign on the scanned bracket."""


class StepTooLarge(IonRabiError):
    """Integrator step produced norm/trace drift beyond tolerance."""


class PositivityLoss(IonRabiError):
    """Density matrix developed a negative eigenvalue beyond tolerance."""


class SchemaError(IonRabiError):
    """Scenario file violates the documented schema."""


class ConvergenceFailure(IonRabiError):
    """Truncation convergence re-run changed observables beyond tolerance."""
