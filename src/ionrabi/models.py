"""Hamiltonians: the JC, anti-JC and quantum Rabi models with their nonlinear
(f1-dressed) forms, and the lab-frame two-tone drive that simulates the
nonlinear quantum Rabi model.

build_hamiltonian builds every time-independent kind.  A linear kind is its
nonlinear form at eta = 0, where f1 is exactly 1, so JC/AntiJC/QRM take no
eta.  The two-tone drive is time-dependent: TwoToneGenerator supplies
phases(t) and apply(phases, X, out), the step bound dt_max, and the
rotating frame and period in which the drive repeats, for evolve_unitary_td.

The two-tone drive simulates the nonlinear QRM of the same eta and g with
omega0_R = -(delta_r + delta_b)/2 and omega_R = (delta_r - delta_b)/2;
inversely delta_r = omega_R - omega0_R and delta_b = -omega_R - omega0_R.
ModelSpec.simulated() and ModelSpec.two_tone() are the only code that holds
this map.

Sign convention: the exchange coupling is represented literally as
i g (sigma+ B - sigma- B^dag); no sigma_x-style rephasing is substituted,
since fidelity traces are sensitive to the convention.

Units: every frequency-like parameter (g, Omega, nu, detunings, omega_R,
omega0_R) is angular (rad/s, or any consistent unit), so times are in its
inverse; only runner.simulate_scenario converts them to cycles of 2*pi/g.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fock import (
    HilbertSpace,
    Operator,
    _boson_a,
    displacement_boson,
    f1_diagonal,
)

__all__ = [
    "MODEL_FIELDS",
    "MODEL_KINDS",
    "ValidityWarning",
    "ModelSpec",
    "build_hamiltonian",
    "TwoToneGenerator",
    "DEFAULT_NU",
]

# each kind's required parameters besides `kind`; TwoTone may add TWO_TONE_OPTIONAL
MODEL_FIELDS = {
    "JC": {"g"},
    "AntiJC": {"g"},
    "NonlinearJC": {"g", "eta"},
    "NonlinearAntiJC": {"g", "eta"},
    "QRM": {"g", "omega_R", "omega0_R"},
    "NonlinearQRM": {"g", "eta", "omega_R", "omega0_R"},
    "TwoTone": {"eta", "Omega", "nu", "delta_r", "delta_b"},
}
TWO_TONE_OPTIONAL = {"g", "phi_r", "phi_b"}
MODEL_KINDS = tuple(MODEL_FIELDS)

_JC_FAMILY = ("JC", "AntiJC", "NonlinearJC", "NonlinearAntiJC")
_QRM_FAMILY = ("QRM", "NonlinearQRM")

# Default trap frequency for two-tone cross-checks: 2*pi * 5 MHz, so that the
# paper-scale Omega = 2*pi * 133.26 kHz satisfies Omega/nu ~ 0.027 << 1.
DEFAULT_NU = 2 * math.pi * 5e6


class ValidityWarning(UserWarning):
    """A parameter choice strains the approximation hierarchy of the model."""


@dataclass
class ModelSpec:
    """Declarative description of which Hamiltonian to build and its parameters.

    g is the qubit-boson coupling; for TwoTone it must satisfy g = eta*Omega/2
    (supplied g values are cross-checked, missing ones derived).
    """

    kind: str
    eta: float = 0.0
    g: float | None = None
    omega_R: float = 0.0
    omega0_R: float = 0.0
    Omega: float | None = None
    nu: float | None = None
    delta_r: float = 0.0
    delta_b: float = 0.0
    phi_r: float = 0.0
    phi_b: float = 0.0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; expected one of {MODEL_KINDS}")
        if self.eta < 0:
            raise ValueError("eta must be >= 0")
        takes_eta = "eta" in MODEL_FIELDS[self.kind]   # the linear kinds take none
        if not takes_eta and self.eta > 0:
            raise ValueError(f"{self.kind} is the eta = 0 limit; use Nonlinear{self.kind}")
        if takes_eta and self.kind != "TwoTone" and self.eta == 0.0:
            # eta = 0 is the exact linear limit; allowed, but flag the intent
            warnings.warn(f"{self.kind} with eta=0 is the linear model", ValidityWarning)
        if self.kind in _JC_FAMILY:
            if self.g is None or self.g <= 0:
                raise ValueError(f"{self.kind} requires g > 0")
        if self.kind in _QRM_FAMILY:
            if self.g is None or self.g < 0:
                raise ValueError(f"{self.kind} requires g >= 0")
        if self.kind == "TwoTone":
            self._init_two_tone()

    def _init_two_tone(self):
        if self.eta <= 0:
            raise ValueError("TwoTone requires eta > 0")
        if self.nu is None or self.nu <= 0:
            raise ValueError("TwoTone requires trap frequency nu > 0")
        if self.Omega is None:
            if self.g is None:
                raise ValueError("TwoTone requires Omega (or g) to be set")
            self.Omega = 2.0 * self.g / self.eta
        g_implied = self.eta * self.Omega / 2.0
        if self.g is None:
            self.g = g_implied
        elif abs(self.g - g_implied) > 1e-9 * abs(self.g):
            raise ValueError(
                f"inconsistent coupling: g={self.g} but eta*Omega/2={g_implied}"
            )
        if 2.0 * self.nu + self.delta_b - self.delta_r == 0.0:
            raise ValueError("TwoTone requires 2 nu + delta_b - delta_r != 0: "
                             "the drive has no period in its rotating frame")
        for name, delta in (("delta_r", self.delta_r), ("delta_b", self.delta_b)):
            if abs(delta) > 0.1 * self.nu:
                warnings.warn(
                    f"|{name}|/nu = {abs(delta) / self.nu:.3f} > 0.1 strains the "
                    "sideband hierarchy delta << nu",
                    ValidityWarning,
                )
        if self.Omega / self.nu > 0.2:
            warnings.warn(
                f"Omega/nu = {self.Omega / self.nu:.3f} > 0.2 strains the "
                "vibrational RWA condition Omega << nu",
                ValidityWarning,
            )

    def simulated(self) -> "ModelSpec":
        """The model this spec simulates: for TwoTone, the NonlinearQRM of the
        same eta and g with omega0_R = -(delta_r + delta_b)/2 and
        omega_R = (delta_r - delta_b)/2; for every other kind, the spec itself.
        """
        if self.kind != "TwoTone":
            return self
        return ModelSpec(kind="NonlinearQRM", eta=self.eta, g=self.g,
                         omega0_R=-0.5 * (self.delta_r + self.delta_b),
                         omega_R=0.5 * (self.delta_r - self.delta_b))

    def two_tone(self) -> "ModelSpec":
        """The TwoTone spec that simulates this NonlinearQRM, the inverse of
        simulated(): the same eta and g, nu = DEFAULT_NU,
        delta_r = omega_R - omega0_R and delta_b = -omega_R - omega0_R.
        Raises ValueError for every other kind.
        """
        if self.kind != "NonlinearQRM":
            raise ValueError(f"only a NonlinearQRM has a two-tone drive, not {self.kind}")
        return ModelSpec(kind="TwoTone", eta=self.eta, g=self.g, nu=DEFAULT_NU,
                         delta_r=self.omega_R - self.omega0_R,
                         delta_b=-self.omega_R - self.omega0_R)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_hamiltonian(spec: ModelSpec, space: HilbertSpace) -> Operator:
    """The time-independent H of spec.kind; the linear kinds are eta = 0, where
    f1 is exactly 1.

    JC family: i g (sigma+ B - sigma- B^dag) with B = f1 a (JC: couples
    |down,n> <-> |up,n-1> at rate g sqrt(n) |f1(n-1)|) or B = a^dag f1
    (anti-JC: |down,n> <-> |up,n+1> at rate g sqrt(n+1) |f1(n)|).
    Rabi family: omega0_R/2 sigma_z + omega_R a^dag a
    + i g (sigma+ - sigma-)(f1 a + a^dag f1); f1 a + a^dag f1 is hermitian,
    and at a barrier index n* with f1(n*) = 0 the n <= n* and n > n* sectors
    decouple exactly.
    """
    if spec.kind == "TwoTone":
        raise ValueError("TwoTone is time-dependent; use TwoToneGenerator")
    d = space.dim_boson
    f1 = f1_diagonal(space.n_max, spec.eta)
    a = _boson_a(space.n_max)
    fa = f1[:, None] * a
    H = np.zeros((2 * d, 2 * d), dtype=complex)
    if spec.kind in _QRM_FAMILY:
        nb = np.arange(d)
        H[:d, :d] = np.diag(spec.omega_R * nb - spec.omega0_R / 2.0)
        H[d:, d:] = np.diag(spec.omega_R * nb + spec.omega0_R / 2.0)
        coupling = fa + fa.conj().T
        H[d:, :d] += 1j * spec.g * coupling
        H[:d, d:] += -1j * spec.g * coupling
    else:
        block = fa if spec.kind in ("JC", "NonlinearJC") else a.conj().T * f1
        H[d:, :d] = 1j * spec.g * block
        H[:d, d:] = (1j * spec.g * block).conj().T
    return Operator(space, H)


# ---------------------------------------------------------------------------
# two-tone lab-frame drive
# ---------------------------------------------------------------------------

class TwoToneGenerator:
    """Time-dependent two-tone Hamiltonian in the qubit+mode interaction picture.

    Two laser tones at omega_r = omega0 - nu + delta_r and
    omega_b = omega0 + nu + delta_b give, after the optical RWA,

        H(t) = Omega/2 sigma+ D(i eta e^{i nu t})
               [e^{-i((delta_r - nu) t - phi_r)} + e^{-i((delta_b + nu) t - phi_b)}]
               + H.c.

    Note the tone phase factors carry the full detunings from the carrier
    (-nu + delta_r and +nu + delta_b); keeping only the slow delta_r/delta_b
    would put both tones on the carrier resonance instead of the sidebands.
    Under the vibrational RWA this Hamiltonian reduces to the nonlinear QRM
    spec.simulated().

    The displacement argument i eta e^{i nu t} has constant modulus, so
    D(t) = P(t) D(i eta) P(t)^dag with P(t) = diag(e^{i nu n t}).  Every
    element <m|D(i eta)|n> is i^(m-n) times a real number, so
    D(i eta) = S R S^dag with S = diag(i^n) and R real: phases(t) builds
    q(t)^* = (P(t) S)^* and q(t) times the tone coefficients, for a float t
    or one time per column of X, and apply(phases(t), X, out) takes each
    half of H(t) @ X as a phase multiply by q(t)^* into one scratch array,
    one real matmul with R or R^T on the interleaved real and imaginary
    parts into the caller's `out`, and a phase multiply by q(t) times the
    tone coefficient or its conjugate.  The scratch array, grown to the
    widest X, is kept on the instance, so one generator must not be shared
    between threads.  The tests build the dense H(t) on its own, as a
    reference, with tests/oracles.two_tone_matrix.

    The drive is periodic in a rotating frame.  With W(t) = diag(e^{i K t}),
    K = nu n on the qubit-down block and nu n - (delta_r - nu) on the
    qubit-up block (`frame`), W^dag H W + K has the coupling block
    Omega/2 D(i eta) [e^{i phi_r} + e^{-i (2 nu + delta_b - delta_r) t + i phi_b}],
    which repeats with `period` T' = 2 pi / |2 nu + delta_b - delta_r|.
    """

    def __init__(self, spec: ModelSpec, space: HilbertSpace):
        if spec.kind != "TwoTone":
            raise ValueError(f"TwoToneGenerator requires a TwoTone spec, got {spec.kind}")
        self.spec = spec
        self.space = space
        d0 = displacement_boson(space.n_max, 1j * spec.eta)
        self.nb = np.arange(space.dim_boson)
        # S = diag(i^n), exact: S^dag D(i eta) S has imaginary part 0
        self.s = np.array([1, 1j, -1, -1j])[self.nb % 4]
        self.r = (self.s.conj()[:, None] * d0 * self.s[None, :]).real.copy()
        # apply's scratch for one half of X, grown to the widest call
        self._z = np.empty(0, dtype=complex)
        self._full_r = spec.delta_r - spec.nu
        self._full_b = spec.delta_b + spec.nu
        self.frame = np.concatenate([spec.nu * self.nb, spec.nu * self.nb - self._full_r])
        self.period = 2.0 * math.pi / abs(self._full_b - self._full_r)
        # step bound of evolve_unitary_td's sixth-order step: 100 steps per
        # trap period keep validate's one-cycle fig6 max_deviation within
        # 1e-11 of perfbench/refs/twotone.json (3.8e-12), made by RK4 over the
        # whole span at 200; 80 miss it by 2.0e-11.
        self.dt_max = 2.0 * math.pi / (100.0 * spec.nu)

    def tone_coeff(self, t: float) -> complex:
        s = self.spec
        return (s.Omega / 2.0) * (
            np.exp(-1j * (self._full_r * t - s.phi_r))
            + np.exp(-1j * (self._full_b * t - s.phi_b))
        )

    def phases(self, t):
        """H(t)'s phases for apply: (q(t)^*, [conj(c) q(t), c q(t)]), c =
        tone_coeff(t), as (d, 1) columns for a float t or (d, m) arrays for m times."""
        q = np.exp(self.nb[:, None] * (1j * self.spec.nu * t))
        q *= self.s[:, None]
        c = self.tone_coeff(t)
        return q.conj(), np.array([np.conj(c) * q, c * q])

    def apply(self, ph, X: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write H(t) @ X into `out` and return it, without materializing H: ph =
        phases(t), X of shape (dim,) or (dim, m), `out` C-contiguous of X's shape
        and apart from X, and t a float or, for X of shape (dim, m), m times,
        H(t[i]) acting on X[:, i]."""
        d = self.space.dim_boson
        pre, post = ph
        halves = X.reshape(2, d, -1)    # [down block, up block]
        m = halves.shape[2]
        if self._z.size < d * m:
            self._z = np.empty(d * m, dtype=complex)
        # C-ordered, so Z and each half of out view as (d, 2m) floats
        Z = self._z[:d * m].reshape(d, m)
        res = out.reshape(2, d, m)
        np.matmul(self.r, np.multiply(pre, halves[0], out=Z).view(float), out=res[1].view(float))
        np.matmul(self.r.T, np.multiply(pre, halves[1], out=Z).view(float),
                  out=res[0].view(float))
        res *= post
        return out
