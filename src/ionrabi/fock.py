"""Composite qubit+oscillator Hilbert space, operators on it, and the
nonlinear sideband coupling f1.

Basis convention (shared by every operator in the package):
    index = qubit * (n_max + 1) + n
with qubit 0 = |down> = |g> and qubit 1 = |up> = |e>.  The first
(n_max + 1) amplitudes are the |g> phonon ladder, the rest the |e> ladder.

f1 is the diagonal operator
    f1(n) = exp(-eta^2/2) * sum_l (-eta^2)^l / (l! (l+1)!) * n!/(n-l)!
          = exp(-eta^2/2) * L_n^{(1)}(eta^2) / (n + 1)
that dresses red/blue sideband rates outside the Lamb-Dicke regime.  Its
zeros in eta ("barriers") exactly decouple the Fock ladder above and below
the zero index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._dd import dd_add, dd_div_scalar, dd_mul, two_prod
from .errors import NoSignChange

__all__ = [
    "HilbertSpace",
    "Operator",
    "f1_scalar",
    "f1_diagonal",
    "barrier_eta",
    "hermiticity_defect",
]

# default eta bracket of barrier_eta and `ionrabi f1 --find-zero`; it holds the
# first zero of every n >= 1 (sqrt(2) for n = 1)
BARRIER_BRACKET = (1e-3, 1.5)
# f1_diagonal runs an eta past this as this: x = eta^2 = 2^990 still splits
# in two_prod, and f1 rounds to 0 there on every row below n = 10^290
_ETA_CAP = 2.0 ** 495
# ln 2 = _LN2_HI + _LN2_LO, _LN2_HI in 32 bits (fdlibm's split)
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_TINY = np.finfo(float).tiny   # the least normal double


@dataclass(frozen=True)
class HilbertSpace:
    """Qubit x truncated Fock space, truncated at phonon number n_max."""

    n_max: int

    def __post_init__(self):
        if not isinstance(self.n_max, (int, np.integer)) or self.n_max < 1:
            raise ValueError(f"n_max must be an integer >= 1, got {self.n_max!r}")

    @property
    def dim_boson(self) -> int:
        return self.n_max + 1

    @property
    def dim_total(self) -> int:
        return 2 * (self.n_max + 1)

    def index(self, qubit: int, n: int) -> int:
        """Flat basis index of |qubit, n> (qubit 0 = down/g, 1 = up/e)."""
        if qubit not in (0, 1):
            raise ValueError("qubit must be 0 (down) or 1 (up)")
        if not 0 <= n <= self.n_max:
            raise ValueError(f"Fock index {n} outside truncation 0..{self.n_max}")
        return qubit * self.dim_boson + n


class Operator:
    """Dense complex matrix on a HilbertSpace, its entries checked finite.

    Hermiticity is not checked here: evolve_unitary and evolve_lindblad check
    that H has hermiticity_defect(H.mat) <= 1e-12.
    """

    def __init__(self, space: HilbertSpace, mat: np.ndarray):
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (space.dim_total, space.dim_total):
            raise ValueError(
                f"matrix shape {mat.shape} does not match dim_total {space.dim_total}"
            )
        if not np.all(np.isfinite(mat.view(float))):
            raise ValueError("operator entries must be finite")
        self.space = space
        self.mat = mat


def hermiticity_defect(mat: np.ndarray) -> float:
    """max|H - H^dag| relative to max|H| (0 for the zero matrix)."""
    scale = np.abs(mat).max()
    if scale == 0.0:
        return 0.0
    return float(np.abs(mat - mat.conj().T).max() / scale)


def _sectors(mat: np.ndarray, live: np.ndarray) -> list:
    """The connected components of mat's nonzero pattern (read as undirected)
    that hold an index in `live`: one (k, s) index array per size s,
    ascending, its rows the components by smallest index, each ascending.
    Labels start as the indices; each pass takes the least label among an
    index and its neighbours, then jumps pointers to a fixed point, so they
    settle on each component's smallest index.
    """
    dim = len(mat)
    nz = mat != 0
    rows, cols = np.nonzero(nz | nz.T)
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    present = rows[starts]
    label = np.arange(dim)
    while True:
        new = label.copy()
        new[present] = np.minimum(label[present], np.minimum.reduceat(label[cols], starts))
        while not np.array_equal(jumped := new[new], new):
            new = jumped
        if np.array_equal(new, label):
            break
        label = new
    keep = np.zeros(dim, dtype=bool)
    keep[label[live]] = True
    members = np.flatnonzero(keep[label])
    size = np.bincount(label, minlength=dim)[label[members]]
    # stable: each component keeps its indices ascending
    order = np.argsort(size * dim + label[members], kind="stable")
    members, size = members[order], size[order]
    bounds = np.append(np.flatnonzero(np.diff(size, prepend=0)), len(size))
    return [members[a:b].reshape(-1, size[a]) for a, b in zip(bounds[:-1], bounds[1:])]


# ---------------------------------------------------------------------------
# the ladder operator
# ---------------------------------------------------------------------------

def _boson_a(n_max: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1).astype(complex)


# ---------------------------------------------------------------------------
# nonlinear coupling f1
# ---------------------------------------------------------------------------

def _validate_f1_args(n: int, eta: float):
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"Fock index must be an integer >= 0, got {n!r}")
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")


def f1_scalar(n: int, eta: float) -> float:
    """f1(n, eta): row n of f1_diagonal; agrees with the alternating finite
    sum to full double precision (tested invariant)."""
    return float(f1_diagonal(n, eta)[n])


def f1_diagonal(n_max: int, eta) -> np.ndarray:
    """f1(0..n_max, eta) from exp(-eta^2/2) L_n^{(1)}(eta^2) / (n+1).

    eta is a float or a 1-d array; the result has shape
    (n_max + 1,) + shape(eta).  y_n = L_n^{(1)}(x) / (n+1), x = eta^2, comes
    from the three-term upward recurrence of L_n^{(1)}, written in y_n and
    divided through by n + 1,
        (n+2) y_{n+1} = (2n+2-x) y_n - n y_{n-1},   y_0 = 1,
    in double-double, run elementwise over all eta at once: one division a
    level, and no factorial to overflow.

    |y_n| reaches about exp(x/2), past the 2^996 that Dekker's split takes,
    from eta ~ 37.4 on.  So each level compares y_{k+1} with
    limit = 2^995 / (x + 3 n_max + 2), below which the next level's
    (k+2) y_{k+2} stays under 2^995; a y_{k+1} past it is rescaled with y_k,
    both by 2^-e for y_{k+1} = m 2^e, m in [0.5, 1), and its column's
    exponent s gains e.  Row n stores y_n 2^-s.  An entry with s > 0, or one
    whose exp(-x/2) is no normal double (eta > 37.64), is
    m exp(-x/2 + (s + e) ln 2) for a stored m 2^e, within about
    1e-16 |ln f1| relative; every other one is y_n exp(-x/2), as it always
    was, which covers every eta up to 37 (|y_n| < 2^975 there) for n_max
    below 500,000.  An eta past _ETA_CAP runs as _ETA_CAP.
    """
    x = np.minimum(np.asarray(eta, dtype=float), _ETA_CAP)
    if x.ndim > 1:
        raise ValueError(f"eta must be a float or a 1-d array, got shape {x.shape}")
    _validate_f1_args(n_max, x.min() if x.size else 0.0)
    # one rescaling test a level: a python comparison for a float eta
    test = np.any
    if x.ndim == 0:
        x = float(x)  # python floats run the scalar recurrence faster than 0-d arrays
        test = bool
    xh, xl = two_prod(x, x)
    # math.exp, not np.exp: the two differ in the last bit for some eta
    pref = np.array([math.exp(v) for v in np.ravel(-0.5 * x * x)]).reshape(np.shape(x))
    limit = 2.0 ** 995 / (xh + (3 * n_max + 2))
    out = np.empty((n_max + 1,) + np.shape(x))
    out[0] = 1.0
    ym_h, ym_l = 0.0, 0.0  # y_{-1}
    yc_h, yc_l = 1.0, 0.0  # y_0
    s, shift = 0, None     # each column's exponent, and each row's from the first rescale on
    for k in range(n_max):
        # (k+2) y_{k+1} = (2k+2-x) y_k - k y_{k-1}
        ah, al = dd_add(float(2 * k + 2), 0.0, -xh, -xl)
        ah, al = dd_mul(ah, al, yc_h, yc_l)
        bh, bl = dd_mul(ym_h, ym_l, float(k), 0.0)
        nh, nl = dd_add(ah, al, -bh, -bl)
        nh, nl = dd_div_scalar(nh, nl, float(k + 2))
        ym_h, ym_l, yc_h, yc_l = yc_h, yc_l, nh, nl
        if test(abs(nh) > limit):
            e = np.where(abs(nh) > limit, np.frexp(nh)[1], 0)
            ym_h, ym_l, yc_h, yc_l = (np.ldexp(v, -e) for v in (ym_h, ym_l, yc_h, yc_l))
            s = s + e
            if shift is None:
                shift = np.zeros(out.shape, dtype=int)
        out[k + 1] = yc_h
        if shift is not None:
            shift[k + 1] = s
    # an entry after a rescale, or under an exp(-x/2) that is no normal
    # double, takes its exponent into the exp
    low = pref < _TINY
    fold = None
    if shift is not None or test(low):
        fold = np.broadcast_to(low, out.shape) if shift is None else low | (shift > 0)
        m, e = np.frexp(out[fold])
        if shift is not None:
            e = e + shift[fold]
        # e ln 2 - x/2 with ln 2 and x in two parts: e ln2_hi is exact, and
        # the sum is off by about 1e-16 |ln f1|, not 1e-16 x
        xh_f, xl_f = (np.broadcast_to(v, out.shape)[fold] for v in (xh, xl))
        folded = m * np.exp((e * _LN2_HI - 0.5 * xh_f) + (e * _LN2_LO - 0.5 * xl_f))
    out *= pref
    if fold is not None:
        out[fold] = folded
    return out


def barrier_eta(n: int, bracket: tuple[float, float] = BARRIER_BRACKET) -> float:
    """Smallest eta in the bracket with f1(n, eta) = 0 (the blockade value).

    Scans eta on a 1e-3 grid, to one step past 2/sqrt(n + 1) in the first
    f1_diagonal call (the first zero of L_n^(1) lies at x <= 4/(n + 1)) and
    1000 points a call on, to bracket the first sign change.  The scan ends
    one step past eta = 2 sqrt(n + 1), or at the bracket's end if that comes
    first: every zero of L_n^(1) lies below x = 4n + 4 (Szego, Orthogonal
    Polynomials, ch. 6), so no sign change lies beyond, and an infinite or
    huge bracket ends there, not in overflow or never.  It then narrows
    the bracket to the two adjacent doubles between which f1 changes sign
    and returns their rounded midpoint, checked through f1_scalar.  Each
    step is Newton in x = eta^2 from the last point, on F_n(x) = f1(n, eta)
    with dF_n/dx = -F_n/2 + n (F_n - F_{n-1})/x (both rows from one
    f1_diagonal call), moved one double on towards the far end of the
    bracket, so that a converged step still crosses the root; a step that
    leaves the bracket bisects it.  For n = 1-150 that takes 6-8
    f1_diagonal calls in all.
    Zeros of f1 in eta are simple and well separated below eta = 1.5.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"barrier index must be an integer >= 1, got {n!r}")
    lo, hi = bracket
    if not 0 < lo < hi:
        raise ValueError(f"invalid bracket {bracket}")
    step = 1e-3
    end = min(hi, 2.0 * math.sqrt(n + 1) + step)
    start = lo
    count = max(1, math.ceil((min(hi, 2.0 / math.sqrt(n + 1)) - lo) / step) + 1)
    while True:
        # up to `count` steps of e_k = min(e_{k-1} + step, end), summed in order
        # so that the grid points do not depend on the chunking (a lo past
        # `end` leaves the one point `end`)
        grid = np.minimum(np.add.accumulate(np.r_[start, np.full(count, step)]), end)
        grid = grid[:np.searchsorted(grid, end) + 1]
        table = f1_diagonal(n, grid)
        f = table[n]
        # strict: f is exactly 0 where f1 underflows, which is no zero of f1
        hit = np.nonzero(f[:-1] * f[1:] < 0)[0]
        if hit.size:
            break
        if grid[-1] == end:
            raise NoSignChange(
                f"f1({n}, eta) does not change sign on eta in [{lo}, {hi}] (scanned step {step})"
            )
        start, count = grid[-1], 1000
    k = int(hit[0]) + 1
    a, fa, b, fb = float(grid[k - 1]), float(f[k - 1]), float(grid[k]), float(f[k])
    j = k - 1 if abs(fa) < abs(fb) else k
    e, fe_1, fe = float(grid[j]), float(table[n - 1, j]), float(f[j])   # e is a or b
    while math.nextafter(a, b) < b:   # each step narrows the bracket
        x = e * e
        slope = n * (fe - fe_1) / x - fe / 2   # dF_n/dx
        m = math.nextafter(math.sqrt(max(0.0, x - fe / slope)) if slope else e,
                           b if e == a else a)
        if not a < m < b:   # also a NaN or flat step
            m = 0.5 * (a + b)
        fe_1, fe = (float(v) for v in f1_diagonal(n, m)[n - 1:])
        if fe == 0.0:
            return m
        e = m
        if fa * fe < 0:
            b, fb = m, fe
        else:
            a, fa = m, fe
    root = 0.5 * (a + b)
    if abs(f1_scalar(n, root)) >= 1e-12:
        raise NoSignChange(f"bracket search stalled for n={n} on [{a}, {b}]")
    return root


# ---------------------------------------------------------------------------
# displacement operator
# ---------------------------------------------------------------------------

def _laguerre_table(n_max: int, x: float) -> np.ndarray:
    """L[j, k] = L_j^{(k)}(x) for 0 <= j, k <= n_max, rowwise recurrence."""
    dim = n_max + 1
    k = np.arange(dim, dtype=float)
    L = np.empty((dim, dim))
    L[0] = 1.0
    if n_max >= 1:
        L[1] = k + 1.0 - x
    for j in range(1, n_max):
        L[j + 1] = ((2 * j + k + 1.0 - x) * L[j] - (j + k) * L[j - 1]) / (j + 1.0)
    return L


def _log_factorials(dim: int) -> np.ndarray:
    """log n! for 0 <= n < dim, one cumulative sum of logs: the table of
    coherent_required_n_max, coherent_state and displacement_boson."""
    return np.concatenate([[0.0], np.cumsum(np.log(np.arange(1.0, dim)))])


def displacement_boson(n_max: int, beta: complex) -> np.ndarray:
    """<m|D(beta)|n> on the truncated boson space, D(beta) = exp(beta a^dag - beta* a).

    Closed form per subdiagonal k = m - n >= 0:
        <n+k|D|n> = sqrt(n!/(n+k)!) beta^k exp(-|beta|^2/2) L_n^{(k)}(|beta|^2)
    and <n|D|n+k> from D(-beta)^dag symmetry.  Magnitudes are assembled in
    log space so the far corners underflow to zero instead of overflowing.
    """
    dim = n_max + 1
    if beta == 0:
        return np.eye(dim, dtype=complex)
    x = abs(beta) ** 2
    phase = beta / abs(beta)
    L = _laguerre_table(n_max, x)
    logfact = _log_factorials(dim)
    log_absbeta = math.log(abs(beta))
    D = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        n = np.arange(dim - k)
        Lk = L[n, k]
        with np.errstate(divide="ignore"):
            logmag = (
                0.5 * (logfact[n] - logfact[n + k])
                + k * log_absbeta
                - 0.5 * x
                + np.log(np.abs(Lk))
            )
        mag = np.where(Lk == 0.0, 0.0, np.sign(Lk) * np.exp(logmag))
        D[n + k, n] = mag * phase**k
        if k > 0:
            D[n, n + k] = mag * (-np.conj(phase)) ** k
    return D

