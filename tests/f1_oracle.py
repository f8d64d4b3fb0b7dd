"""Test oracle for f1: the alternating finite sum, an independent route to
the Laguerre recurrence that fock.f1_diagonal runs."""
import math

from ionrabi._dd import dd_add, dd_div_scalar, dd_mul, two_prod
from ionrabi.fock import _validate_f1_args


def f1_series(n: int, eta: float) -> float:
    """f1 from the alternating finite sum (terminates at l = n).

    Terms are generated by exact ratios and accumulated in compensated
    double-double arithmetic; the alternating cancellation near the zeros
    would otherwise swamp the value with roundoff.
    """
    _validate_f1_args(n, eta)
    xh, xl = two_prod(float(eta), float(eta))
    th, tl = 1.0, 0.0  # T_0 = 1
    sh, sl = 1.0, 0.0
    for l in range(n):
        # T_{l+1} = T_l * (-x) * (n - l) / ((l+1)(l+2))
        th, tl = dd_mul(th, tl, -xh, -xl)
        th, tl = dd_mul(th, tl, float(n - l), 0.0)
        th, tl = dd_div_scalar(th, tl, float((l + 1) * (l + 2)))
        sh, sl = dd_add(sh, sl, th, tl)
    return math.exp(-0.5 * eta * eta) * (sh + sl)
