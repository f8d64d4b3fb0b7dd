"""Compensated (double-double) arithmetic primitives.

The nonlinear coupling f1 comes from the Laguerre recurrence
(fock.f1_diagonal), and the tests hold it to the alternating series (the
oracle in tests/oracles.py) within 1e-12 *relative* even where f1 itself is
~1e-5 near a blockade zero.  Plain double arithmetic leaves ~1e-15 absolute
noise in both routes, which is not enough headroom, so both are carried in
unevaluated double-double (hi, lo) pairs.  Error-free
transforms below are the standard Dekker/Knuth building blocks; they work
elementwise on numpy arrays as well as on python floats.
"""

_SPLIT = 134217729.0  # 2**27 + 1


def two_sum(a, b):
    """Exact a + b as (fl(a+b), roundoff)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def quick_two_sum(a, b):
    """two_sum assuming |a| >= |b|."""
    s = a + b
    return s, b - (s - a)


def two_prod(a, b):
    """Exact a * b as (fl(a*b), roundoff), via Dekker splitting."""
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def dd_add(xh, xl, yh, yl):
    s, e = two_sum(xh, yh)
    e = e + (xl + yl)
    return quick_two_sum(s, e)


def dd_mul(xh, xl, yh, yl):
    p, e = two_prod(xh, yh)
    e = e + (xh * yl + xl * yh)
    return quick_two_sum(p, e)


def dd_div_scalar(xh, xl, d):
    """Divide a double-double by an exactly representable double d."""
    q1 = xh / d
    p, e = two_prod(q1, d)
    s, e2 = two_sum(xh, -p)
    q2 = (s + (e2 + xl - e)) / d
    return quick_two_sum(q1, q2)
