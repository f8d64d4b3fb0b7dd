"""CSV rows of numbers, and '%.17e' for whole float64 arrays, byte for byte.

'%.17e' % x writes the 18 significant digits of x correctly rounded:
N = round(|x| * 10^(17 - E)) in [10^17, 10^18), E = floor(log10 |x|).  The
kernel computes that product exactly enough to round it: x = m * 2^b
(frexp), 10^k = (hi + lo) * 2^-s to about 2^-105 relative, and m * hi
exactly with _dd.two_prod, so the fraction of |x| * 10^k is known to within
2^-40 (Steele & White, PLDI 1990; Adams, "Ryu", PLDI 2018).  A value whose
fraction lies within _TIE of a rounding tie (exact ties occur: 2^-27 is
7.450580596923828125e-09) and a non-finite value are formatted by '%'
instead, so every byte equals what '%' writes.
"""
from __future__ import annotations

import functools

import numpy as np

from ._dd import two_prod

# A value's field is WORDS little-endian uint32 words, 28 bytes: the text
# 'd.ddddddddddddddddde+dd' with its optional bytes, a leading '-' (byte 0)
# and the exponent's hundreds digit (byte 22), NUL where absent; bytes 25-27
# are NUL, free for the separator that follows the value.
WORDS = 7
# decimal scales 17 - E, E from -324 (5e-324) to 308, one either side for
# a log10 that lands on the wrong side of a power of ten
_KMIN, _KMAX = 17 - 309, 17 + 325
_EMAX = 330  # the exponent table covers E in [-_EMAX, _EMAX]
_TIE = 2.0 ** -32  # far above the fraction's 2^-40 error, so no tie is missed


@functools.cache
def _pow10():
    """hi, lo, s with 10^k = (hi + lo) * 2^-s to about 2^-105 relative for k
    in [_KMIN, _KMAX], hi in [2^119, 2^121]; built on first use from exact
    integers, so importing the package builds no table and loads no
    fractions or decimal."""
    hi, lo, s = [], [], []
    for k in range(_KMIN, _KMAX + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        shift = 120 - (num.bit_length() - den.bit_length())
        m = (num << max(shift, 0)) // (den << max(-shift, 0))
        hi.append(float(m))
        lo.append(float(m - int(hi[-1])))
        s.append(shift)
    return np.array(hi), np.array(lo), np.array(s)


@functools.cache
def _glyphs():
    """Little-endian uint32 words of text: the four ASCII digits of 0..9999;
    a NUL sign byte and 'd.d' for the leading two digits 0..99; and 'e', the
    exponent's sign, its hundreds digit (NUL below 100) and tens digit, then
    its units digit, for E in [-_EMAX, _EMAX].  Built as bytes: the same
    tables from numpy integer arithmetic raised fockprep's peak RSS by 0.3 MB."""
    pairs = [b"%02d" % v for v in range(100)]
    four = b"".join(b"".join(hi + lo for lo in pairs) for hi in pairs)
    lead = b"".join(b"\0%c.%c" % (p[0], p[1]) for p in pairs)
    text = [b"e%c%c%02d" % (b"-+"[E >= 0], ord("0") + abs(E) // 100 if abs(E) >= 100 else 0,
                            abs(E) % 100) for E in range(-_EMAX, _EMAX + 1)]
    head = b"".join(t[:4] for t in text)
    tail = b"".join(t[4:] + b"\0\0\0" for t in text)
    return tuple(np.frombuffer(w, "<u4") for w in (four, lead, head, tail))


def _scaled(m, b, k):
    """m * 2^b * 10^k as an unevaluated sum p + e, p an integer near 10^17."""
    hi, lo, s = _pow10()
    i = k - _KMIN
    p, e = two_prod(m, hi[i])
    e += m * lo[i]
    # 2^(b - s): exact, since p lands in [2^56, 2^60]
    two = ((b - s[i] + 1023) << 52).view(np.float64)
    return p * two, e * two


def _outside(p, e):
    """+1 where p + e >= 10^18, -1 where it is below 10^17, else 0.  e may
    exceed half an ulp of p; p - 10^j is exact near 10^j, and rounding the
    sum keeps its sign."""
    return ((p - 1e18) + e >= 0).astype(np.int64) - ((p - 1e17) + e < 0)


def _fields(strings, shape):
    """The ASCII strings (at most 25 characters) as fields of the given
    shape, NUL-padded."""
    return np.array(strings, dtype=f"S{4 * WORDS}").view("<u4").reshape(shape + (WORDS,))


def format_e17(x, out):
    """Write '%.17e' % v for each v of the float64 array x into out, a "<u4"
    array of shape x.shape + (WORDS,): the bytes of out[i] that are not NUL,
    in order, are those of '%.17e' % x[i], and its last three bytes are NUL.
    out may be a strided view."""
    four, lead, head, tail = _glyphs()
    a = np.abs(x)
    finite = np.isfinite(x)
    # zeros and non-finite values go through as 1.0: no log10(0), no NaN cast
    safe = np.where(finite & (a != 0), a, 1.0)
    E = np.floor(np.log10(safe)).astype(np.int64)
    m, b = np.frexp(safe)
    b = b.astype(np.int64)
    p, e = _scaled(m, b, 17 - E)
    off = _outside(p, e)
    fallback = ~finite
    if off.any():
        fix = off != 0
        E[fix] += off[fix]
        p[fix], e[fix] = _scaled(m[fix], b[fix], 17 - E[fix])
        # only within the error bound of 10^17 or 10^18 (an exact power of
        # ten through an inexact 10^k) could a value land outside again
        fallback |= fix & (_outside(p, e) != 0)
    whole = np.floor(e)
    frac = e - whole
    fallback |= np.abs(frac - 0.5) < _TIE
    N = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    up = N == 10 ** 18  # rounded up to the next power of ten
    N = np.where(up, 10 ** 17, N)
    E += up
    N = np.where(a == 0, 0, N)  # went through as 1.0, so E is already 0
    top, rest = np.divmod(N, 10 ** 16)
    high, low = np.divmod(rest, 10 ** 8)
    out[..., 0] = lead.take(top) | np.signbit(x) * np.uint32(ord("-"))
    for j, half in ((1, high), (3, low)):
        q, r = np.divmod(half, 10000)
        out[..., j] = four.take(q)
        out[..., j + 1] = four.take(r)
    E += _EMAX
    out[..., 5] = head.take(E)
    out[..., 6] = tail.take(E)
    if fallback.any():
        out[fallback] = _fields(["%.17e" % v for v in x[fallback].tolist()], (-1,))


def csv_rows(parts):
    """The CSV text of the rows of the (n,) and (n, m) arrays `parts`, side
    by side, CRLF line ends: an integer array's values with '%d', any other's
    as float64 with '%.17e', byte for byte."""
    block = np.column_stack(parts).astype(np.float64, copy=False)
    field = np.empty(block.shape + (WORDS,), "<u4")
    format_e17(block, field)
    j = 0
    for part in parts:
        w = part.shape[1] if part.ndim == 2 else 1
        if np.issubdtype(part.dtype, np.integer):
            field[:, j:j + w] = _fields(["%d" % v for v in part.ravel().tolist()], (len(part), w))
        j += w
    text = field.view(np.uint8)
    text[:, :-1, 25] = ord(",")
    text[:, -1, 25:27] = (ord("\r"), ord("\n"))
    return text.tobytes().translate(None, b"\0")
