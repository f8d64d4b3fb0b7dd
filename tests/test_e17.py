"""_e17.csv_rows writes exactly the bytes of '%.17e' % x for each float x, as
format_e17 builds them, and runner's CSV writer, which takes its text from
_e17.csv_rows a chunk at a time, exactly those of one '%' per row."""
import numpy as np
import pytest

from ionrabi import _e17, runner

# every warning is an error here, whatever the command line says: log10(0)
# and a NaN cast to int64 must not happen for zeros and non-finite values
pytestmark = pytest.mark.filterwarnings("error")


def _assert_as_percent(x):
    x = x.ravel()
    got = b"".join(_e17.csv_rows([x[a:a + 100_000]]) for a in range(0, x.size, 100_000))
    want = ("%.17e\r\n" * x.size % tuple(x.tolist())).encode()
    if got != want:
        bad = [(w, g) for w, g in zip(want.splitlines(), got.splitlines()) if w != g]
        pytest.fail(f"{len(bad)} values differ from '%', the first {bad[:5]}")


def _patterns(rng, n, exponents):
    """n float64 values of random sign and mantissa bits, their biased
    exponent field drawn from `exponents`."""
    sign = rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    field = rng.choice(np.asarray(exponents, dtype=np.uint64), n) << np.uint64(52)
    mantissa = rng.integers(0, 1 << 52, n, dtype=np.uint64)
    return (sign | field | mantissa).view(np.float64)


def test_random_bit_patterns():
    # 10^6 normal values over every finite exponent, 10^5 subnormal ones
    rng = np.random.default_rng(17)
    _assert_as_percent(_patterns(rng, 1_000_000, np.arange(1, 2047)))
    _assert_as_percent(_patterns(rng, 100_000, [0]))


def test_edge_values():
    x = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                  1.7976931348623157e308, -1.7976931348623157e308, 9.999999999999999e22,
                  1e23, 1e100, 1.5e-123, 1.0, 0.1, 0.5, 1e17, 1e18, 123.0, -2.5])
    _assert_as_percent(x)


def test_powers_of_ten_and_neighbours():
    # where log10 can land on the wrong side of an integer
    p = np.array([float("1e%d" % k) for k in range(-323, 309)])
    _assert_as_percent(np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf), -p]))


def test_rounding_ties_fall_back():
    # 2^-27 = 7.450580596923828125e-09 and 3 * 2^-28 end in an exact tie
    # at the 18th digit; dyadic values with few mantissa bits give many more
    _assert_as_percent(np.array([2.0 ** -27, 3 * 2.0 ** -28, -(2.0 ** -27)]))
    odd = np.arange(1, 2048, 2, dtype=np.float64)
    _assert_as_percent(np.ldexp(odd[:, None], -np.arange(20, 80)[None, :]))


def test_non_finite():
    _assert_as_percent(np.array([np.inf, -np.inf, np.nan, -np.nan]))


def test_decimal_grids():
    # short decimals sit near integers after scaling, not near ties
    rng = np.random.default_rng(5)
    _assert_as_percent(rng.integers(-10 ** 6, 10 ** 6, 20000) / 10.0 ** rng.integers(0, 12, 20000))
    _assert_as_percent(np.arange(2401) / 2400.0)


def test_fallbacks_among_decided_values_in_one_chunk(tmp_path):
    # a 3-column table of one chunk: non-finite values and exact ties among
    # values the kernel decides, against one '%' per row
    rng = np.random.default_rng(9)
    table = rng.normal(size=(100, 3))
    table[[3, 50, 97], [0, 1, 2]] = [np.nan, np.inf, -np.inf]
    table[[10, 60], [2, 0]] = [2.0 ** -27, -3 * 2.0 ** -28]
    table[20, 1] = 0.0
    assert table.size <= runner._CSV_VALUES
    path = tmp_path / "table.csv"
    runner._write_csv(path, ["a", "b", "c"], [table[:, 0], table[:, 1:]])
    want = "a,b,c\r\n" + "".join("%.17e,%.17e,%.17e\r\n" % tuple(r) for r in table.tolist())
    assert path.read_bytes() == want.encode()
