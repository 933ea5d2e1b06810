"""Run artifacts: the CSV writer's bytes."""

import os
import tempfile
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densctl import output
from densctl.output import CSV_BLOCK_VALUES, format_float, write_csv

SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e-320,
           1.7976931348623157e308, 1 / 3, -2.5e-300, 1e22]


def reference_bytes(header, columns):
    """The writer's definition: one format_float per value."""
    cols = [np.asarray(c).reshape(-1) for c in columns]
    lines = [",".join(header)]
    for i in range(cols[0].shape[0]):
        lines.append(",".join(format_float(c[i]) for c in cols))
    return ("\n".join(lines) + "\n").encode()


def _cases():
    rng = np.random.default_rng(7)
    wide = rng.standard_normal((51, 1090)) * 10.0 ** rng.integers(
        -300, 300, (51, 1090))
    long_rows = 3 * CSV_BLOCK_VALUES + 5
    return {
        "special": (["a", "b"], [np.array(SPECIAL), np.array(SPECIAL[::-1])]),
        "single_column": (["x"], [np.array(SPECIAL)]),
        "flags": (["cost", "exited"],
                  [np.array([0.5, 1.5, 2.5]), np.array([0.0, 1.0, 0.0])]),
        "bools_and_ints": (["b", "i"], [np.array([True, False]),
                                        np.array([3, -7])]),
        "zero_rows": (["a", "b"], [np.array([]), np.array([])]),
        "wide_rows": ([f"p{i}" for i in range(1090)], list(wide.T)),
        "many_blocks": (["t", "y"], [np.arange(long_rows) / 7.0,
                                     rng.standard_normal(long_rows)]),
    }


@pytest.mark.parametrize("name", list(_cases()))
def test_bytes_equal_per_value_reference(tmp_path, name):
    header, columns = _cases()[name]
    path = tmp_path / "out.csv"
    write_csv(str(path), header, columns)
    assert path.read_bytes() == reference_bytes(header, columns)


def test_shape_checks(tmp_path):
    path = str(tmp_path / "out.csv")
    with pytest.raises(ValueError):
        write_csv(path, ["a", "b"], [np.zeros(2)])
    with pytest.raises(ValueError):
        write_csv(path, ["a", "b"], [np.zeros(2), np.zeros(3)])


# Exactness of the bulk formatter.

def _write(tmp_path, header, columns):
    path = tmp_path / "out.csv"
    write_csv(str(path), header, columns)
    return path.read_bytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_raw_bit_patterns(tmp_path_factory, data):
    """Tables of random shape filled with random 64-bit patterns."""
    ncols = data.draw(st.integers(1, 6))
    size = ncols * data.draw(st.integers(0, 40))
    bits = data.draw(st.lists(st.integers(0, 2**64 - 1),
                              min_size=size, max_size=size))
    table = np.array(bits, np.uint64).view(np.float64).reshape(-1, ncols)
    header = [f"c{i}" for i in range(ncols)]
    got = _write(tmp_path_factory.mktemp("bits"), header, list(table.T))
    assert got == reference_bytes(header, list(table.T))


def _corpus():
    """Powers of ten and their neighbours, decimal ties, values that
    round up into the next decade, and the edges of the doubles."""
    p10 = np.array([float(f"1e{k}") for k in range(-323, 309)])
    parts = [p10, np.nextafter(p10, 0), np.nextafter(p10, np.inf)]
    # Odd multiples of 2^-s in [10^(17-s), 10^(18-s)) have exactly 18
    # significant digits ending in 5: ties at 17 digits.
    for s in range(2, 25):
        a = np.floor(10.0 ** (17 - s) * 2.0 ** s) + 1 + 2 * np.arange(0, 400, 7)
        parts.append((a + (a % 2 == 0)) * 2.0 ** -s)
    parts += [np.arange(2**53 - 40, 2**53 + 40, 2, dtype=np.float64),
              np.nextafter(1e17, 0) - 16.0 * np.arange(40),
              1e17 + 16.0 * np.arange(40),
              np.array([9.9999999999999995e-07, 0.0, -0.0, np.nan, np.inf,
                        -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
                        2.225073858507201e-308, 1.7976931348623157e308])]
    v = np.concatenate(parts)
    return np.concatenate([v, -v])


def test_fixed_corpus(tmp_path):
    v = _corpus()
    exact = [Decimal(float(x)) for x in v if np.isfinite(x) and x != 0]
    ties = [d for d in exact if len(d.as_tuple().digits) == 18
            and d.as_tuple().digits[-1] == 5]
    carries = [d for d in exact
               if abs(d) < abs(Decimal(format_float(float(d)))) and
               format_float(float(d)).lstrip("-").startswith("1e")]
    assert len(ties) > 1000 and len(carries) > 10
    cols = [v, v[::-1], np.roll(v, 1)]
    assert _write(tmp_path, ["a", "b", "c"], cols) == \
        reference_bytes(["a", "b", "c"], cols)


def test_uncertified_values_fall_back(tmp_path, monkeypatch):
    """With a margin far above the error bound many roundings fail the
    certificate, so format_float writes those values; the bytes stay."""
    tab = output._tables()
    wide = tab._replace(margin=1e-17)
    monkeypatch.setattr(output, "_tables", lambda: wide)
    calls = []

    def counted(v):
        calls.append(v)
        return format_float(v)

    monkeypatch.setattr(output, "format_float", counted)
    v = np.random.default_rng(3).standard_normal((500, 3)) * 1e5
    got = _write(tmp_path, ["a", "b", "c"], list(v.T))
    monkeypatch.undo()
    assert got == reference_bytes(["a", "b", "c"], list(v.T))
    assert 50 < len(calls) < v.size


def test_tables_are_exact():
    tab = output._tables()
    for i, k in enumerate(range(output._E_MIN, output._E_MAX + 1)):
        exact = Fraction(10) ** k
        n, d = tab.pow10[i].as_integer_ratio()
        half_ulp = Fraction(2) ** (int(np.frexp(tab.pow10[i])[1]) -
                                   np.finfo(np.longdouble).nmant - 2)
        assert abs(Fraction(n, d) - exact) <= half_ulp, k
        t = float(tab.decade[i])
        assert t == np.inf or Fraction(t) >= exact, k
        below = float(np.nextafter(t, 0))
        assert below == 0 or Fraction(below) < exact, k


def test_working_memory_is_bounded():
    """Beyond the stacked table, the writer's peak allocation is the
    same for 10k and for 100k rows."""
    output._tables()   # built on first use, once per process
    extra = []
    for rows in (10_000, 100_000):
        cols = list(np.random.default_rng(rows).standard_normal((3, rows)))
        with tempfile.TemporaryDirectory() as d:
            tracemalloc.start()
            write_csv(os.path.join(d, "out.csv"), ["a", "b", "c"], cols)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        extra.append(peak - rows * 3 * 8)
    assert abs(extra[1] - extra[0]) <= 0.1 * extra[0], extra
