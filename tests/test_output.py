"""Run artifacts: the CSV writer's bytes."""

import numpy as np
import pytest

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
