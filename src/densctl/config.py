"""JSON run configuration: parsing, validation, and defaults.

A run file has sections grid, dynamics, cost or target, and the
optional sections solver, sampling, output. `_SECTIONS` declares every
section and, in reading order, each of its keys with the reader that
checks and converts its value; the allowed-key messages come from it.
Unknown sections and unknown keys are rejected rather than ignored so that typos surface as
exit-code-2 errors instead of silently running with defaults, and so
are sections that are not JSON objects and values out of range: every
number must be finite (the JSON extensions NaN and Infinity are
refused), time steps and horizons positive, no horizon below its step,
seeds below the reserved streams, and points of the grid's dimension
inside its closed box. All expressions are strings in the
x1, x2, ... grammar.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .expressions import ExpressionError, parse_expression
from .grid import Grid
from .model import ProblemSpec
from .sampling import INIT_STREAM

# the [sampling] mode of `sample paths`: the drift it integrates
DRIFT_MODES = ("uncontrolled", "steady", "feedback")


@dataclass(frozen=True)
class SolverOptions:
    k: int | None = None            # modes for spectrum commands
    dt: float | None = None         # evolve step; default 0.1/|xi_1|
    T: float | None = None          # evolve horizon; default 5/|xi_1|


@dataclass(frozen=True)
class SamplingOptions:
    dt: float = 1e-3
    T: float = 5.0
    n_paths: int = 10000
    seed: int = 0
    mode: str = "uncontrolled"
    x0: tuple[float, ...] | None = None
    queries: tuple[tuple[float, ...], ...] | None = None
    n_particles: int | None = None


@dataclass(frozen=True)
class RunConfig:
    spec: ProblemSpec
    solver: SolverOptions = field(default_factory=SolverOptions)
    sampling: SamplingOptions = field(default_factory=SamplingOptions)
    output_dir: str | None = None
    digest: str = ""
    path: str = ""


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and \
        math.isfinite(x)


# A reader takes (value, at, grid): `at` names the key in messages, as
# "[section] key", and grid is the parsed [grid], or None while [grid]
# itself is read. It returns the value to keep or raises ConfigError.

def _numbers(x, at: str, grid=None) -> tuple[float, ...]:
    if not isinstance(x, list) or not x or not all(map(_is_number, x)):
        raise ConfigError(f"{at} must be a nonempty list of finite numbers")
    return tuple(float(v) for v in x)


def _counts(x, at: str, grid=None) -> tuple[int, ...]:
    if not isinstance(x, list) or \
            not all(isinstance(c, int) and not isinstance(c, bool) for c in x):
        raise ConfigError(f"{at} must be a list of integers")
    return tuple(x)


def _count(x, at: str, grid=None) -> int:
    if not isinstance(x, int) or isinstance(x, bool) or x < 1:
        raise ConfigError(f"{at} must be an integer >= 1")
    return x


def _positive(x, at: str, grid=None) -> float:
    if not _is_number(x) or x <= 0:
        raise ConfigError(f"{at} must be a finite number > 0")
    return float(x)


def check_seed(seed, source: str) -> int:
    """The seed as an int; outside [0, 2^64 - 3] it raises ConfigError,
    since the two top stream ids are reserved."""
    if not isinstance(seed, int) or isinstance(seed, bool) or \
            not 0 <= seed < INIT_STREAM:
        raise ConfigError(f"{source} must be an integer in [0, 2^64 - 3], "
                          f"got {seed!r}")
    return seed


def _mode(x, at: str, grid=None) -> str:
    if not isinstance(x, str) or x not in DRIFT_MODES:
        raise ConfigError(f"{at} must be one of {DRIFT_MODES}")
    return x


def _string(x, at: str, grid=None) -> str:
    if not isinstance(x, str):
        raise ConfigError(f"{at} must be a string")
    return x


def _point(x, at: str, grid: Grid) -> tuple[float, ...]:
    """A point of the grid's dimension in its closed box; the reflecting
    integrator would fold a point outside in without a trace."""
    pt = _numbers(x, at)
    if len(pt) != grid.dim:
        raise ConfigError(f"{at} point {list(pt)} has dimension "
                          f"{len(pt)}, the grid {grid.dim}")
    if not grid.contains(pt)[0]:
        box = ", ".join(f"[{lo:g}, {hi:g}]"
                        for lo, hi in zip(grid.lows, grid.highs))
        raise ConfigError(f"{at} point {list(pt)} lies outside "
                          f"the grid box {box}")
    return pt


def _points(x, at: str, grid: Grid) -> tuple[tuple[float, ...], ...]:
    if not isinstance(x, list) or not x:
        raise ConfigError(f"{at} must be a nonempty list of points")
    # a bare number is a 1D point
    return tuple(_point([p] if _is_number(p) else p, at, grid) for p in x)


def _expression(x, at: str, grid=None) -> str:
    if not isinstance(x, str):
        raise ConfigError(f"{at} must be an expression string")
    try:
        parse_expression(x)
    except ExpressionError as e:
        raise ConfigError(f"{at} does not parse: {e}") from e
    return x


def _matrix(x, at: str, grid=None) -> list[list[str]] | str:
    if isinstance(x, str):
        return _expression(x, at)
    if not isinstance(x, list) or not x:
        raise ConfigError(
            f"{at} must be an expression string or a matrix "
            "(list of rows) of expression strings")
    rows = []
    for row in x:
        if isinstance(row, str):
            rows.append([_expression(row, at)])
            continue
        if not isinstance(row, list) or not row:
            raise ConfigError(f"{at} rows must be lists of strings")
        rows.append([_expression(e, at) for e in row])
    return rows


# every section and, in reading order, its keys with their readers;
# required keys come first, and parse_config says how many
_SECTIONS = {
    "grid": {"lows": _numbers, "highs": _numbers, "counts": _counts},
    "dynamics": {"phi": _expression, "sigma": _matrix, "Sigma": _matrix},
    "cost": {"q": _expression},
    "target": {"p_inf": _expression},
    "solver": {"k": _count, "dt": _positive, "T": _positive},
    "sampling": {"dt": _positive, "T": _positive, "n_paths": _count,
                 "seed": lambda x, at, grid: check_seed(x, at),
                 "mode": _mode, "x0": _point, "queries": _points,
                 "n_particles": _count},
    "output": {"dir": _string},
}


def _read(section: str, data: dict, grid: Grid | None = None,
          required: int = 0, one_of: tuple[str, ...] = ()) -> dict:
    """The section's keys that `data` gives, each read by its reader in
    table order. A key outside the table, a missing one among the first
    `required`, or other than exactly one of the keys `one_of` (checked
    where the first of them is read) raises ConfigError."""
    table = _SECTIONS[section]
    if not isinstance(data, dict):
        raise ConfigError(f"[{section}] must be a JSON object, "
                          f"got {json.dumps(data)}")
    extra = set(data) - set(table)
    if extra:
        raise ConfigError(
            f"unknown key(s) in [{section}]: {sorted(extra)}; "
            f"allowed: {sorted(table)}")
    out = {}
    for i, (key, reader) in enumerate(table.items()):
        if key in one_of and sum(k in data for k in one_of) != 1:
            raise ConfigError(f"[{section}] needs exactly one of "
                              + " or ".join(one_of))
        if key in data:
            out[key] = reader(data[key], f"[{section}] {key}", grid)
        elif i < required:
            raise ConfigError(f"[{section}] is missing required key {key!r}")
    return out


def _refuse_constant(name: str):
    raise ConfigError(f"{name} is not a JSON number; every number must be "
                      "finite")


def parse_config(text: str, path: str = "<memory>") -> RunConfig:
    """Build a RunConfig from JSON text; every defect raises ConfigError."""
    try:
        data = json.loads(text, parse_constant=_refuse_constant)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: not valid JSON ({e})") from e
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    extra = set(data) - set(_SECTIONS)
    if extra:
        raise ConfigError(f"unknown section(s): {sorted(extra)}; "
                          f"allowed: {sorted(_SECTIONS)}")
    if "grid" not in data or "dynamics" not in data:
        raise ConfigError("config needs [grid] and [dynamics] sections")
    if ("cost" in data) == ("target" in data):
        raise ConfigError("config needs exactly one of [cost] or [target]")

    try:
        grid = Grid(**_read("grid", data["grid"], required=3))
    except ValueError as e:
        raise ConfigError(f"[grid] {e}") from e

    dynamics = _read("dynamics", data["dynamics"], required=1,
                     one_of=("sigma", "Sigma"))
    if "cost" in data:
        goal = _read("cost", data["cost"], required=1)
    else:
        goal = {"target": _read("target", data["target"],
                                required=1)["p_inf"]}
    try:
        spec = ProblemSpec(grid=grid, **dynamics, **goal)
    except Exception as e:
        raise ConfigError(f"invalid problem: {e}") from e

    solver = SolverOptions(**_read("solver", data.get("solver", {})))
    if solver.T is not None and solver.dt is not None and solver.T < solver.dt:
        raise ConfigError(f"[solver] T = {solver.T:g} is below one step "
                          f"dt = {solver.dt:g}")
    sampling = SamplingOptions(**_read("sampling", data.get("sampling", {}),
                                       grid))
    if sampling.T < sampling.dt:
        raise ConfigError(f"[sampling] T = {sampling.T:g} is below one step "
                          f"dt = {sampling.dt:g}")
    out_dir = _read("output", data.get("output", {})).get("dir")

    digest = hashlib.sha256(text.encode()).hexdigest()
    return RunConfig(spec=spec, solver=solver, sampling=sampling,
                     output_dir=out_dir, digest=digest, path=path)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return parse_config(text, path)
