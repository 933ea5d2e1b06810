"""JSON run configuration: parsing, validation, and defaults.

A run file has sections grid, dynamics, cost or target, and the
optional sections solver, sampling, output. Unknown sections and
unknown keys are rejected rather than ignored so that typos surface as
exit-code-2 errors instead of silently running with defaults, and so
are values out of range: every number must be finite (the JSON
extensions NaN and Infinity are refused), time steps and horizons
positive, seeds below the reserved streams, and points of the grid's
dimension. All expressions are strings in the x1, x2, ... grammar.
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
from .sampling import DRIFT_MODES, INIT_STREAM

_GRID_KEYS = {"lows", "highs", "counts"}
_DYNAMICS_KEYS = {"phi", "sigma", "Sigma"}
_COST_KEYS = {"q"}
_TARGET_KEYS = {"p_inf"}
_SOLVER_KEYS = {"k", "dt", "T"}
_SAMPLING_KEYS = {"dt", "T", "n_paths", "seed", "mode", "x0", "queries",
                  "n_particles"}
_OUTPUT_KEYS = {"dir"}
_SECTIONS = {"grid", "dynamics", "cost", "target", "solver", "sampling",
             "output"}


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


def _reject_unknown(section: str, data: dict, allowed: set) -> None:
    extra = set(data) - allowed
    if extra:
        raise ConfigError(
            f"unknown key(s) in [{section}]: {sorted(extra)}; "
            f"allowed: {sorted(allowed)}")


def _need(data: dict, section: str, key: str):
    if key not in data:
        raise ConfigError(f"[{section}] is missing required key {key!r}")
    return data[key]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and \
        math.isfinite(x)


def _number_list(x, section: str, key: str) -> list[float]:
    if not isinstance(x, list) or not x or not all(map(_is_number, x)):
        raise ConfigError(f"[{section}] {key} must be a nonempty list of "
                          "finite numbers")
    return [float(v) for v in x]


def _int_value(x, section: str, key: str, minimum: int) -> int:
    if not isinstance(x, int) or isinstance(x, bool) or x < minimum:
        raise ConfigError(f"[{section}] {key} must be an integer >= {minimum}")
    return x


def _positive_value(x, section: str, key: str) -> float:
    if not _is_number(x) or x <= 0:
        raise ConfigError(f"[{section}] {key} must be a finite number > 0")
    return float(x)


def check_seed(seed, source: str) -> int:
    """The seed as an int; outside [0, 2^64 - 3] it raises ConfigError,
    since the two top stream ids are reserved."""
    if not isinstance(seed, int) or isinstance(seed, bool) or \
            not 0 <= seed < INIT_STREAM:
        raise ConfigError(f"{source} must be an integer in [0, 2^64 - 3], "
                          f"got {seed!r}")
    return seed


def _point(x, dim: int, key: str) -> tuple[float, ...]:
    """A [sampling] point of the grid's dimension."""
    pt = tuple(_number_list(x, "sampling", key))
    if len(pt) != dim:
        raise ConfigError(f"[sampling] {key} point {list(pt)} has dimension "
                          f"{len(pt)}, the grid {dim}")
    return pt


def _expr_string(x, section: str, key: str) -> str:
    if not isinstance(x, str):
        raise ConfigError(f"[{section}] {key} must be an expression string")
    try:
        parse_expression(x)
    except ExpressionError as e:
        raise ConfigError(f"[{section}] {key} does not parse: {e}") from e
    return x


def _matrix_of_expr(x, section: str, key: str) -> list[list[str]] | str:
    if isinstance(x, str):
        return _expr_string(x, section, key)
    if not isinstance(x, list) or not x:
        raise ConfigError(
            f"[{section}] {key} must be an expression string or a matrix "
            "(list of rows) of expression strings")
    rows = []
    for row in x:
        if isinstance(row, str):
            rows.append([_expr_string(row, section, key)])
            continue
        if not isinstance(row, list) or not row:
            raise ConfigError(f"[{section}] {key} rows must be lists of strings")
        rows.append([_expr_string(e, section, key) for e in row])
    return rows


def _parse_grid(data: dict) -> Grid:
    _reject_unknown("grid", data, _GRID_KEYS)
    lows = _number_list(_need(data, "grid", "lows"), "grid", "lows")
    highs = _number_list(_need(data, "grid", "highs"), "grid", "highs")
    counts_raw = _need(data, "grid", "counts")
    if not isinstance(counts_raw, list) or \
            not all(isinstance(c, int) and not isinstance(c, bool)
                    for c in counts_raw):
        raise ConfigError("[grid] counts must be a list of integers")
    try:
        return Grid(tuple(lows), tuple(highs), tuple(counts_raw))
    except ValueError as e:
        raise ConfigError(f"[grid] {e}") from e


def _parse_sampling(data: dict, dim: int) -> SamplingOptions:
    _reject_unknown("sampling", data, _SAMPLING_KEYS)
    kw: dict = {}
    if "dt" in data:
        kw["dt"] = _positive_value(data["dt"], "sampling", "dt")
    if "T" in data:
        kw["T"] = _positive_value(data["T"], "sampling", "T")
    if "n_paths" in data:
        kw["n_paths"] = _int_value(data["n_paths"], "sampling", "n_paths", 1)
    if "seed" in data:
        kw["seed"] = check_seed(data["seed"], "[sampling] seed")
    if "mode" in data:
        if not isinstance(data["mode"], str) or data["mode"] not in DRIFT_MODES:
            raise ConfigError(f"[sampling] mode must be one of {DRIFT_MODES}")
        kw["mode"] = data["mode"]
    if "x0" in data:
        kw["x0"] = _point(data["x0"], dim, "x0")
    if "queries" in data:
        q = data["queries"]
        if not isinstance(q, list) or not q:
            raise ConfigError("[sampling] queries must be a nonempty list "
                              "of points")
        # a bare number is a 1D point
        kw["queries"] = tuple(_point([p] if _is_number(p) else p, dim,
                                     "queries") for p in q)
    if "n_particles" in data:
        kw["n_particles"] = _int_value(data["n_particles"], "sampling",
                                       "n_particles", 1)
    opts = SamplingOptions(**kw)
    if opts.T < opts.dt:
        raise ConfigError(f"[sampling] T = {opts.T:g} is below one step "
                          f"dt = {opts.dt:g}")
    return opts


def _parse_solver(data: dict) -> SolverOptions:
    _reject_unknown("solver", data, _SOLVER_KEYS)
    kw: dict = {}
    if "k" in data:
        kw["k"] = _int_value(data["k"], "solver", "k", 1)
    if "dt" in data:
        kw["dt"] = _positive_value(data["dt"], "solver", "dt")
    if "T" in data:
        kw["T"] = _positive_value(data["T"], "solver", "T")
    return SolverOptions(**kw)


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
    extra = set(data) - _SECTIONS
    if extra:
        raise ConfigError(f"unknown section(s): {sorted(extra)}; "
                          f"allowed: {sorted(_SECTIONS)}")
    if "grid" not in data or "dynamics" not in data:
        raise ConfigError("config needs [grid] and [dynamics] sections")
    if ("cost" in data) == ("target" in data):
        raise ConfigError("config needs exactly one of [cost] or [target]")

    grid = _parse_grid(data["grid"])

    dyn = data["dynamics"]
    _reject_unknown("dynamics", dyn, _DYNAMICS_KEYS)
    phi = _expr_string(_need(dyn, "dynamics", "phi"), "dynamics", "phi")
    if ("sigma" in dyn) == ("Sigma" in dyn):
        raise ConfigError("[dynamics] needs exactly one of sigma or Sigma")
    sigma = _matrix_of_expr(dyn["sigma"], "dynamics", "sigma") \
        if "sigma" in dyn else None
    Sigma = _matrix_of_expr(dyn["Sigma"], "dynamics", "Sigma") \
        if "Sigma" in dyn else None

    q = None
    target = None
    if "cost" in data:
        _reject_unknown("cost", data["cost"], _COST_KEYS)
        q = _expr_string(_need(data["cost"], "cost", "q"), "cost", "q")
    else:
        _reject_unknown("target", data["target"], _TARGET_KEYS)
        target = _expr_string(_need(data["target"], "target", "p_inf"),
                              "target", "p_inf")

    try:
        spec = ProblemSpec(grid=grid, phi=phi, sigma=sigma, Sigma=Sigma,
                           q=q, target=target)
    except Exception as e:
        raise ConfigError(f"invalid problem: {e}") from e

    solver = _parse_solver(data.get("solver", {}))
    sampling = _parse_sampling(data.get("sampling", {}), grid.dim)

    out_dir = None
    if "output" in data:
        _reject_unknown("output", data["output"], _OUTPUT_KEYS)
        if "dir" in data["output"]:
            if not isinstance(data["output"]["dir"], str):
                raise ConfigError("[output] dir must be a string")
            out_dir = data["output"]["dir"]

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
