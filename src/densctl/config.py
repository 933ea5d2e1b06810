"""JSON run configuration: parsing, validation, and defaults.

A run file has sections grid, dynamics, cost or target, and the
optional sections solver, sampling, output. Unknown sections and
unknown keys are rejected rather than ignored so that typos surface as
exit-code-2 errors instead of silently running with defaults. All
expressions are strings in the x1, x2, ... grammar.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .errors import ConfigError
from .expressions import ExpressionError, parse_expression
from .grid import Grid
from .model import ProblemSpec
from .sampling import DRIFT_MODES

_GRID_KEYS = {"lows", "highs", "counts"}
_DYNAMICS_KEYS = {"phi", "sigma", "Sigma"}
_COST_KEYS = {"q"}
_TARGET_KEYS = {"p_inf"}
_SOLVER_KEYS = {"k", "dt", "T", "controlled"}
_SAMPLING_KEYS = {"dt", "T", "n_paths", "seed", "threads", "mode", "x0",
                  "queries", "n_particles"}
_OUTPUT_KEYS = {"dir"}
_SECTIONS = {"grid", "dynamics", "cost", "target", "solver", "sampling",
             "output"}


@dataclass(frozen=True)
class SolverOptions:
    k: int | None = None            # modes for spectrum commands
    dt: float | None = None         # evolve step; default 0.1/|xi_1|
    T: float | None = None          # evolve horizon; default 5/|xi_1|
    controlled: bool = False        # spectrum of the controlled operator


@dataclass(frozen=True)
class SamplingOptions:
    dt: float = 1e-3
    T: float = 5.0
    n_paths: int = 10000
    seed: int = 0
    threads: int = 1                # recorded in the manifest only
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


def _number_list(x, section: str, key: str) -> list[float]:
    if not isinstance(x, list) or not x or \
            not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in x):
        raise ConfigError(f"[{section}] {key} must be a nonempty list of numbers")
    return [float(v) for v in x]


def _int_value(x, section: str, key: str, minimum: int) -> int:
    if not isinstance(x, int) or isinstance(x, bool) or x < minimum:
        raise ConfigError(f"[{section}] {key} must be an integer >= {minimum}")
    return x


def _float_value(x, section: str, key: str) -> float:
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise ConfigError(f"[{section}] {key} must be a number")
    return float(x)


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


def _parse_sampling(data: dict) -> SamplingOptions:
    _reject_unknown("sampling", data, _SAMPLING_KEYS)
    kw: dict = {}
    if "dt" in data:
        kw["dt"] = _float_value(data["dt"], "sampling", "dt")
    if "T" in data:
        kw["T"] = _float_value(data["T"], "sampling", "T")
    if "n_paths" in data:
        kw["n_paths"] = _int_value(data["n_paths"], "sampling", "n_paths", 1)
    if "seed" in data:
        kw["seed"] = _int_value(data["seed"], "sampling", "seed", 0)
    if "threads" in data:
        kw["threads"] = _int_value(data["threads"], "sampling", "threads", 1)
    if "mode" in data:
        if not isinstance(data["mode"], str) or data["mode"] not in DRIFT_MODES:
            raise ConfigError(f"[sampling] mode must be one of {DRIFT_MODES}")
        kw["mode"] = data["mode"]
    if "x0" in data:
        kw["x0"] = tuple(_number_list(data["x0"], "sampling", "x0"))
    if "queries" in data:
        q = data["queries"]
        if not isinstance(q, list) or not q:
            raise ConfigError("[sampling] queries must be a nonempty list "
                              "of points")
        pts = []
        for p in q:
            if isinstance(p, (int, float)) and not isinstance(p, bool):
                pts.append((float(p),))
            else:
                pts.append(tuple(_number_list(p, "sampling", "queries")))
        kw["queries"] = tuple(pts)
    if "n_particles" in data:
        kw["n_particles"] = _int_value(data["n_particles"], "sampling",
                                       "n_particles", 1)
    return SamplingOptions(**kw)


def _parse_solver(data: dict) -> SolverOptions:
    _reject_unknown("solver", data, _SOLVER_KEYS)
    kw: dict = {}
    if "k" in data:
        kw["k"] = _int_value(data["k"], "solver", "k", 1)
    if "dt" in data:
        kw["dt"] = _float_value(data["dt"], "solver", "dt")
    if "T" in data:
        kw["T"] = _float_value(data["T"], "solver", "T")
    if "controlled" in data:
        if not isinstance(data["controlled"], bool):
            raise ConfigError("[solver] controlled must be true or false")
        kw["controlled"] = data["controlled"]
    return SolverOptions(**kw)


def parse_config(text: str, path: str = "<memory>") -> RunConfig:
    """Build a RunConfig from JSON text; every defect raises ConfigError."""
    try:
        data = json.loads(text)
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
    sampling = _parse_sampling(data.get("sampling", {}))

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
