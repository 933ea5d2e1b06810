"""SDE simulation and Monte Carlo estimators.

`simulate_sde` is the one driver that integrates paths: every drift
mode (uncontrolled, steady control, density feedback), every estimator
and every sampling command goes through it.

Every path owns a counter-based random stream keyed by (seed, path
index), so a path's result does not depend on which other paths run
beside it: results are bit-identical for any chunking of the path range
and any batching of start points. A stream is Philox with the 128-bit
key [seed, stream id], handed to it directly (`_streams`, one key
array per chunk), so building one draws no OS entropy; it is the
stream of Philox(key=...). Two
stream ids at the top of the 64-bit range are reserved: 2^64 - 2 draws
initial ensembles, and 2^64 - 1 is unused but kept free, which is why
user seeds must stay below 2^64 - 2. Reductions always run in
path-index order.

Integration is Euler-Maruyama with reflection at the box boundary
(matching the zero-flux PDE boundary); reflected paths are flagged so
truncation bias is visible. Every start point must lie in the closed
box, or the run raises SamplingError. The path-integral estimators take
their log-space means with `fields._logsumexp`, the log-sum-exp that
the spectral and inverse gauges share, and share one error model
(`_mean_weight`): the delta method on the log mean weight, with one
rule for a degenerate estimate. Running costs are weighed by
the model's constant 1/LAMBDA, the noise-matched weight that makes the
path-integral form exact, and use the left-endpoint rule, consistent
with the weak order of the integrator.
Noise is drawn in time blocks, so it takes
CHUNK_PATHS * (BLOCK_STEPS * m + 8) floats however long the horizon
(m noise dimensions); each path draws its block into one flat row, and
the rows are padded by 8 floats so that the strided reads of one step's
noise spread over the cache sets. There is no path recorder: a run
keeps each path's terminal state, cost integral and flags, never its
intermediate states, so no array grows with the number of steps.

The step loop works dimension-major. A chunk's state is a (P, n) array
in column order, the transpose of an (n, P) array, so each coordinate
is one contiguous run over the paths; the drift and increment, the
interpolated tables, the Sigma stack (P, n, n) and its Cholesky root
are laid out the same way, so that every x[:, i] or A[:, i, j] is
contiguous and each numpy call runs its inner loop P entries long,
where a row-major (P, 2) array would run it two entries long. The
layout changes no arithmetic: every entry is computed by the same
operations in the same order, so a path's bytes do not depend on it.
A state-dependent sigma is a dimension-major (P, n, m) stack too, and
sigma sigma^T is formed from explicit products summed in column order,
as every matrix-vector product of the step is. The noise of one step
is a strided column of the block; a step-major copy of the block costs
as much as those reads and would double the block's memory.

The drift, noise and cost of a run are compiled once, before the first
step: grad(phi) and div(Sigma) are symbolic derivatives of the
expression trees, every tree becomes a bare closure (`compile_body`,
whose variables the spec has already checked), and grid tables are
read through an interpolant whose stencil is built once. One
np.errstate covers the whole run instead of one per closure call. A
state-dependent Sigma is factored by a column-by-column Cholesky over
the stacked paths, which equals LAPACK bit for bit for n <= 2 and
raises SamplingError, naming the step, at a pivot that is not positive.
A step is then array arithmetic and one in-box test on each axis's
minimum and maximum, which also catches non-finite states; exclusion
and reflection run only when that test fails.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import SamplingError
from .expressions import (
    Expr,
    Num,
    compile_body,
    derivative,
    free_variables,
    parse_expression,
)
from .fields import (
    ScalarField,
    VectorField,
    _logsumexp,
    gradient_values,
    interpolant,
)
from .grid import Grid
from .model import LAMBDA, ProblemSpec

INIT_STREAM = 2**64 - 2
CHUNK_PATHS = 8192       # paths integrated side by side
BLOCK_STEPS = 256        # time steps of noise drawn at once
# an estimate whose Kish ESS is below this fraction of the paths it used
# rests on a few heavy paths, so its stderr is not a valid error bar
ESS_FLOOR = 0.05

DRIFT_MODES = ("uncontrolled", "steady", "feedback")


@dataclass(frozen=True)
class SdeConfig:
    dt: float
    T: float
    n_paths: int
    seed: int
    mode: str = "uncontrolled"

    def __post_init__(self):
        for name, value in (("dt", self.dt), ("T", self.T)):
            if not (math.isfinite(value) and value > 0.0):
                raise SamplingError(
                    f"{name} must be finite and positive, got {value}")
        if self.T < self.dt:
            raise SamplingError(f"T = {self.T} is below one step dt = {self.dt}")
        if self.n_paths < 1:
            raise SamplingError("need at least one path")
        if not 0 <= int(self.seed) < INIT_STREAM:
            raise SamplingError(
                f"seed must lie in [0, 2^64 - 3], got {self.seed}")
        if self.mode not in DRIFT_MODES:
            raise SamplingError(f"unknown drift mode {self.mode!r}; "
                                f"use one of {DRIFT_MODES}")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.T / self.dt)))

    @property
    def horizon(self) -> float:
        """Actual integrated time n_steps * dt."""
        return self.n_steps * self.dt


@dataclass(frozen=True)
class Ensemble:
    positions: np.ndarray = field(repr=False)   # (count, dim)

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        # no positions at all is no particle, not one of dimension 0
        if pos.size == 0 and pos.ndim < 2:
            pos = pos.reshape(0, 0)
        pos = np.atleast_2d(pos)
        if not np.isfinite(pos).all():
            raise SamplingError("ensemble positions must be finite")
        object.__setattr__(self, "positions", pos)

    @property
    def count(self) -> int:
        return int(self.positions.shape[0])


@dataclass(frozen=True)
class TrajectoryBatch:
    terminal: np.ndarray = field(repr=False)        # (P, n)
    cost_integral: np.ndarray = field(repr=False)   # (P,)
    exited: np.ndarray = field(repr=False)          # (P,) reflected at least once
    excluded: np.ndarray = field(repr=False)        # (P,) non-finite, unused
    seed: int = 0
    horizon: float = 0.0

    @property
    def n_paths(self) -> int:
        return int(self.terminal.shape[0])

    @property
    def n_excluded(self) -> int:
        return int(self.excluded.sum())


@dataclass(frozen=True)
class Estimate:
    value: float
    stderr: float
    n_used: int
    n_excluded: int = 0
    n_exited: int = 0
    degenerate: bool = False
    ess: float = 0.0    # Kish effective sample size of the path weights


# ---------------------------------------------------------------------------
# random streams

class _Key(np.random.bit_generator.ISeedSequence):
    """Hands Philox its 128-bit key, [seed, stream id], as given.

    Philox(key=k) draws the same stream, but first builds a SeedSequence
    from OS entropy that it never uses.
    """

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


_COUNTER0 = np.zeros(4, dtype=np.uint64)


def _streams(seed: int, first: int, count: int) -> list:
    """The counter-based Philox streams keyed by (seed, first + j) for
    j < count; their keys are the rows of one array."""
    keys = np.empty((count, 2), dtype=np.uint64)
    keys[:, 0] = seed
    keys[:, 1] = np.arange(first, first + count, dtype=np.uint64)
    # the zero counter is Philox's default; handed over as an array it
    # skips a conversion from a Python int per stream
    return [np.random.Generator(np.random.Philox(_Key(key), counter=_COUNTER0))
            for key in keys]


def _stream(seed: int, stream_id: int) -> np.random.Generator:
    """The counter-based Philox stream keyed by (seed, stream_id)."""
    return _streams(seed, stream_id, 1)[0]


# ---------------------------------------------------------------------------
# drift and noise evaluation along paths
#
# Path arrays are dimension-major: a (P, n) state or drift is the
# transpose of an (n, P) array, and a (P, r, c) stack of matrices that of
# an (r, c, P) array, so that every [:, i] or [:, i, j] is one contiguous
# run over the paths and each numpy call below runs P entries long.

def _matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A v for stacks A (P, r, c) and v (P, c), each entry summed in
    column order, as a dimension-major (P, r)."""
    rows = np.empty((A.shape[1], A.shape[0]))
    for i, acc in enumerate(rows):
        np.multiply(A[:, i, 0], v[:, 0], out=acc)
        for j in range(1, A.shape[2]):
            acc += A[:, i, j] * v[:, j]
    return rows.T


def _cholesky(A: np.ndarray, step: int | None = None) -> np.ndarray:
    """Lower Cholesky roots of a stack A (P, n, n), column by column.

    Each column is LAPACK's (the pivot's square root, then the entries
    below scaled by its reciprocal), so for n <= 2 the roots equal
    np.linalg.cholesky bit for bit. A pivot at or below zero raises,
    naming the time step when one is given; a NaN pivot passes, and the
    path is then excluded as non-finite. The roots are a dimension-major
    stack.
    """
    n = A.shape[1]
    L = np.zeros((n, n, A.shape[0])).transpose(2, 0, 1)
    for j in range(n):
        d = A[:, j, j]
        for k in range(j):
            d = d - L[:, j, k] * L[:, j, k]
        # min is NaN when any pivot is, so NaN takes the slow test too
        if not np.minimum.reduce(d) > 0.0 and (d <= 0.0).any():
            at = "" if step is None else f" at step {step}"
            raise SamplingError(
                f"Sigma is not positive definite{at} "
                f"(pivot {j + 1} is {float(np.fmin.reduce(d)):.3g})")
        np.sqrt(d, out=L[:, j, j])
        if j + 1 < n:
            r = 1.0 / L[:, j, j]
        for i in range(j + 1, n):
            s = A[:, i, j]
            for k in range(j):
                s = s - L[:, i, k] * L[:, j, k]
            np.multiply(s, r, out=L[:, i, j])
    return L


def _columns(fns: list, x: np.ndarray) -> np.ndarray:
    """Compiled scalar functions of x (P, n) as the columns of a
    dimension-major (P, len)."""
    if len(fns) == 1:
        return fns[0](x)[:, None]
    rows = np.empty((len(fns), x.shape[0]))
    for f, row in zip(fns, rows):
        row[...] = f(x)
    return rows.T


class _Dynamics:
    """The Euler-Maruyama increment of one run, compiled once.

    grad(phi) and div Sigma are symbolic derivatives of the expression
    trees (with sigma given, div Sigma differentiates the products of
    sigma sigma^T); Sigma and sigma entries are compiled closures, or
    floats where an entry is constant; the steady control or
    grad(log p) table is read through an interpolant built once.
    Constant diffusion folds -Sigma/2 and sqrt(dt) sigma into fixed
    matrices. The closures are the bare compiled bodies, so the caller
    holds np.errstate. Paths and increments are dimension-major.
    """

    def __init__(self, spec: ProblemSpec, cfg: SdeConfig,
                 table: np.ndarray | None = None):
        self.grid = spec.grid
        # step constants as 0-d arrays, which numpy dispatches faster
        # than Python floats
        self.dt = np.array(cfg.dt)
        self.sqdt = np.array(np.sqrt(cfg.dt))
        n = spec.grid.dim
        origin = np.zeros((1, n))
        self.m = len(spec.sigma[0]) if spec.sigma is not None else n
        read = None if table is None else interpolant(self.grid, table)
        self.steady = read if cfg.mode == "steady" else None
        gphi = [compile_body(derivative(spec.phi, k + 1)) for k in range(n)]
        # the drift is div(Sigma)/2 + half * Sigma v, where v is grad(phi)
        # with half = -1/2, or grad(log p) with half = +1/2 under feedback
        if cfg.mode == "feedback":
            self.half, self.v = np.array(0.5), read
        else:
            self.half, self.v = np.array(-0.5), lambda x: _columns(gphi, x)
        if spec.diffusion_is_constant():
            self.drift_matrix = self.half * spec.diffusion_at(origin)[0]
            self.noise_matrix = self.sqdt * spec.noise_at(origin)[0]
            self.increment = self._constant_increment
            return
        self.increment = self._state_increment
        self.given_sigma = spec.sigma is not None
        mat = spec.sigma if self.given_sigma else spec.Sigma
        self.shape = (len(mat), len(mat[0]))
        entries = [(i, j, e) for i, row in enumerate(mat)
                   for j, e in enumerate(row)]
        # a constant entry is written as a float, with no array per step
        self.fixed = [(i, j, float(compile_body(e)(origin)[0]))
                      for i, j, e in entries if not free_variables(e)]
        self.entries = [(i, j, compile_body(e))
                        for i, j, e in entries if free_variables(e)]
        Sig = spec.diffusion_exprs()
        # (div Sigma)_i = sum_k d Sigma_ik / dx_k, zero terms dropped
        self.div = [[compile_body(d) for k in range(n)
                     if (d := derivative(Sig[i][k], k + 1)) != Num(0.0)]
                    for i in range(n)]

    def div_sigma(self, x: np.ndarray) -> np.ndarray:
        """div Sigma at paths x (P, n), for state-dependent diffusion."""
        rows = np.zeros((x.shape[1], x.shape[0]))
        for terms, row in zip(self.div, rows):
            for f in terms:
                row += f(x)
        return rows.T

    # increment(x, dw, step): b(x) dt + sigma(x) sqrt(dt) dw for paths
    # x (P, n) and normals dw (P, m) at time step `step`, as a fresh
    # dimension-major (P, n); one of the two methods below

    def _constant_increment(self, x: np.ndarray, dw: np.ndarray,
                            step: int) -> np.ndarray:
        # b^T = (half Sigma) v^T: np.dot of the transposes returns the
        # transpose of a C-ordered product, which is dimension-major
        # (np.dot: a matmul by a 1 x 1 matrix costs several times more)
        b = np.dot(self.drift_matrix, self.v(x).T).T
        if self.steady is not None:
            b += self.steady(x)
        b *= self.dt
        b += np.dot(self.noise_matrix, dw.T).T
        return b

    def _state_increment(self, x: np.ndarray, dw: np.ndarray,
                         step: int) -> np.ndarray:
        P = x.shape[0]
        vals = np.empty(self.shape + (P,)).transpose(2, 0, 1)
        for i, j, c in self.fixed:
            vals[:, i, j] = c
        for i, j, f in self.entries:
            vals[:, i, j] = f(x)
        if self.given_sigma:
            # column k of sigma sigma^T is sigma times row k of sigma
            n = self.shape[0]
            Sig = np.empty((n, n, P)).transpose(2, 0, 1)
            for k in range(n):
                Sig[:, :, k] = _matvec(vals, vals[:, k])
            root = vals
        else:
            # the noise factor is the Cholesky root of this step's Sigma
            root, Sig = _cholesky(vals, step), vals
        b = self.div_sigma(x)
        b *= 0.5
        drift = _matvec(Sig, self.v(x))
        drift *= self.half
        b += drift
        if self.steady is not None:
            b += self.steady(x)
        b *= self.dt
        noise = _matvec(root, dw)
        noise *= self.sqdt
        b += noise
        return b


# ---------------------------------------------------------------------------
# path engine

def _inside(x: np.ndarray, bounds: list) -> bool:
    """Whether every entry of x (P, n) lies within its axis's
    (k, low, high) bounds; False when any entry is NaN. Each axis is
    tested by its minimum and maximum, which for a dimension-major x
    are reductions over one contiguous run."""
    for k, low, high in bounds:
        col = x[:, k]
        if not (np.minimum.reduce(col) >= low
                and np.maximum.reduce(col) <= high):
            return False
    return True


@np.errstate(all="ignore")
def _integrate(dyn: _Dynamics, cfg: SdeConfig, x0: np.ndarray,
               stream_base: int, cost_expr: Expr | None, cost_shift: float):
    """Euler-Maruyama over all paths; the one step loop of the module.

    Paths run side by side in chunks of CHUNK_PATHS; each chunk draws
    its noise BLOCK_STEPS steps at a time from per-path generators that
    live for the whole chunk. One np.errstate covers the whole run, so
    the compiled bodies run bare. The cost integral is that of
    (cost_expr - cost_shift)/LAMBDA. Returns terminal states, cost
    integrals, and the flags of paths that exited the box and of paths
    whose state blew up. A start point outside the closed box raises
    SamplingError: the reflection would fold it in without a trace.
    """
    outside = ~dyn.grid.contains(x0)
    if outside.any():
        i = int(np.argmax(outside))
        box = ", ".join(f"[{lo:g}, {hi:g}]"
                        for lo, hi in zip(dyn.grid.lows, dyn.grid.highs))
        raise SamplingError(
            f"{int(outside.sum())} of {x0.shape[0]} start points lie outside "
            f"the grid box {box}; the first is x = {x0[i].tolist()}")
    P, n = x0.shape
    n_steps = cfg.n_steps
    terminal = np.empty((P, n))
    cost = np.zeros(P)
    exited = np.zeros(P, dtype=bool)
    blew_up = np.zeros(P, dtype=bool)
    lows = np.asarray(dyn.grid.lows)
    spans = np.asarray(dyn.grid.highs) - lows
    highs = lows + spans
    bounds = [(k, float(lows[k]), float(highs[k])) for k in range(n)]
    running_cost = None if cost_expr is None else compile_body(cost_expr)
    cost_scale = np.array(cfg.dt / LAMBDA)
    shift = np.array(cost_shift)
    m = dyn.m
    # one flat row of BLOCK_STEPS * m normals per path, padded by one
    # 64-byte cache line: with rows a power of two bytes long, a step's
    # strided column of the block falls into a few cache sets only, and
    # its reads miss the caches
    noise = np.empty((min(CHUNK_PATHS, P), min(BLOCK_STEPS, n_steps) * m + 8))
    increment = dyn.increment

    for lo in range(0, P, CHUNK_PATHS):
        hi = min(lo + CHUNK_PATHS, P)
        gens = _streams(cfg.seed, stream_base + lo, hi - lo)
        cost_chunk = cost[lo:hi]
        x = x0[lo:hi].copy(order="F")
        for k0 in range(0, n_steps, BLOCK_STEPS):
            steps = min(BLOCK_STEPS, n_steps - k0)
            rows = noise[:hi - lo, :steps * m]
            for gen, row in zip(gens, rows):
                gen.standard_normal(out=row)
            block = rows.reshape(hi - lo, steps, m)
            for b in range(steps):
                if running_cost is not None:
                    r = running_cost(x)
                    r -= shift
                    r *= cost_scale
                    cost_chunk += r
                x_new = increment(x, block[:, b], k0 + b)
                x_new += x
                # one test per step; it also fails on NaN, so the
                # exclusion and reflection below run only when needed
                if not _inside(x_new, bounds):
                    bad = ~np.isfinite(x_new).all(axis=1)
                    if bad.any():
                        blew_up[lo:hi] |= bad
                        x_new[bad] = x[bad]
                    outside = (x_new < lows) | (x_new > highs)
                    if outside.any():
                        exited[lo:hi] |= outside.any(axis=1)
                        # reflective fold with period 2 * span, applied only
                        # to the entries outside: the fold moves inside
                        # entries by an ulp, which would tie a path's bytes
                        # to its chunk
                        y = np.mod(x_new - lows, 2.0 * spans)
                        np.copyto(x_new, lows + (spans - np.abs(y - spans)),
                                  where=outside)
                x = x_new
        terminal[lo:hi] = x

    return terminal, cost, exited, blew_up


def _resolve_x0(x0, n_paths: int, dim: int) -> np.ndarray:
    if isinstance(x0, Ensemble):
        pos = x0.positions
        if pos.shape[0] == 0:
            raise SamplingError("the start ensemble is empty")
        if pos.shape[1] != dim:
            raise SamplingError(f"start ensemble has dimension "
                                f"{pos.shape[1]}, grid {dim}")
        return pos
    pt = np.asarray(x0, dtype=float).reshape(-1)
    if pt.shape[0] != dim:
        raise SamplingError(f"start point has dimension {pt.shape[0]}, grid {dim}")
    return np.tile(pt, (n_paths, 1))


def simulate_sde(spec: ProblemSpec, cfg: SdeConfig, x0,
                 control: VectorField | None = None,
                 target: ScalarField | None = None,
                 cost_expr: Expr | str | None = None,
                 cost_shift: float = 0.0,
                 stream_base: int = 0) -> TrajectoryBatch:
    """Integrate an Euler-Maruyama path batch; the one SDE driver.

    x0 is a single start point or an Ensemble (whose count then
    overrides cfg.n_paths), inside the closed box; path j draws from
    stream stream_base + j. The steady mode adds the field `control` to
    the passive drift. The feedback mode needs only the positive target
    density `target`: its drift div(Sigma)/2 + (Sigma/2) grad(log p)
    reads grad(log p), tabulated on the grid once. Only the terminal
    states are kept. The running cost integral of (q - shift)/LAMBDA is
    accumulated when cost_expr is given. A path is excluded when its
    state or its cost integral is not finite; when every path is, the
    SamplingError names the cost if no state blew up.
    """
    grid = spec.grid
    table = None
    if cfg.mode == "steady":
        if control is None:
            raise SamplingError("steady mode needs a `control` field")
        table = control.values
    elif cfg.mode == "feedback":
        if target is None:
            raise SamplingError("feedback mode needs a `target` density")
        if target.values.min() <= 0.0:
            raise SamplingError("feedback target density must be positive")
        table = gradient_values(grid, np.log(target.values))

    if not math.isfinite(cost_shift):
        raise SamplingError(f"cost_shift must be finite, got {cost_shift}")
    if isinstance(cost_expr, str):
        cost_expr = parse_expression(cost_expr)
    if cost_expr is not None:
        fv = free_variables(cost_expr)
        if fv and max(fv) > grid.dim:
            raise SamplingError("cost expression uses variables beyond the grid")

    dyn = _Dynamics(spec, cfg, table)
    x0_arr = _resolve_x0(x0, cfg.n_paths, grid.dim)
    terminal, cost, exited, blew_up = _integrate(
        dyn, cfg, x0_arr, stream_base, cost_expr, cost_shift)
    excluded = blew_up | ~np.isfinite(cost)
    if excluded.all():
        if blew_up.any():
            raise SamplingError("every path blew up; check the drift and dt")
        raise SamplingError(
            "the running cost q is not finite along the paths: every "
            "path's cost integral is infinite or NaN, though no state "
            "blew up; check q")
    return TrajectoryBatch(
        terminal=terminal, cost_integral=cost, exited=exited,
        excluded=excluded, seed=cfg.seed, horizon=cfg.horizon)


# ---------------------------------------------------------------------------
# estimators

def _mean_weight(cost: np.ndarray, estimator: str,
                 linear: bool = False) -> tuple[float, float, float, bool]:
    """The error model of both path-integral estimators, from the usable
    paths' cost integrals: the log of the mean weight exp(-cost), taken
    in log space so that tiny weights do not underflow; the relative
    stderr of that mean; the Kish ESS (sum w)^2 / sum w^2; and whether
    the estimate is degenerate, warning once if it is. It is when fewer
    than two paths, a relative stderr above 0.5 or an ESS below
    ESS_FLOOR of the paths leave no valid error bar; with linear=True,
    for a caller that uses the mean itself, also when the mean
    underflows to zero. A shift of the cost moves only the log mean.
    """
    n = int(cost.shape[0])
    log_mean = float(_logsumexp(-cost) - np.log(n))
    # weights scaled so that the largest is one
    w = np.exp(cost.min() - cost)
    rel = float(w.std(ddof=1) / (w.mean() * np.sqrt(n))) if n > 1 else 0.0
    ess = float(w.sum() ** 2 / (w * w).sum())
    degenerate = n < 2 or rel > 0.5 or ess < ESS_FLOOR * n or \
        (linear and np.exp(log_mean) == 0.0)
    if degenerate:
        warnings.warn(f"{estimator} estimator is degenerate (relative stderr "
                      f"{rel:.2f}, log mean weight {log_mean:.4g}, ESS "
                      f"{ess:.3g} of {n})", stacklevel=3)
    return log_mean, rel, ess, degenerate


def _uncontrolled(cfg: SdeConfig) -> SdeConfig:
    return cfg if cfg.mode == "uncontrolled" else replace(cfg, mode="uncontrolled")


def path_integral_desirabilities(spec: ProblemSpec, q, c: float, points,
                                 cfg: SdeConfig,
                                 stream_base: int = 0) -> list[Estimate]:
    """Monte Carlo desirability at each of several points, in one batch.

    Averages exp(-integral (q - c)/LAMBDA) over cfg.n_paths uncontrolled
    paths started at each point with terminal weight one; the estimates
    carry the usual scale gauge of the desirability, so compare ratios,
    not values. psi_hat is the mean weight and its stderr psi_hat times
    the relative stderr of `_mean_weight`. Path j of point i draws stream
    stream_base + i * n_paths + j, so each estimate equals a single-point
    call with stream_base + i * n_paths.
    """
    n_paths = cfg.n_paths
    if len(points) == 0:
        raise SamplingError("no query points given")
    pts = np.asarray(points, dtype=float).reshape(len(points), -1)
    if pts.shape[1] != spec.grid.dim:
        raise SamplingError(f"start point has dimension {pts.shape[1]}, "
                            f"grid {spec.grid.dim}")
    starts = Ensemble(positions=np.repeat(pts, n_paths, axis=0))
    batch = simulate_sde(spec, _uncontrolled(cfg), starts, cost_expr=q,
                         cost_shift=c, stream_base=stream_base)
    estimates = []
    for i in range(pts.shape[0]):
        rows = slice(i * n_paths, (i + 1) * n_paths)
        excluded = batch.excluded[rows]
        if excluded.all():
            raise SamplingError(
                f"every path from x = {pts[i].tolist()} was excluded: its "
                "state or its cost integral is not finite")
        cost = batch.cost_integral[rows][~excluded]
        log_mean, rel, ess, degenerate = _mean_weight(cost, "desirability",
                                                      linear=True)
        value = float(np.exp(log_mean))
        estimates.append(Estimate(
            value=value, stderr=value * rel, n_used=int(cost.shape[0]),
            n_excluded=int(excluded.sum()),
            n_exited=int(batch.exited[rows].sum()), degenerate=degenerate,
            ess=ess))
    return estimates


def estimate_c_mc(spec: ProblemSpec, q, cfg: SdeConfig, y0) -> Estimate:
    """Monte Carlo average-cost estimate.

    c_hat = -(LAMBDA/T) log E exp(-integral q/LAMBDA); for T much longer than
    the uncontrolled mixing time the principal mode dominates the
    expectation and the log-rate converges to the optimal average cost.
    The standard error is the delta method on the log mean weight:
    (LAMBDA/T) times the relative stderr of `_mean_weight`. Every mean is
    taken in log space, so long horizons, whose weights underflow, still
    give an estimate.
    """
    batch = simulate_sde(spec, _uncontrolled(cfg), y0, cost_expr=q,
                         cost_shift=0.0)
    log_mean, rel, ess, degenerate = _mean_weight(
        batch.cost_integral[~batch.excluded], "cost")
    scale = LAMBDA / batch.horizon
    return Estimate(value=float(-scale * log_mean), stderr=scale * rel,
                    n_used=batch.n_paths - batch.n_excluded,
                    n_excluded=batch.n_excluded,
                    n_exited=int(batch.exited.sum()), degenerate=degenerate,
                    ess=ess)


def uniform_ensemble(grid: Grid, count: int, seed: int) -> Ensemble:
    """Uniform draw over the box from the reserved init stream."""
    if count < 1:
        raise SamplingError("ensemble needs at least one particle")
    gen = _stream(seed, INIT_STREAM)
    u = gen.random((count, grid.dim))
    lows = np.asarray(grid.lows)
    highs = np.asarray(grid.highs)
    return Ensemble(positions=lows + u * (highs - lows))


def histogram_density(ens: Ensemble, grid: Grid) -> ScalarField:
    """Empirical density on the node-centered cells of the grid.

    Cell edges are the midpoints between nodes (half cells at the
    boundary), so the result integrates against the trapezoid weights.
    Particles outside the box are dropped and reported; mass then sums
    to the retained fraction.
    """
    if ens.count == 0:
        raise SamplingError("cannot histogram an empty ensemble")
    edges = []
    for k in range(grid.dim):
        x = grid.axis(k)
        e = np.empty(x.shape[0] + 1)
        e[0] = x[0]
        e[-1] = x[-1]
        e[1:-1] = 0.5 * (x[:-1] + x[1:])
        edges.append(e)
    counts, _ = np.histogramdd(ens.positions, bins=edges)
    clipped = ens.count - int(counts.sum())
    if clipped:
        warnings.warn(f"{clipped} of {ens.count} particles fell outside the "
                      "grid and were dropped", stacklevel=2)
    w = grid.quadrature_weights()
    return ScalarField(grid, counts.ravel() / (ens.count * w))


def tv_distance(p: ScalarField, q: ScalarField) -> float:
    """Total variation through the quadrature: (1/2) sum w |p - q|."""
    if p.grid != q.grid:
        raise SamplingError("densities live on different grids")
    w = p.grid.quadrature_weights()
    return float(0.5 * np.sum(w * np.abs(p.values - q.values)))
