"""SDE simulation and Monte Carlo estimators.

`simulate_sde` is the one driver that integrates paths: every
estimator and every sampling command goes through it. Its drift follows
the field it is given: none gives the uncontrolled drift, a `control`
field the steady control and a `target` density the density feedback.

Path j of a run reads stream id stream_base + j. The ids are grouped
GROUP_PATHS = 256 to a generator, SFC64 seeded by the fixed-width key
(seed, id // 256) (`_stream`), which draws its noise step-major and
dimension-major, (steps, m, 256) a block; id reads row id mod 256. So a
path's noise does not depend on the paths beside it: results are
bit-identical for any chunking, time block and batching of start
points, as a chunk that cuts a group draws it in full and keeps its
rows. Two ids at the top of the 64-bit range are reserved and keyed
alike, above every group: 2^64 - 2 draws initial ensembles, and
2^64 - 1 is unused but kept free, which is why user seeds must stay
below 2^64 - 2. Reductions always run in path-index order.

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
Noise is drawn in time blocks, so it takes CHUNK_PATHS * BLOCK_STEPS * m
floats however long the horizon (m noise dimensions), with the paths
rounded out to the whole groups of the largest chunk. There is no path
recorder: a run keeps each path's terminal state, cost integral and
flags, never its intermediate states, so no array grows with the
number of steps.

The step loop works dimension-major. A chunk's state is a (P, n) array
in column order, the transpose of an (n, P) array, so each coordinate
is one contiguous run over the paths; the drift and increment, the
interpolated tables, the Sigma stack (P, n, n) and its Cholesky root
are laid out the same way, so that every x[:, i] or A[:, i, j] is
contiguous and each numpy call runs its inner loop P entries long,
where a row-major (P, 2) array would run it two entries long. The
layout changes no arithmetic: every entry is computed by the same
operations in the same order, so a path's bytes do not depend on it.
Sigma, its noise factor and div Sigma are the spec's compiled
diffusion, which forms sigma sigma^T from products summed in column
order, as every matrix-vector product of the step is. Each step copies
its noise, one (m, 256) slice per group, into one (m, P) buffer, which
the step reads as a dimension-major (P, m).

The drift, noise and cost of a run are compiled once, before the first
step: grad(phi) and div(Sigma) are symbolic derivatives of the
expression trees, every tree becomes a bare closure (`compile_body`,
whose variables the spec has already checked), and grid tables are
read through an interpolant whose stencil is built once. One
np.errstate covers the whole run instead of one per closure call. A
state-dependent Sigma is factored by the model's column-by-column
Cholesky over the stacked paths, which equals LAPACK bit for bit for
n <= 2 and raises SamplingError, naming the step, at a pivot that is
not positive.
A step is then array arithmetic and one in-box test on each axis's
minimum and maximum, which also catches non-finite states; exclusion
and reflection run only when that test fails.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import SamplingError
from .expressions import (
    Expr,
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
from .model import LAMBDA, ProblemSpec, _matvec

INIT_STREAM = 2**64 - 2
# path streams served by one generator; part of the stream definition,
# so changing it changes every sampled byte
GROUP_PATHS = 256
CHUNK_PATHS = 8192       # paths integrated side by side
BLOCK_STEPS = 256        # time steps of noise drawn at once
# an estimate whose Kish ESS is below this fraction of the paths it used
# rests on a few heavy paths, so its stderr is not a valid error bar
ESS_FLOOR = 0.05

@dataclass(frozen=True)
class SdeConfig:
    dt: float
    T: float
    n_paths: int
    seed: int

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

def _stream(seed: int, word: int) -> np.random.Generator:
    """The SFC64 stream keyed by (seed, word): a path group's index, or
    a reserved stream id. The key is four 32-bit words, fixed width, as
    SeedSequence trims an integer or uint64 entropy to its minimal words,
    so that (5, 7) and (5 + 7 * 2^32, 0) would draw one stream."""
    key = np.array([seed & 0xffffffff, seed >> 32, word & 0xffffffff,
                    word >> 32], dtype=np.uint32)
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(key)))


# ---------------------------------------------------------------------------
# drift and noise evaluation along paths, dimension-major as in model

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

    The drift is div(Sigma)/2 + half * Sigma v + u: v is grad(phi), a
    symbolic derivative, with half = -1/2, or grad(log p) with half =
    +1/2 when the run is given a target slope table; u is the steady
    control table when one is given. Tables are read through an
    interpolant built once. Sigma, its noise factor and div Sigma come
    from the spec's compiled diffusion; a constant diffusion folds
    -Sigma/2 and sqrt(dt) sigma into fixed matrices. The closures are
    the bare compiled bodies, so the caller holds np.errstate. Paths and
    increments are dimension-major.
    """

    def __init__(self, spec: ProblemSpec, cfg: SdeConfig,
                 control: np.ndarray | None = None,
                 slope: np.ndarray | None = None):
        self.grid = spec.grid
        # step constants as 0-d arrays, which numpy dispatches faster
        # than Python floats
        self.dt = np.array(cfg.dt)
        self.sqdt = np.array(np.sqrt(cfg.dt))
        n = spec.grid.dim
        self.diffusion = d = spec.diffusion
        self.m = d.shape[1]
        self.steady = None if control is None else interpolant(self.grid,
                                                               control)
        if slope is None:
            gphi = [compile_body(derivative(spec.phi, k + 1)) for k in range(n)]
            self.half, self.v = np.array(-0.5), lambda x: _columns(gphi, x)
        else:
            self.half, self.v = np.array(0.5), interpolant(self.grid, slope)
        if d.constant:
            vals = d.matrix(np.zeros((1, n)))
            self.drift_matrix = self.half * d.tensor(vals)[0]
            self.noise_matrix = self.sqdt * d.factor(vals)[0]
            self.increment = self._constant_increment
        else:
            self.increment = self._state_increment

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
        d = self.diffusion
        vals = d.matrix(x)
        Sig, root = d.tensor(vals), d.factor(vals, step)
        b = d.divergence(x)
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
    its noise BLOCK_STEPS steps at a time from the generators of the
    path groups it touches, which live for the whole chunk, into one
    preallocated block. One np.errstate covers the whole run, so
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
    G = GROUP_PATHS
    chunks = [(lo, min(lo + CHUNK_PATHS, P)) for lo in range(0, P, CHUNK_PATHS)]
    # the groups whose streams a chunk reads; a group it cuts is drawn
    # in full, so the buffers hold the largest chunk's groups exactly
    groups = [range((stream_base + lo) // G, (stream_base + hi - 1) // G + 1)
              for lo, hi in chunks]
    span = max(len(gs) for gs in groups)
    noise = np.empty((span, min(BLOCK_STEPS, n_steps), m, G))
    dw = np.empty((m, span * G))
    dw_groups = dw.reshape(m, span, G)
    increment = dyn.increment

    for (lo, hi), gs in zip(chunks, groups):
        gens = [_stream(cfg.seed, g) for g in gs]
        ng = len(gens)
        first = (stream_base + lo) % G
        # path lo + j reads column first + j, as a (P, m) transposed view
        step_noise = dw[:, first:first + hi - lo].T
        cost_chunk = cost[lo:hi]
        x = x0[lo:hi].copy(order="F")
        for k0 in range(0, n_steps, BLOCK_STEPS):
            steps = min(BLOCK_STEPS, n_steps - k0)
            for gen, rows in zip(gens, noise):
                gen.standard_normal(out=rows[:steps])
            for b in range(steps):
                np.copyto(dw_groups[:, :ng], noise[:ng, b].transpose(1, 0, 2))
                if running_cost is not None:
                    r = running_cost(x)
                    r -= shift
                    r *= cost_scale
                    cost_chunk += r
                x_new = increment(x, step_noise, k0 + b)
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
    stream id stream_base + j, row (stream_base + j) mod 256 of its
    group's stream. The drift follows the fields given: with
    neither it is the passive drift div(Sigma)/2 - (Sigma/2) grad(phi);
    `control` adds a steady control field to it; the positive density
    `target` alone gives the feedback drift div(Sigma)/2 + (Sigma/2)
    grad(log p), with grad(log p) tabulated on the grid once. Both
    together raise SamplingError. Only the terminal states are kept.
    The running cost integral of (q - shift)/LAMBDA is accumulated when
    cost_expr is given. A path is excluded when its state or its cost
    integral is not finite; when every path is, the SamplingError names
    the cost if no state blew up.
    """
    grid = spec.grid
    if control is not None and target is not None:
        raise SamplingError("give a steady `control` or a feedback `target`, "
                            "not both")
    slope = None
    if target is not None:
        if target.values.min() <= 0.0:
            raise SamplingError("feedback target density must be positive")
        slope = gradient_values(grid, np.log(target.values))

    if not math.isfinite(cost_shift):
        raise SamplingError(f"cost_shift must be finite, got {cost_shift}")
    if isinstance(cost_expr, str):
        cost_expr = parse_expression(cost_expr)
    if cost_expr is not None:
        fv = free_variables(cost_expr)
        if fv and max(fv) > grid.dim:
            raise SamplingError("cost expression uses variables beyond the grid")

    dyn = _Dynamics(spec, cfg, None if control is None else control.values,
                    slope)
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


def path_integral_desirabilities(spec: ProblemSpec, q, c: float, points,
                                 cfg: SdeConfig,
                                 stream_base: int = 0) -> list[Estimate]:
    """Monte Carlo desirability at each of several points, in one batch.

    Averages exp(-integral (q - c)/LAMBDA) over cfg.n_paths uncontrolled
    paths started at each point with terminal weight one; the estimates
    carry the usual scale gauge of the desirability, so compare ratios,
    not values. psi_hat is the mean weight and its stderr psi_hat times
    the relative stderr of `_mean_weight`. Path j of point i draws
    stream id stream_base + i * n_paths + j, so each estimate equals a
    single-point call with stream_base + i * n_paths, even where the
    points' paths share a group.
    """
    n_paths = cfg.n_paths
    if len(points) == 0:
        raise SamplingError("no query points given")
    pts = np.asarray(points, dtype=float).reshape(len(points), -1)
    if pts.shape[1] != spec.grid.dim:
        raise SamplingError(f"start point has dimension {pts.shape[1]}, "
                            f"grid {spec.grid.dim}")
    starts = Ensemble(positions=np.repeat(pts, n_paths, axis=0))
    batch = simulate_sde(spec, cfg, starts, cost_expr=q,
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
    batch = simulate_sde(spec, cfg, y0, cost_expr=q,
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
