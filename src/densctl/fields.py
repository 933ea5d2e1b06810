"""Scalar, vector and tensor fields sampled on grid nodes.

Fields hold flat arrays aligned with the row-major node enumeration of
their grid. Numerical derivatives live here: second-order central
differences inside, second-order one-sided stencils at the boundary.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DensctlError
from .expressions import Expr, evaluate
from .grid import Grid

SPD_TOLERANCE = 1e-8
SYMMETRY_TOLERANCE = 1e-12


class FieldError(DensctlError):
    pass


@dataclass(frozen=True)
class ScalarField:
    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.size,):
            raise FieldError(f"scalar field shape {v.shape} != ({self.grid.size},)")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class VectorField:
    grid: Grid
    values: np.ndarray = field(repr=False)  # (size, dim)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.size, self.grid.dim):
            raise FieldError(
                f"vector field shape {v.shape} != ({self.grid.size}, {self.grid.dim})")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class TensorField:
    grid: Grid
    values: np.ndarray = field(repr=False)  # (size, dim, dim)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        n = self.grid.dim
        if v.shape != (self.grid.size, n, n):
            raise FieldError(
                f"tensor field shape {v.shape} != ({self.grid.size}, {n}, {n})")
        object.__setattr__(self, "values", v)

    def symmetry_defect(self) -> float:
        return float(np.abs(self.values - np.swapaxes(self.values, 1, 2)).max())

    def min_eigenvalue(self) -> float:
        v = self.values
        if (v == v[0]).all():
            # a constant field: node 0 speaks for every node
            v = v[:1]
        sym = 0.5 * (v + np.swapaxes(v, 1, 2))
        return float(np.linalg.eigvalsh(sym)[:, 0].min())

    def check_spd(self) -> None:
        d = self.symmetry_defect()
        if d > SYMMETRY_TOLERANCE:
            raise FieldError(f"tensor field asymmetric, defect {d:.3e}")
        m = self.min_eigenvalue()
        if m < SPD_TOLERANCE:
            raise FieldError(
                f"tensor field not uniformly positive definite, min eigenvalue {m:.3e}")


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a non-empty 1-D float64 array, equal bit for
    bit to scipy.special.logsumexp(a).

    The m entries tied at the maximum leave the sum, whose other terms
    exp(a - max) stay in place so that the pairwise summation groups
    them as scipy does; the result is log1p(s / m) + log(m) + max. Where
    that is not finite (an inf or NaN entry), it is log(sum(exp(a))).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max()
        top = a == a_max
        e = np.exp(a - a_max)
        e[top] = 0.0
        m = float(np.count_nonzero(top))
        out = np.log1p(e.sum() / m) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.exp(a).sum())
    return float(out)


def _check_finite(values: np.ndarray, grid: Grid, what: str) -> None:
    bad = ~np.isfinite(np.asarray(values).reshape(grid.size, -1)).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        coords = grid.node_coords()[i]
        raise FieldError(f"{what} is nonfinite at node {i}, x = {coords.tolist()}")


def eval_scalar_field(expr: Expr, grid: Grid) -> ScalarField:
    """Evaluate an expression on all grid nodes; nonfinite values are errors."""
    vals = evaluate(expr, grid.node_coords())
    _check_finite(vals, grid, "expression")
    return ScalarField(grid, vals)


def eval_matrix(exprs: list[list[Expr]], points: np.ndarray) -> np.ndarray:
    """Evaluate a matrix of expressions at points (m, dim) -> (m, r, c)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    r = len(exprs)
    c = len(exprs[0])
    out = np.empty((points.shape[0], r, c))
    for i in range(r):
        if len(exprs[i]) != c:
            raise FieldError("ragged matrix of expressions")
        for j in range(c):
            out[:, i, j] = evaluate(exprs[i][j], points)
    return out


def noise_to_tensor(sigma_vals: np.ndarray) -> np.ndarray:
    """Sigma = sigma sigma^T pointwise, sigma of shape (m, n, p)."""
    return np.einsum("kip,kjp->kij", sigma_vals, sigma_vals)


# ---------------------------------------------------------------------------
# numerical derivatives on the grid

def gradient_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Gradient of nodal values, shape (size, dim). O(h^2) everywhere."""
    arr = np.asarray(values, dtype=float).reshape(grid.shape)
    out = np.empty((grid.size, grid.dim))
    for k in range(grid.dim):
        g = np.gradient(arr, grid.spacing[k], axis=k, edge_order=2)
        out[:, k] = g.ravel()
    return out


def second_derivative_values(grid: Grid, values: np.ndarray, axis: int) -> np.ndarray:
    """Pure second derivative along one axis, O(h^2) including the ends."""
    arr = np.asarray(values, dtype=float).reshape(grid.shape)
    h = grid.spacing[axis]
    a = np.moveaxis(arr, axis, 0)
    out = np.empty_like(a)
    out[1:-1] = (a[2:] - 2 * a[1:-1] + a[:-2]) / h**2
    out[0] = (2 * a[0] - 5 * a[1] + 4 * a[2] - a[3]) / h**2
    out[-1] = (2 * a[-1] - 5 * a[-2] + 4 * a[-3] - a[-4]) / h**2
    return np.moveaxis(out, 0, axis).ravel()


def laplacian_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    out = np.zeros(grid.size)
    for k in range(grid.dim):
        out += second_derivative_values(grid, values, k)
    return out


def mixed_second_derivative_values(grid: Grid, values: np.ndarray,
                                   k: int, l: int) -> np.ndarray:
    """d^2 f / dx_k dx_l via composed first derivatives."""
    g = gradient_values(grid, values)[:, k]
    return gradient_values(grid, g)[:, l]


def interpolant(grid: Grid, values: np.ndarray):
    """Multilinear interpolation of one nodal table, set up once.

    values is (N,) or (N, c) in flat node order. Returns a function of
    points (P, n), which are clamped to the box, giving (P,) or (P, c);
    the strides and the shifted tables are built here, not per call. A
    call works in place on its own temporaries and never writes to
    points.

    The work is dimension-major: each axis of the points and each
    column of the table is one contiguous run, so every numpy call is a
    1-D operation P entries long and needs no broadcasting. A (P, c)
    result is the transpose of a (c, P) array, column-ordered. Points
    may come in either order; column-ordered ones are read in place.
    Corner c of the cell at node i is entry i of each column shifted by
    the corner's offset, so the gather adds no offset per corner.
    """
    vals = np.asarray(values, dtype=float)
    n = grid.dim
    strides = [1] * n
    for k in range(n - 2, -1, -1):
        strides[k] = strides[k + 1] * grid.counts[k + 1]
    # per axis: low, spacing and top cell as 0-d arrays, which numpy
    # dispatches faster than Python floats, and the flat stride
    axes = [(k, np.array(lo), np.array(h), np.array(c - 2.0), s)
            for k, (lo, h, c, s) in enumerate(
                zip(grid.lows, grid.spacing, grid.counts, strides))]
    zero, one = np.array(0.0), np.array(1.0)
    # corner c sits at offset bit k of c along axis k
    bits = [[(c >> k) & 1 for k in range(n)] for c in range(1 << n)]
    rows = np.ascontiguousarray(vals.reshape(grid.size, -1).T)
    corners = [(b, [row[sum(i * s for i, s in zip(b, strides)):]
                    for row in rows]) for b in bits]
    squeeze = vals.ndim == 1

    def interpolate(points: np.ndarray) -> np.ndarray:
        if not (isinstance(points, np.ndarray) and points.ndim == 2
                and points.dtype == np.float64):
            points = np.atleast_2d(np.asarray(points, dtype=float))
        his, los, base = [], [], None
        for k, low, h, top, stride in axes:
            t = np.subtract(points[:, k], low)
            t /= h
            # lower corner, clamped to the box; fmax sends NaN to 0 so
            # the gather stays in range and NaN reaches the result
            # through hi
            i0 = np.floor(t)
            np.fmax(i0, zero, out=i0)
            np.fmin(i0, top, out=i0)
            hi = np.subtract(t, i0, out=t)
            np.maximum(hi, zero, out=hi)
            np.minimum(hi, one, out=hi)
            his.append(hi)
            los.append(one - hi)
            if stride != 1:
                i0 *= stride
            base = i0 if base is None else base + i0
        base = base.astype(np.int64)
        out = np.empty((rows.shape[0], points.shape[0]))
        first = True
        for b, columns in corners:
            w = his[0] if b[0] else los[0]
            for k in range(1, n):
                w = w * (his[k] if b[k] else los[k])
            for col, acc in zip(columns, out):
                if first:
                    np.multiply(col.take(base), w, out=acc)
                else:
                    term = col.take(base)
                    term *= w
                    acc += term
            first = False
        return out[0] if squeeze else out.T

    return interpolate


def interpolate_values(grid: Grid, values: np.ndarray,
                       points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of nodal values at arbitrary points.

    values is (N,) or (N, c) in flat node order; points (P, n) are
    clamped to the box before interpolation. Returns (P,) or (P, c).
    """
    return interpolant(grid, values)(points)


def tensor_divergence_values(grid: Grid, tensor: np.ndarray) -> np.ndarray:
    """Row-wise divergence (div M)_i = sum_k d M_ik / dx_k, shape (size, dim)."""
    n = grid.dim
    out = np.zeros((grid.size, n))
    for i in range(n):
        for k in range(n):
            col = tensor[:, i, k].reshape(grid.shape)
            out[:, i] += np.gradient(col, grid.spacing[k], axis=k,
                                     edge_order=2).ravel()
    return out
