"""Compiled expressions, symbolic derivatives and the interpolation stencil.

Property tests over random expression trees and random problems: the
compiled closure against a plain tree walk, the symbolic derivative
against a central difference, the symbolic div Sigma of the compiled
diffusion against the grid divergence, and the prebuilt stencil against a
from-scratch multilinear interpolation.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import densctl as dc
from densctl.expressions import BinOp, Call, Neg, Num, Var, compile_body
from densctl.fields import tensor_divergence_values

_FN_IMPL = {
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "sin": np.sin,
    "cos": np.cos, "tanh": np.tanh, "abs": np.abs,
    "min": np.minimum, "max": np.maximum,
}
_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
           "^": np.power}


def reference_eval(expr, coords):
    """Plain recursive walk of the tree, broadcast to (m,)."""
    def walk(e):
        if isinstance(e, Num):
            return np.float64(e.value)
        if isinstance(e, Var):
            return coords[:, e.index - 1]
        if isinstance(e, Neg):
            return np.negative(walk(e.arg))
        if isinstance(e, BinOp):
            return _BINARY[e.op](walk(e.left), walk(e.right))
        return _FN_IMPL[e.name](*(walk(a) for a in e.args))

    with np.errstate(all="ignore"):
        out = walk(expr)
    return np.broadcast_to(out, (coords.shape[0],)).astype(float)


_LEAVES = st.one_of(
    st.sampled_from([Var(1), Var(2)]),
    st.sampled_from([0.0, 0.5, 1.0, 1.25, 2.0, 3.0]).map(Num),
)


def _trees(functions, ops):
    def extend(children):
        return st.one_of(
            st.builds(BinOp, st.sampled_from(ops), children, children),
            st.builds(lambda f, a: Call(f, (a,)),
                      st.sampled_from(functions), children),
            st.builds(Neg, children),
            st.builds(lambda a, p: BinOp("^", a, Num(p)),
                      children, st.sampled_from([2.0, 3.0])),
        )
    return st.recursive(_LEAVES, extend, max_leaves=8)


# every function and operator of the language, two-argument calls too
_any_tree = st.one_of(
    _trees(["exp", "log", "sqrt", "sin", "cos", "tanh", "abs"],
           ["+", "-", "*", "/", "^"]),
    st.builds(lambda f, a, b: Call(f, (a, b)), st.sampled_from(["min", "max"]),
              _trees(["sqrt", "abs", "log"], ["+", "-", "/"]),
              _trees(["exp", "tanh"], ["*", "^"])),
)
# smooth trees: polynomials, exp, sin, cos and tanh
_smooth_tree = _trees(["exp", "sin", "cos", "tanh"], ["+", "-", "*"])

_POINTS = np.array([[0.0, 0.0], [0.3, -1.2], [2.0, 0.5], [-0.7, 0.9],
                    [-1.5, -2.0], [1.0, 1.0]])


class TestCompiledExpressions:
    @given(_any_tree)
    @settings(max_examples=300, deadline=None)
    def test_compiled_equals_reference_walk(self, expr):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dc.compile_expression(expr)(_POINTS)
        assert got.shape == (_POINTS.shape[0],)
        np.testing.assert_array_equal(got, reference_eval(expr, _POINTS))

    @given(_any_tree)
    @settings(max_examples=50, deadline=None)
    def test_results_are_fresh_arrays(self, expr):
        pts = _POINTS.copy()
        out = dc.compile_expression(expr)(pts)
        out[:] = 7.0
        np.testing.assert_array_equal(pts, _POINTS)

    @given(_any_tree)
    @settings(max_examples=100, deadline=None)
    def test_bare_body_equals_checked_function(self, expr):
        # the SDE engine calls the body under its own np.errstate
        pts = _POINTS.copy()
        with np.errstate(all="ignore"):
            out = compile_body(expr)(pts)
        np.testing.assert_array_equal(out, dc.compile_expression(expr)(pts))
        out[:] = 7.0
        np.testing.assert_array_equal(pts, _POINTS)

    def test_missing_column_raises_at_call(self):
        f = dc.compile_expression(dc.parse_expression("x1 + x3"))
        with pytest.raises(dc.ExpressionError):
            f(np.zeros((4, 2)))
        assert f(np.ones((4, 3))).tolist() == [2.0] * 4

    def test_constant_tree_broadcasts(self):
        f = dc.compile_expression(dc.parse_expression("sqrt(2) + 1/0"))
        assert f(np.zeros((3, 1))).tolist() == [np.inf] * 3


def _central_difference(expr, k, x, h):
    """Fourth-order central difference along x_k at points x."""
    f = dc.compile_expression(expr)
    e = np.zeros(x.shape[1])
    e[k - 1] = h
    return (f(x - 2 * e) - 8 * f(x - e) + 8 * f(x + e) - f(x + 2 * e)) / (12 * h)


class TestDerivative:
    @given(_smooth_tree, st.sampled_from([1, 2]))
    @settings(max_examples=300, deadline=None)
    def test_matches_central_difference(self, expr, k):
        x = np.random.default_rng(5).uniform(-1.0, 1.0, (16, 2))
        f = dc.compile_expression(expr)(x)
        assume(np.isfinite(f).all() and np.abs(f).max() < 1e3)
        fd = _central_difference(expr, k, x, h=5e-4)
        scale = 1.0 + np.abs(fd) + np.abs(f).max()
        # skip trees whose high frequencies make the reference itself
        # inaccurate: its change on doubling h bounds its error
        coarse = _central_difference(expr, k, x, h=1e-3)
        assume((np.abs(coarse - fd) <= 1e-7 * scale).all())
        sym = dc.compile_expression(dc.derivative(expr, k))(x)
        assert (np.abs(sym - fd) <= 1e-6 * scale).all()

    @pytest.mark.parametrize("text,k,ref", [
        ("x1^2", 1, lambda x: 2 * x[:, 0]),
        ("x1*x2", 2, lambda x: x[:, 0]),
        ("log(x1)/x2", 2, lambda x: -np.log(x[:, 0]) / x[:, 1] ** 2),
        ("sqrt(x1)", 1, lambda x: 0.5 / np.sqrt(x[:, 0])),
        ("2^x1", 1, lambda x: np.log(2.0) * 2.0 ** x[:, 0]),
        ("x1^x2", 1, lambda x: x[:, 1] * x[:, 0] ** (x[:, 1] - 1)),
        ("x1^x2", 2, lambda x: np.log(x[:, 0]) * x[:, 0] ** x[:, 1]),
        ("abs(x1 - 1)", 1, lambda x: np.sign(x[:, 0] - 1)),
        ("min(x1, x2)", 1, lambda x: (x[:, 0] < x[:, 1]) + 0.5 * (x[:, 0] == x[:, 1])),
        ("max(x1, x2)", 2, lambda x: (x[:, 1] > x[:, 0]) + 0.5 * (x[:, 0] == x[:, 1])),
        ("tanh(x2)", 2, lambda x: 1 - np.tanh(x[:, 1]) ** 2),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_every_function(self, text, k, ref):
        x = np.array([[0.5, 2.0], [1.0, 1.0], [1.5, 0.25], [2.0, 3.0]])
        d = dc.derivative(dc.parse_expression(text), k)
        np.testing.assert_allclose(dc.evaluate(d, x), ref(x), rtol=1e-14)

    def test_zeros_and_ones_are_folded(self):
        assert dc.derivative(dc.parse_expression("x2^3 + sin(x2)"), 1) == Num(0.0)
        assert dc.derivative(dc.parse_expression("x1"), 1) == Num(1.0)
        assert dc.to_string(dc.derivative(dc.parse_expression("x1^2"), 1)) == "2.0 * x1"
        d = dc.derivative(dc.parse_expression("(1 + x1^2/4)*3"), 1)
        assert dc.to_string(d) == "2.0 * x1 / 4.0 * 3.0"


# sigma2d's grid: [-3.5, 3.5]^2 at 25^2
SIGMA2D_GRID = dc.Grid((-3.5, -3.5), (3.5, 3.5), (25, 25))
_coef = st.floats(-1.0, 1.0, allow_nan=False).map(lambda v: round(v, 3))


def _div_sigma(spec):
    return spec.diffusion.divergence(spec.grid.node_coords())


def _grid_div(spec):
    return tensor_divergence_values(spec.grid, spec.diffusion_field().values)


class TestDivSigma:
    def test_sigma2d(self):
        spec = dc.ProblemSpec(
            grid=SIGMA2D_GRID, phi="(x1^2 + x2^2)/2",
            Sigma=[["1 + x1^2/4", "0.5"], ["0.5", "1 + x2^2/4"]], q="0")
        # quadratic entries: the grid divergence is exact up to rounding
        np.testing.assert_allclose(_div_sigma(spec), _grid_div(spec),
                                   rtol=0, atol=1e-12)

    @given(st.lists(_coef, min_size=8, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_state_dependent_Sigma_at_grid_accuracy(self, c):
        # cubic and sine entries: the O(h^2) stencil error is bounded by
        # 2 h^2 max|f'''| (one-sided ends) summed over each row
        a11 = f"2 + {c[0]}*x1^3/20 + {c[1]}*sin(x2)"
        a12 = f"{c[2]}*x1*x2/10 + {c[3]}*x2^3/30"
        a22 = f"2 + {c[4]}*x2^3/20 + {c[5]}*cos(x1 + {c[6]}*x2)"
        spec = dc.ProblemSpec(grid=SIGMA2D_GRID, phi="0",
                              Sigma=[[a11, a12], [a12, a22]], q="0")
        h2 = SIGMA2D_GRID.spacing[0] ** 2
        bound = 2 * h2 * np.array([6 * abs(c[0]) / 20 + 6 * abs(c[3]) / 30,
                                   6 * abs(c[4]) / 20 + abs(c[5] * c[6] ** 3)])
        err = np.abs(_div_sigma(spec) - _grid_div(spec)).max(axis=0)
        assert (err <= bound + 1e-12).all()

    @given(st.lists(_coef, min_size=18, max_size=18), st.sampled_from([2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_sigma_product_rule(self, c, m):
        # linear sigma makes Sigma = sigma sigma^T quadratic, where the
        # grid divergence has no truncation error; sigma is 2 x m
        e = [f"{c[3 * i]} + {c[3 * i + 1]}*x1 + {c[3 * i + 2]}*x2"
             for i in range(2 * m)]
        spec = dc.ProblemSpec(grid=SIGMA2D_GRID, phi="0",
                              sigma=[e[:m], e[m:]], q="0")
        np.testing.assert_allclose(_div_sigma(spec), _grid_div(spec),
                                   rtol=0, atol=1e-11)


def reference_interpolate(grid, values, points):
    """Multilinear interpolation from scratch at every call."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    vals = np.asarray(values, dtype=float)
    squeeze = vals.ndim == 1
    if squeeze:
        vals = vals[:, None]
    n = grid.dim
    strides = np.ones(n, dtype=np.int64)
    for k in range(n - 2, -1, -1):
        strides[k] = strides[k + 1] * grid.counts[k + 1]
    t = (points - np.asarray(grid.lows)) / np.asarray(grid.spacing)
    i0 = np.clip(np.floor(t).astype(np.int64), 0, np.asarray(grid.counts) - 2)
    frac = np.clip(t - i0, 0.0, 1.0)
    out = np.zeros((points.shape[0], vals.shape[1]))
    for corner in range(1 << n):
        offs = np.array([(corner >> k) & 1 for k in range(n)], dtype=np.int64)
        weight = np.prod(np.where(offs == 1, frac, 1.0 - frac), axis=1)
        out += weight[:, None] * vals[(i0 + offs) @ strides]
    return out[:, 0] if squeeze else out


@st.composite
def _tables(draw):
    n = draw(st.integers(1, 3))
    counts = tuple(draw(st.integers(3, 7)) for _ in range(n))
    lows = tuple(draw(st.floats(-3.0, 0.0)) for _ in range(n))
    highs = tuple(lo + draw(st.floats(0.5, 4.0)) for lo in lows)
    grid = dc.Grid(lows, highs, counts)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.sampled_from([None, 1, 3]))
    values = rng.normal(size=(grid.size,) if width is None else (grid.size, width))
    # points up to a half span outside the box on every side, so that
    # clamping is exercised
    span = np.asarray(highs) - np.asarray(lows)
    pts = [rng.uniform(np.asarray(lows) - span / 2, np.asarray(highs) + span / 2,
                       (m, n)) for m in (1, 40)]
    return grid, values, pts


class TestInterpolationStencil:
    @given(_tables())
    @settings(max_examples=200, deadline=None)
    def test_prebuilt_stencil_matches_fresh_interpolation(self, table):
        grid, values, point_sets = table
        f = dc.interpolant(grid, values)
        for pts in point_sets:
            got = f(pts)
            np.testing.assert_array_equal(got, dc.interpolate_values(grid, values, pts))
            np.testing.assert_array_equal(got, reference_interpolate(grid, values, pts))
            # the SDE engine hands over column-ordered points
            cols = np.asfortranarray(pts)
            kept = cols.copy()
            np.testing.assert_array_equal(f(cols), got)
            np.testing.assert_array_equal(cols, kept)
            # a two-column table, read column by column
            table2 = np.stack([np.asarray(values).reshape(grid.size, -1)[:, 0],
                               -np.arange(grid.size, dtype=float)], axis=1)
            np.testing.assert_array_equal(
                dc.interpolant(grid, table2)(cols),
                reference_interpolate(grid, table2, pts))

    def test_points_are_not_modified(self):
        g = dc.Grid((0.0, -1.0), (1.0, 1.0), (5, 3))
        f = dc.interpolant(g, np.arange(2.0 * g.size).reshape(-1, 2))
        pts = np.array([[0.3, 0.2], [-4.0, 9.0], [np.nan, 0.5]])
        kept = pts.copy()
        f(pts)
        np.testing.assert_array_equal(pts, kept)

    def test_nodes_are_reproduced_and_clamped(self):
        g = dc.Grid((0.0, -1.0), (1.0, 1.0), (5, 3))
        vals = np.arange(g.size, dtype=float)
        f = dc.interpolant(g, vals)
        np.testing.assert_array_equal(f(g.node_coords()), vals)
        np.testing.assert_array_equal(f([[-5.0, -5.0], [5.0, 5.0]]),
                                      [vals[0], vals[-1]])
