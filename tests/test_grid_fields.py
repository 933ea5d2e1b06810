import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import densctl as dc
from densctl.fields import (
    FieldError,
    _logsumexp,
    mixed_second_derivative_values,
    second_derivative_values,
    tensor_divergence_values,
)


def test_grid_basics():
    g = dc.Grid((-6.0, 0.0), (6.0, 2.0), (5, 3))
    assert g.dim == 2
    assert g.shape == (5, 3)
    assert g.size == 15
    np.testing.assert_allclose(g.spacing, [3.0, 1.0])
    coords = g.node_coords()
    assert coords.shape == (15, 2)
    # C order: last axis fastest
    np.testing.assert_allclose(coords[0], [-6.0, 0.0])
    np.testing.assert_allclose(coords[1], [-6.0, 1.0])
    np.testing.assert_allclose(coords[3], [-3.0, 0.0])


def test_quadrature_weights_sum_to_volume():
    g = dc.Grid((-6.0,), (6.0,), (401,))
    w = g.quadrature_weights()
    assert w.shape == (401,)
    np.testing.assert_allclose(w.sum(), 12.0, rtol=1e-14)
    h = 12.0 / 400
    np.testing.assert_allclose(w[0], h / 2)
    np.testing.assert_allclose(w[200], h)

    g2 = dc.Grid((0.0, 0.0), (1.0, 2.0), (11, 21))
    np.testing.assert_allclose(g2.quadrature_weights().sum(), 2.0, rtol=1e-14)


def test_interior_mask_margins():
    g = dc.Grid((0.0,), (1.0,), (11,))
    m = g.interior_mask(2)
    assert m.sum() == 7
    assert not m[0] and not m[1] and m[2]

    g2 = dc.Grid((0.0, 0.0), (1.0, 1.0), (5, 7))
    m2 = g2.interior_mask(1)
    assert m2.sum() == 3 * 5


def test_refinement_halves_spacing():
    g = dc.Grid((-1.0,), (1.0,), (5,))
    r = g.refined()
    assert r.shape == (9,)
    np.testing.assert_allclose(r.spacing[0], g.spacing[0] / 2)


def test_grid_rejects_degenerate_axes():
    with pytest.raises(ValueError):
        dc.Grid((0.0,), (1.0,), (2,))
    with pytest.raises(ValueError):
        dc.Grid((0.0,), (0.0,), (5,))
    with pytest.raises(ValueError):
        dc.Grid((0.0, 0.0), (1.0,), (5, 5))


def test_gradient_exact_for_quadratics():
    # edge_order 2 differencing reproduces degree-2 polynomials exactly
    g = dc.Grid((-2.0, -1.0), (2.0, 3.0), (41, 31))
    x = g.node_coords()
    f = 0.5 * x[:, 0] ** 2 - x[:, 0] * x[:, 1] + 2 * x[:, 1]
    grad = dc.gradient_values(g, f)
    np.testing.assert_allclose(grad[:, 0], x[:, 0] - x[:, 1], atol=1e-12)
    np.testing.assert_allclose(grad[:, 1], -x[:, 0] + 2, atol=1e-12)


def test_second_derivatives_on_quadratic():
    g = dc.Grid((-2.0, -1.0), (2.0, 3.0), (21, 17))
    x = g.node_coords()
    f = 3 * x[:, 0] ** 2 + x[:, 0] * x[:, 1]
    d11 = second_derivative_values(g, f, 0)
    np.testing.assert_allclose(d11, 6.0, atol=1e-11)
    d12 = mixed_second_derivative_values(g, f, 0, 1)
    np.testing.assert_allclose(d12, 1.0, atol=1e-11)


def test_multilinear_interpolation_exact_for_affine():
    g = dc.Grid((0.0, 0.0), (1.0, 1.0), (6, 9))
    x = g.node_coords()
    f = 2 * x[:, 0] - 3 * x[:, 1] + 0.25
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 1, size=(200, 2))
    got = dc.interpolate_values(g, f, pts)
    np.testing.assert_allclose(got, 2 * pts[:, 0] - 3 * pts[:, 1] + 0.25, atol=1e-13)


def test_field_shape_validation():
    g = dc.Grid((0.0,), (1.0,), (5,))
    with pytest.raises(FieldError):
        dc.ScalarField(g, np.zeros(4))
    with pytest.raises(FieldError):
        dc.VectorField(g, np.zeros((5, 2)))
    with pytest.raises(FieldError):
        dc.TensorField(g, np.zeros((5, 2, 1)))


def test_noise_to_tensor():
    # the noise matrix sigma becomes the diffusion tensor sigma sigma^T
    spec = dc.ProblemSpec(grid=dc.Grid((-1.0, -1.0), (1.0, 1.0), (3, 3)),
                          phi="x1^2 + x2^2", sigma=[["1", "0"], ["1", "2"]],
                          q="0")
    Sigma = spec.diffusion_field().values
    np.testing.assert_allclose(Sigma[0], [[1.0, 1.0], [1.0, 5.0]])


def test_tensor_divergence():
    g = dc.Grid((-1.0, -1.0), (1.0, 1.0), (21, 21))
    x = g.node_coords()
    vals = np.zeros((g.size, 2, 2))
    vals[:, 0, 0] = x[:, 0]
    vals[:, 1, 1] = x[:, 1]
    div = tensor_divergence_values(g, vals)
    np.testing.assert_allclose(div, 1.0, atol=1e-12)

    const = np.tile(np.eye(2), (g.size, 1, 1))
    np.testing.assert_allclose(tensor_divergence_values(g, const), 0.0, atol=1e-14)


def test_eval_fields_from_expressions():
    g = dc.Grid((-1.0,), (1.0,), (9,))
    f = dc.eval_scalar_field(dc.parse_expression("x1^2"), g)
    x = g.node_coords()[:, 0]
    np.testing.assert_allclose(f.values, x**2)
    spec = dc.ProblemSpec(grid=g, phi="x1^2", Sigma=[["1 + x1^2"]], q="0")
    T = spec.diffusion_field()
    np.testing.assert_allclose(T.values[:, 0, 0], 1 + x**2)


def _spd_test_grid():
    g = dc.Grid((-1.0, -1.0), (1.0, 1.0), (5, 5))
    return g, dc.ScalarField(g, np.sum(g.node_coords() ** 2, axis=1))


def test_constant_indefinite_sigma_is_refused_at_assembly():
    # a constant field takes the one-node eigenvalue shortcut
    g, phi = _spd_test_grid()
    Sigma = dc.TensorField(g, np.tile([[1.0, 2.0], [2.0, 1.0]], (g.size, 1, 1)))
    assert Sigma.min_eigenvalue() == pytest.approx(-1.0)
    with pytest.raises(FieldError, match="positive definite"):
        dc.assemble_generator(Sigma, phi)


def test_sigma_indefinite_at_one_node_is_refused():
    # equal to the constant field everywhere but one node, which the
    # shortcut must not skip
    g, phi = _spd_test_grid()
    vals = np.tile([[2.0, 1.0], [1.0, 2.0]], (g.size, 1, 1))
    vals[17] = [[1.0, 0.0], [0.0, -0.5]]
    Sigma = dc.TensorField(g, vals)
    assert Sigma.min_eigenvalue() == -0.5
    with pytest.raises(FieldError, match="positive definite"):
        dc.assemble_generator(Sigma, phi)


@st.composite
def _lse_input(draw):
    n = draw(st.integers(1, 2000))
    scale = draw(st.floats(1e-3, 700.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.uniform(-scale, scale, n)
    # several entries tied at the maximum leave the sum together
    ties = draw(st.integers(1, min(n, 50)))
    a[rng.choice(n, ties, replace=False)] = a.max()
    return a


class TestLogSumExp:
    """The shared log-sum-exp equals scipy's bit for bit, so replacing
    scipy.special leaves every gauge and estimate unchanged."""

    @given(_lse_input())
    @settings(max_examples=300, deadline=None)
    def test_random_arrays_match_scipy(self, a):
        np.testing.assert_array_equal(_logsumexp(a), logsumexp(a))

    @pytest.mark.parametrize("a", [[np.inf], [-np.inf, -np.inf], [np.nan, 1.0],
                                   [1e308, 1e308], [-np.inf, 0.0]])
    def test_edge_cases_match_scipy(self, a):
        a = np.array(a)
        np.testing.assert_array_equal(_logsumexp(a), logsumexp(a))
