"""Eigensolves and the principal desirability pair.

Closed forms used here: the constant-noise quadratic well has generator
rates {0, -2, -4, ...} for Sigma = 2 and potential x^2, and the shifted
potential 2x^2 after control gives {0, -4, -8, -12}. A flat potential on
[0, L] with zero-flux walls gives the cosine ladder -(Sigma/2)(n pi/L)^2.
The quadratic cost q = 6x^2 has the exact pair c = 2, Psi = exp(-x^2/2),
feedback u = -2x, stationary density N(0, 1/4).
"""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import densctl as dc
from densctl.errors import SpectralError
from densctl.spectral import PERRON_TOLERANCE

from conftest import assemble, ou_spec


@pytest.fixture(scope="module")
def ou_spectrum(ou_operator):
    return dc.eig_generator(ou_operator, 5)


class TestGeneratorSpectrum:
    def test_quadratic_well_ladder(self, ou_spectrum):
        expect = np.array([0.0, -2.0, -4.0, -6.0, -8.0])
        err = np.abs(ou_spectrum.eigenvalues - expect) / np.maximum(-expect, 1.0)
        assert err.max() <= 1e-2

    def test_gap(self, ou_spectrum):
        assert abs(dc.spectral_gap(ou_spectrum) - 2.0) <= 0.02

    def test_zero_mode_is_constant(self, ou_spectrum):
        mode0 = ou_spectrum.functions[0]
        assert np.abs(mode0 - mode0[0]).max() <= 1e-8 * abs(mode0[0])

    def test_weighted_orthonormality(self, ou_spectrum, ou_operator):
        # <Xi_m, Xi_n>_rho = delta_mn at rounding level
        w = ou_operator.weights
        rho = ou_operator.rho.values
        F = ou_spectrum.functions
        gram = (F * (w * rho)[None, :]) @ F.T
        np.testing.assert_allclose(gram, np.eye(F.shape[0]), atol=1e-10)

    def test_sign_convention(self, ou_spectrum):
        for f in ou_spectrum.functions:
            lead = f[np.abs(f) > 1e-6]
            assert lead.size and lead[0] > 0

    def test_residuals_reported(self, ou_spectrum):
        assert ou_spectrum.residuals.shape == (5,)
        assert ou_spectrum.residuals.max() <= 1e-6

    def test_k_out_of_range(self, ou_operator):
        with pytest.raises(SpectralError):
            dc.eig_generator(ou_operator, 0)
        with pytest.raises(SpectralError):
            dc.eig_generator(ou_operator, ou_operator.grid.size + 1)


class TestFlatPotentialCosineLadder:
    def test_neumann_gap(self):
        # no Gibbs confinement needed by the eigensolve itself
        g = dc.Grid((0.0,), (1.0,), (201,))
        spec = dc.ProblemSpec(grid=g, phi="0", sigma=[["sqrt(2)"]], q="0")
        op = assemble(spec)
        s = dc.eig_generator(op, 3)
        expect = np.array([0.0, -np.pi**2, -4 * np.pi**2])
        err = np.abs(s.eigenvalues - expect) / np.maximum(-expect, 1.0)
        assert err.max() <= 1e-2


class TestIterativePath:
    def test_large_grid_uses_sparse_solver(self):
        op = assemble(ou_spec(4501))
        s = dc.eig_generator(op, 3)
        expect = np.array([0.0, -2.0, -4.0])
        err = np.abs(s.eigenvalues - expect)
        assert err.max() <= 1e-3


class TestPrincipalPair:
    def test_exact_quadratic_cost(self, ou_hjb, ou401):
        g = ou401.grid
        x = g.node_coords()[:, 0]
        assert abs(ou_hjb.c - 2.0) <= 1e-3
        # desirability shape, gauge independent
        psi = ou_hjb.Psi.values
        ref = np.exp(-(x**2) / 2)
        ratio = psi / ref
        inner = np.abs(x) <= 3.0
        assert np.abs(ratio[inner] / ratio[np.argmin(np.abs(x))] - 1).max() <= 5e-3

    def test_feedback_interior(self, ou_hjb, ou401):
        x = ou401.grid.node_coords()[:, 0]
        inner = np.abs(x) <= 3.0
        assert np.abs(ou_hjb.u.values[inner, 0] + 2 * x[inner]).max() <= 2e-2

    def test_feedback_error_contracts_under_refinement(self, ou_hjb):
        spec2 = ou_spec(801)
        sol2 = dc.solve_hjb_principal(
            spec2.diffusion_field(), spec2.phi_field(), spec2.q_field()
        )
        x1 = ou_spec(401).grid.node_coords()[:, 0]
        x2 = spec2.grid.node_coords()[:, 0]
        m1, m2 = np.abs(x1) <= 3.0, np.abs(x2) <= 3.0
        e1 = np.abs(ou_hjb.u.values[m1, 0] + 2 * x1[m1]).max()
        e2 = np.abs(sol2.u.values[m2, 0] + 2 * x2[m2]).max()
        assert e2 <= e1 / 3.0

    def test_stationary_density_is_normalized_gaussian(self, ou_hjb, ou401):
        g = ou401.grid
        w = g.quadrature_weights()
        x = g.node_coords()[:, 0]
        p = ou_hjb.p.values
        np.testing.assert_allclose(w @ p, 1.0, rtol=1e-12)
        ref = np.exp(-2 * x**2)
        ref /= w @ ref
        assert np.abs(p - ref).max() <= 1e-3 * ref.max()

    def test_desirability_positive(self, ou_hjb):
        assert ou_hjb.Psi.values.min() > 0

    def test_zero_cost_gauge(self, ou401):
        spec = ou_spec(401, q="0")
        sol = dc.solve_hjb_principal(
            spec.diffusion_field(), spec.phi_field(), spec.q_field()
        )
        assert abs(sol.c) <= 1e-10
        psi = sol.Psi.values
        assert np.abs(psi / psi[0] - 1).max() <= 1e-8
        assert np.abs(sol.u.values).max() <= 1e-10

    def test_constant_cost_shifts_c_only(self, ou_hjb):
        spec = ou_spec(401, q="6*x1^2 + 3")
        sol = dc.solve_hjb_principal(
            spec.diffusion_field(), spec.phi_field(), spec.q_field()
        )
        assert abs(sol.c - ou_hjb.c - 3.0) <= 1e-9
        np.testing.assert_allclose(sol.Psi.values, ou_hjb.Psi.values, rtol=1e-9)

    def test_diagnostics_present(self, ou_hjb):
        d = ou_hjb.diagnostics
        assert isinstance(d, dict) and d


class TestControlledOperator:
    def test_controlled_ladder(self, ou_hjb):
        op = dc.controlled_operator(ou_hjb)
        s = dc.eig_generator(op, 4)
        expect = np.array([0.0, -4.0, -8.0, -12.0])
        err = np.abs(s.eigenvalues - expect) / np.maximum(-expect, 1.0)
        assert err.max() <= 1e-2

    def test_controlled_stationary_matches_solution(self, ou_hjb):
        op = dc.controlled_operator(ou_hjb)
        np.testing.assert_allclose(
            op.rho.values, ou_hjb.p.values, rtol=1e-10, atol=1e-15
        )


class TestResidualVerification:
    def test_zero_cost_residual_at_rounding(self):
        spec = ou_spec(401, q="0")
        sol = dc.solve_hjb_principal(
            spec.diffusion_field(), spec.phi_field(), spec.q_field()
        )
        r = dc.verify_hjb_residual(
            sol, spec.q_field(), spec.diffusion_field(), spec.phi_field()
        )
        assert r <= 1e-9

    def test_residual_contracts_under_refinement(self, ou_hjb):
        rs = {}
        for n in (401, 801):
            spec = ou_spec(n)
            sol = (
                ou_hjb
                if n == 401
                else dc.solve_hjb_principal(
                    spec.diffusion_field(), spec.phi_field(), spec.q_field()
                )
            )
            rs[n] = dc.verify_hjb_residual(
                sol, spec.q_field(), spec.diffusion_field(), spec.phi_field()
            )
        assert rs[801] <= rs[401] / 3.0

    def test_residual_detects_wrong_solution(self, ou_hjb, ou401):
        import dataclasses

        g = ou401.grid
        x = g.node_coords()[:, 0]
        bad_v = dc.ScalarField(g, ou_hjb.v.values + 0.1 * x)
        bad = dataclasses.replace(ou_hjb, v=bad_v)
        r_good = dc.verify_hjb_residual(
            ou_hjb, ou401.q_field(), ou401.diffusion_field(), ou401.phi_field()
        )
        r_bad = dc.verify_hjb_residual(
            bad, ou401.q_field(), ou401.diffusion_field(), ou401.phi_field()
        )
        assert r_bad > 5 * r_good


class TestUnconvergedSpectrumRefused:
    # the grid2d benchmark problem on boxes wide enough that Psi hits
    # PSI_LOG_FLOOR at the corners, so v reaches ~1335 there and the
    # controlled operator spans hundreds of orders of magnitude
    @pytest.mark.parametrize("half, n", [(5.0, 65), (4.5, 45)])
    def test_floor_clipped_controlled_spectrum(self, half, n):
        g = dc.Grid((-half, -half), (half, half), (n, n))
        spec = dc.ProblemSpec(grid=g, phi="(x1^2 + x2^2)/2",
                              Sigma=[["2", "1"], ["1", "2"]],
                              q="4*x1^2 + 4*x1*x2 + 4*x2^2")
        sol = dc.solve_hjb_principal(
            spec.diffusion_field(), spec.phi_field(), spec.q_field()
        )
        try:
            s = dc.eig_generator(dc.controlled_operator(sol), 8)
        except SpectralError as e:
            assert "PSI_LOG_FLOOR" in str(e)
            return
        assert s.residuals.max() <= 1e-6
        assert s.eigenvalues[1] < 0.0


def _check_against_dense_reference(spec, k):
    op = assemble(spec)
    d = sp.diags(1.0 / np.sqrt(op.mu))
    S = (d @ (-op.K) @ d).toarray()
    S = 0.5 * (S + S.T)
    full = sla.eigh(S, eigvals_only=True)[::-1]
    ref = full[:k]
    # steep potentials on coarse grids make |S| huge, and the reference
    # is itself only accurate to a few eps |S|
    floor = 1e-12 * np.abs(full).max()
    if ref[0] > 1e-8 + floor:
        # a nonmonotone stencil on a coarse grid can lose negative
        # semidefiniteness; the solver must refuse, not skip past it
        with pytest.raises(SpectralError):
            dc.eig_generator(op, k)
    else:
        s = dc.eig_generator(op, k)
        assert np.all(np.abs(s.eigenvalues - ref)
                      <= 1e-9 * np.maximum(1.0, np.abs(ref)) + floor)

    q = spec.q_field().values
    mu0_ref, x_ref = sla.eigh(S - np.diag(q / dc.LAMBDA),
                              subset_by_index=[op.size - 1, op.size - 1])
    x_ref = x_ref[:, 0] * np.sign(x_ref[:, 0].sum())
    try:
        sol = dc.solve_hjb_principal(
            spec.diffusion_field(), spec.phi_field(), spec.q_field()
        )
    except SpectralError:
        # refusing is right only where the reference fails the Perron
        # gate or the stencil is indefinite
        assert (x_ref.min() < -PERRON_TOLERANCE * np.abs(x_ref).max()
                or ref[0] > 1e-8 + floor)
        return
    mu0 = sol.diagnostics["mu0"]
    assert abs(mu0 - mu0_ref[0]) <= 1e-9 * max(1.0, abs(mu0_ref[0])) + floor
    assert sol.diagnostics["min_eigvec"] >= -PERRON_TOLERANCE
    x = sol.Psi.values * np.sqrt(op.mu)
    assert np.abs(x / np.linalg.norm(x) - x_ref).max() <= 1e-8 + floor


@st.composite
def _random_problem(draw):
    coef = st.floats(0.2, 2.0)
    n1, n2 = draw(st.integers(9, 15)), draw(st.integers(9, 15))
    half = draw(st.floats(2.0, 3.5))
    # Sigma = L L^T with L lower triangular and a positive diagonal
    l11, l22 = draw(st.floats(0.6, 1.8)), draw(st.floats(0.6, 1.8))
    l21 = draw(st.floats(-1.0, 1.0))
    sigma = np.array([[l11**2, l11 * l21], [l11 * l21, l21**2 + l22**2]])
    quartic = draw(st.floats(0.0, 0.3))
    phi = (f"{draw(coef):.6f}*x1^2 + {draw(coef):.6f}*x2^2 + "
           f"{quartic:.6f}*(x1^4 + x2^4)")
    q = f"{draw(st.floats(0.0, 3.0)):.6f}*x1^2 + {draw(st.floats(0.0, 3.0)):.6f}*x2^2"
    g = dc.Grid((-half, -half), (half, half), (n1, n2))
    spec = dc.ProblemSpec(grid=g, phi=phi,
                          Sigma=[[f"{v:.6f}" for v in row] for row in sigma],
                          q=q)
    return spec, draw(st.integers(2, 6))


class TestDenseReference:
    @given(_random_problem())
    @settings(max_examples=25, deadline=None)
    def test_random_problem_matches_dense_eigh(self, problem):
        _check_against_dense_reference(*problem)

    @pytest.mark.parametrize("k", [8, 9])
    def test_tiny_grid_dense_fallback(self, k):
        g = dc.Grid((-2.0, -2.0), (2.0, 2.0), (3, 3))
        spec = dc.ProblemSpec(grid=g, phi="(x1^2 + x2^2)/2",
                              Sigma=[["2", "1"], ["1", "2"]],
                              q="x1^2 + x2^2")
        _check_against_dense_reference(spec, k)


class TestWideBoxControlledSpectrum:
    # the boxes TestUnconvergedSpectrumRefused accepts either way: read off
    # M they succeed, against c = 4 and the controlled OU ladder
    # 0, -1.5, -3, -4.5, -4.5, -6, -6, -7.5 (rates 1.5 and 4.5)
    @pytest.mark.parametrize("half, n", [(4.5, 45), (5.0, 65)])
    def test_closed_form(self, half, n):
        g = dc.Grid((-half, -half), (half, half), (n, n))
        spec = dc.ProblemSpec(grid=g, phi="(x1^2 + x2^2)/2",
                              Sigma=[["2", "1"], ["1", "2"]],
                              q="4*x1^2 + 4*x1*x2 + 4*x2^2")
        sol = dc.solve_hjb_principal(
            spec.diffusion_field(), spec.phi_field(), spec.q_field(), k=8
        )
        assert abs(sol.c - 4.0) <= 0.01 * 4.0
        exact = np.array([0.0, -1.5, -3.0, -4.5, -4.5, -6.0, -6.0, -7.5])
        err = np.abs(sol.controlled.eigenvalues - exact)
        assert np.all(err <= 0.03 * np.maximum(np.abs(exact), 1.0))
        assert sol.controlled.residuals.max() <= 1e-6


def _h_transform_mismatch(spec, k):
    """Eigenvalue and eigenfunction differences between the controlled
    spectrum read off M and the one of the reassembled generator.

    Eigenfunctions are compared per cluster of eigenvalues closer than
    1e-3: the singular values of the p-weighted cross Gram matrix of
    two orthonormal bases of one eigenspace are all one, whatever basis
    and signs each solver picked. The last cluster may continue past k
    and is skipped.
    """
    sol = dc.solve_hjb_principal(
        spec.diffusion_field(), spec.phi_field(), spec.q_field(), k=k
    )
    ref = dc.eig_generator(dc.controlled_operator(sol), k)
    s = sol.controlled
    scale = np.maximum(1.0, np.abs(ref.eigenvalues))
    val_err = float((np.abs(s.eigenvalues - ref.eigenvalues) / scale).max())

    weight = spec.grid.quadrature_weights() * sol.p.values
    gram = (s.functions * weight) @ ref.functions.T
    breaks = np.flatnonzero(np.diff(ref.eigenvalues) < -1e-3 * scale[1:]) + 1
    fun_err = 0.0
    for lo, hi in zip(np.r_[0, breaks[:-1]], breaks):
        sv = np.linalg.svd(gram[lo:hi, lo:hi], compute_uv=False)
        fun_err = max(fun_err, float(np.abs(sv - 1.0).max()))
    return sol, val_err, fun_err


@st.composite
def _diagonal_problem(draw):
    """1D problems, and 2D problems whose Sigma is diagonal (and may
    vary in space), where the reassembled controlled generator and
    M - mu0 I are the same matrix up to rounding."""
    q = st.floats(0.0, 3.0)
    if draw(st.booleans()):
        n = draw(st.integers(41, 161))
        half = draw(st.floats(3.0, 5.0))
        g = dc.Grid((-half,), (half,), (n,))
        phi = (f"{draw(st.floats(0.3, 1.5)):.6f}*x1^2 + "
               f"{draw(st.floats(0.0, 0.1)):.6f}*x1^4")
        Sigma = [[f"{draw(st.floats(0.5, 2.5)):.6f}*(1 + "
                  f"{draw(st.floats(0.0, 0.3)):.6f}*x1^2)"]]
        cost = f"{draw(q):.6f}*x1^2 + {draw(q):.6f}*x1"
    else:
        n1, n2 = draw(st.integers(9, 17)), draw(st.integers(9, 17))
        half = draw(st.floats(2.0, 3.0))
        g = dc.Grid((-half, -half), (half, half), (n1, n2))
        phi = (f"{draw(st.floats(0.3, 1.0)):.6f}*x1^2 + "
               f"{draw(st.floats(0.3, 1.0)):.6f}*x2^2")
        Sigma = [[f"{draw(st.floats(0.5, 2.0)):.6f}", "0"],
                 ["0", f"{draw(st.floats(0.5, 2.0)):.6f}*(1 + "
                       f"{draw(st.floats(0.0, 0.3)):.6f}*x1^2)"]]
        cost = f"{draw(q):.6f}*x1^2 + {draw(q):.6f}*x2^2"
    spec = dc.ProblemSpec(grid=g, phi=phi, Sigma=Sigma, q=cost)
    return spec, draw(st.integers(2, 6))


class TestHTransformIdentity:
    """The controlled generator is the Doob h-transform of M, so its
    spectrum read off M matches the reassembled generator's."""

    @given(_diagonal_problem())
    @settings(max_examples=30, deadline=None)
    def test_diagonal_sigma_matches_reassembled_generator(self, problem):
        spec, k = problem
        sol, val_err, fun_err = _h_transform_mismatch(spec, k)
        assert val_err <= 1e-8
        assert fun_err <= 1e-8
        # p-orthonormal by construction, constant zero mode
        s = sol.controlled
        weight = spec.grid.quadrature_weights() * s.rho.values
        gram = (s.functions * weight) @ s.functions.T
        np.testing.assert_allclose(gram, np.eye(k), atol=1e-10)
        assert np.all(s.functions[0] == 1.0)

    def test_cross_sigma_agrees_to_second_order(self):
        # the cross cell takes a 4-corner geometric mean of rho, a pairwise
        # one in M: two O(h^2) discretizations of one operator. The
        # eigenvalues agree within 0.05 h^2 (relative to max(1, |xi|)) at
        # both spacings, and the difference shrinks by at least 4 when h
        # halves. Coarser grids fail the Perron gate (nonmonotone stencil).
        errs = {}
        for n in (25, 49):
            g = dc.Grid((-3.0, -3.0), (3.0, 3.0), (n, n))
            spec = dc.ProblemSpec(grid=g, phi="(x1^2 + x2^2)/2",
                                  Sigma=[["2", "1"], ["1", "2"]],
                                  q="4*x1^2 + 4*x1*x2 + 4*x2^2")
            h = 6.0 / (n - 1)
            _, val_err, _ = _h_transform_mismatch(spec, 8)
            assert val_err <= 0.05 * h * h
            errs[n] = val_err
        assert errs[49] <= errs[25] / 4.0
