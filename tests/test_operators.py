"""Discrete generator assembly invariants.

The three checks that the whole toolkit leans on are exact by
construction and tested at rounding tolerance here: the generator
annihilates constants, the adjoint annihilates the stationary density,
and trapezoid-weighted total mass is conserved. Weighted self
adjointness is tested at the 1e-10 gate on all benchmark operators.
"""


import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import densctl as dc
from densctl.errors import OperatorError
from densctl.operators import apply, stationary_weight

from conftest import assemble, corr2d_spec, dwell2d_spec, ou_spec, statesig_spec

BENCHMARKS = {
    "ou": ou_spec,
    "statesig": statesig_spec,
    "dwell2d": dwell2d_spec,
}


def dense(M):
    return M.toarray() if sp.issparse(M) else np.asarray(M)


@pytest.fixture(scope="module", params=sorted(BENCHMARKS))
def bench_op(request):
    return assemble(BENCHMARKS[request.param]())


class TestExactInvariants:
    def test_generator_annihilates_constants(self, bench_op):
        G = dense(bench_op.G)
        scale = np.abs(G).max()
        assert np.abs(G.sum(axis=1)).max() <= 1e-13 * scale

    def test_adjoint_annihilates_stationary_density(self, bench_op):
        adj = dc.adjoint_of(bench_op)
        A = dense(adj.A)
        rho = bench_op.rho.values
        defect = np.abs(A @ rho).max()
        assert defect <= 1e-12 * np.abs(A).max() * rho.max()
        assert defect <= 1e-10

    def test_mass_conservation_row(self, bench_op):
        adj = dc.adjoint_of(bench_op)
        A = dense(adj.A)
        w = bench_op.weights
        assert np.abs(w @ A).max() <= 1e-12 * np.abs(A).max() * w.max()

    def test_stiffness_symmetric(self, bench_op):
        K = dense(bench_op.K)
        assert np.abs(K - K.T).max() <= 1e-12 * np.abs(K).max()


class TestWeightedSelfAdjointness:
    def test_density_weighted_generator_symmetric(self, bench_op):
        G = dense(bench_op.G)
        M = bench_op.rho.values[:, None] * G
        assert np.abs(M - M.T).max() <= 1e-10

    def test_mass_weighted_generator_is_minus_stiffness(self, bench_op):
        G = dense(bench_op.G)
        M = bench_op.mu[:, None] * G
        K = dense(bench_op.K)
        assert np.abs(M + K).max() <= 1e-12 * np.abs(K).max()

    def test_adjoint_is_density_conjugate(self, bench_op):
        # A f = rho G(f/rho) row by row
        adj = dc.adjoint_of(bench_op)
        A, G = dense(adj.A), dense(bench_op.G)
        rho = bench_op.rho.values
        sim = rho[:, None] * G / rho[None, :]
        assert np.abs(A - sim).max() <= 1e-9 * np.abs(A).max()

    def test_detailed_balance_identity(self, bench_op):
        # A(rho f) = rho (G f) for a generic smooth f
        g = bench_op.grid
        x = g.node_coords()
        f = dc.ScalarField(g, np.sin(x[:, 0]) + 0.3 * x[:, 0] ** 2)
        rho = bench_op.rho.values
        adj = dc.adjoint_of(bench_op)
        left = apply(adj, dc.ScalarField(g, rho * f.values)).values
        right = rho * apply(bench_op, f).values
        scale = np.abs(right).max()
        assert np.abs(left - right).max() <= 1e-9 * scale

    def test_defect_diagnostic_is_small(self, bench_op):
        assert bench_op.detailed_balance_defect() <= 1e-10


class TestStationaryWeight:
    def test_normalized_against_trapezoid_weights(self, bench_op):
        w = bench_op.weights
        rho = bench_op.rho.values
        np.testing.assert_allclose(w @ rho, 1.0, rtol=1e-13)
        assert rho.min() > 0

    def test_matches_gibbs_form(self):
        spec = ou_spec(101)
        g = spec.grid
        phi = spec.phi_field()
        w = g.quadrature_weights()
        rho = stationary_weight(phi, w)
        ref = np.exp(-phi.values)
        ref /= w @ ref
        np.testing.assert_allclose(rho, ref, rtol=1e-13)


class TestWeightedAlgebra:
    def test_apply_matches_matrix(self, ou_operator):
        g = ou_operator.grid
        f = dc.ScalarField(g, np.cos(g.node_coords()[:, 0]))
        got = apply(ou_operator, f).values
        ref = dense(ou_operator.G) @ f.values
        np.testing.assert_allclose(got, ref, atol=1e-12 * np.abs(ref).max())


class TestCrossDiffusion:
    def test_rate_ladder_with_cross_terms(self):
        # closed form: eigenvalues are sums n1 l1 + n2 l2 of the rates of
        # -Sigma P/2 with P = I, Sigma = [[2,1],[1,2]], so l = {1/2, 3/2};
        # the ladder has a double point at -3/2
        op = assemble(corr2d_spec())
        # Sigma_12 > 0 couples each node to its (1, 1) neighbour
        i = 32 * 65 + 32
        assert op.K[i, i + 66] < 0.0
        s = dc.eig_generator(op, 6)
        expect = np.array([0.0, -0.5, -1.0, -1.5, -1.5, -2.0])
        err = np.abs(s.eigenvalues - expect) / np.maximum(np.abs(expect), 0.5)
        assert err.max() <= 1e-2

    def test_3d_rate_ladder_with_cross_terms(self):
        # Selling's reduction in 3D gives 6 offsets per node. With P = I
        # the rates are the eigenvalues {1/2, 5/4, 5/4} of Sigma/2, so the
        # ladder starts 0, -1/2, -1, -5/4, -5/4, -3/2. Second order: the
        # error contracts by about (12/16)^2 from 13^3 to 17^3.
        Sigma = [["2", "-0.5", "0.5"], ["-0.5", "2", "0.5"],
                 ["0.5", "0.5", "2"]]
        expect = np.array([0.0, -0.5, -1.0, -1.25, -1.25, -1.5])
        errs = []
        for n in (13, 17):
            g = dc.Grid((-3.5,) * 3, (3.5,) * 3, (n,) * 3)
            spec = dc.ProblemSpec(grid=g, phi="(x1^2 + x2^2 + x3^2)/2",
                                  Sigma=Sigma, q="0")
            s = dc.eig_generator(assemble(spec), 6)
            errs.append(np.max(np.abs(s.eigenvalues - expect)
                               / np.maximum(np.abs(expect), 0.5)))
        assert errs[1] <= 5e-2
        assert errs[1] <= errs[0] / 1.5

    def test_cross_terms_beyond_3d_are_refused(self):
        g = dc.Grid((-1.0,) * 4, (1.0,) * 4, (3,) * 4)
        Sigma = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
        spec = dc.ProblemSpec(grid=g, phi="x1^2", Sigma=Sigma, q="0")
        assert assemble(spec).K.nnz > 0
        Sigma[0][1] = Sigma[1][0] = "0.5"
        spec = dc.ProblemSpec(grid=g, phi="x1^2", Sigma=Sigma, q="0")
        with pytest.raises(OperatorError, match="dimension 2 or 3"):
            assemble(spec)


@st.composite
def _random_spd_problem(draw):
    """Random SPD Sigma = L L^T in 2D or 3D, without diagonal dominance,
    on coarse grids with unequal spacing and a steep phi."""
    n = draw(st.sampled_from([2, 3]))
    counts = [draw(st.integers(5, 11 if n == 2 else 6)) for _ in range(n)]
    half = [draw(st.floats(1.5, 3.5)) for _ in range(n)]
    L = np.zeros((n, n))
    for a in range(n):
        L[a, a] = draw(st.floats(0.3, 1.8))
        for b in range(a):
            L[a, b] = draw(st.floats(-1.5, 1.5))
    Sigma = L @ L.T
    xs = [f"x{a + 1}" for a in range(n)]
    phi = " + ".join(f"{draw(st.floats(0.2, 2.0)):.6f}*{x}^2 + "
                     f"{draw(st.floats(0.0, 0.3)):.6f}*{x}^4" for x in xs)
    q = " + ".join(f"{draw(st.floats(0.0, 3.0)):.6f}*{x}^2" for x in xs)
    g = dc.Grid(tuple(-h for h in half), tuple(half), tuple(counts))
    return dc.ProblemSpec(grid=g, phi=phi,
                          Sigma=[[f"{v:.6f}" for v in row] for row in Sigma],
                          q=q)


class TestGraphLaplacian:
    """Two-point fluxes with nonnegative Selling weights make K a
    weighted graph Laplacian for every SPD Sigma, so S is negative
    semidefinite, M = S - D(q/lam) is Metzler and its Perron vector is
    positive."""

    @given(_random_spd_problem())
    @settings(max_examples=30, deadline=None)
    def test_random_spd_sigma(self, spec):
        try:
            op = assemble(spec)
        except OperatorError as e:
            # Sigma too anisotropic for the grid: no Selling offset of
            # some node fits in the box
            assert "disconnected" in str(e)
            return
        K = op.K.toarray()
        scale = np.abs(K).max()
        assert np.abs(K - K.T).max() <= 1e-12 * scale
        assert np.abs(K.sum(axis=1)).max() <= 1e-12 * scale
        off = K - np.diag(np.diag(K))
        assert off.max() <= 0.0

        d = 1.0 / np.sqrt(op.mu)
        S = -d[:, None] * K * d[None, :]
        top = np.linalg.eigvalsh(0.5 * (S + S.T))
        assert top[-1] <= 1e-12 * np.abs(top).max()
        M = S - np.diag(spec.q_field().values / dc.LAMBDA)
        assert (M - np.diag(np.diag(M))).min() >= 0.0

        sol = dc.solve_hjb_principal(
            spec.diffusion_field(), spec.phi_field(), spec.q_field()
        )
        assert sol.diagnostics["min_eigvec"] > 0.0

    def test_offsets_outside_the_box_are_refused(self):
        # Sigma_11 / h_1^2 = 1/16 against Sigma_22 / h_2^2 = 32/9: the
        # Selling offsets (0, 1), (1, 5) and (1, 6) need 6 nodes along x2,
        # so on 5 the stencil keeps only the five x2 columns. Refining
        # x1 brings the offsets to (0, 1), (1, 3) and (1, 2).
        Sigma = [["0.140625", "0.375"], ["0.375", "2"]]
        g = dc.Grid((-3.0, -1.5), (3.0, 1.5), (5, 5))
        spec = dc.ProblemSpec(grid=g, phi="x1^2 + x2^2", Sigma=Sigma,
                              q="x2^2")
        with pytest.raises(OperatorError, match="5 disconnected parts"):
            assemble(spec)
        g = dc.Grid((-3.0, -1.5), (3.0, 1.5), (9, 5))
        spec = dc.ProblemSpec(grid=g, phi="x1^2 + x2^2", Sigma=Sigma,
                              q="x2^2")
        sol = dc.solve_hjb_principal(
            spec.diffusion_field(), spec.phi_field(), spec.q_field()
        )
        assert sol.diagnostics["min_eigvec"] > 0.0


class TestRefinement:
    def test_gap_error_contracts(self):
        errs = []
        for n in (101, 201):
            op = assemble(ou_spec(n))
            s = dc.eig_generator(op, 2)
            errs.append(abs(s.eigenvalues[1] + 2.0))
        assert errs[1] < errs[0] / 3.0


class TestAssemblyErrors:
    def test_grid_mismatch(self):
        a = ou_spec(101)
        b = ou_spec(201)
        with pytest.raises(OperatorError):
            dc.assemble_generator(a.diffusion_field(), b.phi_field())
