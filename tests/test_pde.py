"""Crank-Nicolson density evolution and modal decay."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings

import densctl as dc
from densctl.errors import PdeError

from conftest import assemble, ou_spec
from test_spectral import _random_problem


@pytest.fixture(scope="module")
def ou_op():
    return assemble(ou_spec())


@pytest.fixture(scope="module")
def ou_adj(ou_op):
    return dc.adjoint_of(ou_op)


def perturbed_density(op, amp=0.2):
    g = op.grid
    x = g.node_coords()[:, 0]
    w = op.weights
    p = op.rho.values * (1 + amp * np.sin(x))
    p = p / (w @ p)
    return dc.ScalarField(g, p)


class TestStationarity:
    def test_stationary_density_is_fixed_point(self, ou_op, ou_adj):
        traj = dc.evolve_fp(ou_adj, dc.ScalarField(ou_op.grid, ou_op.rho.values),
                            dt=0.01, T=2.0)
        assert np.abs(traj.densities[-1] - ou_op.rho.values).max() <= 1e-10
        assert np.abs(traj.mass - 1.0).max() <= 1e-12


class TestMassAndPositivity:
    def test_mass_conserved_through_transient(self, ou_adj, ou_op):
        traj = dc.evolve_fp(ou_adj, perturbed_density(ou_op), dt=0.005, T=5.0)
        assert np.abs(traj.mass - 1.0).max() <= 1e-11

    def test_negative_initial_density_rejected(self, ou_adj, ou_op):
        g = ou_op.grid
        bad = dc.ScalarField(g, ou_op.rho.values - ou_op.rho.values.max())
        with pytest.raises(PdeError):
            dc.evolve_fp(ou_adj, bad, dt=0.01, T=0.1)

    def test_dt_refused_against_rate_limit(self, ou_adj, ou_op):
        with pytest.raises(PdeError):
            dc.evolve_fp(ou_adj, perturbed_density(ou_op), dt=1.0, T=2.0,
                         rate_limit=8.0)


class TestModalDecay:
    def test_fitted_rate_matches_gap(self, ou_adj, ou_op):
        traj = dc.evolve_fp(ou_adj, perturbed_density(ou_op), dt=0.005, T=2.5,
                            store_every=5)
        rate = dc.fit_decay_rate(traj.times, traj.norm_rho, t_min=0.25, t_max=1.5)
        assert abs(rate + 2.0) / 2.0 <= 0.02

    def test_norm_decays_monotonically(self, ou_adj, ou_op):
        traj = dc.evolve_fp(ou_adj, perturbed_density(ou_op), dt=0.01, T=2.0)
        drops = np.diff(traj.norm_rho)
        assert (drops <= 1e-12).all()

    def test_fit_on_synthetic_exponential(self):
        t = np.linspace(0, 3, 61)
        n = 0.7 * np.exp(-1.37 * t)
        assert abs(dc.fit_decay_rate(t, n, 0.2, 2.8) + 1.37) <= 1e-12


class TestPerturbationEvolution:
    def test_matches_eigen_expansion(self, ou_op):
        # relative perturbation p~ = (p - rho)/rho evolves under G; its
        # trajectory must match the modal sum built from the spectrum
        g = ou_op.grid
        x = g.node_coords()[:, 0]
        pt0 = dc.ScalarField(g, 0.2 * np.sin(x))
        pt0 = dc.project_mass_zero(pt0, ou_op.rho)
        s = dc.eig_generator(ou_op, 12)
        pc = dc.expand_in_eigenbasis(pt0, s)
        traj = dc.evolve_perturbation(ou_op, pt0, dt=0.004, T=2.5, store_every=25)
        worst = 0.0
        base = dc.weighted_norm(pt0, ou_op.rho)
        for t, vals in zip(traj.density_times, traj.densities):
            ref = dc.eigen_evolution(pc, t)
            diff = dc.ScalarField(g, vals - ref.values)
            worst = max(worst, dc.weighted_norm(diff, ou_op.rho) / base)
        assert worst <= 1e-3

    def test_full_equals_conjugated_perturbation(self, ou_op, ou_adj):
        # linearity: full FP from rho(1 + eps f) equals rho (1 + perturbation)
        g = ou_op.grid
        rho = ou_op.rho.values
        p0 = perturbed_density(ou_op)
        pt0 = dc.ScalarField(g, p0.values / rho - 1.0)
        T, dt = 1.0, 0.005
        full = dc.evolve_fp(ou_adj, p0, dt=dt, T=T)
        pert = dc.evolve_perturbation(ou_op, pt0, dt=dt, T=T)
        recon = rho * (1.0 + pert.densities[-1])
        assert np.abs(recon - full.densities[-1]).max() <= 1e-8

    def test_zero_mode_coefficient_vanishes_after_projection(self, ou_op):
        g = ou_op.grid
        x = g.node_coords()[:, 0]
        s = dc.eig_generator(ou_op, 12)
        pt = dc.project_mass_zero(dc.ScalarField(g, 1.0 + 0.3 * np.cos(x)), ou_op.rho)
        pc = dc.expand_in_eigenbasis(pt, s)
        assert abs(pc.coefficients[0]) <= 1e-10
        at0 = dc.eigen_evolution(pc, 0.0)
        # truncation to 12 modes reproduces the smooth input closely
        diff = dc.ScalarField(g, at0.values - pt.values)
        assert dc.weighted_norm(diff, ou_op.rho) <= 1e-3


class TestTrajectoryBookkeeping:
    def test_store_every_grid(self, ou_adj, ou_op):
        traj = dc.evolve_fp(ou_adj, perturbed_density(ou_op), dt=0.01, T=0.5,
                            store_every=10)
        assert traj.kind == "density"
        assert len(traj.density_times) == len(traj.densities)
        assert traj.density_times[0] == 0.0
        np.testing.assert_allclose(np.diff(traj.density_times), 0.1, rtol=1e-12)
        np.testing.assert_allclose(traj.density_times[-1], 0.5, rtol=1e-12)
        assert len(traj.times) == 51
        assert traj.min_value <= traj.densities[-1].min()


class TestSymmetrizedStepper:
    def test_indefinite_stencil_is_refused(self):
        # K is a graph Laplacian for every SPD Sigma, so an indefinite
        # stencil is built by hand: a negative weight on the edge from
        # the centre node to its x1 neighbour gives S an eigenvalue of
        # about +3.1e2, above 2/dt = 20, which CN at dt = 0.1 would grow
        # at every step
        g = dc.Grid((-3.5, -3.5), (3.5, 3.5), (9, 9))
        spec = dc.ProblemSpec(grid=g, phi="x1^2 + x2^2",
                              Sigma=[["2.25", "0.75"], ["0.75", "1.25"]],
                              q="0")
        op = assemble(spec)
        u = np.zeros(g.size)
        u[40], u[49] = 1.0, -1.0
        K = op.K - sp.csr_matrix(100.0 * op.mu[40] * np.outer(u, u))
        op = dataclasses.replace(op, K=K)
        x = g.node_coords()[:, 0]
        pt0 = dc.project_mass_zero(dc.ScalarField(g, np.sin(x)), op.rho)
        with pytest.raises(PdeError, match="above 20"):
            dc.evolve_perturbation(op, pt0, dt=0.1, T=2.0)
        p0 = dc.ScalarField(g, op.rho.values)
        with pytest.raises(PdeError, match="above 20"):
            dc.evolve_fp(dc.adjoint_of(op), p0, dt=0.1, T=2.0)

    def test_controlled_generator_steps_in_the_h_transform_frame(self):
        # an HJB solution steps its controlled generator as M - mu0 I with
        # kernel x0: a controlled eigenfunction decays at its own rate
        spec = ou_spec(201)
        sol = dc.solve_hjb_principal(spec.diffusion_field(),
                                     spec.phi_field(), spec.q_field(), k=4)
        s = sol.controlled
        pt0 = s.eigenfunction(1)
        T = 0.5
        traj = dc.evolve_perturbation(sol, pt0, dt=0.002, T=T)
        assert not traj.projected
        assert np.abs(traj.mass).max() <= 1e-12
        weight = spec.grid.quadrature_weights() * s.rho.values
        diff = traj.densities[-1] - np.exp(s.eigenvalues[1] * T) * pt0.values
        assert np.sqrt(weight @ (diff * diff)) <= 1e-4

    @given(_random_problem())
    @settings(max_examples=25, deadline=None)
    def test_random_problem_conserves_mass_and_linearity(self, problem):
        spec, _ = problem
        op = assemble(spec)
        g = op.grid
        d = np.diag(1.0 / np.sqrt(op.mu))
        S = d @ (-op.K.toarray()) @ d
        top = sla.eigh(0.5 * (S + S.T), eigvals_only=True)[-1]
        dt, T = 0.01, 0.5
        x = g.node_coords()
        rho = op.rho.values
        p0 = rho * (1.0 + 0.3 * np.sin(x[:, 0]) * np.cos(0.7 * x[:, 1]))
        p0 = dc.ScalarField(g, p0 / (op.weights @ p0))
        # K is a graph Laplacian, so S is negative semidefinite
        assert top <= 1e-8 + 1e-12 * np.abs(S).max()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # CN dips on stiff stencils
            full = dc.evolve_fp(dc.adjoint_of(op), p0, dt=dt, T=T)
            pert = dc.evolve_perturbation(
                op, dc.ScalarField(g, p0.values / rho - 1.0), dt=dt, T=T)
        assert np.abs(full.mass - 1.0).max() <= 1e-10
        recon = rho * (1.0 + pert.densities[-1])
        assert np.abs(recon - full.densities[-1]).max() <= 1e-8
