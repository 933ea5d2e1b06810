"""Inverse direction: cost and control recovered from a target density.

Closed forms (phi = x^2, Sigma = 2, lam = 2): the Gaussian target
p ~ exp(-2x^2) comes from q = 6x^2 with c = 2 and feedback u = -2x; the
bimodal target p ~ exp(-(x^2-1)^2) comes from
q = 8x^6 - 16x^4 - 6x^2 + 18 with c = 12 and u = 6x - 4x^3.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import densctl as dc
from densctl.errors import InverseError, OperatorError

from conftest import bimodal_spec, ou_spec


def gauss_spec(counts=401):
    g = dc.Grid((-6.0,), (6.0,), (counts,))
    return dc.ProblemSpec(grid=g, phi="x1^2", sigma=[["sqrt(2)"]],
                          target="exp(-2*x1^2)")


def gated_interior(spec, inv, margin=2, floor=1e-8):
    mask = spec.grid.interior_mask(margin)
    t = inv.target.values
    return mask & (t >= floor * t.max())


@pytest.fixture(scope="module")
def gauss_inv():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return dc.solve_inverse(gauss_spec())


@pytest.fixture(scope="module")
def bimodal_inv():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return dc.solve_inverse(bimodal_spec())


class TestGaussianTarget:
    def test_desirability_shape(self, gauss_inv):
        x = gauss_inv.grid.node_coords()[:, 0]
        psi = gauss_inv.Psi.values
        ref = np.exp(-(x**2) / 2)
        i0 = np.argmin(np.abs(x))
        inner = np.abs(x) <= 3.0
        ratio = psi / ref
        assert np.abs(ratio[inner] / ratio[i0] - 1).max() <= 1e-12

    def test_cost_recovered(self, gauss_inv):
        spec = gauss_spec()
        x = spec.grid.node_coords()[:, 0]
        mask = gated_interior(spec, gauss_inv)
        rel = np.abs(gauss_inv.q.values - 6 * x**2) / (1 + np.abs(6 * x**2))
        assert rel[mask].max() <= 1e-2
        assert abs(gauss_inv.c - 2.0) <= 5e-3
        assert gauss_inv.q.values.min() >= 0.0

    def test_control_recovered(self, gauss_inv):
        spec = gauss_spec()
        x = spec.grid.node_coords()[:, 0]
        mask = gated_interior(spec, gauss_inv)
        assert np.abs(gauss_inv.u.values[mask, 0] + 2 * x[mask]).max() <= 1e-10

    def test_value_matches_quadratic(self, gauss_inv):
        x = gauss_inv.grid.node_coords()[:, 0]
        inner = np.abs(x) <= 3.0
        v = gauss_inv.v.values
        gauge = v[np.argmin(np.abs(x))]
        assert np.abs((v[inner] - gauge) - x[inner] ** 2).max() <= 1e-10


class TestSelfTarget:
    def test_uncontrolled_stationary_needs_no_control(self):
        # target equal to the free Gibbs density: q = 0, u = 0 exactly
        g = dc.Grid((-6.0,), (6.0,), (301,))
        spec = dc.ProblemSpec(grid=g, phi="x1^2", sigma=[["sqrt(2)"]],
                              target="exp(-x1^2)")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            inv = dc.solve_inverse(spec)
        assert np.abs(inv.u.values).max() <= 1e-11
        assert abs(inv.c) <= 1e-9
        assert inv.q.values.max() <= 1e-9


class TestBimodalTarget:
    def test_cost_and_rate(self, bimodal_inv):
        spec = bimodal_spec()
        x = spec.grid.node_coords()[:, 0]
        q_ref = 8 * x**6 - 16 * x**4 - 6 * x**2 + 18
        mask = gated_interior(spec, bimodal_inv)
        rel = np.abs(bimodal_inv.q.values - q_ref) / (1 + np.abs(q_ref))
        assert rel[mask].max() <= 1e-2
        assert abs(bimodal_inv.c - 12.0) <= 0.05

    def test_control(self, bimodal_inv):
        # the quartic log target leaves an O(h^2) differencing error of
        # about 4 x h^2, so the gate is relative, not exact
        spec = bimodal_spec()
        x = spec.grid.node_coords()[:, 0]
        mask = gated_interior(spec, bimodal_inv)
        ref = 6 * x - 4 * x**3
        h = spec.grid.spacing[0]
        assert np.abs(bimodal_inv.u.values[mask, 0] - ref[mask]).max() <= 10 * h**2


def _spd(draw, n, low, high):
    """A random n x n SPD matrix with eigenvalues in [low, high]."""
    eig = np.diag([draw(st.floats(low, high)) for _ in range(n)])
    if n == 1:
        return eig
    t = draw(st.floats(0.0, np.pi))
    rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    return rot @ eig @ rot.T


def _quadratic(M, xs):
    """x^T M x as expression text."""
    return " ".join(f"{M[a, b] * (1 if a == b else 2):+.6f}*{xs[a]}*{xs[b]}"
                    for a in range(len(xs)) for b in range(a, len(xs)))


@st.composite
def _random_target_problem(draw):
    """Smooth target exp(-U), U an SPD quadratic plus a small quartic,
    under a constant SPD Sigma and a quadratic phi, on a small 1D or 2D
    grid."""
    n = draw(st.sampled_from([1, 2]))
    counts = (draw(st.integers(41, 101)),) if n == 1 else \
        tuple(draw(st.integers(17, 25)) for _ in range(2))
    half = draw(st.floats(2.5, 3.5))
    xs = [f"x{a + 1}" for a in range(n)]
    quartic = draw(st.floats(0.0, 0.02))
    U = (f"0.5*({_quadratic(_spd(draw, n, 0.5, 1.5), xs)}) + {quartic:.6f}*("
         + " + ".join(f"{x}^4" for x in xs) + ")")
    Sigma = _spd(draw, n, 0.5, 2.0)
    g = dc.Grid((-half,) * n, (half,) * n, counts)
    return dc.ProblemSpec(
        grid=g, phi=f"0.5*({_quadratic(_spd(draw, n, 0.3, 2.0), xs)})",
        Sigma=[[f"{v:.6f}" for v in row] for row in Sigma],
        target=f"exp(-({U}))")


class TestRoundtrip:
    @given(_random_target_problem())
    @settings(max_examples=20, deadline=None)
    def test_random_targets_round_trip(self, spec):
        # the synthesized cost makes the target's desirability an exact
        # eigenvector of the discrete problem, so the forward solve must
        # give the target back on any grid; draws the code refuses or
        # warns about on purpose are skipped
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rep = dc.roundtrip_verify(spec.target_field(), spec)
        except InverseError as e:
            assume("desirability below" not in str(e))
            raise
        except OperatorError as e:
            assume("disconnected" not in str(e))
            raise
        assume(not any("curvature" in str(w.message) for w in caught))
        assert rep.density_error <= 1e-3
        assert rep.c_difference <= 1e-2
        assert rep.control_error <= 1e-2
        assert rep.controlled_gap > 0

    def test_gaussian_roundtrip(self):
        spec = gauss_spec()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            rep = dc.roundtrip_verify(spec.target_field(), spec)
        assert rep.density_error <= 1e-3
        assert abs(rep.c_difference) <= 1e-2
        assert rep.control_error <= 1e-2
        assert rep.controlled_gap > 0
        assert any("density" in line for line in rep.lines())

    def test_bimodal_roundtrip(self):
        spec = bimodal_spec()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            rep = dc.roundtrip_verify(spec.target_field(), spec)
        assert rep.density_error <= 1e-2
        assert rep.controlled_gap > 0


class TestOneAssembly:
    """The design and the round trip's forward solve share one assembled
    generator of (Sigma, phi)."""

    @pytest.fixture
    def assemblies(self, monkeypatch):
        from densctl import inverse, operators, spectral
        calls = []

        def counted(Sigma, Phi):
            calls.append(Sigma.grid)
            return operators.assemble_generator(Sigma, Phi)

        for mod in (inverse, spectral):
            monkeypatch.setattr(mod, "assemble_generator", counted)
        return calls

    @pytest.mark.filterwarnings("ignore:target density mass")
    @pytest.mark.parametrize("design", [
        lambda spec: dc.solve_inverse(spec),
        lambda spec: dc.roundtrip_verify(spec.target_field(), spec),
    ], ids=["solve_inverse", "roundtrip_verify"])
    def test_one_assembly(self, assemblies, design):
        design(gauss_spec(201))
        assert len(assemblies) == 1


class TestGatesAndWarnings:
    def test_forward_spec_rejected(self):
        with pytest.raises(InverseError):
            dc.solve_inverse(ou_spec(101))

    def test_mass_renormalization_warns(self):
        with pytest.warns(UserWarning, match="mass"):
            dc.solve_inverse(gauss_spec(201))

    def test_nonpositive_target_rejected(self):
        g = dc.Grid((-1.0,), (1.0,), (101,))
        spec = dc.ProblemSpec(grid=g, phi="x1^2", sigma=[["1"]], target="x1")
        with pytest.raises(InverseError):
            dc.solve_inverse(spec)

    def test_tail_division_gate(self):
        # target decays so fast that the desirability underflows the
        # division floor near the walls
        g = dc.Grid((-6.0,), (6.0,), (401,))
        spec = dc.ProblemSpec(grid=g, phi="x1^2", sigma=[["sqrt(2)"]],
                              target="exp(-25*x1^2)")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            with pytest.raises(InverseError):
                dc.solve_inverse(spec)

    @pytest.mark.filterwarnings("ignore:target density mass")
    def test_rough_target_warns_on_log_curvature(self):
        # kink of exp(-52|x|) at the origin: undivided second difference
        # of the log target is 1.04 per cell at h = 0.01, above the limit,
        # while the tails stay just above the desirability division floor
        g = dc.Grid((-1.0,), (1.0,), (201,))
        spec = dc.ProblemSpec(grid=g, phi="x1^2", sigma=[["sqrt(2)"]],
                              target="exp(0 - 52*abs(x1))")
        with pytest.warns(UserWarning, match="curvature"):
            dc.solve_inverse(spec)
