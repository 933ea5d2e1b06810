import dataclasses
import inspect
import warnings

import numpy as np
import pytest

import densctl as dc
from densctl.errors import ModelError

from conftest import ou_spec


def grid1d(n=101, lo=-6.0, hi=6.0):
    return dc.Grid((lo,), (hi,), (n,))


class TestSpecConstruction:
    def test_forward_spec(self):
        spec = ou_spec(101)
        assert spec.mode == "forward"
        assert spec.grid.size == 101

    def test_sigma_and_Sigma_are_exclusive(self):
        g = grid1d()
        with pytest.raises(ModelError):
            dc.ProblemSpec(grid=g, phi="x1^2", sigma=[["1"]], Sigma=[["1"]], q="0")
        with pytest.raises(ModelError):
            dc.ProblemSpec(grid=g, phi="x1^2", q="0")

    def test_cost_and_target_are_exclusive(self):
        g = grid1d()
        with pytest.raises(ModelError):
            dc.ProblemSpec(
                grid=g, phi="x1^2", sigma=[["1"]], q="0", target="exp(-x1^2)"
            )
        with pytest.raises(ModelError):
            dc.ProblemSpec(grid=g, phi="x1^2", sigma=[["1"]])

    def test_dimension_mismatch_in_expressions(self):
        g = grid1d()
        with pytest.raises((ModelError, dc.ExpressionError)):
            dc.ProblemSpec(grid=g, phi="x2^2", sigma=[["1"]], q="0")


class TestDerivedQuantities:
    def test_drift_constant_noise(self):
        # Sigma = 2, phi = x^2: drift is -Sigma grad(phi)/2 = -2x
        spec = ou_spec(101)
        b = dc.drift_from_potential(spec.diffusion_field(), spec.phi_field())
        x = spec.grid.node_coords()[:, 0]
        np.testing.assert_allclose(b.values[:, 0], -2 * x, atol=1e-10)

    def test_drift_state_dependent_noise(self):
        # Sigma = 1 + x^2 adds the divergence term x, leaving -x^3
        g = grid1d(201)
        spec = dc.ProblemSpec(grid=g, phi="x1^2", Sigma=[["1 + x1^2"]], q="0")
        b = dc.drift_from_potential(spec.diffusion_field(), spec.phi_field())
        x = g.node_coords()[:, 0]
        np.testing.assert_allclose(b.values[:, 0], -(x**3), atol=1e-9)

    def test_control_law_is_sigma_over_lambda(self):
        g = dc.Grid((-1.0, -1.0), (1.0, 1.0), (5, 5))
        spec = dc.ProblemSpec(
            grid=g, phi="x1^2 + x2^2", Sigma=[["2", "1"], ["1", "2"]], q="0"
        )
        s = np.tile([1.0, -3.0], (g.size, 1))
        u = dc.control_law(spec.diffusion_field(), s)
        np.testing.assert_array_equal(u.values, np.tile([-0.5, -2.5],
                                                        (g.size, 1)))

    def test_grid_Sigma_of_a_three_column_sigma(self):
        # sigma sigma^T summed over the columns in order, as the SDE
        # engine sums it: equal bit for bit at every node
        g = dc.Grid((-2.0, -2.0), (2.0, 2.0), (9, 9))
        rows = [["1 + x1^2/4", "0.3*sin(x2)", "0.5"],
                ["0.2*x1*x2", "1 + cos(x1)/3", "x2/7"]]
        spec = dc.ProblemSpec(grid=g, phi="x1^2 + x2^2", sigma=rows, q="0")
        x = g.node_coords()
        s = [[dc.evaluate(dc.parse_expression(e), x) for e in row]
             for row in rows]
        want = np.empty((g.size, 2, 2))
        for i in range(2):
            for k in range(2):
                acc = s[i][0] * s[k][0]
                for j in (1, 2):
                    acc = acc + s[i][j] * s[k][j]
                want[:, i, k] = acc
        np.testing.assert_array_equal(spec.diffusion_field().values, want)

    def test_noise_factor_from_Sigma(self):
        # only Sigma given: the noise factor must be a valid one
        g = grid1d(11)
        spec = dc.ProblemSpec(grid=g, phi="x1^2", Sigma=[["1 + x1^2"]], q="0")
        d = spec.diffusion
        sig = d.factor(d.matrix(g.node_coords()))
        Sig = spec.diffusion_field().values
        np.testing.assert_allclose(
            np.einsum("nij,nkj->nik", sig, sig), Sig, atol=1e-12
        )


class TestConfinementProxy:
    def test_quadratic_potential_passes(self):
        g = grid1d(201)
        x = g.node_coords()[:, 0]
        rep = dc.confinement_report(dc.ScalarField(g, x**2))
        assert rep.passed
        assert len(rep.shell_minima) == 5

    def test_flat_potential_fails(self):
        g = grid1d(201)
        rep = dc.confinement_report(dc.ScalarField(g, np.ones(g.size)))
        assert not rep.passed

    def test_too_few_shells(self):
        g = grid1d(7)
        with pytest.raises(ModelError):
            dc.confinement_report(dc.ScalarField(g, np.zeros(7)))


class TestValidation:
    def names(self, rep, status):
        return {f.name for f in rep.findings if f.status == status}

    def test_good_spec_passes(self):
        rep = dc.validate_spec(ou_spec(201))
        assert rep.passed
        assert not self.names(rep, "FAIL")

    def test_spd_violation(self):
        g = grid1d(201)
        spec = dc.ProblemSpec(grid=g, phi="x1^2", Sigma=[["-1"]], q="x1^2")
        rep = dc.validate_spec(spec)
        assert "diffusion-spd" in self.names(rep, "FAIL")
        assert not rep.passed

    def test_asymmetric_diffusion(self):
        g = dc.Grid((-1.0, -1.0), (1.0, 1.0), (9, 9))
        spec = dc.ProblemSpec(
            grid=g, phi="x1^2 + x2^2", Sigma=[["2", "1"], ["0", "2"]], q="0"
        )
        rep = dc.validate_spec(spec)
        assert "diffusion-symmetry" in self.names(rep, "FAIL")

    def test_unbounded_below_cost(self):
        spec = ou_spec(201, q="-x1^2")
        rep = dc.validate_spec(spec)
        assert "cost-bounded-below" in self.names(rep, "FAIL")

    def test_negative_but_bounded_cost_warns(self):
        spec = ou_spec(201, q="-1")
        rep = dc.validate_spec(spec)
        assert "cost-negative" in self.names(rep, "WARN")
        assert "cost-bounded-below" not in self.names(rep, "FAIL")

    def test_pole_between_nodes_warns(self):
        # no node at 0; the centre of the middle cell is 0
        spec = dc.ProblemSpec(grid=grid1d(10, -1.5, 1.5), phi="x1^2",
                              sigma=[["sqrt(2)"]], q="1/x1")
        rep = dc.validate_spec(spec)
        assert rep.passed
        assert "cost-between-nodes" in self.names(rep, "WARN")
        detail = next(f.detail for f in rep.findings
                      if f.name == "cost-between-nodes")
        assert "1 of 9 cell centres, first at (0)" in detail
        assert "cost-between-nodes" not in {
            f.name for f in dc.validate_spec(ou_spec(201)).findings}

    def test_flat_potential_confinement_fails(self):
        g = grid1d(201)
        spec = dc.ProblemSpec(grid=g, phi="1", sigma=[["sqrt(2)"]], q="x1^2")
        rep = dc.validate_spec(spec)
        assert "confinement" in self.names(rep, "FAIL")

    def test_infinite_diffusion_fails_evaluation(self):
        # 1/x1^2 is infinite at the node x = 0; the symmetry and SPD
        # gates must not run on it
        spec = dc.ProblemSpec(grid=grid1d(201), phi="x1^2",
                              Sigma=[["1/x1^2"]], q="x1^2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = dc.validate_spec(spec)
        fails = [f for f in rep.findings if f.status == "FAIL"]
        assert [f.name for f in fails] == ["diffusion"]
        assert "nonfinite at node 100" in fails[0].detail
        assert "diffusion-spd" not in self.names(rep, "PASS")
        with pytest.raises(dc.FieldError, match="nonfinite at node 100"):
            spec.diffusion_field()

    def test_sign_changing_target(self):
        g = grid1d(201)
        spec = dc.ProblemSpec(grid=g, phi="x1^2", sigma=[["1"]], target="x1")
        rep = dc.validate_spec(spec)
        assert "target-positive" in self.names(rep, "FAIL")

    def test_report_lines_and_dict(self):
        rep = dc.validate_spec(ou_spec(101))
        assert all(isinstance(l, str) for l in rep.lines())
        d = rep.as_dict()
        assert isinstance(d, dict) and d


class TestNoiseMatchedWeight:
    """R = LAMBDA Sigma^-1 with LAMBDA = 2 is structural: no public
    function, method or dataclass takes a weight or its multiplier."""

    def test_lambda_is_two(self):
        assert dc.LAMBDA == 2.0

    def test_no_public_lam_or_R(self):
        offenders = []
        for name in dc.__all__:
            obj = getattr(dc, name)
            members = [(name, obj)] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                members += [(f"{name}.{m}", f) for m, f in vars(obj).items()
                            if inspect.isfunction(f)
                            and (not m.startswith("_") or m == "__init__")]
                if dataclasses.is_dataclass(obj):
                    offenders += [f"{name}.{f.name}"
                                  for f in dataclasses.fields(obj)
                                  if f.name in ("lam", "R")]
            for label, f in members:
                offenders += [f"{label}({p})"
                              for p in inspect.signature(f).parameters
                              if p in ("lam", "R")]
        assert offenders == []
