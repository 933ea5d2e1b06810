"""Analytic inverse design: cost and control from a target density.

Given a desired stationary density p and the passive model (Sigma,
phi), the desirability that realizes it is Psi = sqrt(p exp(phi)) up to
gauge, the state cost follows pointwise from the stationary value
identity q = c + LAMBDA (G0 Psi)/Psi, and the steady control is
u = (Sigma/LAMBDA)(grad log p + grad phi), the model's `control_law`
that the forward solve applies to -grad v. No optimization loop is
involved; every step is a direct evaluation, so the round trip through
the forward solver is the natural correctness check. The gauge of Psi
is the forward solver's, `spectral._gauged_log_psi`. Sigma, phi and the
target are read off the spec, which evaluates each once, so the design
and its round trip take no field from the caller. Each run makes one
design, `_design`, over one assembled generator G0 of (Sigma, phi), and
the round trip's forward solve runs on that same G0.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InverseError
from .fields import (
    ScalarField,
    TensorField,
    VectorField,
    gradient_values,
)
from .model import LAMBDA, ProblemSpec, control_law
from .operators import GeneratorOperator, assemble_generator
from .spectral import (
    HJBSolution,
    _gauged_log_psi,
    _solve_principal,
    spectral_gap,
)

PSI_DIVISION_FLOOR = 1e-12
LOG_CURVATURE_LIMIT = 1.0


def _normalized_target(p_inf: ScalarField) -> np.ndarray:
    if p_inf.values.min() <= 0.0:
        k = int(np.argmin(p_inf.values))
        raise InverseError(
            "target density must be strictly positive, min "
            f"{p_inf.values.min():.3e} at node {k}")
    return p_inf.values / float(p_inf.grid.quadrature_weights() @ p_inf.values)


def _check_log_curvature(grid, log_p: np.ndarray) -> None:
    arr = log_p.reshape(grid.shape)
    worst = 0.0
    for k in range(grid.dim):
        if grid.counts[k] >= 3:
            worst = max(worst, float(np.abs(np.diff(arr, n=2, axis=k)).max()))
    if worst > LOG_CURVATURE_LIMIT:
        warnings.warn(
            f"log target changes curvature by {worst:.2f} per cell; the "
            "synthesized cost takes second derivatives of this, refine the "
            "grid or smooth the target", stacklevel=3)


def control_from_target(p_inf: ScalarField, phi: ScalarField,
                        Sigma: TensorField) -> VectorField:
    """Steady feedback control u = (Sigma/LAMBDA)(grad log p + grad phi).

    The log form makes the uncontrolled target give u = 0 to rounding:
    both gradients are taken with the same stencil, so the cancellation
    grad log(e^{-phi}/Z) + grad phi is exact nodewise.
    """
    g = p_inf.grid
    if phi.grid != g or Sigma.grid != g:
        raise InverseError("target, phi and Sigma must share one grid")
    p = _normalized_target(p_inf)
    return control_law(Sigma, gradient_values(g, np.log(p)) +
                       gradient_values(g, phi.values))


@dataclass(frozen=True)
class InverseSolution:
    target: ScalarField = field(repr=False)
    Psi: ScalarField = field(repr=False)
    q: ScalarField = field(repr=False)
    c: float = 0.0
    v: ScalarField = field(repr=False, default=None)
    u: VectorField = field(repr=False, default=None)

    @property
    def grid(self):
        return self.target.grid


def _design(p_inf: ScalarField, op: GeneratorOperator) -> InverseSolution:
    """The whole design over the uncontrolled generator `op` of
    (Sigma, phi). The target is renormalized to unit mass, with a
    warning, since the construction assumes a probability density.
    Psi = sqrt(p exp(phi)) in the forward solver's gauge; the cost is
    q~ = LAMBDA (G0 Psi)/Psi shifted by c = -min q~, so that min q = 0
    and c is the optimal average cost of the synthesized forward
    problem; v = -LAMBDA log Psi; u is `control_from_target`."""
    g, phi = op.grid, op.Phi
    if p_inf.grid != g:
        raise InverseError("target grid does not match the problem grid")
    p = _normalized_target(p_inf)
    mass = float(g.quadrature_weights() @ p_inf.values)
    if abs(mass - 1.0) > 1e-8:
        warnings.warn(f"target density mass {mass:.6g} != 1, renormalizing",
                      stacklevel=2)
    log_p = np.log(p)
    _check_log_curvature(g, log_p)
    psi = np.exp(_gauged_log_psi(0.5 * (log_p + phi.values), phi))

    floor = PSI_DIVISION_FLOOR * float(psi.max())
    tiny = psi < floor
    if tiny.any():
        nodes = np.flatnonzero(tiny)[:8]
        raise InverseError(
            f"desirability below {floor:.3e} at {int(tiny.sum())} nodes "
            f"(first {nodes.tolist()}); the cost quotient would blow up "
            "there, shrink the domain or raise the target floor")
    q_raw = LAMBDA * (op.G @ psi) / psi
    c = -float(q_raw.min())
    return InverseSolution(
        target=ScalarField(g, p), Psi=ScalarField(g, psi),
        q=ScalarField(g, q_raw + c), c=c,
        v=ScalarField(g, -LAMBDA * np.log(psi)),
        u=control_from_target(p_inf, phi, op.Sigma))


def solve_inverse(spec: ProblemSpec) -> InverseSolution:
    """Full inverse design for an inverse-mode problem.

    Produces the desirability, the synthesized nonnegative cost with
    its gauge constant, the value v = -LAMBDA log Psi, and the steady
    control, all on the problem grid.
    """
    if spec.mode != "inverse":
        raise InverseError("problem has a cost q; inverse design needs a "
                           "target density instead")
    op = assemble_generator(spec.diffusion_field(), spec.phi_field())
    return _design(spec.target_field(), op)


@dataclass(frozen=True)
class RoundtripReport:
    density_error: float
    c_inverse: float
    c_forward: float
    control_error: float
    controlled_gap: float
    forward: HJBSolution = field(repr=False, default=None)
    inverse: InverseSolution = field(repr=False, default=None)

    @property
    def c_difference(self) -> float:
        return abs(self.c_forward - self.c_inverse)

    def lines(self) -> list[str]:
        return [
            f"density sup relative error  {self.density_error:.3e}",
            f"average cost inverse/forward  {self.c_inverse:.6g} / "
            f"{self.c_forward:.6g} (|diff| {self.c_difference:.3e})",
            f"control sup error (interior)  {self.control_error:.3e}",
            f"controlled spectral gap  {self.controlled_gap:.6g}",
        ]


def roundtrip_verify(p_inf: ScalarField, spec: ProblemSpec) -> RoundtripReport:
    """Feed the synthesized cost back through the forward solver.

    Compares the recovered stationary density, control and average cost
    against the inverse-design values and reports the spectral gap of
    the controlled generator, which certifies exponential stability of
    the target. The design and the forward solve share one assembled
    generator.
    """
    op = assemble_generator(spec.diffusion_field(), spec.phi_field())
    inv = _design(p_inf, op)
    forward = _solve_principal(op, inv.q, k=2)

    p_norm = inv.target.values
    dens_err = float(np.abs(forward.p.values - p_norm).max() / p_norm.max())
    mask = op.grid.interior_mask(2)
    du = np.abs(forward.u.values - inv.u.values)[mask].max()
    ctrl_err = float(du / max(1.0, float(np.abs(inv.u.values).max())))

    gap = spectral_gap(forward.controlled)

    return RoundtripReport(
        density_error=dens_err, c_inverse=inv.c, c_forward=forward.c,
        control_error=ctrl_err, controlled_gap=gap,
        forward=forward, inverse=inv)
