"""Problem specification and structural constraint checks.

A ProblemSpec bundles the domain, the potential phi, the noise matrix
sigma (or the diffusion Sigma = sigma sigma^T directly), and either a
state cost q (forward mode) or a target stationary density (inverse
mode). The control weight is tied to the noise, R = LAMBDA Sigma^{-1}
with the constant LAMBDA = 2, which linearizes the stationary value
equation; nothing sets it. R enters only as Sigma / LAMBDA, through
`control_law`. The box boundary is always zero-flux (reflecting).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError
from .expressions import (
    EXPR_TYPES,
    BinOp,
    Expr,
    free_variables,
    parse_expression,
)
from .fields import (
    SPD_TOLERANCE,
    ScalarField,
    TensorField,
    VectorField,
    _check_finite,
    eval_matrix,
    eval_scalar_field,
    gradient_values,
    laplacian_values,
    noise_to_tensor,
    tensor_divergence_values,
)
from .grid import Grid

LAMBDA = 2.0

ExprMatrix = tuple[tuple[Expr, ...], ...]


def _as_expr(e) -> Expr:
    return parse_expression(e) if isinstance(e, str) else e


def _as_matrix(rows) -> ExprMatrix:
    if isinstance(rows, (str, *EXPR_TYPES)):
        rows = [[rows]]
    out = []
    width = None
    for row in rows:
        if isinstance(row, (str, *EXPR_TYPES)):
            row = [row]
        row = tuple(_as_expr(e) for e in row)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ModelError("ragged matrix of expressions")
        out.append(row)
    return tuple(out)


@dataclass(frozen=True)
class ProblemSpec:
    grid: Grid
    phi: Expr
    sigma: ExprMatrix | None = None      # noise matrix, n x m
    Sigma: ExprMatrix | None = None      # diffusion, n x n
    q: Expr | None = None
    target: Expr | None = None

    def __post_init__(self):
        object.__setattr__(self, "phi", _as_expr(self.phi))
        if (self.sigma is None) == (self.Sigma is None):
            raise ModelError("exactly one of sigma or Sigma must be given")
        if self.sigma is not None:
            object.__setattr__(self, "sigma", _as_matrix(self.sigma))
        if self.Sigma is not None:
            object.__setattr__(self, "Sigma", _as_matrix(self.Sigma))
        if (self.q is None) == (self.target is None):
            raise ModelError("exactly one of q (forward) or target (inverse) "
                             "must be given")
        if self.q is not None:
            object.__setattr__(self, "q", _as_expr(self.q))
        if self.target is not None:
            object.__setattr__(self, "target", _as_expr(self.target))
        n = self.grid.dim
        for name, e in [("phi", self.phi), ("q", self.q), ("target", self.target)]:
            if e is None:
                continue
            fv = free_variables(e)
            if fv and max(fv) > n:
                raise ModelError(f"{name} uses x{max(fv)} but grid is {n}-dimensional")
        mat = self.sigma if self.sigma is not None else self.Sigma
        if len(mat) != n:
            raise ModelError(f"noise/diffusion matrix must have {n} rows")
        if self.Sigma is not None and len(self.Sigma[0]) != n:
            raise ModelError("Sigma must be square")
        for row in mat:
            for e in row:
                fv = free_variables(e)
                if fv and max(fv) > n:
                    raise ModelError(
                        f"matrix entry uses x{max(fv)} but grid is {n}-dimensional")

    @property
    def mode(self) -> str:
        return "forward" if self.q is not None else "inverse"

    # -- field construction ------------------------------------------------

    def phi_field(self) -> ScalarField:
        return eval_scalar_field(self.phi, self.grid)

    def q_field(self) -> ScalarField:
        if self.q is None:
            raise ModelError("inverse-mode problem has no cost q")
        return eval_scalar_field(self.q, self.grid)

    def target_field(self) -> ScalarField:
        if self.target is None:
            raise ModelError("forward-mode problem has no target density")
        return eval_scalar_field(self.target, self.grid)

    def diffusion_at(self, points: np.ndarray) -> np.ndarray:
        """Sigma(x) at arbitrary points, shape (m_pts, n, n)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.Sigma is not None:
            return eval_matrix(self.Sigma, points)
        return noise_to_tensor(eval_matrix(self.sigma, points))

    def noise_at(self, points: np.ndarray) -> np.ndarray:
        """Noise factor sigma(x) at points, shape (m_pts, n, m).

        When only Sigma is specified the factor is the pointwise
        Cholesky root, which is a valid sigma for simulation purposes.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.sigma is not None:
            return eval_matrix(self.sigma, points)
        return np.linalg.cholesky(eval_matrix(self.Sigma, points))

    def diffusion_exprs(self) -> ExprMatrix:
        """Sigma as expression trees; sum_p sigma_ip sigma_kp when sigma
        is given."""
        if self.Sigma is not None:
            return self.Sigma
        s = self.sigma

        def entry(i: int, k: int) -> Expr:
            terms = [BinOp("*", si, sk) for si, sk in zip(s[i], s[k])]
            return functools.reduce(lambda a, b: BinOp("+", a, b), terms)

        return tuple(tuple(entry(i, k) for k in range(len(s)))
                     for i in range(len(s)))

    def diffusion_field(self) -> TensorField:
        """Sigma on the grid nodes; a nonfinite entry raises FieldError."""
        vals = self.diffusion_at(self.grid.node_coords())
        _check_finite(vals, self.grid, "diffusion tensor")
        return TensorField(self.grid, vals)

    def diffusion_is_constant(self) -> bool:
        mat = self.Sigma if self.Sigma is not None else self.sigma
        return all(not free_variables(e) for row in mat for e in row)


# ---------------------------------------------------------------------------
# derived model quantities

def drift_from_potential(Sigma: TensorField, phi: ScalarField) -> VectorField:
    """Passive drift b = div(Sigma)/2 - Sigma grad(phi)/2.

    This is the drift shape that makes exp(-phi) stationary for the
    uncontrolled process; (div Sigma)_i = sum_k d Sigma_ik / dx_k.
    """
    if Sigma.grid != phi.grid:
        raise ModelError("Sigma and phi live on different grids")
    g = Sigma.grid
    div = tensor_divergence_values(g, Sigma.values)
    gphi = gradient_values(g, phi.values)
    vals = 0.5 * div - 0.5 * np.einsum("kij,kj->ki", Sigma.values, gphi)
    return VectorField(g, vals)


def control_law(Sigma: TensorField, s: np.ndarray) -> VectorField:
    """Noise-matched control u = R^{-1} s = (Sigma / LAMBDA) s at every
    node, for slopes s of shape (size, dim): s = -grad v in the forward
    solve, s = grad log p + grad phi in the inverse design."""
    return VectorField(Sigma.grid,
                       np.einsum("kij,kj->ki", Sigma.values, s) / LAMBDA)


@dataclass(frozen=True)
class ConstraintReport:
    name: str
    passed: bool
    shell_minima: tuple[float, ...]
    detail: str


def confinement_report(Phi: ScalarField, n_shells: int = 5) -> ConstraintReport:
    """Confinement proxy for the generalized potential.

    Evaluates W = |grad Phi|^2 / 2 - lap Phi on nested boundary shells.
    Confinement at infinity is not checkable on a box; its grid
    signature is W growing strictly toward the boundary and positive
    on the outermost shell.
    """
    g = Phi.grid
    shells = g.boundary_shell_index()
    if shells.max() + 1 < n_shells:
        raise ModelError(f"grid too small for {n_shells} boundary shells")
    grad = gradient_values(g, Phi.values)
    W = 0.5 * np.einsum("ki,ki->k", grad, grad) - laplacian_values(g, Phi.values)
    minima = [float(W[shells == s].min()) for s in range(n_shells)]
    # minima[0] is the outermost shell
    increasing = all(minima[s] > minima[s + 1] for s in range(n_shells - 1))
    positive = minima[0] > 0.0
    passed = increasing and positive
    detail = ("confinement proxy satisfied" if passed else
              "W does not grow toward the boundary" if not increasing else
              "W not positive on the outermost shell")
    return ConstraintReport("confinement", passed, tuple(minima), detail)


@dataclass(frozen=True)
class Finding:
    name: str
    status: str     # PASS | WARN | FAIL
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[Finding, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(f.status != "FAIL" for f in self.findings)

    @property
    def warnings(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.status == "WARN")

    def lines(self) -> list[str]:
        return [f"{f.status:4s} {f.name}: {f.detail}" for f in self.findings]

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "findings": [
                {"name": f.name, "status": f.status, "detail": f.detail}
                for f in self.findings
            ],
        }


def _shell_minima(values: np.ndarray, shells: np.ndarray, n: int) -> list[float]:
    return [float(values[shells == s].min()) for s in range(n)]


def validate_spec(spec: ProblemSpec) -> ValidationReport:
    """Run the structural gates; FAIL findings block downstream solves."""
    findings: list[Finding] = []

    findings.append(Finding(
        "cost-coupling", "PASS",
        "control weight tied to noise, R = 2 Sigma^(-1), lam = 2"))

    try:
        Sig = spec.diffusion_field()
    except Exception as e:  # noqa: BLE001 - report, never raise
        findings.append(Finding("diffusion", "FAIL", f"evaluation failed: {e}"))
        return ValidationReport(tuple(findings))

    d = Sig.symmetry_defect()
    findings.append(Finding(
        "diffusion-symmetry",
        "PASS" if d <= 1e-12 else "FAIL",
        f"max |Sigma - Sigma^T| = {d:.3e}"))

    lam_min = Sig.min_eigenvalue()
    findings.append(Finding(
        "diffusion-spd",
        "PASS" if lam_min >= SPD_TOLERANCE else "FAIL",
        f"min eigenvalue over nodes = {lam_min:.3e} (threshold {SPD_TOLERANCE:.1e})"))

    # confinement is a property of the stationary exponent: phi before the
    # solve in forward mode, -log(target) in inverse mode
    try:
        if spec.mode == "forward":
            Phi = spec.phi_field()
        else:
            t = spec.target_field()
            if t.values.min() <= 0.0:
                findings.append(Finding(
                    "target-positive", "FAIL",
                    f"target density min = {t.values.min():.3e}, must be > 0"))
                return ValidationReport(tuple(findings))
            findings.append(Finding("target-positive", "PASS",
                                    f"target min = {t.values.min():.3e}"))
            Phi = ScalarField(spec.grid, -np.log(t.values))
        rep = confinement_report(Phi)
        findings.append(Finding(
            "confinement",
            "PASS" if rep.passed else "FAIL",
            rep.detail + ", shell minima " +
            "[" + ", ".join(f"{m:.4g}" for m in rep.shell_minima) + "]"))
    except ModelError as e:
        findings.append(Finding("confinement", "FAIL", str(e)))
        Phi = None

    if spec.mode == "forward":
        qf = spec.q_field()
        shells = spec.grid.boundary_shell_index()
        n_sh = min(5, int(shells.max()) + 1)
        minima = _shell_minima(qf.values, shells, n_sh)
        diverges = all(minima[s] < minima[s + 1] for s in range(n_sh - 1))
        if diverges and minima[0] < 0.0:
            findings.append(Finding(
                "cost-bounded-below", "FAIL",
                "q decreases strictly toward the boundary, unbounded below "
                f"(outer shell minima {[round(m, 4) for m in minima]})"))
        else:
            findings.append(Finding(
                "cost-bounded-below", "PASS",
                f"grid min q = {qf.values.min():.4g}"))
        if qf.values.min() < 0.0:
            findings.append(Finding(
                "cost-negative", "WARN",
                f"q attains negative values (min {qf.values.min():.4g}); "
                "average cost is shifted, solves still well posed"))

    if Phi is not None:
        e = Phi.values - Phi.values.min()
        shells = spec.grid.boundary_shell_index()
        boundary_mass = float(np.exp(-e[shells == 0]).max())
        if boundary_mass <= 1e-8:
            findings.append(Finding(
                "boundary-decay", "PASS",
                f"stationary weight at boundary <= {boundary_mass:.2e} of max"))
        else:
            findings.append(Finding(
                "boundary-decay", "WARN",
                f"stationary weight at boundary is {boundary_mass:.2e} of max; "
                "domain truncation may bias results, enlarge the box"))

    return ValidationReport(tuple(findings))
