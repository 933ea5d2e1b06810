"""Problem specification and structural constraint checks.

A ProblemSpec bundles the domain, the potential phi, the noise matrix
sigma (or the diffusion Sigma = sigma sigma^T directly), and either a
state cost q (forward mode) or a target stationary density (inverse
mode). The control weight is tied to the noise, R = LAMBDA Sigma^{-1}
with the constant LAMBDA = 2, which linearizes the stationary value
equation; nothing sets it. R enters only as Sigma / LAMBDA, through
`control_law`. The box boundary is always zero-flux (reflecting).

The spec owns its grid fields: `phi_field`, `q_field`, `target_field`
and `diffusion_field` evaluate their expressions on the nodes once per
spec and keep the result, read-only, for every later call. The gates,
the solvers and the commands all read the fields off the spec, so no
caller evaluates a field twice or hands one down. `validate_spec`
evaluates every field a command reads, in both modes, so a spec that
passes it fails no later field evaluation.

Sigma is compiled once per spec, into `ProblemSpec.diffusion`, which
`diffusion_field` reads on the nodes and the SDE engine along the
paths, so both form Sigma by the same operations.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError, SamplingError
from .expressions import (
    EXPR_TYPES,
    BinOp,
    Expr,
    Num,
    compile_body,
    derivative,
    evaluate,
    free_variables,
    parse_expression,
)
from .fields import (
    SPD_TOLERANCE,
    SYMMETRY_TOLERANCE,
    ScalarField,
    TensorField,
    VectorField,
    _check_finite,
    gradient_values,
    laplacian_values,
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
    # evaluated fields by name, filled by _field
    _fields: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

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

    # -- fields on the grid nodes, each evaluated once ---------------------

    def _evaluate(self, name: str) -> ScalarField | TensorField:
        """The field `name` on the nodes; a nonfinite value raises
        FieldError naming the field."""
        coords = self.grid.node_coords()
        if name == "diffusion":
            d = self.diffusion
            with np.errstate(all="ignore"):
                # node-major, the layout every grid solver reads
                vals = np.ascontiguousarray(d.tensor(d.matrix(coords)))
            _check_finite(vals, self.grid, "diffusion tensor")
            return TensorField(self.grid, vals)
        vals = evaluate(getattr(self, name), coords)
        _check_finite(vals, self.grid, name)
        return ScalarField(self.grid, vals)

    def _field(self, name: str) -> ScalarField | TensorField:
        f = self._fields.get(name)
        if f is None:
            f = self._evaluate(name)
            f.values.flags.writeable = False
            self._fields[name] = f
        return f

    def phi_field(self) -> ScalarField:
        return self._field("phi")

    def q_field(self) -> ScalarField:
        if self.q is None:
            raise ModelError("inverse-mode problem has no cost q")
        return self._field("q")

    def target_field(self) -> ScalarField:
        if self.target is None:
            raise ModelError("forward-mode problem has no target density")
        return self._field("target")

    def diffusion_field(self) -> TensorField:
        """Sigma on the grid nodes; a nonfinite entry raises FieldError."""
        return self._field("diffusion")

    @functools.cached_property
    def diffusion(self) -> Diffusion:
        """The compiled diffusion; a cache, so not in eq, hash or repr."""
        return Diffusion(self)


# ---------------------------------------------------------------------------
# the compiled diffusion
#
# Point arrays are dimension-major: (P, n) points are the transpose of an
# (n, P) array, and a (P, r, c) stack of matrices that of an (r, c, P)
# array, so that every [:, i] or [:, i, j] is one contiguous run over the
# points and each numpy call below runs P entries long. Points in row
# order give the same bytes, only more slowly.

def _matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A v for stacks A (P, r, c) and v (P, c), each entry summed in
    column order, as a dimension-major (P, r)."""
    rows = np.empty((A.shape[1], A.shape[0]))
    for i, acc in enumerate(rows):
        np.multiply(A[:, i, 0], v[:, 0], out=acc)
        for j in range(1, A.shape[2]):
            acc += A[:, i, j] * v[:, j]
    return rows.T


def _cholesky(A: np.ndarray, step: int | None = None) -> np.ndarray:
    """Lower Cholesky roots of a stack A (P, n, n), column by column.

    Each column is LAPACK's (the pivot's square root, then the entries
    below scaled by its reciprocal), so for n <= 2 the roots equal
    np.linalg.cholesky bit for bit. A pivot at or below zero raises
    SamplingError, naming the time step when one is given; a NaN pivot
    passes, and the path is then excluded as non-finite. The roots are
    a dimension-major stack.
    """
    n = A.shape[1]
    L = np.zeros((n, n, A.shape[0])).transpose(2, 0, 1)
    for j in range(n):
        d = A[:, j, j]
        for k in range(j):
            d = d - L[:, j, k] * L[:, j, k]
        # min is NaN when any pivot is, so NaN takes the slow test too
        if not np.minimum.reduce(d) > 0.0 and (d <= 0.0).any():
            at = "" if step is None else f" at step {step}"
            raise SamplingError(
                f"Sigma is not positive definite{at} "
                f"(pivot {j + 1} is {float(np.fmin.reduce(d)):.3g})")
        np.sqrt(d, out=L[:, j, j])
        if j + 1 < n:
            r = 1.0 / L[:, j, j]
        for i in range(j + 1, n):
            s = A[:, i, j]
            for k in range(j):
                s = s - L[:, i, k] * L[:, j, k]
            np.multiply(s, r, out=L[:, i, j])
    return L


class Diffusion:
    """Sigma(x) = sigma(x) sigma(x)^T of one spec, compiled once.

    The grid field and the SDE engine read Sigma here alike: `matrix`
    evaluates the given matrix (sigma, n x m, or Sigma, n x n), with a
    constant entry stored as a float and the others as bare compiled
    closures, so the caller holds np.errstate; `tensor` forms Sigma from
    it, with sigma given as sigma sigma^T summed in column order as
    `_matvec` sums; `factor` is the noise factor, sigma itself or the
    Cholesky root of Sigma; `divergence` is the symbolic div Sigma,
    (div Sigma)_i = sum_k d Sigma_ik / dx_k, which with sigma given
    differentiates the products of sigma sigma^T.
    """

    def __init__(self, spec: ProblemSpec):
        self.given_sigma = given_sigma = spec.sigma is not None
        mat = spec.sigma if given_sigma else spec.Sigma
        n = len(mat)
        self.shape = (n, len(mat[0]))
        origin = np.zeros((1, n))
        entries = [(i, j, e) for i, row in enumerate(mat)
                   for j, e in enumerate(row)]
        self.fixed = [(i, j, float(compile_body(e)(origin)[0]))
                      for i, j, e in entries if not free_variables(e)]
        self.entries = [(i, j, compile_body(e))
                        for i, j, e in entries if free_variables(e)]
        self.constant = not self.entries
        # Sigma as trees: with sigma given, sum_p sigma_ip sigma_kp
        Sig = mat if not given_sigma else [[functools.reduce(
            lambda a, b: BinOp("+", a, b),
            [BinOp("*", si, sk) for si, sk in zip(mat[i], mat[k])])
            for k in range(n)] for i in range(n)]
        # zero terms dropped
        self.div = [[compile_body(d) for k in range(n)
                     if (d := derivative(Sig[i][k], k + 1)) != Num(0.0)]
                    for i in range(n)]

    def matrix(self, x: np.ndarray) -> np.ndarray:
        """The given matrix at points x (P, n), a dimension-major stack."""
        vals = np.empty(self.shape + (x.shape[0],)).transpose(2, 0, 1)
        for i, j, c in self.fixed:
            vals[:, i, j] = c
        for i, j, f in self.entries:
            vals[:, i, j] = f(x)
        return vals

    def tensor(self, vals: np.ndarray) -> np.ndarray:
        """Sigma from the given matrix's values `vals`."""
        if not self.given_sigma:
            return vals
        # column k of sigma sigma^T is sigma times row k of sigma
        n = self.shape[0]
        Sig = np.empty((n, n, vals.shape[0])).transpose(2, 0, 1)
        for k in range(n):
            Sig[:, :, k] = _matvec(vals, vals[:, k])
        return Sig

    def factor(self, vals: np.ndarray, step: int | None = None) -> np.ndarray:
        """The noise factor from the given matrix's values `vals`; a
        Sigma that is not positive definite raises SamplingError."""
        return vals if self.given_sigma else _cholesky(vals, step)

    def divergence(self, x: np.ndarray) -> np.ndarray:
        """div Sigma at points x (P, n), dimension-major."""
        rows = np.zeros((x.shape[1], x.shape[0]))
        for terms, row in zip(self.div, rows):
            for f in terms:
                row += f(x)
        return rows.T


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


def confinement_report(Phi: ScalarField) -> ConstraintReport:
    """Confinement proxy for the generalized potential.

    Evaluates W = |grad Phi|^2 / 2 - lap Phi on the five outermost
    boundary shells. Confinement at infinity is not checkable on a box;
    its grid signature is W growing strictly toward the boundary and
    positive on the outermost shell.
    """
    g = Phi.grid
    shells = g.boundary_shell_index()
    n_shells = 5
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


def validate_spec(spec: ProblemSpec,
                  starts: np.ndarray | None = None) -> ValidationReport:
    """Run the structural gates; FAIL findings block downstream solves.

    The fields are read off the spec, which keeps them for the solves
    that follow: Sigma and phi in both modes, and q or the target. A
    field that fails to evaluate is a FAIL finding named after it,
    never an exception. In forward mode q is also read at the cell
    centres, where a non-finite value is a WARN: grid solves never read
    it there, but sampled paths pass through; and so at the sampler's
    start points `starts` (k, n), when given, whose paths would have no
    finite cost integral from their first step.
    """
    findings: list[Finding] = []

    def read(name: str):
        try:
            return getattr(spec, f"{name}_field")()
        except Exception as e:  # noqa: BLE001 - report, never raise
            findings.append(Finding(name, "FAIL", f"evaluation failed: {e}"))
            return None

    findings.append(Finding(
        "cost-coupling", "PASS",
        "control weight tied to noise, R = 2 Sigma^(-1), lam = 2"))

    Sig = read("diffusion")
    if Sig is None:
        return ValidationReport(tuple(findings))

    d = Sig.symmetry_defect()
    findings.append(Finding(
        "diffusion-symmetry",
        "PASS" if d <= SYMMETRY_TOLERANCE else "FAIL",
        f"max |Sigma - Sigma^T| = {d:.3e}"))

    lam_min = Sig.min_eigenvalue()
    findings.append(Finding(
        "diffusion-spd",
        "PASS" if lam_min >= SPD_TOLERANCE else "FAIL",
        f"min eigenvalue over nodes = {lam_min:.3e} (threshold {SPD_TOLERANCE:.1e})"))

    # every command but inverse-mode `sample feedback` reads phi
    phi = read("phi")
    # confinement is a property of the stationary exponent: phi before the
    # solve in forward mode, -log(target) in inverse mode
    Phi = None
    try:
        if spec.mode == "forward":
            Phi = phi
        elif (t := read("target")) is not None:
            if t.values.min() <= 0.0:
                findings.append(Finding(
                    "target-positive", "FAIL",
                    f"target density min = {t.values.min():.3e}, must be > 0"))
                return ValidationReport(tuple(findings))
            findings.append(Finding("target-positive", "PASS",
                                    f"target min = {t.values.min():.3e}"))
            Phi = ScalarField(spec.grid, -np.log(t.values))
        if Phi is not None:
            rep = confinement_report(Phi)
            findings.append(Finding(
                "confinement",
                "PASS" if rep.passed else "FAIL",
                rep.detail + ", shell minima " +
                "[" + ", ".join(f"{m:.4g}" for m in rep.shell_minima) + "]"))
    except ModelError as e:
        findings.append(Finding("confinement", "FAIL", str(e)))
        Phi = None

    qf = read("q") if spec.mode == "forward" else None
    if qf is not None:
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
        # Centres as lo + (hi - lo) (2i + 1) / (2 (c - 1)), so that the
        # middle of a symmetric box, where poles tend to sit, is exactly 0.
        g = spec.grid
        mids = np.meshgrid(*(
            lo + (hi - lo) * np.arange(1, 2 * c - 2, 2) / (2 * c - 2)
            for lo, hi, c in zip(g.lows, g.highs, g.counts)), indexing="ij")
        mids = np.stack([m.ravel() for m in mids], axis=1)
        reads = [("cost-between-nodes", mids, "cell centres", "grid solves "
                  "read q on the nodes only, sampled paths cross the cells")]
        if starts is not None:
            reads.append(("cost-at-start", starts, "sampler start points",
                          "paths started there have no finite cost integral"))
        for name, pts, where, why in reads:
            bad = np.flatnonzero(~np.isfinite(evaluate(spec.q, pts)))
            if bad.size:
                at = ", ".join(f"{c:.6g}" for c in pts[bad[0]])
                findings.append(Finding(
                    name, "WARN", f"q is not finite at {bad.size} of "
                    f"{len(pts)} {where}, first at ({at}); {why}"))

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
