"""Eigenanalysis of the generator and the stationary value solve.

Both jobs run through the same symmetrization: with mu = w * rho the
matrix S = -D(1/sqrt(mu)) K D(1/sqrt(mu)) is exactly symmetric and
similar to G, and eigenvectors map back through division by sqrt(mu).
Orthonormality of the mapped eigenfunctions in the rho-weighted inner
product is then automatic.

The stationary value equation is solved through the desirability
substitution: the largest eigenpair of S - D(q/lam) gives Psi and the
average cost c = -lam mu_0. Both jobs run shift-invert Lanczos
(ARPACK) about a shift just above a bound on the spectrum, through a
sparse LU factored in symmetric mode without pivoting; dense eigh only
serves k >= N - 1, which ARPACK cannot. The factor's inertia certifies
that nothing lies above the shift, so an indefinite (nonmonotone)
stencil is refused. The principal vector is polished with a few
inverse-power steps through such a factor of (shift I - M); for
monotone stencils its factors are M-matrices, so the triangular
solves keep the iterate entrywise positive, which is what the
positivity gate checks.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.special import logsumexp

from .errors import SpectralError
from .fields import (
    ScalarField,
    TensorField,
    VectorField,
    gradient_values,
    mixed_second_derivative_values,
    second_derivative_values,
)
from .model import LAMBDA, drift_from_potential
from .operators import GeneratorOperator, assemble_generator

PSI_LOG_FLOOR = float(np.log(1e-290))
PERRON_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Spectrum:
    grid: object
    eigenvalues: np.ndarray = field(repr=False)        # (k,) descending
    functions: np.ndarray = field(repr=False)          # (k, N), rho-orthonormal
    rho: ScalarField = field(repr=False)
    residuals: np.ndarray = field(repr=False)

    @property
    def k(self) -> int:
        return int(self.eigenvalues.shape[0])

    def eigenfunction(self, n: int) -> ScalarField:
        return ScalarField(self.rho.grid, self.functions[n])


def _symmetrized(op: GeneratorOperator) -> tuple[sp.csr_matrix, np.ndarray]:
    kd = op.K - op.K.T
    defect = float(np.abs(kd.data).max()) if kd.nnz else 0.0
    scale = float(np.abs(op.K.data).max()) if op.K.nnz else 1.0
    if defect > 1e-12 * scale:
        raise SpectralError(
            f"stiffness matrix lost symmetry (defect {defect:.3e}); "
            "refusing to symmetrize")
    sqmu = np.sqrt(op.mu)
    d = sp.diags(1.0 / sqmu)
    S = (d @ (-op.K) @ d).tocsr()
    return S, sqmu


def _shifted_lu(A: sp.csr_matrix, shift: float):
    """LU of shift I - A; for symmetric A an LDL^T, whose inertia is
    checked so that no eigenvalue of A lies above shift."""
    B = (sp.identity(A.shape[0], format="csr") * shift - A).tocsc()
    lu = spla.splu(B, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    above = int(np.count_nonzero(lu.U.diagonal() < 0.0))
    if above:
        raise SpectralError(
            f"{above} eigenvalue(s) above {shift:.6g}: the operator is "
            "indefinite (nonmonotone stencil; refine the grid) or too "
            "ill-conditioned to factor (Psi clipped at PSI_LOG_FLOOR; "
            "shrink the domain)")
    return lu


def _top_eigenpairs(A: sp.csr_matrix, bound: float, k: int, v0: np.ndarray):
    """Top k eigenpairs of symmetric A, descending; bound >= its spectrum."""
    N = A.shape[0]
    if k >= N - 1:
        # ARPACK needs k < ncv < N, so it returns at most N - 2 pairs
        dense = A.toarray()
        dense = 0.5 * (dense + dense.T)
        vals, vecs = sla.eigh(dense, subset_by_index=[N - k, N - 1])
    else:
        # shift a little above the bound (zero for the negative
        # semidefinite S): A - sigma I is nonsingular and shift-invert
        # targets the top of the spectrum
        sigma = bound + 1e-6 * max(1.0, float(np.abs(A.diagonal()).max()))
        lu = _shifted_lu(A, sigma)
        inv = spla.LinearOperator(A.shape, matvec=lambda x: -lu.solve(x),
                                  dtype=float)
        vals, vecs = spla.eigsh(A, k=k, sigma=sigma, which="LM", v0=v0,
                                OPinv=inv)
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def eig_generator(op: GeneratorOperator, k: int) -> Spectrum:
    """Top k eigenpairs of the generator, descending, rho-orthonormal."""
    N = op.size
    if not 1 <= k <= N:
        raise SpectralError(f"k must be between 1 and {N}, got {k}")
    S, sqmu = _symmetrized(op)
    vals, vecs = _top_eigenpairs(S, 0.0, k, sqmu)

    if abs(vals[0]) > 1e-8:
        raise SpectralError(
            f"leading eigenvalue {vals[0]:.3e} is not zero; "
            "operator kernel lost")
    vals[0] = 0.0
    # sqrt(mu) is the exact kernel vector of S up to assembly rounding,
    # and sum(mu) = 1, so it is already normalized
    vecs[:, 0] = sqmu / np.linalg.norm(sqmu)

    residuals = np.linalg.norm(S @ vecs - vecs * vals, axis=0)
    n = int(np.argmax(residuals / np.maximum(1.0, np.abs(vals))))
    if not residuals[n] <= 1e-6 * max(1.0, abs(vals[n])):
        raise SpectralError(
            f"eigenpair {n} did not converge (residual {residuals[n]:.3e}); "
            "likely cause: Psi clipped at PSI_LOG_FLOOR left the controlled "
            "operator too ill-conditioned, shrink the domain")

    funcs = (vecs / sqmu[:, None]).T
    for n in range(k):
        nz = np.flatnonzero(np.abs(funcs[n]) > 1e-6)
        if nz.size and funcs[n][nz[0]] < 0.0:
            funcs[n] = -funcs[n]

    return Spectrum(grid=op.grid, eigenvalues=vals, functions=funcs,
                    rho=op.rho, residuals=residuals)


def spectral_gap(s: Spectrum) -> float:
    if s.k < 2:
        raise SpectralError("need at least two eigenvalues for a gap")
    xi1 = float(s.eigenvalues[1])
    if xi1 >= 0.0:
        raise SpectralError(
            f"second eigenvalue {xi1:.3e} is not negative: no spectral gap "
            "(unconfined potential or discretization pathology)")
    return -xi1


@dataclass(frozen=True)
class HJBSolution:
    Psi: ScalarField = field(repr=False)
    c: float = 0.0
    v: ScalarField = field(repr=False, default=None)
    p: ScalarField = field(repr=False, default=None)
    u: VectorField = field(repr=False, default=None)
    lam: float = LAMBDA
    phi: ScalarField = field(repr=False, default=None)
    Sigma: TensorField = field(repr=False, default=None)
    operator: GeneratorOperator = field(repr=False, default=None)
    diagnostics: dict = field(repr=False, default_factory=dict)

    @property
    def grid(self):
        return self.Psi.grid


def _purify_principal(M: sp.csr_matrix, mu0: float, x0: np.ndarray,
                      iterations: int = 3) -> np.ndarray:
    """Inverse-power polish of the principal eigenvector.

    shift I - M is SPD for any shift > mu0; solving through its
    LU factor contracts every other mode by ~1e-6 per pass.
    """
    lu = _shifted_lu(M, mu0 + 1e-6 * max(1.0, abs(mu0)))
    x = x0.copy()
    for _ in range(iterations):
        x = lu.solve(x)
        x /= np.linalg.norm(x)
    return x


def solve_hjb_principal(Sigma: TensorField, phi: ScalarField, q: ScalarField,
                        lam: float = LAMBDA) -> HJBSolution:
    """Stationary value solve via the principal desirability eigenpair.

    Assembles the uncontrolled generator from (Sigma, phi), forms
    M = S - D(q/lam), takes the largest eigenpair, and unwinds the
    desirability transform: c = -lam mu_0, v = -lam log Psi,
    p = Psi^2 exp(-phi) normalized, u = -(Sigma/2) grad v.
    """
    if lam != LAMBDA:
        raise SpectralError(
            f"the desirability transform requires lam = {LAMBDA} exactly")
    g = phi.grid
    if q.grid != g or Sigma.grid != g:
        raise SpectralError("Sigma, phi, q must share one grid")

    op = assemble_generator(Sigma, phi)
    S, sqmu = _symmetrized(op)
    M = (S - sp.diags(q.values / lam)).tocsr()

    # S is negative semidefinite, so nothing in M lies above -min(q)/lam
    vals, _ = _top_eigenpairs(M, -float(q.values.min()) / lam, 1, sqmu)
    x = _purify_principal(M, float(vals[0]), sqmu)
    mu0 = float(x @ (M @ x))

    if x.sum() < 0.0:
        x = -x
    min_x = float(x.min())
    if min_x < -PERRON_TOLERANCE * float(np.abs(x).max()):
        raise SpectralError(
            f"principal eigenvector changes sign (min {min_x:.3e}); "
            f"stencil has {op.n_nonmonotone} nonmonotone couplings, "
            "refine the grid")

    resid = float(np.linalg.norm(M @ x - mu0 * x))

    x = np.maximum(x, 1e-300)
    log_psi = np.log(x) - 0.5 * np.log(op.mu)
    w = op.weights
    # gauge: quadrature of Psi^2 exp(-phi) equals one
    log_psi -= 0.5 * float(logsumexp(np.log(w) + 2.0 * log_psi - phi.values))
    log_psi = np.maximum(log_psi, PSI_LOG_FLOOR)

    psi = np.exp(log_psi)
    c = -lam * mu0
    v = -lam * log_psi
    p = np.exp(2.0 * log_psi - phi.values)
    p /= float(w @ p)

    grad_v = gradient_values(g, v)
    # with R = 2 Sigma^{-1}, the control -R^{-1} grad v is -(Sigma/2) grad v
    u = -0.5 * np.einsum("kij,kj->ki", Sigma.values, grad_v)

    diag = {
        "mu0": mu0,
        "eig_residual": resid,
        "min_eigvec": min_x,
        "nonmonotone_couplings": op.n_nonmonotone,
        "path": "shift-invert+polish",
    }
    return HJBSolution(
        Psi=ScalarField(g, psi), c=float(c), v=ScalarField(g, v),
        p=ScalarField(g, p), u=VectorField(g, u), lam=lam, phi=phi,
        Sigma=Sigma, operator=op, diagnostics=diag)


def controlled_operator(sol: HJBSolution) -> GeneratorOperator:
    """Generator of the optimally controlled process, Phi = phi + v."""
    Phi = ScalarField(sol.grid, sol.phi.values + sol.v.values)
    return assemble_generator(sol.Sigma, Phi)


def verify_hjb_residual(sol: HJBSolution, q: ScalarField, Sigma: TensorField,
                        phi: ScalarField, R: TensorField | None = None,
                        margin: int = 2,
                        density_floor: float = 1e-8) -> float:
    """Interior sup of the stationary value-equation residual.

    r = q - c - (1/2) grad(v)^T R^{-1} grad(v) + grad(v) . b
        + (1/2) sum_ij Sigma_ij d_ij v

    The sup is taken over nodes at least `margin` indices from the
    boundary AND carrying controlled stationary density above
    density_floor times its max. Near the walls the discrete solution
    satisfies the reflected problem, not the free-space equation, so
    the residual there measures domain truncation rather than solver
    error; the density gate confines the check to where the controlled
    process actually lives.
    """
    g = sol.grid
    v = sol.v.values
    gv = gradient_values(g, v)
    if R is not None:
        Rinv = np.linalg.inv(R.values)
    else:
        Rinv = 0.5 * Sigma.values
    quad = 0.5 * np.einsum("ki,kij,kj->k", gv, Rinv, gv)
    b = drift_from_potential(Sigma, phi).values
    adv = np.einsum("ki,ki->k", gv, b)
    hess = np.zeros(g.size)
    for i in range(g.dim):
        hess += Sigma.values[:, i, i] * second_derivative_values(g, v, i)
        for j in range(i + 1, g.dim):
            sij = Sigma.values[:, i, j]
            if np.abs(sij).max() > 0.0:
                hess += 2.0 * sij * mixed_second_derivative_values(g, v, i, j)
    r = q.values - sol.c - quad + adv + 0.5 * hess
    mask = g.interior_mask(margin) & \
        (sol.p.values >= density_floor * float(sol.p.values.max()))
    return float(np.abs(r[mask]).max())
