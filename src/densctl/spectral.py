"""Eigenanalysis of the generator and the stationary value solve.

Both jobs run through the same symmetrization: with mu = w * rho the
matrix S = -D(1/sqrt(mu)) K D(1/sqrt(mu)) is exactly symmetric and
similar to G, and eigenvectors map back through division by sqrt(mu).
Orthonormality of the mapped eigenfunctions in the rho-weighted inner
product is then automatic.

The stationary value equation is solved through the desirability
substitution: the largest eigenpair (mu_0, x_0) of M = S - D(q/LAMBDA)
gives Psi and the average cost c = -LAMBDA mu_0, with the model's
constant LAMBDA = 2. The controlled generator
is the Doob h-transform D(1/x_0)(M - mu_0 I)D(x_0) of M, so the same
eigensolve gives the controlled spectrum: eigenvalues mu_n - mu_0 and
eigenfunctions y_n / x_0, rho-orthonormal under the controlled density
p. Every eigensolve runs shift-invert Lanczos (ARPACK) about a shift
just above a bound on the spectrum, through one LAPACK band Cholesky
of the shifted operator; dense eigh only serves k >= N - 1, which
ARPACK cannot. The assembled stiffness is a graph Laplacian, so S is
negative semidefinite and M has nonnegative off-diagonals; the
Cholesky still certifies that nothing lies above the shift, since it
exists only for a positive definite matrix, and refuses an operator
too ill-conditioned to factor. The same factor of (shift I - M) then
polishes the principal vector with a few inverse-power steps;
(shift I - M) is an M-matrix, so its Cholesky factor has nonpositive
off-diagonals, products in the triangular solves never cancel, and
the solves keep a positive iterate positive, which is what the
positivity gate checks. The gauge of Psi, one log-sum-exp and the
floor PSI_LOG_FLOOR, is `_gauged_log_psi`, which the inverse design
calls too; the control is the model's `control_law` at s = -grad v.

scipy is imported inside the functions that build, factor or solve,
not with the module, so that commands that never assemble an operator
do not pay for loading it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import SpectralError
from .fields import (
    ScalarField,
    TensorField,
    VectorField,
    _logsumexp,
    gradient_values,
    mixed_second_derivative_values,
    second_derivative_values,
)
from .model import LAMBDA, control_law, drift_from_potential
from .operators import GeneratorOperator, assemble_generator

if TYPE_CHECKING:
    import scipy.sparse as sp

PSI_LOG_FLOOR = float(np.log(1e-290))
PERRON_TOLERANCE = 1e-12
POLISH_TOLERANCE = 1e-12
POLISH_MAX_STEPS = 30
# the residual check skips nodes this close to a wall, in indices, and
# nodes whose controlled density is below this fraction of its max
RESIDUAL_MARGIN = 2
RESIDUAL_DENSITY_FLOOR = 1e-8


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
    import scipy.sparse as sp
    sqmu = np.sqrt(op.mu)
    d = sp.diags(1.0 / sqmu)
    S = (d @ (-op.K) @ d).tocsr()
    return S, sqmu


class _BandCholesky:
    """Cholesky factor of a symmetric band matrix in LAPACK's upper band
    storage (pbtrf), solved through pbtrs."""

    def __init__(self, factor: np.ndarray, pbtrs, half_bandwidth: int):
        self.factor = factor
        self.pbtrs = pbtrs
        self.half_bandwidth = half_bandwidth

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self.pbtrs(self.factor, b)[0]


def _shifted_cholesky(A: sp.csr_matrix, shift: float) -> _BandCholesky:
    """LAPACK's band Cholesky of shift I - A for symmetric A, whose
    half-bandwidth is read off its nonzeros. The factor exists exactly
    when shift I - A is positive definite, so it certifies that no
    eigenvalue of A lies above shift.

    Against a sparse LDL^T (SuperLU in symmetric mode, MMD ordering, no
    pivoting) in its place, the whole k = 8 solve_hjb_principal with
    phi = |x|^2/2, Sigma = [[2, 1], [1, 2]], q = 6|x|^2 on [-3, 3]^2
    (best of three), and with phi = |x|^2, Sigma = [[2, 1, 0],
    [1, 2, 0], [0, 0, 2]], q = 6|x|^2 on [-3, 3]^3 (one run), took
    (one BLAS thread, 2-vCPU Xeon; peak RSS of the process):

        grid    half-bandwidth   sparse LU          band Cholesky
        65^2      66             0.08 s             0.04 s
        129^2    130             0.43 s             0.34 s
        193^2    194             0.84 s             1.20 s
        257^2    258             1.85 s, 277 MB     2.83 s, 298 MB
        17^3     306             0.45 s, 95 MB      0.44 s, 84 MB
        25^3     650             2.73 s, 242 MB     2.39 s, 166 MB
        33^3    1122             10.8 s, 707 MB     7.5 s, 426 MB

    The band loses only on the widest 2D grids (193^2 and up here),
    where the LU's N log N fill beats the band's N^(3/2).
    """
    import scipy.linalg as sla
    import scipy.sparse as sp
    N = A.shape[0]
    B = (sp.identity(N, format="csr") * shift - A).tocsr()
    rows = np.repeat(np.arange(N), np.diff(B.indptr))
    offset = B.indices - rows
    b = int(np.abs(offset).max(initial=0))
    upper = offset >= 0
    ab = np.zeros((b + 1, N), order="F")
    ab[b - offset[upper], B.indices[upper]] = B.data[upper]
    pbtrf, pbtrs = sla.get_lapack_funcs(("pbtrf", "pbtrs"), (ab,))
    factor, info = pbtrf(ab, overwrite_ab=1)
    if info:
        raise SpectralError(
            f"an eigenvalue above {shift:.6g}: the operator is indefinite "
            "or too ill-conditioned to factor (Psi clipped at "
            "PSI_LOG_FLOOR; shrink the domain)")
    return _BandCholesky(factor, pbtrs, b)


def _top_eigenpairs(A: sp.csr_matrix, bound: float, k: int, v0: np.ndarray):
    """Top k eigenpairs of symmetric A, descending; bound >= its spectrum;
    v0, the Lanczos start, should approximate the top vector.

    Also returns the one factor of (sigma I - A), sigma a little above
    the bound, whose existence certifies the bound; callers reuse it.
    """
    import scipy.linalg as sla
    import scipy.sparse.linalg as spla
    N = A.shape[0]
    # shift a little above the bound (zero for the negative semidefinite
    # S): A - sigma I is nonsingular and shift-invert targets the top of
    # the spectrum; the offset grows with |A| only as far as rounding in
    # the factor needs, so a stiff A does not swamp the gaps below it.
    # Rounding in the near-zero pivot scales with the diagonal where the
    # top vector lives, so |diag A| is averaged under v0^2: the largest
    # entry, at nodes of vanishing mu, can exceed it by 1e20 and would
    # push the shift so far out that Lanczos stalls.
    scale = float(v0 * v0 @ np.abs(A.diagonal())) / float(v0 @ v0)
    sigma = bound + max(1e-6 * max(1.0, abs(bound)),
                        1e3 * np.finfo(float).eps * scale)
    chol = _shifted_cholesky(A, sigma)
    if k >= N - 1:
        # ARPACK needs k < ncv < N, so it returns at most N - 2 pairs
        dense = A.toarray()
        dense = 0.5 * (dense + dense.T)
        vals, vecs = sla.eigh(dense, subset_by_index=[N - k, N - 1])
    else:
        inv = spla.LinearOperator(A.shape, matvec=lambda x: -chol.solve(x),
                                  dtype=float)
        try:
            vals, vecs = spla.eigsh(A, k=k, sigma=sigma, which="LM", v0=v0,
                                    OPinv=inv)
        except spla.ArpackNoConvergence as e:
            # scipy's message carries the iteration count
            raise SpectralError(
                f"shift-invert eigsh at shift {sigma:.6g} did not find "
                f"{k} eigenpairs: {e}") from e
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order], chol


def _spectrum(grid, A: sp.csr_matrix, vals: np.ndarray, vecs: np.ndarray,
              frame: np.ndarray, rho: ScalarField) -> Spectrum:
    """Generator spectrum from the pairs (vals, vecs) of its symmetric
    frame A = D(frame) G D(1/frame), whose kernel vector is vecs[:, 0]:
    eigenvalues vals - vals[0], eigenfunctions vecs / frame with the
    first entry above 1e-6 in size positive."""
    residuals = np.linalg.norm(A @ vecs - vecs * vals, axis=0)
    eigenvalues = vals - vals[0]
    n = int(np.argmax(residuals / np.maximum(1.0, np.abs(eigenvalues))))
    if not residuals[n] <= 1e-6 * max(1.0, abs(eigenvalues[n])):
        raise SpectralError(
            f"eigenpair {n} did not converge (residual {residuals[n]:.3e}); "
            "likely cause: Psi clipped at PSI_LOG_FLOOR left the controlled "
            "operator too ill-conditioned, shrink the domain")

    funcs = (vecs / frame[:, None]).T
    for n in range(funcs.shape[0]):
        nz = np.flatnonzero(np.abs(funcs[n]) > 1e-6)
        if nz.size and funcs[n][nz[0]] < 0.0:
            funcs[n] = -funcs[n]

    return Spectrum(grid=grid, eigenvalues=eigenvalues, functions=funcs,
                    rho=rho, residuals=residuals)


def _check_k(k: int, N: int) -> None:
    if not 1 <= k <= N:
        raise SpectralError(f"k must be between 1 and {N}, got {k}")


def eig_generator(op: GeneratorOperator, k: int) -> Spectrum:
    """Top k eigenpairs of the generator, descending, rho-orthonormal."""
    _check_k(k, op.size)
    S, sqmu = _symmetrized(op)
    vals, vecs, _ = _top_eigenpairs(S, 0.0, k, sqmu)

    if abs(vals[0]) > 1e-8 + 1e-12 * float(np.abs(S.diagonal()).max()):
        raise SpectralError(
            f"leading eigenvalue {vals[0]:.3e} is not zero; "
            "operator kernel lost")
    vals[0] = 0.0
    # sqrt(mu) is the exact kernel vector of S up to assembly rounding,
    # and sum(mu) = 1, so it is already normalized
    vecs[:, 0] = sqmu / np.linalg.norm(sqmu)
    return _spectrum(op.grid, S, vals, vecs, sqmu, op.rho)


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
    phi: ScalarField = field(repr=False, default=None)
    Sigma: TensorField = field(repr=False, default=None)
    diagnostics: dict = field(repr=False, default_factory=dict)
    M: sp.csr_matrix = field(repr=False, default=None)    # S - D(q/LAMBDA)
    x0: np.ndarray = field(repr=False, default=None)      # its top vector
    controlled: Spectrum = field(repr=False, default=None)

    @property
    def grid(self):
        return self.Psi.grid

    def controlled_frame(self) -> tuple[sp.csr_matrix, np.ndarray]:
        """Symmetric frame of the controlled generator, the Doob
        h-transform of M: M - mu0 I and its kernel vector x0."""
        import scipy.sparse as sp
        mu0 = -self.c / LAMBDA
        S = (self.M - sp.identity(self.grid.size, format="csr") * mu0).tocsr()
        return S, self.x0


def _purify_principal(chol, x: np.ndarray) -> np.ndarray:
    """Inverse-power polish of the principal eigenvector through the
    Cholesky factor of (shift I - M), shift above the spectrum of M,
    that the eigensolve used. It runs until no entry changes by more than
    POLISH_TOLERANCE of itself, so that the tails, which set log Psi and
    the control far out, are accurate entrywise and not only in norm;
    each step contracts the other modes by (shift - mu0)/(shift - mu1).
    """
    for _ in range(POLISH_MAX_STEPS):
        y = chol.solve(x)
        y /= np.linalg.norm(y)
        if np.all(np.abs(y - x) <= POLISH_TOLERANCE * np.abs(y)):
            return y
        x = y
    return x


def _gauged_log_psi(log_psi: np.ndarray, phi: ScalarField) -> np.ndarray:
    """log Psi in the gauge where the quadrature of Psi^2 exp(-phi) is
    one, floored at PSI_LOG_FLOOR."""
    w = phi.grid.quadrature_weights()
    log_psi = log_psi - 0.5 * _logsumexp(np.log(w) + 2.0 * log_psi
                                         - phi.values)
    return np.maximum(log_psi, PSI_LOG_FLOOR)


def solve_hjb_principal(Sigma: TensorField, phi: ScalarField, q: ScalarField,
                        k: int = 1) -> HJBSolution:
    """Stationary value solve via the principal desirability eigenpair.

    Assembles the uncontrolled generator from (Sigma, phi), forms
    M = S - D(q/LAMBDA), takes its top k eigenpairs through one factor,
    and unwinds the desirability transform: c = -LAMBDA mu_0,
    v = -LAMBDA log Psi, p = Psi^2 exp(-phi) normalized,
    u = -(Sigma/LAMBDA) grad v. The k pairs also give the controlled
    spectrum `controlled`: eigenvalues mu_n - mu_0, eigenfunctions
    y_n / x_0 and rho = p. Wherever Psi is above its floor,
    w p = x_0^2, so the eigenfunctions are p-orthonormal by
    construction.
    """
    g = phi.grid
    if q.grid != g or Sigma.grid != g:
        raise SpectralError("Sigma, phi, q must share one grid")
    return _solve_principal(assemble_generator(Sigma, phi), q, k)


def _solve_principal(op: GeneratorOperator, q: ScalarField,
                     k: int) -> HJBSolution:
    """`solve_hjb_principal` on the uncontrolled generator `op`, already
    assembled from (Sigma, phi), and q on its grid."""
    import scipy.sparse as sp
    g, phi, Sigma = op.grid, op.Phi, op.Sigma
    _check_k(k, g.size)
    S, sqmu = _symmetrized(op)
    M = (S - sp.diags(q.values / LAMBDA)).tocsr()

    # S is negative semidefinite, so nothing in M lies above -min(q)/LAMBDA
    vals, vecs, chol = _top_eigenpairs(M, -float(q.values.min()) / LAMBDA, k,
                                     sqmu)
    # the Perron vector of the Metzler M is positive, and the polish
    # keeps a positive iterate positive, so rounding-level negative
    # entries of the Lanczos vector are dropped by starting from |x|
    x = _purify_principal(chol, np.abs(vecs[:, 0]))
    mu0 = float(x @ (M @ x))

    min_x = float(x.min())
    if min_x < -PERRON_TOLERANCE * float(np.abs(x).max()):
        raise SpectralError(
            f"principal eigenvector changes sign (min {min_x:.3e})")

    resid = float(np.linalg.norm(M @ x - mu0 * x))

    x = np.maximum(x, 1e-300)
    log_psi = _gauged_log_psi(np.log(x) - 0.5 * np.log(op.mu), phi)

    psi = np.exp(log_psi)
    c = -LAMBDA * mu0
    v = -LAMBDA * log_psi
    p = np.exp(2.0 * log_psi - phi.values)
    p /= float(op.weights @ p)

    vals[0] = mu0
    vecs[:, 0] = x
    p_field = ScalarField(g, p)
    controlled = _spectrum(g, M, vals, vecs, x, p_field)

    diag = {
        "mu0": mu0,
        "eig_residual": resid,
        "min_eigvec": min_x,
        "path": ("eigh" if k >= g.size - 1 else "shift-invert") +
                "+polish through one band Cholesky (half-bandwidth "
                f"{chol.half_bandwidth}) of (shift I - M)",
    }
    return HJBSolution(
        Psi=ScalarField(g, psi), c=float(c), v=ScalarField(g, v),
        p=p_field, u=control_law(Sigma, -gradient_values(g, v)), phi=phi,
        Sigma=Sigma, diagnostics=diag, M=M, x0=x, controlled=controlled)


def controlled_operator(sol: HJBSolution) -> GeneratorOperator:
    """Generator of the optimally controlled process, Phi = phi + v,
    reassembled from Sigma and Phi: the reference generator that
    `sol.controlled`, read off M, agrees with to rounding."""
    Phi = ScalarField(sol.grid, sol.phi.values + sol.v.values)
    return assemble_generator(sol.Sigma, Phi)


def verify_hjb_residual(sol: HJBSolution, q: ScalarField) -> float:
    """Interior sup of the stationary value-equation residual of the
    solution's own (Sigma, phi) and the cost q.

    r = q - c - (1/2) grad(v)^T (Sigma/LAMBDA) grad(v) + grad(v) . b
        + (1/2) sum_ij Sigma_ij d_ij v

    The sup is taken over nodes at least RESIDUAL_MARGIN indices from
    the boundary AND carrying controlled stationary density above
    RESIDUAL_DENSITY_FLOOR times its max. Near the walls the discrete
    solution satisfies the reflected problem, not the free-space
    equation, so the residual there measures domain truncation rather
    than solver error; the density gate confines the check to where the
    controlled process actually lives.
    """
    g = sol.grid
    Sigma = sol.Sigma
    v = sol.v.values
    gv = gradient_values(g, v)
    quad = 0.5 * np.einsum("ki,kij,kj->k", gv, Sigma.values / LAMBDA, gv)
    b = drift_from_potential(Sigma, sol.phi).values
    adv = np.einsum("ki,ki->k", gv, b)
    hess = np.zeros(g.size)
    for i in range(g.dim):
        hess += Sigma.values[:, i, i] * second_derivative_values(g, v, i)
        for j in range(i + 1, g.dim):
            sij = Sigma.values[:, i, j]
            if np.abs(sij).max() > 0.0:
                hess += 2.0 * sij * mixed_second_derivative_values(g, v, i, j)
    r = q.values - sol.c - quad + adv + 0.5 * hess
    mask = g.interior_mask(RESIDUAL_MARGIN) & \
        (sol.p.values >= RESIDUAL_DENSITY_FLOOR * float(sol.p.values.max()))
    return float(np.abs(r[mask]).max())
