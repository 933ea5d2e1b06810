"""Discrete generator and Fokker-Planck adjoint on the grid.

The generator of the reversible diffusion is assembled in divergence
form, L f = (1 / 2 rho) div(rho Sigma grad f) with rho proportional to
exp(-Phi). Equivalence with the drift form b . grad f + (1/2) tr(Sigma
Hess f), b = div(Sigma)/2 - Sigma grad(Phi)/2, was checked symbolically
before coding; the divergence form is what keeps the discrete operator
conservative and self-adjoint.

Discretization: the trapezoid quadrature weights double as finite-volume
cell volumes (half cells at the boundary). The assembled stiffness
matrix K is a weighted graph Laplacian of two-point fluxes along grid
offsets (symmetric, zero row sums, nonpositive off-diagonals) for every
SPD Sigma, so the generator is monotone and dissipative, and

    G = -D(1/mu) K,          mu = w * rho,
    A = D(rho) G D(rho)^-1 = -D(1/w) K D(1/rho).

Consequences, exact up to float rounding: G 1 = 0, A rho = 0, w^T A = 0,
and D(mu) G is symmetric. The plain product D(rho) G is symmetric only
up to a boundary defect that scales with rho at the boundary, which is
why well-truncated domains matter.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import OperatorError
from .fields import ScalarField, TensorField
from .grid import Grid

if TYPE_CHECKING:
    import scipy.sparse as sp

EXPONENT_CLAMP = 700.0


@dataclass(frozen=True)
class GeneratorOperator:
    grid: Grid
    G: sp.csr_matrix = field(repr=False)
    K: sp.csr_matrix = field(repr=False)
    rho: ScalarField = field(repr=False)
    weights: np.ndarray = field(repr=False)
    mu: np.ndarray = field(repr=False)
    Sigma: TensorField = field(repr=False)
    Phi: ScalarField = field(repr=False)

    @property
    def matrix(self) -> sp.csr_matrix:
        return self.G

    @property
    def size(self) -> int:
        return self.grid.size

    def detailed_balance_defect(self) -> float:
        """max |D(rho)G - (D(rho)G)^T|; boundary-truncation indicator."""
        import scipy.sparse as sp
        P = sp.diags(1.0 / self.weights) @ self.K
        d = P - P.T
        return float(np.abs(d.data).max()) if d.nnz else 0.0


@dataclass(frozen=True)
class AdjointOperator:
    grid: Grid
    A: sp.csr_matrix = field(repr=False)
    rho: ScalarField = field(repr=False)
    weights: np.ndarray = field(repr=False)
    generator: GeneratorOperator = field(repr=False)

    @property
    def matrix(self) -> sp.csr_matrix:
        return self.A


def stationary_weight(Phi: ScalarField, weights: np.ndarray) -> np.ndarray:
    """Normalized exp(-Phi): quadrature mass exactly one."""
    e = Phi.values - Phi.values.min()
    rho = np.exp(-np.minimum(e, EXPONENT_CLAMP))
    return rho / float(weights @ rho)


def _selling(D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Selling's reduction of SPD matrices D, shape (N, n, n), n = 2 or
    3: integer offsets e, shape (N, E, n), and weights lam >= 0, shape
    (N, E), E = 3 or 6, with D = sum_e lam_e e e^T at each node.

    Each node keeps a superbase v_0..v_n (a basis and minus its sum).
    While some <v_i, D v_j> > 0, v_i flips sign and the other vectors
    but v_j gain 2 v_i / (n - 1), which lowers sum_i <v_i, D v_i>.
    Then lam_ij = -<v_i, D v_j>, with e_ij orthogonal to the other v
    (Fehrenbach & Mirebeau, J. Math. Imaging Vis. 49, 2014).
    """
    N, n, _ = D.shape
    pairs = np.array(list(itertools.combinations(range(n + 1), 2)))
    step = 2 // (n - 1)
    v = np.empty((N, n + 1, n), dtype=np.int64)
    v[:, :n] = np.eye(n, dtype=np.int64)
    v[:, n] = -1
    tol = 1e-14 * np.trace(D, axis1=1, axis2=2)   # so rounding cannot cycle
    lam = np.empty((N, len(pairs)))
    active = np.arange(N)
    while active.size:
        va = v[active].astype(float)
        gram = va @ D[active] @ va.transpose(0, 2, 1)
        g = gram[:, pairs[:, 0], pairs[:, 1]]
        p = np.argmax(g, axis=1)
        bad = g[np.arange(active.size), p] > tol[active]
        lam[active[~bad]] = np.maximum(-g[~bad], 0.0)
        active, i, j = active[bad], pairs[p[bad], 0], pairs[p[bad], 1]
        vi = v[active, i]
        v[active] += step * vi[:, None, :]
        v[active, j] -= step * vi
        v[active, i] = -vi

    rest = np.array([[m for m in range(n + 1) if m not in pair]
                     for pair in pairs])
    if n == 2:
        w = v[:, rest[:, 0]]
        return np.stack([-w[..., 1], w[..., 0]], axis=-1), lam
    return np.cross(v[:, rest[:, 0]], v[:, rest[:, 1]]), lam


def assemble_generator(Sigma: TensorField, Phi: ScalarField) -> GeneratorOperator:
    """Assemble the generator from two-point fluxes along grid offsets.

    At each node H^-1 Sigma H^-1 (H = diag of spacings) is written as
    sum_e lam_e e e^T, e integer, lam_e >= 0: axis offsets for 1D or
    diagonal Sigma, Selling's reduction otherwise. Each node adds the
    weight lam_e/4 sqrt(rho_i rho_j) V_e to its edges i <-> i +- e in
    the box, V_e the product of h_a where e moves and of the node's
    trapezoid weight where it does not; on an axis this is the face
    flux with mean Sigma_kk and geometric-mean rho.
    """
    # scipy is imported here, not with the module, to keep it off the
    # start-up of every command that assembles no operator
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components
    g = Sigma.grid
    if Phi.grid != g:
        raise OperatorError("Sigma and Phi live on different grids")
    Sigma.check_spd()

    n = g.dim
    shape = g.shape
    N = g.size
    w = g.quadrature_weights()
    rho = stationary_weight(Phi, w)
    log_rho = np.log(rho)
    mu = w * rho

    h = np.array(g.spacing)
    D = Sigma.values / np.multiply.outer(h, h)
    if not D[:, ~np.eye(n, dtype=bool)].any():
        e = np.broadcast_to(np.eye(n, dtype=np.int64), (N, n, n))
        lam = np.diagonal(D, axis1=1, axis2=2)
    elif n > 3:
        raise OperatorError(
            f"cross-diffusion needs a grid of dimension 2 or 3, got {n}")
    elif (D == D[0]).all():
        e, lam = (a.repeat(N, axis=0) for a in _selling(D[:1]))
    else:
        e, lam = _selling(D)

    node, slot = np.nonzero(lam > 0.0)
    e = e[node, slot]
    lam = lam[node, slot]
    index = np.stack(np.unravel_index(node, shape), axis=1)
    axis_w = np.stack([g.axis_weights(k)[index[:, k]] for k in range(n)],
                      axis=1)
    c = 0.25 * lam * np.prod(np.where(e == 0, axis_w, h), axis=1)

    i = np.concatenate([node, node])
    other = np.concatenate([index + e, index - e])
    c = np.concatenate([c, c])
    inside = np.all((other >= 0) & (other < np.array(shape)), axis=1)
    i, c = i[inside], c[inside]
    j = np.ravel_multi_index(tuple(other[inside].T), shape)
    c = c * np.exp(0.5 * (log_rho[i] + log_rho[j]))

    diag = np.bincount(i, c, N) + np.bincount(j, c, N)
    nodes = np.arange(N)
    K = sp.csr_matrix(
        (np.concatenate([-c, -c, diag]),
         (np.concatenate([i, j, nodes]), np.concatenate([j, i, nodes]))),
        shape=(N, N))
    parts = connected_components(K, directed=False, return_labels=False)
    if parts > 1:
        raise OperatorError(
            f"the stencil splits the grid into {parts} disconnected parts: "
            "Sigma is too anisotropic for the spacing, so its Selling "
            "offsets do not fit in the box; refine the axes with the "
            "smallest Sigma_kk / h_k^2")

    G = (sp.diags(-1.0 / mu) @ K).tocsr()
    return GeneratorOperator(
        grid=g, G=G, K=K, rho=ScalarField(g, rho), weights=w, mu=mu,
        Sigma=Sigma, Phi=Phi)


def adjoint_of(op: GeneratorOperator) -> AdjointOperator:
    """Fokker-Planck operator A = D(rho) G D(rho)^-1.

    Built as -D(1/w) K D(1/rho), which makes A rho = -D(1/w) K 1 and
    w^T A = -(K 1)^T D(1/rho): both vanish to rounding because K has
    zero row sums.
    """
    import scipy.sparse as sp
    A = (sp.diags(-1.0 / op.weights) @ op.K @ sp.diags(1.0 / op.rho.values)).tocsr()
    return AdjointOperator(grid=op.grid, A=A, rho=op.rho,
                           weights=op.weights, generator=op)


def apply(op, f: ScalarField) -> ScalarField:
    if f.grid != op.grid:
        raise OperatorError("field grid does not match operator grid")
    return ScalarField(f.grid, op.matrix @ f.values)
