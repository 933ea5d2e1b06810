"""Crank-Nicolson evolution of densities and density perturbations.

Full densities evolve under the Fokker-Planck operator A, perturbations
p~ = p/p_inf - 1 under the generator G. Both run one stepper on a
symmetric S with kernel vector sqrt(mu): the frame of
S = -D(1/sqrt(mu)) K D(1/sqrt(mu)), mu = w * rho, that the eigensolver
uses, or, for the controlled generator of an HJB solution, its Doob
h-transform frame S = M - mu0 I with sqrt(mu) = x0, so the controlled
generator is never reassembled. A perturbation f maps to
y = sqrt(mu) f and a density p to y = (w/sqrt(mu)) p, and either way
dy/dt = S y, so p/rho is never formed. Each step solves
((2/dt) I - S) y' = ((2/dt) I + S) y through one band Cholesky per
call, the eigensolver's `_shifted_cholesky`. The assembled S is
negative semidefinite, so CN is unconditionally stable; the Cholesky,
which exists only while no eigenvalue of S lies above 2/dt, still
refuses an S on which the steps would grow. The records are
one vector operation each: the quadrature mass is sqrt(mu) . y, and
the rho-weighted norm of the perturbation is |y - y_ref| with
y_ref = sqrt(mu) for a density and 0 for a perturbation. Mass
conservation is inherited from S sqrt(mu) = 0, which holds up to
assembly rounding, not re-imposed.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import PdeError, SpectralError
from .fields import ScalarField
from .operators import AdjointOperator, GeneratorOperator
from .spectral import (
    HJBSolution,
    Spectrum,
    _shifted_cholesky,
    _symmetrized,
)


@dataclass(frozen=True)
class DensityTrajectory:
    grid: object
    kind: str                                   # "density" | "perturbation"
    times: np.ndarray = field(repr=False)       # every stamp
    mass: np.ndarray = field(repr=False)        # quadrature mass per stamp
    norm_rho: np.ndarray = field(repr=False)    # perturbation norm per stamp
    density_times: np.ndarray = field(repr=False)
    densities: np.ndarray = field(repr=False)   # (n_stored, N)
    min_value: float = 0.0
    renormalized: bool = False
    projected: bool = False

    @property
    def n_steps(self) -> int:
        return int(self.times.shape[0]) - 1


def _step_count(dt: float, T: float) -> int:
    for name, value in (("dt", dt), ("T", T)):
        if not (math.isfinite(value) and value > 0.0):
            raise PdeError(f"{name} must be finite and positive, got {value}")
    if T < dt:
        raise PdeError(f"horizon T = {T:g} is below one step dt = {dt:g}")
    return int(round(T / dt))


def _frame(G: GeneratorOperator | HJBSolution):
    """(S, sqrt(mu), rho) of G: its symmetrized frame, or for an HJB
    solution the frame (M - mu0 I, x0) of its controlled generator."""
    if isinstance(G, HJBSolution):
        return (*G.controlled_frame(), G.p)
    try:
        S, sqmu = _symmetrized(G)
    except SpectralError as e:
        raise PdeError(f"Crank-Nicolson step refused: {e}") from e
    return S, sqmu, G.rho


def _crank_nicolson(grid, S, sqmu: np.ndarray, kind: str, values: np.ndarray,
                    dt: float, T: float, store_every: int | None,
                    **flags) -> DensityTrajectory:
    """The one CN loop, in the frame y of the symmetric S with kernel
    vector sqmu; states are stored, and their running minimum taken,
    back in the frame of `values`."""
    n_steps = _step_count(dt, T)
    if store_every is None:
        store_every = max(1, n_steps // 64)
    shift = 2.0 / dt
    try:
        chol = _shifted_cholesky(S, shift)
    except SpectralError as e:
        raise PdeError(f"Crank-Nicolson step refused at dt = {dt}: {e}") from e
    if kind == "density":
        frame, y_ref = grid.quadrature_weights() / sqmu, sqmu
    else:
        frame, y_ref = sqmu, 0.0

    times = dt * np.arange(n_steps + 1)
    mass = np.empty(n_steps + 1)
    norm = np.empty(n_steps + 1)
    stored = [values.copy()]
    stored_t = [0.0]
    min_value = float(values.min())
    y = frame * values
    mass[0] = sqmu @ y
    norm[0] = np.linalg.norm(y - y_ref)
    for k in range(1, n_steps + 1):
        y = chol.solve(shift * y + S @ y)
        mass[k] = sqmu @ y
        norm[k] = np.linalg.norm(y - y_ref)
        v = y / frame
        min_value = min(min_value, float(v.min()))
        if k % store_every == 0 or k == n_steps:
            stored.append(v)
            stored_t.append(times[k])

    return DensityTrajectory(
        grid=grid, kind=kind, times=times, mass=mass, norm_rho=norm,
        density_times=np.array(stored_t), densities=np.array(stored),
        min_value=min_value, **flags)


def evolve_fp(A: AdjointOperator, p0: ScalarField, dt: float, T: float,
              store_every: int | None = None,
              rate_limit: float | None = None) -> DensityTrajectory:
    """Evolve a density under the Fokker-Planck operator.

    rate_limit, when given, is the fastest resolved decay rate |xi_k|;
    dt above 0.5/rate_limit is refused because Crank-Nicolson then
    turns fast modes into slowly damped oscillations and the positivity
    watchdog loses meaning.
    """
    if p0.grid != A.grid:
        raise PdeError("initial density grid does not match operator")
    if rate_limit is not None and dt > 0.5 / rate_limit:
        raise PdeError(
            f"dt = {dt} exceeds 0.5/rate = {0.5 / rate_limit:.3e}")

    p = p0.values
    if p.min() < -1e-12:
        raise PdeError(f"initial density has negative entries (min {p.min():.3e})")
    mass0 = float(A.weights @ p)
    renormalized = False
    if abs(mass0 - 1.0) > 1e-8:
        warnings.warn(
            f"initial density mass {mass0:.6g} renormalized to 1", stacklevel=2)
        p = p / mass0
        renormalized = True

    S, sqmu, _ = _frame(A.generator)
    traj = _crank_nicolson(A.grid, S, sqmu, "density", p, dt, T, store_every,
                           renormalized=renormalized)
    if traj.min_value < -1e-10:
        warnings.warn(
            f"density dipped to {traj.min_value:.3e}; reduce dt", stacklevel=2)
    return traj


def project_mass_zero(f: ScalarField, rho: ScalarField) -> ScalarField:
    w = f.grid.quadrature_weights()
    total = float(np.sum(w * rho.values))
    mean = float(np.sum(w * rho.values * f.values)) / total
    return ScalarField(f.grid, f.values - mean)


def evolve_perturbation(G: GeneratorOperator | HJBSolution, pt0: ScalarField,
                        dt: float, T: float,
                        store_every: int | None = None) -> DensityTrajectory:
    """Evolve a mass-free density perturbation under the generator G,
    or, given an HJB solution, under its controlled generator."""
    if pt0.grid != G.grid:
        raise PdeError("perturbation grid does not match operator")
    S, sqmu, rho = _frame(G)

    f = pt0.values
    mu = sqmu * sqmu
    scale = float(np.sqrt(max(np.sum(mu * f * f), 0.0)))
    drift = float(np.sum(mu * f))
    projected = False
    if abs(drift) > 1e-8 * max(scale, 1e-30):
        warnings.warn(
            f"perturbation carries mass {drift:.3e}; projecting it out",
            stacklevel=2)
        f = project_mass_zero(pt0, rho).values
        projected = True

    return _crank_nicolson(G.grid, S, sqmu, "perturbation", f, dt, T,
                           store_every, projected=projected)


@dataclass(frozen=True)
class PerturbationCoefficients:
    coefficients: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)
    spectrum: Spectrum = field(repr=False)
    reconstruction_error: float = 0.0


def expand_in_eigenbasis(pt0: ScalarField, s: Spectrum) -> PerturbationCoefficients:
    if pt0.grid != s.rho.grid:
        raise PdeError("perturbation grid does not match spectrum")
    w = pt0.grid.quadrature_weights()
    weight = w * s.rho.values
    coeffs = s.functions @ (weight * pt0.values)
    recon = pt0.values - coeffs @ s.functions
    err = float(np.sqrt(max(np.sum(weight * recon * recon), 0.0)))
    return PerturbationCoefficients(
        coefficients=coeffs, eigenvalues=s.eigenvalues.copy(), spectrum=s,
        reconstruction_error=err)


def eigen_evolution(pc: PerturbationCoefficients, t: float) -> ScalarField:
    if t < 0.0:
        raise PdeError(f"time must be nonnegative, got {t}")
    amp = pc.coefficients * np.exp(pc.eigenvalues * t)
    return ScalarField(pc.spectrum.rho.grid, amp @ pc.spectrum.functions)


def fit_decay_rate(times: np.ndarray, norms: np.ndarray,
                   t_min: float, t_max: float) -> float:
    """Least-squares slope of log(norm) over [t_min, t_max].

    Returns the signed rate: negative means decay. Early times are
    excluded by the caller's window to avoid multi-mode transients.
    """
    times = np.asarray(times, dtype=float)
    norms = np.asarray(norms, dtype=float)
    mask = (times >= t_min) & (times <= t_max) & (norms > 0.0)
    if int(mask.sum()) < 2:
        raise PdeError("fit window contains fewer than two usable stamps")
    slope, _ = np.polyfit(times[mask], np.log(norms[mask]), 1)
    return float(slope)
