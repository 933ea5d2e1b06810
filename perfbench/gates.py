"""Correctness gate: each command's artifacts against closed forms.

A check returns the list of its failures (empty when the operation is
correct) and the accuracy figures it measured. Monte Carlo outputs are
compared with grid references for the same finite horizon, so the gate
tests the estimator and not its time-truncation bias:

* Feynman-Kac: u(T) = exp(T (G - D(q/lam))) 1 on the grid gives
  E exp(-int q/lam) from every start point, hence the finite-T value of
  c_hat and of the desirability estimate;
* Kolmogorov backward: exp(T G) |x|^2 gives E |x_T|^2 for the paths;
* Fokker-Planck: exp(T A) applied to the uniform start density gives
  the feedback ensemble's density at time T, and multinomial draws from
  it give the total-variation floor of a histogram of that many
  particles.
"""
from __future__ import annotations

import csv
import glob
import json
import os

import densctl as dc
import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from workloads import Problem

MC_SIGMAS = 5.0          # Monte Carlo checks allow this many stderrs
GRID_REL_TOL = 0.03      # plus this relative error of the grid reference
TV_FLOOR_FACTOR = 1.3    # feedback: histogram TV to p_T within this floor
TV_SLACK = 0.02
TV_FLOOR_DRAWS = 16
EIG_RESIDUAL_TOL = 1e-6
FIT_TOL = 0.02           # evolve: fitted rate against the solver's xi1
ROUNDTRIP_TOL = 1e-6     # inverse: density and c round-trip errors


def artifact_dir(op_dir: str) -> str:
    dirs = [d for d in glob.glob(os.path.join(op_dir, "*")) if os.path.isdir(d)]
    if len(dirs) != 1:
        raise RuntimeError(f"expected one artifact directory in {op_dir}, "
                           f"found {len(dirs)}")
    return dirs[0]


def read_json(d: str, name: str) -> dict:
    with open(os.path.join(d, name), encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(d: str, name: str) -> dict[str, np.ndarray]:
    with open(os.path.join(d, name), encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    data = np.array(rows[1:], dtype=float).reshape(len(rows) - 1, -1)
    return {h: data[:, i] for i, h in enumerate(rows[0])}


def _coords(data: dict, dim: int) -> np.ndarray:
    return np.column_stack([data[f"x{i + 1}"] for i in range(dim)])


class References:
    """Grid references for one problem, built once per run."""

    def __init__(self, fwd_config: str):
        self.spec = dc.load_config(fwd_config).spec
        self.grid = self.spec.grid
        self.weights = self.grid.quadrature_weights()
        self._fk: dict[float, np.ndarray] = {}
        self._m2: dict[tuple, np.ndarray] = {}
        self._fp: dict[bytes, tuple[np.ndarray, float]] = {}

    def feynman_kac(self, horizon: float) -> np.ndarray:
        """E exp(-int_0^T q/lam dt) from every node, uncontrolled paths."""
        if horizon not in self._fk:
            spec = self.spec
            op = dc.assemble_generator(spec.diffusion_field(),
                                       spec.phi_field())
            L = op.G - sp.diags(spec.q_field().values / dc.LAMBDA)
            ones = np.ones(self.grid.size)
            self._fk[horizon] = spla.expm_multiply(horizon * L.tocsc(), ones)
        return self._fk[horizon]

    def second_moment(self, horizon: float, steady: bool) -> np.ndarray:
        """E |x_T|^2 from every node, uncontrolled or under the steady control."""
        key = (horizon, steady)
        if key not in self._m2:
            spec = self.spec
            if steady:
                op = dc.controlled_operator(dc.solve_hjb_principal(
                    spec.diffusion_field(), spec.phi_field(), spec.q_field()))
            else:
                op = dc.assemble_generator(spec.diffusion_field(),
                                           spec.phi_field())
            r2 = np.sum(self.grid.node_coords() ** 2, axis=1)
            self._m2[key] = spla.expm_multiply(horizon * op.G.tocsc(), r2)
        return self._m2[key]

    def feedback_density(self, p_target: np.ndarray, horizon: float,
                         n_particles: int) -> tuple[np.ndarray, float]:
        """Density at T from the uniform start, and the TV floor of n draws."""
        key = p_target.tobytes() + repr((horizon, n_particles)).encode()
        if key not in self._fp:
            Phi = dc.ScalarField(self.grid, -np.log(p_target))
            op = dc.assemble_generator(self.spec.diffusion_field(), Phi)
            A = dc.adjoint_of(op).A.tocsc()
            p0 = np.full(self.grid.size, 1.0 / self.weights.sum())
            pT = np.maximum(spla.expm_multiply(horizon * A, p0), 0.0)
            pT /= self.weights @ pT
            prob = self.weights * pT
            rng = np.random.default_rng(20200331)
            tvs = []
            for _ in range(TV_FLOOR_DRAWS):
                counts = rng.multinomial(n_particles, prob / prob.sum())
                emp = counts / (n_particles * self.weights)
                tvs.append(0.5 * float(self.weights @ np.abs(emp - pT)))
            self._fp[key] = (pT, float(np.mean(tvs)))
        return self._fp[key]


# ---------------------------------------------------------------------------
# per-command checks: (failures, figures)

def _ladder_failures(wl: Problem, eigenvalues: list[float], what: str) -> list[str]:
    ev = np.asarray(eigenvalues, dtype=float)
    out = []
    if ev.shape[0] != wl.k:
        out.append(f"{what}: {ev.shape[0]} eigenvalues, expected {wl.k}")
        return out
    if abs(ev[0]) > 1e-8:
        out.append(f"{what}: leading eigenvalue {ev[0]:.3e} is not 0")
    if not np.all(ev[1:] < 0.0) or np.any(np.diff(ev) > 1e-9):
        out.append(f"{what}: eigenvalues not negative and descending: "
                   f"{ev.tolist()}")
    if wl.ladder is not None:
        exact = np.asarray(wl.ladder)
        err = np.abs(ev - exact) / np.maximum(np.abs(exact), 1.0)
        for i in np.flatnonzero(err > wl.ladder_tol):
            out.append(f"{what}: eigenvalue {i} = {ev[i]:.6g}, closed form "
                       f"{exact[i]:.6g} (rel err {err[i]:.3g} > "
                       f"{wl.ladder_tol})")
    return out


def _gap_figure(wl: Problem, eigenvalues) -> dict:
    if wl.ladder is None:
        return {}
    gap, exact = -float(eigenvalues[1]), -float(wl.ladder[1])
    return {"gap_rel_err": abs(gap - exact) / exact}


def check_solve(wl: Problem, d: str, refs: References):
    s = read_json(d, "summary.json")
    fails = []
    c_err = abs(s["c"] - wl.c_exact) / wl.c_exact
    if not c_err <= wl.c_tol:
        fails.append(f"c = {s['c']:.8g}, closed form {wl.c_exact} (rel err "
                     f"{c_err:.3g} > {wl.c_tol})")
    fails += _ladder_failures(wl, s["eigenvalues_controlled"], "solve")
    if not np.isfinite(s["hjb_residual_sup"]):
        fails.append("HJB residual is not finite")
    return fails, {"c": s["c"], "c_rel_err": c_err,
                   **_gap_figure(wl, s["eigenvalues_controlled"])}


def check_spectrum(wl: Problem, d: str, refs: References):
    s = read_json(d, "summary.json")
    fails = _ladder_failures(wl, s["eigenvalues"], "spectrum")
    if not s["max_residual"] <= EIG_RESIDUAL_TOL:
        fails.append(f"eigen-residual {s['max_residual']:.3e} > "
                     f"{EIG_RESIDUAL_TOL}")
    return fails, {"max_residual": s["max_residual"],
                   **_gap_figure(wl, s["eigenvalues"])}


def check_evolve(wl: Problem, d: str, refs: References):
    s = read_json(d, "summary.json")
    traj = read_csv(d, "trajectory.csv")
    fails = []
    if not s["rate_relative_error"] <= FIT_TOL:
        fails.append(f"fitted rate {s['fitted_rate']:.6g} vs xi1 "
                     f"{s['xi1']:.6g} (rel err {s['rate_relative_error']:.3g}"
                     f" > {FIT_TOL})")
    if wl.ladder is not None:
        exact = float(wl.ladder[1])
        err = abs(s["fitted_rate"] - exact) / abs(exact)
        if not err <= wl.ladder_tol + FIT_TOL:
            fails.append(f"fitted rate {s['fitted_rate']:.6g}, closed form "
                         f"{exact:.6g} (rel err {err:.3g})")
    # the perturbation is mass-free and CN keeps it so to rounding
    drift = float(np.abs(traj["mass"]).max() / traj["rho_norm"].max())
    if not drift <= 1e-9:
        fails.append(f"perturbation mass drifted to {drift:.3e}")
    return fails, {"fit_rel_err": s["rate_relative_error"],
                   "mass_drift": drift}


def check_inverse(wl: Problem, d: str, refs: References):
    s = read_json(d, "roundtrip.json")
    fails = []
    err = s["density_sup_relative_error"]
    if not err <= ROUNDTRIP_TOL:
        fails.append(f"round-trip density error {err:.3e} > "
                     f"{ROUNDTRIP_TOL}")
    if not s["c_difference"] <= ROUNDTRIP_TOL * max(1.0, abs(s["c_inverse"])):
        fails.append(f"round-trip |c_forward - c_inverse| = "
                     f"{s['c_difference']:.3e}")
    if wl.ladder is not None:
        exact = -float(wl.ladder[1])
        gerr = abs(s["controlled_gap"] - exact) / exact
        if not gerr <= wl.ladder_tol:
            fails.append(f"round-trip gap {s['controlled_gap']:.6g}, closed "
                         f"form {exact:.6g}")
    return fails, {"roundtrip_err": err, "c_difference": s["c_difference"]}


def check_sample_paths(wl: Problem, d: str, refs: References):
    s = read_json(d, "summary.json")
    t = read_csv(d, "terminal.csv")
    n = wl.sampling["sample_paths"].n
    x = _coords(t, wl.dim)
    fails = []
    if x.shape[0] != n or s["n_paths"] != n:
        fails.append(f"{x.shape[0]} terminal rows for {n} paths")
    if s["n_excluded"] != 0 or t["excluded"].any():
        fails.append(f"{s['n_excluded']} paths excluded")
    lo, hi = np.asarray(wl.lows), np.asarray(wl.highs)
    if not (np.isfinite(x).all() and (x >= lo).all() and (x <= hi).all()):
        fails.append("terminal states outside the box")
    # every problem is symmetric under x -> -x and starts at 0
    mean = x.mean(axis=0)
    se = x.std(axis=0, ddof=1) / np.sqrt(x.shape[0])
    if np.any(np.abs(mean) > MC_SIGMAS * se):
        fails.append(f"terminal mean {mean.tolist()} is not 0 within "
                     f"{MC_SIGMAS} stderr {se.tolist()}")
    samp = wl.sampling["sample_paths"]
    m2 = refs.second_moment(samp.n_steps * samp.dt, samp.mode == "steady")
    ref = float(dc.interpolate_values(refs.grid, m2, np.zeros((1, wl.dim)))[0])
    r2 = np.sum(x * x, axis=1)
    se2 = r2.std(ddof=1) / np.sqrt(r2.shape[0])
    if not abs(r2.mean() - ref) <= MC_SIGMAS * se2 + GRID_REL_TOL * ref:
        fails.append(f"E|x_T|^2 = {r2.mean():.6g} +- {se2:.2g}, grid value "
                     f"{ref:.6g}")
    return fails, {"exited_fraction": s["n_exited"] / n,
                   "m2_rel_err": abs(r2.mean() - ref) / ref}


def check_sample_desirability(wl: Problem, d: str, refs: References):
    s = read_json(d, "summary.json")
    t = read_csv(d, "desirability.csv")
    samp = wl.sampling["sample_desirability"]
    horizon = samp.n_steps * samp.dt
    u = refs.feynman_kac(horizon)
    ys = _coords(t, wl.dim)
    ref = np.exp(horizon * s["c"] / dc.LAMBDA) * \
        dc.interpolate_values(refs.grid, u, ys)
    err = np.abs(t["psi_hat"] - ref)
    allowed = MC_SIGMAS * t["stderr"] + GRID_REL_TOL * ref
    fails = []
    for i in np.flatnonzero(~(err <= allowed)):
        fails.append(f"psi_hat{tuple(ys[i].tolist())} = "
                     f"{t['psi_hat'][i]:.6g} +- {t['stderr'][i]:.2g}, grid "
                     f"value at T {ref[i]:.6g}")
    if any(s["degenerate"]):
        fails.append("desirability estimator reported degenerate")
    return fails, {"psi_rel_err": float(np.max(err / ref))}


def check_sample_cost(wl: Problem, d: str, refs: References):
    s = read_json(d, "summary.json")
    samp = wl.sampling["sample_cost"]
    horizon = samp.n_steps * samp.dt
    u = refs.feynman_kac(horizon)
    x0 = np.zeros((1, wl.dim))
    u0 = float(dc.interpolate_values(refs.grid, u, x0)[0])
    c_T = -(dc.LAMBDA / horizon) * np.log(u0)
    allowed = MC_SIGMAS * s["stderr"] + (dc.LAMBDA / horizon) * GRID_REL_TOL
    fails = []
    if not abs(s["c_hat"] - c_T) <= allowed:
        fails.append(f"c_hat = {s['c_hat']:.6g} +- {s['stderr']:.2g}, grid "
                     f"value at T = {horizon:g} is {c_T:.6g}")
    if s["degenerate"]:
        fails.append("cost estimator reported degenerate")
    return fails, {"c_hat": s["c_hat"], "c_T": c_T,
                   "mc_c_err": abs(s["c_hat"] - wl.c_exact) / wl.c_exact}


def check_sample_feedback(wl: Problem, d: str, refs: References):
    s = read_json(d, "summary.json")
    t = read_csv(d, "density.csv")
    samp = wl.sampling["sample_feedback"]
    pT, floor = refs.feedback_density(t["p_target"], samp.n_steps * samp.dt,
                                      samp.n)
    w = refs.weights
    tv_T = 0.5 * float(w @ np.abs(t["p_empirical"] - pT))
    fails = []
    if not tv_T <= TV_FLOOR_FACTOR * floor + TV_SLACK:
        fails.append(f"ensemble is {tv_T:.4f} in TV from the grid density at "
                     f"T; {samp.n} exact draws give {floor:.4f}")
    return fails, {"tv_final": s["tv_distance"], "tv_to_grid_T": tv_T,
                   "tv_floor": floor}


CHECKS = {
    "solve": check_solve,
    "spectrum": check_spectrum,
    "evolve": check_evolve,
    "inverse": check_inverse,
    "sample_paths": check_sample_paths,
    "sample_desirability": check_sample_desirability,
    "sample_cost": check_sample_cost,
    "sample_feedback": check_sample_feedback,
}
