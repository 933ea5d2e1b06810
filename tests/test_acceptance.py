"""Acceptance run: eleven end-to-end checks at their contract tolerances.

Each test prints one verdict line (run with -s to see them all):

    [PASS] 03 spectrum-ladders ...

The numbered order mirrors the release checklist: operator identities
first, then spectra, evolution, forward and inverse solves, Monte Carlo
cross-validation, ensemble convergence, determinism, and config gates.
"""

import dataclasses
import json
import time

import numpy as np
import pytest
import scipy.sparse as sp

import densctl as dc
from densctl.cli import main as cli_main

from conftest import assemble, bimodal_spec, dwell2d_spec, ou_spec, statesig_spec


def verdict(num, label, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {num:02d} {label}: {detail}"
    print(line)
    assert ok, line


def gated_interior(grid, density, margin=2, floor=1e-8):
    """Nodes at least `margin` in from the boundary where the density
    is above floor * max: comparisons against analytic references are
    meaningful only where the stationary mass actually lives."""
    return grid.interior_mask(margin) & (density >= floor * density.max())


@pytest.fixture(scope="module")
def benchmarks():
    specs = {"ou": ou_spec(), "statesig": statesig_spec(),
             "dwell2d": dwell2d_spec()}
    return {name: (s, assemble(s)) for name, s in specs.items()}


def test_01_controlled_adjoint_annihilates_stationary_density(ou401, ou_hjb):
    g = ou401.grid
    x = g.node_coords()[:, 0]
    w = g.quadrature_weights()

    t0 = time.perf_counter()
    ctrl = dc.controlled_operator(ou_hjb)
    adj = dc.adjoint_of(ctrl)
    p_vals = ou_hjb.Psi.values**2 * np.exp(-(x**2))
    p_vals /= w @ p_vals
    residual = dc.apply(adj, dc.ScalarField(g, p_vals))
    sup = float(np.abs(residual.values).max())
    elapsed = time.perf_counter() - t0

    ok = sup <= 1e-10 and elapsed < 1.0
    verdict(1, "stationary-annihilation", ok,
            f"sup|A p| = {sup:.2e} (tol 1e-10), {elapsed:.3f} s (limit 1 s)")


def test_02_density_weighted_generator_symmetry(benchmarks):
    worst = {}
    for name, (spec, op) in benchmarks.items():
        M = sp.diags(op.rho.values) @ op.G
        worst[name] = float(np.abs((M - M.T).toarray()).max())
    ok = all(v <= 1e-10 for v in worst.values())
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    verdict(2, "weighted-symmetry", ok, detail + " (tol 1e-10 each)")


def test_03_quadratic_potential_spectrum_ladders(ou401):
    g = ou401.grid
    Sigma = ou401.diffusion_field()

    t0 = time.perf_counter()
    free = dc.eig_generator(dc.assemble_generator(Sigma, ou401.phi_field()), k=5)
    phi2 = dc.eval_scalar_field(dc.parse_expression("2*x1^2"), g)
    ctrl = dc.eig_generator(dc.assemble_generator(Sigma, phi2), k=4)
    elapsed = time.perf_counter() - t0

    err_free = max(abs(l - r) / max(abs(r), 1.0) for l, r in
                   zip(free.eigenvalues, [0.0, -2.0, -4.0, -6.0, -8.0]))
    err_ctrl = max(abs(l - r) / max(abs(r), 1.0) for l, r in
                   zip(ctrl.eigenvalues, [0.0, -4.0, -8.0, -12.0]))
    ok = err_free <= 0.01 and err_ctrl <= 0.01 and elapsed < 5.0
    verdict(3, "spectrum-ladders", ok,
            f"rel err free {err_free:.2e}, controlled {err_ctrl:.2e} "
            f"(tol 1e-2), {elapsed:.2f} s (limit 5 s)")


def test_04_slow_mode_decay_matches_modal_evolution(benchmarks):
    details = []
    ok = True
    for name, (spec, op) in benchmarks.items():
        s = dc.eig_generator(op, k=6)
        xi1 = float(s.eigenvalues[1])
        a = abs(xi1)
        pt0 = dc.ScalarField(spec.grid, s.functions[1])
        traj = dc.evolve_perturbation(op, pt0, dt=0.02 / a, T=5.0 / a,
                                      store_every=5)
        fitted = dc.fit_decay_rate(traj.times, traj.norm_rho, 0.5 / a, 3.0 / a)
        rate_err = abs(fitted - xi1) / a

        coeffs = dc.expand_in_eigenbasis(pt0, s)
        assert coeffs.reconstruction_error <= 1e-6
        scale = traj.norm_rho[0]
        wq = spec.grid.quadrature_weights() * op.rho.values
        modal_err = max(
            np.sqrt(np.sum(wq * (row - dc.eigen_evolution(coeffs, t).values)
                           ** 2))
            for t, row in zip(traj.density_times, traj.densities)) / scale
        ok = ok and rate_err <= 0.02 and modal_err <= 1e-3
        details.append(f"{name} rate {rate_err:.1e} modal {modal_err:.1e}")
    verdict(4, "perturbation-decay", ok,
            "; ".join(details) + " (tol 2e-2 rate, 1e-3 modal)")


def test_05_mass_conserved_over_ten_thousand_steps(benchmarks):
    details = []
    ok = True
    for name, (spec, op) in benchmarks.items():
        g = spec.grid
        w = g.quadrature_weights()
        p0 = op.rho.values * (1.0 + 0.2 * np.sin(g.node_coords()[:, 0]))
        p0 /= w @ p0
        traj = dc.evolve_fp(dc.adjoint_of(op), dc.ScalarField(g, p0),
                            dt=1e-3, T=10.0, store_every=2000)
        assert len(traj.times) - 1 == 10_000
        drift = float(np.abs(traj.mass - 1.0).max())
        ok = ok and drift <= 1e-10
        details.append(f"{name} {drift:.2e}")
    verdict(5, "mass-conservation", ok,
            "; ".join(details) + " (tol 1e-10 over 1e4 steps)")


def test_06_forward_gauge_and_linear_control(ou401, ou_hjb):
    zero_q = ou_spec(q="0")
    free = dc.solve_hjb_principal(zero_q.diffusion_field(), zero_q.phi_field(),
                                  zero_q.q_field())
    c0 = abs(free.c)
    psi_dev = float(np.abs(free.Psi.values / free.Psi.values.mean() - 1.0).max())
    u0 = float(np.abs(free.u.values).max())

    c_err = abs(ou_hjb.c - 2.0)

    def control_error(sol, spec):
        x = spec.grid.node_coords()[:, 0]
        mask = gated_interior(spec.grid, sol.p.values)
        return float(np.abs(sol.u.values[mask, 0] + 2 * x[mask]).max())

    e401 = control_error(ou_hjb, ou401)
    fine = ou_spec(counts=801)
    sol801 = dc.solve_hjb_principal(fine.diffusion_field(), fine.phi_field(),
                                    fine.q_field())
    e801 = control_error(sol801, fine)

    ok = (c0 <= 1e-10 and psi_dev <= 1e-8 and u0 <= 1e-10
          and c_err <= 1e-3 and e401 <= 2e-2 and e801 <= e401 / 3.0)
    verdict(6, "forward-gauge", ok,
            f"q=0: |c| {c0:.1e}, Psi dev {psi_dev:.1e}, |u| {u0:.1e}; "
            f"q=6x^2: |c-2| {c_err:.1e} (tol 1e-3), "
            f"u err {e401:.2e} -> {e801:.2e} on refinement (second order)")


@pytest.mark.filterwarnings("ignore:target density mass")
def test_07_inverse_round_trips(ou401):
    t0 = time.perf_counter()
    gauss = dataclasses.replace(ou401, q=None,
                                target=dc.parse_expression("exp(-2*x1^2)"))
    g = gauss.grid
    x = g.node_coords()[:, 0]
    w = g.quadrature_weights()
    inv = dc.solve_inverse(gauss)
    mask = gated_interior(g, inv.target.values)
    q_ref = 6 * x**2
    q_err = float(np.abs((inv.q.values - q_ref) / (1.0 + np.abs(q_ref)))[mask].max())
    u_err = float(np.abs(inv.u.values[mask, 0] + 2 * x[mask]).max())

    tgt = np.exp(-2 * x**2)
    tgt /= w @ tgt
    rt = dc.roundtrip_verify(dc.ScalarField(g, tgt), gauss)

    bim = bimodal_spec()
    xb = bim.grid.node_coords()[:, 0]
    wb = bim.grid.quadrature_weights()
    btgt = np.exp(-((xb**2 - 1) ** 2))
    btgt /= wb @ btgt
    brt = dc.roundtrip_verify(dc.ScalarField(bim.grid, btgt), bim)
    elapsed = time.perf_counter() - t0

    ok = (q_err <= 1e-2 and u_err <= 1e-2 and rt.density_error <= 1e-3
          and brt.density_error <= 1e-2 and brt.controlled_gap > 0
          and elapsed < 10.0)
    verdict(7, "inverse-roundtrip", ok,
            f"gaussian: q rel {q_err:.2e} (tol 1e-2), u {u_err:.2e}, "
            f"density {rt.density_error:.2e} (tol 1e-3); bimodal: density "
            f"{brt.density_error:.2e} (tol 1e-2), gap {brt.controlled_gap:.3f}; "
            f"{elapsed:.1f} s (limit 10 s)")


def test_08_path_integral_cross_validation(ou401, ou_hjb):
    q = ou401.q
    points = [-1.0, -0.5, 0.0, 0.5, 1.0]
    cfg = dc.SdeConfig(dt=1e-3, T=5.0, n_paths=10_000, seed=2024)

    t0 = time.perf_counter()
    ests = [dc.path_integral_desirabilities(ou401, q, ou_hjb.c, [[y]], cfg,
                                            stream_base=i * cfg.n_paths)[0]
            for i, y in enumerate(points)]
    c_est = dc.estimate_c_mc(ou401, q, dataclasses.replace(cfg, seed=77),
                             [0.0])
    elapsed = time.perf_counter() - t0

    grid_psi = dc.interpolate_values(
        ou401.grid, ou_hjb.Psi.values[:, None],
        np.array([[y] for y in points]))[:, 0]
    vals = np.array([e.value for e in ests])
    errs = np.array([e.stderr for e in ests])
    anchor = points.index(0.0)
    ratio = vals / vals[anchor]
    ratio_se = ratio * np.sqrt((errs / vals) ** 2
                               + (errs[anchor] / vals[anchor]) ** 2)
    ref = grid_psi / grid_psi[anchor]
    z = np.abs(ratio - ref) / np.where(ratio_se > 0, ratio_se, 1.0)
    z[anchor] = 0.0

    c_gap = abs(c_est.value - ou_hjb.c)
    c_tol = max(3 * c_est.stderr, 0.05 * ou_hjb.c)
    ok = float(z.max()) <= 3.0 and c_gap <= c_tol and elapsed < 60.0
    verdict(8, "path-integral", ok,
            f"ratio |z| max {z.max():.2f} (tol 3), c-hat {c_est.value:.4f} vs "
            f"{ou_hjb.c:.4f} gap {c_gap:.4f} (tol {c_tol:.4f}), "
            f"{elapsed:.1f} s single-threaded (limit 60 s)")


@pytest.mark.filterwarnings("ignore:target density mass")
def test_09_feedback_ensemble_reaches_target(ou401):
    g = ou401.grid
    x = g.node_coords()[:, 0]
    w = g.quadrature_weights()
    tgt = np.exp(-2 * x**2)
    tgt /= w @ tgt
    target = dc.ScalarField(g, tgt)
    spec = dataclasses.replace(ou401, q=None,
                               target=dc.parse_expression("exp(-2*x1^2)"))
    cfg = dc.SdeConfig(dt=1e-2, T=10.0, n_paths=100_000, seed=31)

    t0 = time.perf_counter()
    out = dc.simulate_sde(spec, cfg, dc.uniform_ensemble(g, cfg.n_paths,
                                                         cfg.seed),
                          target=target)
    tv = dc.tv_distance(dc.histogram_density(dc.Ensemble(out.terminal), g),
                        target)
    elapsed = time.perf_counter() - t0

    ok = tv <= 0.05 and elapsed < 120.0
    verdict(9, "feedback-convergence", ok,
            f"TV at T=10 with 1e5 particles = {tv:.4f} (tol 0.05), "
            f"{elapsed:.1f} s (limit 120 s)")


def test_10_sampling_determinism_across_threads(tmp_path):
    config = {
        "grid": {"lows": [-6.0], "highs": [6.0], "counts": [201]},
        "dynamics": {"phi": "x1^2", "sigma": [["sqrt(2)"]]},
        "cost": {"q": "6*x1^2"},
        "sampling": {"dt": 1e-3, "T": 0.5, "n_paths": 500, "seed": 5},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))

    mismatches = []
    compared = 0
    for kind in ("paths", "desirability", "cost", "feedback"):
        runs = []
        for tag, threads in (("a", "1"), ("b", "3"), ("c", "3")):
            out = tmp_path / kind / tag
            code = cli_main(["sample", kind, "--config", str(cfg_path),
                             "--threads", threads, "--out", str(out),
                             "--quiet"])
            assert code == 0
            sub = [d for d in out.iterdir() if d.is_dir()]
            assert len(sub) == 1
            runs.append(sub[0])
        csvs = sorted(f.name for f in runs[0].iterdir() if f.suffix == ".csv")
        assert csvs, f"{kind} produced no CSV output"
        for name in csvs:
            ref = (runs[0] / name).read_bytes()
            for other in runs[1:]:
                compared += 1
                if (other / name).read_bytes() != ref:
                    mismatches.append(f"{kind}/{name}")
    ok = not mismatches
    verdict(10, "sampling-determinism", ok,
            f"{compared} CSV comparisons across thread counts 1 and 3, "
            + ("all bit-identical" if ok else "mismatch in " + ", ".join(mismatches)))


def test_11_constraint_gates_reject_bad_configs(tmp_path):
    base = {
        "grid": {"lows": [-6.0], "highs": [6.0], "counts": [201]},
        "dynamics": {"phi": "x1^2", "sigma": [["sqrt(2)"]]},
        "cost": {"q": "6*x1^2"},
    }
    bad = {
        "indefinite-diffusion": dict(base, dynamics={"phi": "x1^2",
                                                     "Sigma": [["-1.0"]]}),
        "unbounded-cost": dict(base, cost={"q": "-x1^2"}),
        "flat-potential": dict(base, dynamics={"phi": "1",
                                               "sigma": [["sqrt(2)"]]}),
    }
    codes = {}
    failed_names = {}
    for label, payload in bad.items():
        cfg = tmp_path / f"{label}.json"
        cfg.write_text(json.dumps(payload))
        out = tmp_path / label
        codes[label] = cli_main(["check", "--config", str(cfg),
                                 "--out", str(out), "--quiet"])
        report_dir = next(d for d in out.iterdir() if d.is_dir())
        report = json.loads((report_dir / "check.json").read_text())
        failed_names[label] = {f["name"] for f in report["findings"]
                               if f["status"] == "FAIL"}

    ok = (all(c == 1 for c in codes.values())
          and "diffusion-spd" in failed_names["indefinite-diffusion"]
          and "cost-bounded-below" in failed_names["unbounded-cost"]
          and "confinement" in failed_names["flat-potential"])
    verdict(11, "constraint-gates", ok,
            "exit codes " + ", ".join(f"{k}={v}" for k, v in codes.items())
            + "; failing findings "
            + "; ".join(f"{k}: {sorted(v)}" for k, v in failed_names.items()))
