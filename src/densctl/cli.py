"""Command-line entry point.

Commands bind a JSON run configuration to the solver pipeline and
write plot-ready CSV plus JSON summaries into a per-run directory
named by a hash of the config and of every resolved option that
changes the artifacts (seed, k, --controlled, evolve's --perturb,
--mode, --dt and --T). Exit codes: 0 success, 1 numerical or
constraint failure, 2 usage or configuration error.

`_COMMANDS` declares each command, and each kind of `sample`, once:
its handler, the config mode it needs, the arguments it adds to its
subparser and its own usage checks. The parser is built from it, and
every run takes one path through `main`: the option checks of `_Run`
and the command's own usage checks (exit 2), the command's mode
requirement (exit 2), then, for every command but `check`, the gates
that `check` reports (exit 1, printing the report), then the handler.
So a run with a usage error and a failing gate exits 2. Each handler
ends in one `_Run.emit`, which hands its files, named columns for a
CSV, to `output.write_run` and then prints its lines; the manifest's
`started` is the moment `main` began the command.

Flag precedence is flag > environment > config file; the recognized
environment variables are DENSCTL_OUT, DENSCTL_SEED and DENSCTL_QUIET.
--threads is still parsed, for scripts that pass it, and ignored:
densctl's own code starts no thread, but the BLAS that scipy and numpy
call (OpenBLAS) starts its own pool. On grids of a few thousand nodes
that pool is slower than one thread, so set OPENBLAS_NUM_THREADS=1 in
the environment there.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import RunConfig, check_seed, load_config
from .errors import ConfigError, DensctlError
from .expressions import ExpressionError, free_variables, parse_expression
from .fields import ScalarField, eval_scalar_field, interpolate_values
from .inverse import _normalized_target, control_from_target, roundtrip_verify
from .model import validate_spec
from .operators import assemble_generator
from .output import timestamp, write_run
from .pde import (
    eigen_evolution,
    evolve_perturbation,
    expand_in_eigenbasis,
    fit_decay_rate,
)
from .sampling import (
    Ensemble,
    SdeConfig,
    estimate_c_mc,
    histogram_density,
    path_integral_desirabilities,
    simulate_sde,
    tv_distance,
    uniform_ensemble,
)
from .spectral import (
    eig_generator,
    solve_hjb_principal,
    spectral_gap,
    verify_hjb_residual,
)

_TRUTHY = {"1", "true", "yes", "on"}


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError as e:
        raise ConfigError(f"environment variable {name}={raw!r} is not an "
                          "integer") from e


class _Run:
    """Resolved options for one command invocation, with its parsed
    arguments."""

    def __init__(self, args, cfg: RunConfig, started: str | None = None):
        self.args = args
        self.started = started or timestamp()
        # the artifact directory's prefix: the command's words, joined
        self.command = "-".join(filter(None, (getattr(args, "command", None),
                                              getattr(args, "kind", None))))
        self.cfg = cfg
        self.spec = cfg.spec
        self.quiet = bool(getattr(args, "quiet", False)) or \
            os.environ.get("DENSCTL_QUIET", "").lower() in _TRUTHY

        out = getattr(args, "out", None) or os.environ.get("DENSCTL_OUT") \
            or cfg.output_dir or "runs"
        self.out_base = out

        seed, source = getattr(args, "seed", None), "--seed"
        if seed is None:
            seed, source = _env_int("DENSCTL_SEED"), "DENSCTL_SEED"
        self.seed = cfg.sampling.seed if seed is None else \
            check_seed(seed, source)

        k = getattr(args, "k", None)
        if k is not None and k < 1:
            raise ConfigError(f"--k must be at least 1, got {k}")
        self.k = k if k is not None else cfg.solver.k
        n = self.spec.grid.size
        if self.k is not None and self.k > n:
            raise ConfigError(f"k = {self.k} outside the valid range 1..{n}")

    def say(self, msg: str) -> None:
        if not self.quiet:
            print(msg)

    def emit(self, files: dict, lines, **options) -> None:
        """Write the run's artifacts (see `output.write_run`), keyed by
        the command, the config and the resolved options that change
        them, never by --out or --quiet; then print `lines` and where
        the artifacts went."""
        run_dir = write_run(self.out_base, self.command, self.cfg.digest,
                            dict(seed=self.seed, k=self.k, **options),
                            self.seed, self.started, files)
        for line in lines:
            self.say(line)
        self.say(f"artifacts in {run_dir}")

    def sde_config(self, n_paths: int | None = None) -> SdeConfig:
        s = self.cfg.sampling
        return SdeConfig(dt=s.dt, T=s.T, n_paths=n_paths or s.n_paths,
                         seed=self.seed)

    def default_k(self) -> int:
        if self.k is not None:
            return self.k
        n = self.spec.grid.size
        return min(32, max(2, n // 4))

    def x0(self) -> tuple[float, ...]:
        g = self.spec.grid
        x0 = self.cfg.sampling.x0
        if x0 is not None:
            return x0
        return tuple(0.5 * (lo + hi) for lo, hi in zip(g.lows, g.highs))


def _gate(run: _Run) -> None:
    """Refuse a spec that fails the structural gates. The gates evaluate
    the spec's fields, which the spec keeps for the rest of the
    command."""
    report = validate_spec(run.spec)
    if not report.passed:
        raise DensctlError(
            "constraint checks failed:\n" + "\n".join(report.lines()))


def _columns(prefix: str, array: np.ndarray) -> dict:
    """The columns prefix1..prefixn of an (N, n) array."""
    return {f"{prefix}{i + 1}": array[:, i] for i in range(array.shape[1])}


def _solve_forward(run: _Run, k: int = 1):
    spec = run.spec
    return solve_hjb_principal(spec.diffusion_field(), spec.phi_field(),
                               spec.q_field(), k)


# ---------------------------------------------------------------------------
# commands

def cmd_check(run: _Run) -> int:
    starts = np.array([run.x0(), *_queries(run)], dtype=float)
    report = validate_spec(run.spec, starts)
    run.emit({"check.json": report.as_dict()}, report.lines())
    return 0 if report.passed else 1


def cmd_solve(run: _Run) -> int:
    spec = run.spec
    sol = _solve_forward(run, run.default_k())
    residual = verify_hjb_residual(sol, spec.q_field())
    ctrl = sol.controlled
    gap = spectral_gap(ctrl) if ctrl.k >= 2 else None

    run.emit({
        "solution.csv": {**_columns("x", spec.grid.node_coords()),
                         "Psi": sol.Psi.values, "v": sol.v.values,
                         "p": sol.p.values, **_columns("u", sol.u.values)},
        "summary.json": {
            "c": sol.c,
            "controlled_gap": gap,
            "hjb_residual_sup": residual,
            "eigenvalues_controlled": ctrl.eigenvalues.tolist(),
            "diagnostics": sol.diagnostics,
        },
    }, [f"c = {sol.c:.8g}   gap = "
        f"{gap if gap is None else format(gap, '.6g')}   "
        f"residual sup = {residual:.3e}"])
    return 0


def cmd_spectrum(run: _Run) -> int:
    spec = run.spec
    controlled = run.args.controlled
    k = run.default_k()
    if controlled:
        s = _solve_forward(run, k).controlled
    else:
        s = eig_generator(assemble_generator(spec.diffusion_field(),
                                             spec.phi_field()), k)

    gap = None
    if k >= 2 and s.eigenvalues[1] < 0.0:
        gap = -float(s.eigenvalues[1])

    run.emit({
        "eigenvalues.csv": {"index": np.arange(k, dtype=float),
                            "eigenvalue": s.eigenvalues,
                            "residual": s.residuals},
        "modes.csv": {**_columns("x", spec.grid.node_coords()),
                      **{f"mode{j}": s.functions[j] for j in range(k)}},
        "summary.json": {
            "operator": "controlled" if controlled else "uncontrolled",
            "k": k,
            "eigenvalues": s.eigenvalues.tolist(),
            "spectral_gap": gap,
            "max_residual": float(s.residuals.max()),
        },
    }, ["eigenvalues: " +
        ", ".join(f"{v:.6g}" for v in s.eigenvalues[:min(k, 8)]) +
        (" ..." if k > 8 else "")], controlled=controlled)
    return 0


def _evolve_arguments(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--perturb", help="perturbation expression")
    group.add_argument("--mode", type=int, dest="mode_index",
                       help="start from eigenmode N (default 1)")
    p.add_argument("--dt", type=float, help="time step")
    p.add_argument("--T", type=float, help="horizon")


def _check_horizon(dt: float, T: float) -> None:
    if T < dt:
        raise ConfigError(f"evolve horizon T = {T:g} is below one step "
                          f"dt = {dt:g}")


def _check_evolve(run: _Run) -> None:
    """evolve's usage checks: --dt and --T finite and positive, a horizon
    no shorter than its step where both are set (a flag over its
    [solver] key), --mode an eigenmode above the first, --perturb an
    expression over the grid's coordinates."""
    args = run.args
    for flag in ("dt", "T"):
        value = getattr(args, flag)
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ConfigError(f"--{flag} must be finite and positive, "
                              f"got {value}")
    dt = args.dt if args.dt is not None else run.cfg.solver.dt
    T = args.T if args.T is not None else run.cfg.solver.T
    if dt is not None and T is not None:
        _check_horizon(dt, T)
    top = run.spec.grid.size - 1
    if args.mode_index is not None and not 1 <= args.mode_index <= top:
        raise ConfigError(f"--mode must lie between 1 and {top}, "
                          f"got {args.mode_index}")
    if args.perturb is not None:
        try:
            expr = parse_expression(args.perturb)
        except ExpressionError as e:
            raise ConfigError(f"--perturb does not parse: {e}") from e
        fv = free_variables(expr)
        if fv and max(fv) > run.spec.grid.dim:
            raise ConfigError(f"--perturb uses x{max(fv)} but the grid "
                              f"is {run.spec.grid.dim}-dimensional")


def cmd_evolve(run: _Run) -> int:
    spec = run.spec
    g = spec.grid
    args = run.args
    perturb, mode_index, dt, T = args.perturb, args.mode_index, args.dt, args.T
    k = run.default_k()
    if mode_index is not None:
        k = max(k, mode_index + 1)
    k = max(k, 2)
    if spec.mode == "forward":
        # the controlled generator, read off M: no reassembly
        gen = _solve_forward(run, k)
        s = gen.controlled
    else:
        p = _normalized_target(spec.target_field())
        gen = assemble_generator(spec.diffusion_field(),
                                 ScalarField(g, -np.log(p)))
        s = eig_generator(gen, k)
    rate = spectral_gap(s)

    if perturb is not None:
        pt0 = eval_scalar_field(parse_expression(perturb), g)
    else:
        # _check_evolve keeps --mode below g.size, so k > mode_index
        pt0 = s.eigenfunction(1 if mode_index is None else mode_index)

    dt = dt if dt is not None else (run.cfg.solver.dt or 0.1 / rate)
    T = T if T is not None else (run.cfg.solver.T or 5.0 / rate)
    # a step or horizon left to default from the gap is known only now
    _check_horizon(dt, T)
    traj = evolve_perturbation(gen, pt0, dt, T)

    pc = expand_in_eigenbasis(ScalarField(g, traj.densities[0]), s)
    wq = g.quadrature_weights() * s.rho.values
    norm0 = float(np.sqrt(np.sum(wq * traj.densities[0] ** 2)))
    comparison = 0.0
    for t_i, dens in zip(traj.density_times, traj.densities):
        diff = dens - eigen_evolution(pc, float(t_i)).values
        err = float(np.sqrt(np.sum(wq * diff * diff)))
        comparison = max(comparison, err / max(norm0, 1e-300))

    fitted = fit_decay_rate(traj.times, traj.norm_rho, 0.5 / rate, 3.0 / rate)

    run.emit({
        "trajectory.csv": {"t": traj.times, "mass": traj.mass,
                           "rho_norm": traj.norm_rho},
        "densities.csv": {"t": traj.density_times,
                          **{f"p{i}": traj.densities[:, i]
                             for i in range(g.size)}},
        "summary.json": {
            "fitted_rate": fitted,
            "xi1": -rate,
            "rate_relative_error": abs(fitted + rate) / rate,
            "eigen_comparison_error": comparison,
            "reconstruction_error": pc.reconstruction_error,
            "dt": dt,
            "T": T,
            "horizon": float(traj.times[-1]),
            "projected": traj.projected,
        },
    }, [f"fitted rate {fitted:.6g} vs xi1 {-rate:.6g} "
        f"(rel err {abs(fitted + rate) / rate:.2e}); "
        f"eigen comparison {comparison:.2e}"],
        perturb=perturb, mode=mode_index, dt=dt, T=T)
    return 0


def _drift_input(run: _Run, mode: str) -> dict:
    """The field that a drift mode adds, as simulate_sde's keyword: the
    steady `control` or the feedback `target`. A forward config solves
    the HJB problem for it. An inverse config reads it off the target
    density alone, with no operator: u = (Sigma/LAMBDA) grad(log p + phi)
    or the normalized target."""
    if mode == "uncontrolled":
        return {}
    spec = run.spec
    if spec.mode == "forward":
        sol = _solve_forward(run)
        return {"control": sol.u} if mode == "steady" else {"target": sol.p}
    p_inf = spec.target_field()
    if mode == "steady":
        return {"control": control_from_target(p_inf, spec.phi_field(),
                                               spec.diffusion_field())}
    return {"target": ScalarField(spec.grid, _normalized_target(p_inf))}


def cmd_sample_paths(run: _Run) -> int:
    spec = run.spec
    cfg = run.sde_config()
    mode = run.cfg.sampling.mode
    batch = simulate_sde(spec, cfg, run.x0(), **_drift_input(run, mode),
                         cost_expr=spec.q if spec.mode == "forward" else None)
    run.emit({
        "terminal.csv": {**_columns("x", batch.terminal),
                         "cost": batch.cost_integral,
                         "exited": batch.exited.astype(float),
                         "excluded": batch.excluded.astype(float)},
        "summary.json": {
            "seed": cfg.seed,
            "mode": mode,
            "n_paths": batch.n_paths,
            "n_excluded": batch.n_excluded,
            "n_exited": int(batch.exited.sum()),
            "horizon": batch.horizon,
            "dt": cfg.dt,
        },
    }, [f"{batch.n_paths} paths, {int(batch.exited.sum())} reflected, "
        f"{batch.n_excluded} excluded"])
    return 0


def _queries(run: _Run) -> tuple[tuple[float, ...], ...]:
    """The desirability query points: the configured ones, or five
    along the first axis through x0."""
    if run.cfg.sampling.queries:
        return run.cfg.sampling.queries
    g = run.spec.grid
    center = run.x0()
    lo, hi = g.lows[0], g.highs[0]
    span = hi - lo
    xs = np.linspace(lo + 0.25 * span, hi - 0.25 * span, 5)
    return tuple(tuple([x] + list(center[1:])) for x in xs)


def _degenerate_note(est) -> str:
    """The stdout marker of an estimate whose stderr is no error bar."""
    return " (degenerate: no valid error bar)" if est.degenerate else ""


def cmd_sample_desirability(run: _Run) -> int:
    spec = run.spec
    queries = _queries(run)
    pts = np.array(queries, dtype=float)
    sol = _solve_forward(run)
    cfg = run.sde_config()

    est = path_integral_desirabilities(spec, spec.q, sol.c, pts, cfg)
    psi_grid = interpolate_values(spec.grid, sol.Psi.values, pts)

    run.emit({
        "desirability.csv": {
            **_columns("x", pts),
            "psi_hat": np.array([e.value for e in est]),
            "stderr": np.array([e.stderr for e in est]),
            "n_used": np.array([float(e.n_used) for e in est]),
            "n_excluded": np.array([float(e.n_excluded) for e in est]),
            "psi_grid": psi_grid},
        "summary.json": {
            "c": sol.c,
            "seed": cfg.seed,
            "n_paths": cfg.n_paths,
            "T": cfg.T,
            "horizon": cfg.horizon,
            "dt": cfg.dt,
            "degenerate": [e.degenerate for e in est],
            "ess": [e.ess for e in est],
        },
    }, [f"psi_hat({', '.join(f'{float(v):g}' for v in y)}) = "
        f"{e.value:.6g} +- {e.stderr:.2g}{_degenerate_note(e)}"
        for y, e in zip(queries, est)])
    return 0


def cmd_sample_cost(run: _Run) -> int:
    spec = run.spec
    cfg = run.sde_config()
    x0 = run.x0()
    sol = _solve_forward(run)
    est = estimate_c_mc(spec, spec.q, cfg, x0)

    run.emit({
        "cost.csv": {"c_hat": np.array([est.value]),
                     "stderr": np.array([est.stderr]),
                     "c_grid": np.array([sol.c]),
                     "abs_error": np.array([abs(est.value - sol.c)])},
        "summary.json": {
            "c_hat": est.value,
            "stderr": est.stderr,
            "c_grid": sol.c,
            "n_used": est.n_used,
            "n_excluded": est.n_excluded,
            "seed": cfg.seed,
            "T": cfg.T,
            "horizon": cfg.horizon,
            "dt": cfg.dt,
            "degenerate": est.degenerate,
            "ess": est.ess,
        },
    }, [f"c_hat = {est.value:.6g} +- {est.stderr:.2g} "
        f"(grid c = {sol.c:.6g}){_degenerate_note(est)}"])
    return 0


def cmd_sample_feedback(run: _Run) -> int:
    spec = run.spec
    g = spec.grid
    target = _drift_input(run, "feedback")["target"]
    n_particles = run.cfg.sampling.n_particles or run.cfg.sampling.n_paths
    cfg = run.sde_config(n_particles)
    final = Ensemble(positions=simulate_sde(
        spec, cfg, uniform_ensemble(g, n_particles, cfg.seed),
        target=target).terminal)
    emp = histogram_density(final, g)
    tv = tv_distance(emp, target)

    run.emit({
        "ensemble.csv": _columns("x", final.positions),
        "density.csv": {**_columns("x", g.node_coords()),
                        "p_target": target.values, "p_empirical": emp.values},
        "summary.json": {
            "tv_distance": tv,
            "n_particles": n_particles,
            "seed": cfg.seed,
            "T": cfg.T,
            "horizon": cfg.horizon,
            "dt": cfg.dt,
        },
    }, [f"total variation to target after T = {cfg.T:g}: {tv:.4f}"])
    return 0


def cmd_inverse(run: _Run) -> int:
    spec = run.spec
    rt = roundtrip_verify(spec.target_field(), spec)
    inv = rt.inverse
    run.emit({
        "inverse.csv": {**_columns("x", spec.grid.node_coords()),
                        "p_target": inv.target.values, "Psi": inv.Psi.values,
                        "q": inv.q.values, **_columns("u", inv.u.values),
                        "p_recovered": rt.forward.p.values},
        "roundtrip.json": {
            "density_sup_relative_error": rt.density_error,
            "c_inverse": rt.c_inverse,
            "c_forward": rt.c_forward,
            "c_difference": rt.c_difference,
            "control_sup_error": rt.control_error,
            "controlled_gap": rt.controlled_gap,
            "q_max": float(inv.q.values.max()),
        },
    }, rt.lines())
    return 0


# ---------------------------------------------------------------------------
# the command table, argument parsing and dispatch

@dataclass(frozen=True)
class _Command:
    """One command, or one kind of `sample`.

    `mode` is the config mode the command needs ("forward", "inverse"
    or None), or a function of the run that gives it. `check` runs the
    command's own usage checks; `gate` is whether the gates that `check`
    reports run first. A command with `kinds` takes one of them as a
    positional argument, and the kind's entry runs."""
    run: Callable[[_Run], int] | None = None
    help: str | None = None
    mode: str | Callable[[_Run], str | None] | None = None
    arguments: Callable[[argparse.ArgumentParser], None] | None = None
    check: Callable[[_Run], None] | None = None
    gate: bool = True
    kinds: dict[str, _Command] | None = None


_COMMANDS = {
    "check": _Command(cmd_check, "run the structural constraint checks",
                      gate=False),
    "solve": _Command(cmd_solve, "solve the stationary HJB problem",
                      mode="forward"),
    "spectrum": _Command(
        cmd_spectrum, "eigendecomposition of the generator",
        mode=lambda run: "forward" if run.args.controlled else None,
        arguments=lambda p: p.add_argument(
            "--controlled", action="store_true",
            help="use the optimally controlled generator")),
    "evolve": _Command(cmd_evolve, "evolve a density perturbation",
                       arguments=_evolve_arguments, check=_check_evolve),
    "sample": _Command(help="Monte Carlo simulation and estimators", kinds={
        "paths": _Command(cmd_sample_paths),
        "desirability": _Command(cmd_sample_desirability, mode="forward"),
        "cost": _Command(cmd_sample_cost, mode="forward"),
        "feedback": _Command(cmd_sample_feedback),
    }),
    "inverse": _Command(cmd_inverse,
                        "design cost and control from a target density",
                        mode="inverse"),
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="path to the JSON run configuration")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="base output directory (default: runs)")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="override the sampling seed")
    common.add_argument("--threads", type=int, default=argparse.SUPPRESS,
                        help="ignored; accepted for compatibility (BLAS "
                        "threads follow OPENBLAS_NUM_THREADS)")
    common.add_argument("--k", type=int, default=argparse.SUPPRESS,
                        help="number of eigenmodes")
    common.add_argument("--quiet", action="store_true",
                        default=argparse.SUPPRESS,
                        help="suppress progress output")

    p = argparse.ArgumentParser(
        prog="densctl",
        description="stationary density control: solve, verify, sample",
        parents=[common])
    sub = p.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, parents=[common], help=command.help)
        if command.kinds:
            sp.add_argument("kind", choices=list(command.kinds))
        if command.arguments:
            command.arguments(sp)
    return p


def main(argv: list[str] | None = None) -> int:
    started = timestamp()
    args = _build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    if command.kinds:
        command = command.kinds[args.kind]

    try:
        config_path = getattr(args, "config", None)
        if config_path is None:
            raise ConfigError("--config is required")
        run = _Run(args, load_config(config_path), started)
        if command.check:
            command.check(run)
        need = command.mode(run) if callable(command.mode) else command.mode
        if need not in (None, run.spec.mode):
            config = {
                "forward": "a forward-mode config with a [cost] section; "
                           "this one has a [target]",
                "inverse": "an inverse-mode config with a [target] "
                           "section; this one has a [cost]",
            }[need]
            raise ConfigError(f"this command needs {config}")
        if command.gate:
            _gate(run)
        return command.run(run)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DensctlError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
