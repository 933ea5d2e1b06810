"""Workload definitions: problems, per-command configs and closed forms.

A workload is one or more problems, each with the densctl commands run
on it; one pass of a workload runs every command of every problem in
order. The workload seed is written into every config as
`sampling.seed`; nothing else depends on it.

Closed forms (derived for each problem, see `Problem.c_exact` and
`Problem.ladder`):

* quadratic phi with constant Sigma and quadratic q: the desirability
  is Gaussian, c = tr(Sigma B) with B solving the Riccati identity, and
  the controlled process is Ornstein-Uhlenbeck, so its spectrum is the
  integer combinations of the drift-matrix eigenvalues;
* sigma2d: q is the cost that inverse design gives for the target
  exp(-|x|^2) under its state-dependent Sigma, which is
  3/8 (x1 + x2)^2 + 3/16 (x1^4 + x2^4) with c = 1; its spectrum has no
  closed form.
"""
from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field

# command name -> (densctl argv, config key)
COMMANDS = {
    "solve": (["solve"], "fwd"),
    "spectrum": (["spectrum", "--controlled"], "fwd"),
    "evolve": (["evolve"], "fwd"),
    "inverse": (["inverse"], "inv"),
    "sample_paths": (["sample", "paths"], "paths"),
    "sample_desirability": (["sample", "desirability"], "desirability"),
    "sample_cost": (["sample", "cost"], "cost"),
    "sample_feedback": (["sample", "feedback"], "feedback"),
}

GRID_COMMANDS = ("solve", "spectrum", "evolve", "inverse")

N_DEFAULT_QUERIES = 5


@dataclass(frozen=True)
class Sampling:
    """One sample command's settings and the base config it runs on."""
    base: str                   # "fwd" or "inv"
    dt: float
    T: float
    n: int                      # paths per query, or particles
    mode: str = "uncontrolled"

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.T / self.dt)))


@dataclass(frozen=True)
class Problem:
    name: str
    lows: tuple
    highs: tuple
    counts: tuple
    phi: str
    diffusion: dict             # {"sigma": ...} or {"Sigma": ...}
    q: str
    target: str
    k: int
    c_exact: float
    ladder: tuple | None        # controlled eigenvalues, descending
    sampling: dict = field(default_factory=dict)   # command -> Sampling
    grid_commands: tuple = ()   # grid commands run on this problem
    # accuracy tolerances of the correctness gate
    c_tol: float = 0.01         # |c - c_exact| / c_exact
    ladder_tol: float = 0.03    # per entry, relative to max(|exact|, 1)

    @property
    def dim(self) -> int:
        return len(self.counts)

    @property
    def commands(self) -> tuple:
        """Commands one pass runs on this problem, in order."""
        return self.grid_commands + tuple(self.sampling)

    def base_config(self, mode: str, seed: int) -> dict:
        cfg = {
            "grid": {"lows": list(self.lows), "highs": list(self.highs),
                     "counts": list(self.counts)},
            "dynamics": {"phi": self.phi, **self.diffusion},
            "solver": {"k": self.k},
            "sampling": {"seed": seed},
        }
        if mode == "fwd":
            cfg["cost"] = {"q": self.q}
        else:
            cfg["target"] = {"p_inf": self.target}
        return cfg

    def configs(self, seed: int) -> dict[str, dict]:
        out = {"fwd": self.base_config("fwd", seed),
               "inv": self.base_config("inv", seed)}
        for cmd, s in self.sampling.items():
            cfg = self.base_config(s.base, seed)
            cfg["sampling"].update(dt=s.dt, T=s.T, n_paths=s.n,
                                   n_particles=s.n, mode=s.mode)
            out[cmd.removeprefix("sample_")] = cfg
        return out

    def path_steps(self, cmd: str) -> int:
        """Path-steps a sample command asks for."""
        s = self.sampling[cmd]
        queries = N_DEFAULT_QUERIES if cmd == "sample_desirability" else 1
        return queries * s.n * s.n_steps


def _ladder(rates: list[float], k: int) -> tuple:
    """Controlled OU spectrum: the k largest -sum(n_i r_i), n_i >= 0."""
    sums = sorted(sum(n * r for n, r in zip(ns, rates))
                  for ns in itertools.product(range(k), repeat=len(rates)))
    return tuple(-v for v in sums[:k])


# Sigma = [[2, 1], [1, 2]], phi = |x|^2/2, q = x^T (2 Sigma) x: B = I,
# c = tr Sigma = 4, controlled drift -1.5 Sigma x with rates 1.5, 4.5
GRID2D = Problem(
    name="grid2d", lows=(-3.0, -3.0), highs=(3.0, 3.0), counts=(33, 33),
    phi="(x1^2 + x2^2)/2", diffusion={"Sigma": [["2", "1"], ["1", "2"]]},
    q="4*x1^2 + 4*x1*x2 + 4*x2^2", target="exp(-1.5*(x1^2 + x2^2))",
    k=8, c_exact=4.0, ladder=_ladder([1.5, 4.5], 8),
    grid_commands=GRID_COMMANDS, c_tol=0.01, ladder_tol=0.03)

# the paper's 1D OU: phi = x^2, sigma = sqrt(2), q = 6 x^2: c = 2
OU1D = Problem(
    name="ou1d", lows=(-6.0,), highs=(6.0,), counts=(401,),
    phi="x1^2", diffusion={"sigma": [["sqrt(2)"]]}, q="6*x1^2",
    target="exp(-2*x1^2)", k=8, c_exact=2.0, ladder=_ladder([4.0], 8),
    sampling={
        "sample_paths": Sampling("fwd", 1e-3, 1.0, 1024, mode="steady"),
        "sample_desirability": Sampling("fwd", 1e-3, 1.0, 256),
        "sample_cost": Sampling("fwd", 1e-3, 1.0, 1024),
        "sample_feedback": Sampling("fwd", 1e-3, 1.0, 2048),
    },
    c_tol=0.001, ladder_tol=0.01)

# state-dependent cross-diffusion: the drift goes through the
# expression layer (finite-difference div Sigma, pointwise Cholesky)
SIGMA2D = Problem(
    name="sigma2d", lows=(-3.5, -3.5), highs=(3.5, 3.5), counts=(25, 25),
    phi="(x1^2 + x2^2)/2",
    diffusion={"Sigma": [["1 + x1^2/4", "0.5"], ["0.5", "1 + x2^2/4"]]},
    q="3/8*(x1 + x2)^2 + 3/16*(x1^4 + x2^4)",
    target="exp(-(x1^2 + x2^2))", k=8, c_exact=1.0, ladder=None,
    sampling={
        "sample_paths": Sampling("inv", 2e-3, 0.5, 1024),
        "sample_feedback": Sampling("inv", 2e-3, 0.5, 1024),
    },
    c_tol=0.01)

# workload name -> the problems one pass runs, in order
WORKLOADS = {
    "grid2d": (GRID2D,),
    "sampling": (OU1D, SIGMA2D),
}


def write_configs(problems: tuple, seed: int, directory: str) -> dict[str, str]:
    """Write one JSON config per problem and key; returns
    "<problem>.<key>" -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for problem in problems:
        for key, cfg in problem.configs(seed).items():
            name = f"{problem.name}.{key}"
            path = os.path.join(directory, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh, indent=1, sort_keys=True)
            paths[name] = path
    return paths
