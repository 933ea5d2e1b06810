"""densctl benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload grid2d --seed 1 --seconds 55 --trace 0

Run from the root of a densctl source tree; the benchmark imports the
package from `src/`. It times set-up (a fresh interpreter importing
densctl and writing the workload's configs), then runs passes of the
workload's densctl commands in-process through `densctl.cli.main` until
`--seconds` have elapsed; the first pass is a warm-up and is not timed.
Every operation writes into its own output directory and is checked
against its problem's closed forms; sampling CSVs must hash identically
on every pass of one seed.

With `--trace 0` the last stdout line carries the end-to-end metrics of
untraced passes. With `--trace 1` untraced and traced passes alternate
after the warm-up, and the line carries per-layer metrics from the
traced ones, plus the tracing overhead. Details (provenance, per-command medians, high
percentiles and sample counts, accuracy figures, CSV hashes, the layer
self-time table, failures) go to `.bench_out/<run>/results.json`, and
the spans of traced passes to `spans.csv.gz` beside it.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from workloads import COMMANDS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
DENSCTL_THREADS = 1
# BLAS threads when the environment does not set them: one, so that the
# timings do not depend on a second core's share of a shared host
DEFAULT_BLAS_THREADS = "1"


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def check_threads() -> None:
    """Refuse BLAS or densctl thread counts above the usable CPUs."""
    n = nproc()
    for var in BLAS_ENV:
        raw = os.environ.get(var)
        if raw:
            try:
                value = int(raw.split(",")[0])
            except ValueError:
                fail(f"{var}={raw!r} is not an integer")
            if value > n:
                fail(f"{var}={value} exceeds the {n} usable CPUs")
    if DENSCTL_THREADS > n:
        fail(f"densctl threads {DENSCTL_THREADS} exceed {n} usable CPUs")
    for var in BLAS_ENV:
        os.environ.setdefault(var, DEFAULT_BLAS_THREADS)


# ---------------------------------------------------------------------------
# provenance

def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _l3_size() -> str | None:
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        if (_read(f"{base}/{entry}/level") or "").strip() == "3":
            return (_read(f"{base}/{entry}/size") or "").strip() or None
    return None


def _blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS the process has loaded."""
    out = {}
    libs = {line.split()[-1] for line in (_read("/proc/self/maps") or "")
            .splitlines() if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


def _git() -> dict:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return {"commit": None, "dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
    try:
        return {"commit": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = _blas_threads()
    n = nproc()
    if any(t > n for t in threads.values()):
        fail(f"BLAS runs {threads} threads on {n} usable CPUs")
    return {
        "nproc": n,
        "cpu_model": _cpu_model(),
        "l3_cache": _l3_size(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": threads,
                 "env": {v: os.environ.get(v) for v in BLAS_ENV}},
        "densctl_threads": DENSCTL_THREADS,
        "git": _git(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# set-up and operations

def time_setup(workload: str, seed: int, cfg_dir: str) -> float:
    """Seconds for a fresh interpreter to import densctl and write configs."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_child.py"), workload,
         str(seed), cfg_dir], cwd=ROOT, capture_output=True, text=True,
        timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        fail(f"set-up failed:\n{proc.stderr}")
    return elapsed


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Runner:
    def __init__(self, problems: tuple, cfg_paths: dict, out_dir: str,
                 tracer=None):
        import densctl.cli
        import gates
        self.cli = densctl.cli
        self.gates = gates
        self.cfg_paths = cfg_paths
        self.ops_dir = os.path.join(out_dir, "ops")
        self.refs = {p.name: gates.References(cfg_paths[f"{p.name}.fwd"])
                     for p in problems}
        self.tracer = tracer
        self.records: list[dict] = []
        self.hashes: dict[str, dict] = {}
        self.figures: dict[str, dict] = {}

    def op(self, pass_no: int, traced: bool, problem, cmd: str):
        op_id = len(self.records)
        label = f"{problem.name}.{cmd}"
        argv, key = COMMANDS[cmd]
        op_dir = os.path.join(self.ops_dir, f"{op_id:05d}-{label}")
        full = argv + ["--config", self.cfg_paths[f"{problem.name}.{key}"],
                       "--out", op_dir, "--quiet",
                       "--threads", str(DENSCTL_THREADS)]
        error = None
        gc.collect()    # start every operation from the same heap state
        if traced:
            self.tracer.op = op_id
            self.tracer.enabled = True
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(full)
        except Exception as e:  # noqa: BLE001 - an exception fails the op
            rc, error = None, f"{type(e).__name__}: {e}"
        wall = time.perf_counter() - t0
        if traced:
            self.tracer.enabled = False
        failures = [error] if error else []
        if rc not in (0, None):
            failures.append(f"exit code {rc}")
        if rc == 0:
            failures += self._check(problem, cmd, label, op_dir)
        shutil.rmtree(op_dir, ignore_errors=True)
        rec = {"op": op_id, "pass": pass_no, "traced": traced, "cmd": label,
               "wall_s": wall, "failures": failures}
        self.records.append(rec)
        for f in failures:
            print(f"perfbench: op {op_id} {label} FAILED: {f}", file=sys.stderr)
        return rec

    def _check(self, problem, cmd: str, label: str, op_dir: str) -> list[str]:
        try:
            d = self.gates.artifact_dir(op_dir)
            failures, figures = self.gates.CHECKS[cmd](
                problem, d, self.refs[problem.name])
        except Exception as e:  # noqa: BLE001 - a broken artifact fails the op
            return [f"check raised {type(e).__name__}: {e}"]
        self.figures[label] = figures
        if cmd.startswith("sample_"):
            hashes = {name: sha256_file(os.path.join(d, name))
                      for name in sorted(os.listdir(d)) if name.endswith(".csv")}
            first = self.hashes.setdefault(label, hashes)
            if hashes != first:
                failures.append(f"CSV bytes differ from the first pass: "
                                f"{hashes} vs {first}")
        return failures


# ---------------------------------------------------------------------------
# statistics and metrics

def summarize(values: list[float]) -> dict:
    """Median, the highest percentile with ten samples above it, count."""
    v = sorted(values)
    n = len(v)
    out = {"median": statistics.median(v), "n": n, "max": v[-1],
           "samples": values}
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        out[f"p{pct}"] = statistics.quantiles(v, n=100)[pct - 1]
    return out


def end_to_end(pass_walls: list[float], setup_times: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "pass_s": (statistics.median(pass_walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def sample_rate(problems: tuple, commands: dict) -> float | None:
    """Mpath-steps/s: path-steps the sample commands ask for over the sum
    of their median wall times."""
    steps = wall = 0.0
    for p in problems:
        for cmd in p.sampling:
            steps += p.path_steps(cmd)
            wall += commands[f"{p.name}.{cmd}"]["median"]
    return steps / wall / 1e6 if wall else None


LAYERS = ("cli", "config", "model", "expressions", "fields", "grid",
          "operators", "spectral", "pde", "sampling", "inverse", "output")


def layer_pass(tr, op_wall: float) -> dict:
    """Per-layer metrics of one traced pass."""
    calls, incl, own, scipy = tr.calls_of, tr.incl_of, tr.self_of, tr.scipy_of
    count = tr.counters
    engine = ("sampling.simulate_sde", "sampling.simulate_density_feedback")
    cn = ("pde.evolve_perturbation", "pde.evolve_fp")
    fields = tuple(f"model.ProblemSpec.{f}_field"
                   for f in ("phi", "q", "target", "diffusion"))
    sde_s = incl(*engine)
    n_all = sum(n for *_, n in tr.health)
    m = {
        "spectral.principal_calls": (calls("spectral.solve_hjb_principal"), "count"),
        "spectral.principal_s": (incl("spectral.solve_hjb_principal"), "s"),
        "spectral.modes_calls": (calls("spectral.eig_generator"), "count"),
        "spectral.modes_s": (incl("spectral.eig_generator"), "s"),
        "spectral.eig_s": (scipy("eig", "spectral"), "s"),
        "spectral.factor_s": (scipy("factor", "spectral"), "s"),
        "spectral.residual_max": (count["spectral.residual_max"], "norm"),
        "spectral.hjb_check_s": (incl("spectral.verify_hjb_residual"), "s"),
        "pde.cn_calls": (calls(*cn), "count"),
        "pde.cn_steps": (count["pde.cn_steps"], "count"),
        "pde.cn_s": (own(*cn), "s"),
        "pde.factor_s": (scipy("factor", "pde"), "s"),
        "pde.modal_s": (incl("pde.expand_in_eigenbasis", "pde.eigen_evolution",
                             "pde.fit_decay_rate"), "s"),
        "operators.assemble_calls": (calls("operators.assemble_generator"), "count"),
        "operators.assemble_s": (incl("operators.assemble_generator"), "s"),
        "operators.nnz": (count["operators.nnz"], "count"),
        "model.fields_s": (incl(*fields), "s"),
        "model.validate_s": (incl("model.validate_spec"), "s"),
        "expressions.evaluate_calls": (calls("expressions.evaluate"), "count"),
        "expressions.evaluate_s": (incl("expressions.evaluate"), "s"),
        "fields.interpolate_calls": (calls("fields.interpolate_values"), "count"),
        "fields.interpolate_s": (incl("fields.interpolate_values"), "s"),
        "sampling.sde_calls": (calls(*engine), "count"),
        "sampling.path_steps": (count["sampling.path_steps"], "count"),
        "sampling.sde_s": (sde_s, "s"),
        "sampling.engine_mps": (count["sampling.path_steps"] / sde_s / 1e6
                                if sde_s > 0 else 0.0, "Mpath-steps/s"),
        "sampling.estimator_s": (own("sampling.path_integral_desirability",
                                     "sampling.estimate_c_mc"), "s"),
        "sampling.histogram_s": (incl("sampling.histogram_density"), "s"),
        # weighted batches only; a batch without a cost has ESS = n
        "sampling.ess_fraction": (min((ess / (n - exc) for ess, _, exc, n
                                       in tr.health if n > exc), default=1.0),
                                  "ratio"),
        "sampling.exited_fraction": (sum(h[1] for h in tr.health) / n_all
                                     if n_all else 0.0, "ratio"),
        "sampling.excluded_fraction": (sum(h[2] for h in tr.health) / n_all
                                       if n_all else 0.0, "ratio"),
        "inverse.calls": (calls("inverse.roundtrip_verify",
                                "inverse.solve_inverse"), "count"),
        "inverse.design_s": (tr.self_layer["inverse"], "s"),
        "output.csv_s": (incl("output.write_csv"), "s"),
        "output.csv_bytes": (count["output.csv_bytes"], "bytes"),
        "output.json_s": (incl("output.write_json"), "s"),
        "config.load_s": (incl("config.load_config"), "s"),
    }
    for layer in LAYERS:
        if layer != "inverse":      # inverse.design_s is its self time
            m[f"{layer}.self_s"] = (tr.self_layer[layer], "s")
    m["trace.coverage"] = (sum(tr.self_layer.values()) / op_wall, "ratio")
    return m


def _finite(v) -> float | None:
    """A metric a failed operation left undefined is reported as null."""
    v = float(v)
    return v if math.isfinite(v) else None


def median_metrics(per_pass: list[dict]) -> dict:
    return {k: (statistics.median(p[k][0] for p in per_pass), unit)
            for k, (_, unit) in per_pass[0].items()}


# ---------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(SRC, "densctl")):
        fail(f"no densctl sources under {SRC}; run from a densctl checkout")
    check_threads()
    for var in [v for v in os.environ if v.startswith("DENSCTL_")]:
        del os.environ[var]
    sys.path.insert(0, SRC)
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if not 0 <= args.seed < 2**64 - 2:
        fail("seed must lie in [0, 2^64 - 3]")
    problems = WORKLOADS[args.workload]
    ops = [(p, cmd) for p in problems for cmd in p.commands]

    out_dir = os.path.join(ROOT, ".bench_out",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    cfg_dir = os.path.join(out_dir, "configs")
    spare_cfg_dir = os.path.join(out_dir, "configs-repeat")
    setup_times = [time_setup(args.workload, args.seed, cfg_dir)]
    cfg_paths = {os.path.splitext(f)[0]: os.path.join(cfg_dir, f)
                 for f in os.listdir(cfg_dir)}

    prov = provenance(args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    runner = Runner(problems, cfg_paths, out_dir, tracer)

    # the warm-up pass is gated but not timed, and the deadline counts
    # from its end
    for p, cmd in ops:
        runner.op(0, False, p, cmd)
    deadline = time.perf_counter() + args.seconds
    pass_walls = {False: [], True: []}
    layer_passes = []
    layer_self = []

    def finished() -> bool:
        # at least one whole untraced pass, and one traced when tracing
        return time.perf_counter() >= deadline and bool(pass_walls[False]) and \
            (not args.trace or bool(pass_walls[True]))

    pass_no = 1
    while not finished():
        traced = bool(args.trace) and pass_no % 2 == 0
        if traced:
            tracer.reset()
        recs = []
        for p, cmd in ops:
            recs.append(runner.op(pass_no, traced, p, cmd))
            if finished():
                break
        if len(recs) == len(ops):
            wall = sum(r["wall_s"] for r in recs)
            pass_walls[traced].append(wall)
            if traced:
                layer_passes.append(layer_pass(tracer, wall))
                layer_self.append(dict(tracer.self_layer))
        # the remaining set-up repeats are spread over the run, so their
        # median sees the same machine as the commands
        if len(setup_times) < SETUP_REPEATS:
            setup_times.append(time_setup(args.workload, args.seed,
                                          spare_cfg_dir))
        pass_no += 1
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(time_setup(args.workload, args.seed, spare_cfg_dir))
    if tracer is not None:
        tracer.uninstall()

    records = runner.records
    failed = sum(1 for r in records if r["failures"])
    if args.trace:
        metrics = median_metrics(layer_passes)
        plain = statistics.median(pass_walls[False])
        with_trace = statistics.median(pass_walls[True])
        metrics["trace.overhead_s"] = (with_trace - plain, "s")
        metrics["trace.overhead_frac"] = (with_trace / plain - 1.0, "ratio")
        tracer.write(os.path.join(out_dir, "spans.csv.gz"))
    else:
        metrics = end_to_end(pass_walls[False], setup_times)

    timed = [r for r in records if r["pass"] > 0 and not r["traced"]]
    commands = {label: summarize([r["wall_s"] for r in timed
                                  if r["cmd"] == label])
                for label in dict.fromkeys(f"{p.name}.{cmd}" for p, cmd in ops)}
    results = {
        "workload": args.workload,
        "problems": [p.name for p in problems],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": prov,
        "setup_s": summarize(setup_times),
        "commands": commands,
        "pass_s": {str(k).lower(): summarize(v)
                   for k, v in pass_walls.items() if v},
        "sample_mps": sample_rate(problems, commands),
        "accuracy": runner.figures,
        "sampling_csv_sha256": runner.hashes,
        "layer_self_s": {layer: statistics.median(p.get(layer, 0.0)
                                                  for p in layer_self)
                         for layer in LAYERS} if args.trace else None,
        "failures": [r for r in records if r["failures"]],
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(out_dir, "results.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True, default=float)
    shutil.rmtree(runner.ops_dir, ignore_errors=True)

    line = {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": {k: {"value": _finite(v), "unit": u}
                        for k, (v, u) in metrics.items()}}
    print(json.dumps(line, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
