"""Span tracer that wraps densctl's layer boundaries from the outside.

`Tracer.install()` replaces every public densctl function, and every
public method of a public densctl class, at each module namespace that
bound it (so `densctl.cli.solve_hjb_principal` and
`densctl.inverse.solve_hjb_principal` both record), plus the scipy entry
points densctl reaches through module attributes. `uninstall()` puts the
originals back. A layer is the densctl module that defines the function;
a scipy call belongs to the layer of the densctl span that made it.

Spans are kept in memory as (id, name, start, end, parent id, op id)
and written out by `write()`. Self time is a span's duration minus the
durations of its direct children.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import os
import pkgutil
import time
from collections import defaultdict

import numpy as np

SCIPY_ENTRY_POINTS = (
    ("scipy.linalg", "eigh", "eig"),
    ("scipy.linalg", "cho_factor", "factor"),
    ("scipy.sparse.linalg", "eigsh", "eig"),
    ("scipy.sparse.linalg", "splu", "factor"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []     # [span id, name id, child seconds]
        self._next = 0
        self.op = -1
        self.enabled = False
        self._patched: list[tuple] = []
        self.reset()

    # -- aggregation of one traced pass --------------------------------

    def reset(self) -> None:
        self.calls = defaultdict(int)        # name -> calls
        self.incl = defaultdict(float)       # name -> inclusive seconds
        self.own = defaultdict(float)        # name -> self seconds
        self.self_layer = defaultdict(float)  # layer -> self seconds
        self.scipy = defaultdict(float)      # (kind, parent layer) -> s
        self.counters = defaultdict(float)
        self.health = []                     # (ess, exited, excluded, n)

    def _name_id(self, name: str, layer: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return i

    def _wrap(self, func, name: str, layer: str, hook=None):
        nid = self._name_id(name, layer)
        clock = time.perf_counter
        tr = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tr.enabled:
                return func(*args, **kwargs)
            stack = tr._stack
            parent = stack[-1] if stack else None
            sid = tr._next
            tr._next += 1
            frame = [sid, nid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                tr.spans.append((sid, nid, t0, t1,
                                 parent[0] if parent else -1, tr.op))
                tr.calls[nid] += 1
                tr.incl[nid] += dur
                own = dur - frame[2]
                tr.own[nid] += own
                if layer == "scipy":
                    owner = tr.layers[parent[1]] if parent else "bench"
                    tr.scipy[(name, owner)] += dur
                    tr.self_layer[owner] += own
                else:
                    tr.self_layer[layer] += own
                if parent:
                    parent[2] += dur
            if hook is not None:
                hook(tr, args, kwargs, result)
            return result

        return traced

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        import densctl
        modules = [densctl] + [importlib.import_module(f"densctl.{m.name}")
                               for m in pkgutil.iter_modules(densctl.__path__)]
        wrapped: dict[int, object] = {}

        def wrapper_for(func, name, layer):
            if id(func) not in wrapped:
                wrapped[id(func)] = self._wrap(func, name, layer,
                                               HOOKS.get(name))
            return wrapped[id(func)]

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and \
                        value.__module__.startswith("densctl."):
                    layer = value.__module__.split(".")[-1]
                    self._patch(mod, attr, wrapper_for(
                        value, f"{layer}.{value.__name__}", layer))
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    layer = mod.__name__.split(".")[-1]
                    for m, f in list(vars(value).items()):
                        if not m.startswith("_") and inspect.isfunction(f):
                            self._patch(value, m, wrapper_for(
                                f, f"{layer}.{value.__name__}.{m}", layer))
        for modname, attr, kind in SCIPY_ENTRY_POINTS:
            mod = importlib.import_module(modname)
            func = getattr(mod, attr)
            self._patch(mod, attr, self._wrap(func, f"{kind}:{attr}", "scipy"))

    def _patch(self, owner, attr, new) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def incl_of(self, *names: str) -> float:
        return sum(self.incl[self._ids[n]] for n in names if n in self._ids)

    def self_of(self, *names: str) -> float:
        return sum(self.own[self._ids[n]] for n in names if n in self._ids)

    def calls_of(self, *names: str) -> int:
        return sum(self.calls[self._ids[n]] for n in names if n in self._ids)

    def scipy_of(self, kind: str, layer: str) -> float:
        return sum(v for (name, owner), v in self.scipy.items()
                   if name.startswith(kind + ":") and owner == layer)

    def write(self, path: str) -> None:
        """Spans as gzip CSV: id,name,start,end,parent,op."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,op\n")
            for sid, nid, t0, t1, parent, op in self.spans:
                fh.write(f"{sid},{self.names[nid]},{t0!r},{t1!r},{parent},{op}\n")


# ---------------------------------------------------------------------------
# counters read from arguments and results at the layer boundary

def _residual(tr, args, kwargs, result):
    r = result.diagnostics["eig_residual"] if hasattr(result, "diagnostics") \
        else float(np.max(result.residuals))
    tr.counters["spectral.residual_max"] = max(
        tr.counters["spectral.residual_max"], float(r))


def _nnz(tr, args, kwargs, result):
    tr.counters["operators.nnz"] += result.K.nnz


def _cn_steps(tr, args, kwargs, result):
    tr.counters["pde.cn_steps"] += result.n_steps


def _sde_batch(tr, args, kwargs, batch):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    tr.counters["sampling.path_steps"] += batch.n_paths * cfg.n_steps
    keep = ~batch.excluded
    n = int(keep.sum())
    cost = batch.cost_integral[keep]
    if n and np.ptp(cost) > 0.0:
        w = np.exp(-(cost - cost.min()))
        ess = float(w.sum() ** 2 / (w * w).sum())
    else:
        ess = float(n)
    tr.health.append((ess, int(batch.exited.sum()),
                      batch.n_excluded, batch.n_paths))


def _feedback(tr, args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    tr.counters["sampling.path_steps"] += result[-1].count * cfg.n_steps


def _csv_bytes(tr, args, kwargs, result):
    tr.counters["output.csv_bytes"] += os.path.getsize(args[0])


HOOKS = {
    "spectral.solve_hjb_principal": _residual,
    "spectral.eig_generator": _residual,
    "operators.assemble_generator": _nnz,
    "pde.evolve_perturbation": _cn_steps,
    "pde.evolve_fp": _cn_steps,
    "sampling.simulate_sde": _sde_batch,
    "sampling.simulate_density_feedback": _feedback,
    "output.write_csv": _csv_bytes,
}
