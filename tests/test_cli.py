"""Command line behavior: exit codes, outputs, determinism, precedence.

Commands run in process through main(argv) for speed; one subprocess
test covers the console script wiring.
"""

import argparse
import contextlib
import io
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from densctl import (
    FieldError,
    SdeConfig,
    load_config,
    path_integral_desirabilities,
    solve_inverse,
)
from densctl.cli import _build_parser, _drift_input, _Run, main
from densctl.output import format_float

FORWARD = {
    "grid": {"lows": [-6.0], "highs": [6.0], "counts": [201]},
    "dynamics": {"phi": "x1^2", "sigma": [["sqrt(2)"]]},
    "cost": {"q": "6*x1^2"},
    "solver": {"k": 6},
    "sampling": {"dt": 0.001, "T": 1.0, "n_paths": 400, "seed": 42},
}

INVERSE = {
    "grid": {"lows": [-6.0], "highs": [6.0], "counts": [201]},
    "dynamics": {"phi": "x1^2", "sigma": [["sqrt(2)"]]},
    "target": {"p_inf": "exp(-2*x1^2)"},
    "sampling": {"dt": 0.01, "T": 1.0, "n_paths": 400, "seed": 1},
}

SIGMA2D_INVERSE = {
    "grid": {"lows": [-3.5, -3.5], "highs": [3.5, 3.5], "counts": [25, 25]},
    "dynamics": {"phi": "(x1^2 + x2^2)/2",
                 "Sigma": [["1 + x1^2/4", "0.5"], ["0.5", "1 + x2^2/4"]]},
    "target": {"p_inf": "exp(-(x1^2 + x2^2))"},
}


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(args, tmp_path, config=FORWARD, out="out"):
    cfg = write_config(tmp_path, config)
    argv = args + ["--config", cfg, "--out", str(tmp_path / out), "--quiet"]
    return main(argv), tmp_path / out


def only_dir(base, prefix):
    hits = [d for d in base.iterdir() if d.name.startswith(prefix)]
    assert len(hits) == 1, f"expected one {prefix}* dir, found {hits}"
    return hits[0]


class TestExitCodes:
    def test_check_ok(self, tmp_path):
        code, out = run(["check"], tmp_path)
        assert code == 0
        payload = json.loads((only_dir(out, "check") / "check.json").read_text())
        assert payload["passed"] is True

    def test_check_fails_on_indefinite_diffusion(self, tmp_path):
        bad = dict(FORWARD, dynamics={"phi": "x1^2", "Sigma": [["-1.0"]]})
        code, out = run(["check"], tmp_path, config=bad)
        assert code == 1
        payload = json.loads((only_dir(out, "check") / "check.json").read_text())
        assert payload["passed"] is False

    def test_check_fails_on_unbounded_cost(self, tmp_path):
        bad = dict(FORWARD, cost={"q": "-x1^2"})
        assert run(["check"], tmp_path, config=bad)[0] == 1

    def test_check_fails_on_flat_potential(self, tmp_path):
        bad = dict(FORWARD, dynamics={"phi": "1", "sigma": [["sqrt(2)"]]})
        assert run(["check"], tmp_path, config=bad)[0] == 1

    def test_check_warns_on_a_cost_pole_between_nodes(self, tmp_path):
        pole = dict(FORWARD, grid={"lows": [-1.5], "highs": [1.5],
                                   "counts": [10]}, cost={"q": "1/x1"})
        code, out = run(["check"], tmp_path, config=pole)
        assert code == 0
        payload = json.loads((only_dir(out, "check") / "check.json").read_text())
        assert "cost-between-nodes" in {
            f["name"] for f in payload["findings"] if f["status"] == "WARN"}

    @pytest.mark.parametrize("sampling, warned", [
        ({"x0": [0.1]}, "1 of 6 sampler start points, first at (0.1)"),
        ({"x0": [0.5], "queries": [[0.5], [0.1]]},
         "1 of 3 sampler start points, first at (0.1)"),
        ({"x0": [0.5]}, None),
    ], ids=["x0", "query", "neither"])
    def test_check_warns_on_a_cost_pole_at_a_start_point(self, tmp_path,
                                                         sampling, warned):
        # the pole at 0.1 is neither a node nor a cell centre, so only
        # the start points can show it
        pole = dict(FORWARD, grid={"lows": [-1.5], "highs": [1.5],
                                   "counts": [10]}, cost={"q": "1/(x1-0.1)"},
                    sampling={**FORWARD["sampling"], **sampling})
        code, out = run(["check"], tmp_path, config=pole)
        assert code == 0
        payload = json.loads((only_dir(out, "check") / "check.json").read_text())
        warns = {f["name"]: f["detail"] for f in payload["findings"]
                 if f["status"] == "WARN"}
        assert "cost-between-nodes" not in warns
        if warned is None:
            assert "cost-at-start" not in warns
        else:
            assert warned in warns["cost-at-start"]

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["check", "--config", str(path), "--quiet"]) == 2

    def test_missing_config(self, tmp_path):
        assert main(["check", "--config", str(tmp_path / "nope.json"),
                     "--quiet"]) == 2

    def test_unknown_section_and_key(self, tmp_path, capsys):
        bad = dict(FORWARD, extra={"a": 1})
        assert run(["check"], tmp_path, config=bad)[0] == 2
        assert "extra" in capsys.readouterr().err

        bad2 = dict(FORWARD)
        bad2["solver"] = {"k": 6, "mystery": 1}
        assert run(["check"], tmp_path, config=bad2)[0] == 2

    def test_chunk_paths_key_is_unknown(self, tmp_path, capsys):
        bad = dict(FORWARD, sampling=dict(FORWARD["sampling"], chunk_paths=64))
        assert run(["check"], tmp_path, config=bad)[0] == 2
        assert "chunk_paths" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("solver", "controlled", True), ("sampling", "threads", 2)])
    def test_removed_keys_are_unknown(self, tmp_path, capsys, section, key,
                                      value):
        # neither key reached any computation; --controlled and --threads
        # stay on the command line
        bad = dict(FORWARD, **{section: dict(FORWARD[section], **{key: value})})
        assert run(["spectrum"], tmp_path, config=bad)[0] == 2
        err = capsys.readouterr().err
        assert f"unknown key(s) in [{section}]: ['{key}']" in err

    def test_threads_is_ignored_and_not_in_the_manifest(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setenv("DENSCTL_THREADS", "0")
        code, out = run(["check", "--threads", "0"], tmp_path)
        assert code == 0
        m = json.loads((only_dir(out, "check") / "manifest.json").read_text())
        assert "threads" not in m

    @pytest.mark.parametrize("mode", ["steady-control", "density-feedback"])
    def test_removed_mode_spellings(self, tmp_path, capsys, mode):
        bad = {**FORWARD, "sampling": {**FORWARD["sampling"], "mode": mode}}
        assert run(["sample", "paths"], tmp_path, config=bad)[0] == 2
        assert ("[sampling] mode must be one of "
                "('uncontrolled', 'steady', 'feedback')") in \
            capsys.readouterr().err

    def test_mode_mismatch(self, tmp_path):
        assert run(["solve"], tmp_path, config=INVERSE)[0] == 2
        assert run(["inverse"], tmp_path, config=FORWARD)[0] == 2

    def test_k_out_of_range(self, tmp_path):
        cfg = write_config(tmp_path, FORWARD)
        code = main(["spectrum", "--config", cfg, "--k", "9999",
                     "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 2

    def test_bad_perturb_expression(self, tmp_path):
        cfg = write_config(tmp_path, FORWARD)
        code = main(["evolve", "--config", cfg, "--perturb", "bad(",
                     "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 2

    @pytest.mark.parametrize("command,key,value", [
        ("paths", "x0", [10.0]),
        ("cost", "x0", [-6.5]),
        ("desirability", "queries", [[0.0], [50.0]]),
    ])
    def test_sampling_points_outside_the_box(self, tmp_path, capsys,
                                             command, key, value):
        bad = {**FORWARD, "sampling": {**FORWARD["sampling"], key: value}}
        code, _ = run(["sample", command], tmp_path, config=bad)
        assert code == 2
        assert "outside the grid box" in capsys.readouterr().err

    def test_x0_on_a_face_is_legal(self, tmp_path):
        on_face = {**FORWARD, "sampling": {**FORWARD["sampling"],
                                           "x0": [6.0], "T": 0.01}}
        code, _ = run(["sample", "paths"], tmp_path, config=on_face)
        assert code == 0

    def test_arpack_failure_is_a_densctl_error(self, tmp_path, monkeypatch,
                                                capsys):
        def gives_up(*args, **kwargs):
            raise spla.ArpackNoConvergence(
                "ARPACK error -1: No convergence (811 iterations, 0/1 "
                "eigenvectors converged)", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(spla, "eigsh", gives_up)
        code, _ = run(["solve"], tmp_path)
        assert code == 1
        assert "811 iterations" in capsys.readouterr().err


class TestRangeErrors:
    """Values out of range are configuration errors, exit 2, refused
    before any computation."""

    @pytest.mark.parametrize("section, key, value", [
        ("sampling", "dt", -1), ("sampling", "T", 0),
        ("sampling", "T", 1e-4), ("sampling", "seed", 2**64),
        ("sampling", "seed", 2**64 - 2), ("solver", "dt", -0.1),
        ("solver", "T", -1)])
    def test_config_value_out_of_range(self, tmp_path, capsys, section, key,
                                       value):
        bad = {**FORWARD, section: {**FORWARD[section], key: value}}
        assert run(["sample", "paths"], tmp_path, config=bad)[0] == 2
        assert f"[{section}] {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_standard_json_constants(self, tmp_path, capsys, constant):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(FORWARD).replace('"dt": 0.001',
                                                    f'"dt": {constant}'))
        assert main(["check", "--config", str(path), "--quiet"]) == 2
        assert f"{constant} is not a JSON number" in capsys.readouterr().err

    def test_number_that_overflows_to_infinity(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(FORWARD).replace('"dt": 0.001',
                                                    '"dt": 1e999'))
        assert main(["check", "--config", str(path), "--quiet"]) == 2
        assert "[sampling] dt must be a finite number" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("args", [["--seed", "-1"],
                                      ["--seed", str(2**64 - 2)]])
    def test_seed_flag_out_of_range(self, tmp_path, capsys, args):
        assert run(["sample", "paths"] + args, tmp_path)[0] == 2
        assert "--seed must be an integer" in capsys.readouterr().err

    def test_seed_env_out_of_range(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DENSCTL_SEED", str(2**64 - 1))
        assert run(["sample", "paths"], tmp_path)[0] == 2
        assert "DENSCTL_SEED must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["solve"], ["spectrum"]])
    def test_k_below_one(self, tmp_path, capsys, command):
        assert run(command + ["--k", "0"], tmp_path)[0] == 2
        assert "--k must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["solve", "spectrum", "evolve"])
    def test_k_above_the_grid_size(self, tmp_path, capsys, command, source):
        # every command refuses it alike, before writing anything
        if source == "flag":
            code, out = run([command, "--k", "202"], tmp_path)
        else:
            big = {**FORWARD, "solver": {"k": 202}}
            code, out = run([command], tmp_path, config=big)
        assert code == 2
        assert "k = 202 outside the valid range 1..201" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("queries", [[0.1], [0.1, 0.2]]), ("x0", [0.1, 0.2])])
    def test_sampling_point_of_the_wrong_dimension(self, tmp_path, capsys,
                                                   key, value):
        # refused at parse time, by every command
        bad = {**FORWARD, "sampling": {**FORWARD["sampling"], key: value}}
        assert run(["check"], tmp_path, config=bad)[0] == 2
        assert (f"[sampling] {key} point [0.1, 0.2] has dimension 2, "
                "the grid 1") in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["--dt", "-0.1"], "--dt must be finite and positive, got -0.1"),
        (["--T", "-1"], "--T must be finite and positive, got -1.0"),
        (["--dt", "nan"], "--dt must be finite and positive, got nan"),
        (["--mode", "-1"], "--mode must lie between 1 and 200, got -1"),
    ])
    def test_evolve_flag_out_of_range(self, tmp_path, capsys, args, message):
        assert run(["evolve"] + args, tmp_path)[0] == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("solver, args", [
        ({"dt": 5, "T": 1}, []), ({}, ["--dt", "5", "--T", "1"]),
        ({"dt": 5}, ["--T", "1"]), ({"dt": 0.1, "T": 1}, ["--dt", "5"]),
    ], ids=["config", "flags", "flag-T", "flag-dt"])
    def test_evolve_horizon_below_its_step(self, tmp_path, capsys, solver,
                                           args):
        # refused before the eigensolve, as [sampling] refuses it
        config = {**FORWARD, "solver": {**FORWARD["solver"], **solver}}
        code, out = run(["evolve"] + args, tmp_path, config=config)
        assert code == 2
        where = "[solver]" if not args else "evolve horizon"
        assert f"{where} T = 1 is below one step dt = 5" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["--dt", "5"], "T = 1.25134 is below one step dt = 5"),
        (["--T", "0.001"], "T = 0.001 is below one step dt = 0.0250268"),
    ], ids=["flag-dt", "flag-T"])
    def test_evolve_horizon_below_its_defaulted_step(self, tmp_path, capsys,
                                                     args, message):
        # the other one defaults from the spectral gap, so the pair is
        # refused after the eigensolve, still as a usage error
        code, out = run(["evolve"] + args, tmp_path)
        assert code == 2
        assert f"evolve horizon {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [3, ["k"], "abc"])
    @pytest.mark.parametrize("section", ["grid", "dynamics", "cost", "target",
                                         "solver", "sampling", "output"])
    def test_section_that_is_not_an_object(self, tmp_path, capsys, section,
                                           value):
        config = {**(INVERSE if section == "target" else FORWARD),
                  section: value}
        assert run(["check"], tmp_path, config=config)[0] == 2
        assert (f"[{section}] must be a JSON object, got {json.dumps(value)}"
                in capsys.readouterr().err)

    def test_perturb_beyond_the_grid_dimension(self, tmp_path, capsys):
        assert run(["evolve", "--perturb", "x2"], tmp_path)[0] == 2
        assert "--perturb uses x2" in capsys.readouterr().err

    def test_infinite_diffusion_fails_check(self, tmp_path, capsys):
        bad = dict(FORWARD, dynamics={"phi": "x1^2", "Sigma": [["1/x1^2"]]})
        assert run(["check"], tmp_path, config=bad)[0] == 1
        payload = json.loads(
            (only_dir(tmp_path / "out", "check") / "check.json").read_text())
        fails = [f for f in payload["findings"] if f["status"] == "FAIL"]
        assert [f["name"] for f in fails] == ["diffusion"]
        assert "nonfinite at node 100" in fails[0]["detail"]

    @pytest.mark.parametrize("config, section, key, name", [
        (FORWARD, "dynamics", "phi", "phi"),
        (FORWARD, "cost", "q", "q"),
        (INVERSE, "target", "p_inf", "target"),
    ], ids=["phi", "q", "target"])
    def test_nonfinite_field_fails_check(self, tmp_path, config, section, key,
                                         name):
        # 1/x1 is infinite at the node x = 0
        bad = {**config, section: {**config[section], key: "1/x1"}}
        assert run(["check"], tmp_path, config=bad)[0] == 1
        payload = json.loads(
            (only_dir(tmp_path / "out", "check") / "check.json").read_text())
        fails = [f for f in payload["findings"] if f["status"] == "FAIL"]
        assert [f["name"] for f in fails] == [name]
        assert f"{name} is nonfinite at node 100" in fails[0]["detail"]


# Sigma = -1 fails the diffusion-spd gate in either mode
FAILING = {**FORWARD, "dynamics": {"phi": "x1^2", "Sigma": [["-1.0"]]}}
FAILING_INVERSE = {**INVERSE, "dynamics": FAILING["dynamics"]}


def _with_sampling(config, **kw):
    return {**config, "sampling": {**config["sampling"], **kw}}


def _run_capturing(args, tmp_path, config, out="out"):
    """run(), with the exit code, stderr and the FieldErrors raised."""
    err = io.StringIO()
    raised = []
    init = FieldError.__init__

    def record(self, *a):
        raised.append(a)
        init(self, *a)

    with pytest.MonkeyPatch.context() as m, contextlib.redirect_stderr(err):
        m.setattr(FieldError, "__init__", record)
        code, out_dir = run(args, tmp_path, config=config, out=out)
    return code, err.getvalue(), raised, out_dir


# the ingredients of a random spec: each list pairs ones that pass the
# gates with ones that mostly fail them (1/x1 passes where no node is 0)
_PHI = (["x1^2", "(x1^2 - 1)^2"], ["1", "-x1^2", "1/x1", "log(x1)"])
_Q = (["x1^2", "0", "(x1^2 - 1)^2"], ["-x1^2", "1/x1", "log(x1)"])
_SIGMA = {
    1: ([[["1"]], [["1 + x1^2"]]],
        [[["-1"]], [["x1"]], [["1/x1"]], [["log(x1)"]]]),
    2: ([[["2", "1"], ["1", "2"]],
         [["1 + x1^2/4", "0.5"], ["0.5", "1 + x2^2/4"]]],
        [[["1", "2"], ["2", "1"]], [["1", "x1"], ["x1", "1"]],
         [["1/x1", "0"], ["0", "1"]], [["log(x1)", "0"], ["0", "1"]]]),
}


@st.composite
def _small_forward_configs(draw):
    """1D or 2D forward configs of at most 17 nodes per axis, half of
    them with one ingredient drawn from its failing list. Odd counts put
    a node at 0, where 1/x1 is infinite; below 9 nodes an axis has too
    few shells for the confinement gate."""
    dim = draw(st.integers(1, 2))
    broken = draw(st.none() | st.sampled_from(["phi", "q", "Sigma"]))

    def pick(name, lists):
        return draw(st.sampled_from(lists[name == broken]))

    half = draw(st.sampled_from([1.5, 2.0, 3.0]))
    x2 = " + x2^2" if dim == 2 else ""
    return {
        "grid": {"lows": [-half] * dim, "highs": [half] * dim,
                 "counts": draw(st.lists(st.integers(7, 17), min_size=dim,
                                         max_size=dim))},
        "dynamics": {"phi": pick("phi", _PHI) + x2,
                     "Sigma": pick("Sigma", _SIGMA[dim])},
        "cost": {"q": pick("q", _Q) + x2},
        "sampling": {"dt": 0.01, "T": 0.05, "n_paths": 8},
    }


class TestOneGate:
    """Every command but `check` runs the gates that `check` reports,
    after every usage check and before any work. main returning at all
    means no traceback."""

    @pytest.mark.parametrize("args, config", [
        (["solve"], FAILING), (["spectrum"], FAILING),
        (["spectrum", "--controlled"], FAILING), (["evolve"], FAILING),
        (["sample", "paths"], FAILING), (["sample", "desirability"], FAILING),
        (["sample", "cost"], FAILING), (["sample", "feedback"], FAILING),
        (["inverse"], FAILING_INVERSE), (["spectrum"], FAILING_INVERSE),
        (["evolve"], FAILING_INVERSE), (["sample", "paths"], FAILING_INVERSE),
        (["sample", "feedback"], FAILING_INVERSE),
    ], ids=["solve", "spectrum", "spectrum-controlled", "evolve", "paths",
            "desirability", "cost", "feedback", "inverse", "inverse-spectrum",
            "inverse-evolve", "inverse-paths", "inverse-feedback"])
    def test_failing_spec_is_refused(self, tmp_path, capsys, args, config):
        code, out = run(args, tmp_path, config=config)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: constraint checks failed:\n")
        assert "FAIL diffusion-spd" in err
        assert not out.exists()

    @pytest.mark.parametrize("args, config, message", [
        (["solve"], FAILING_INVERSE, "needs a forward-mode config"),
        (["inverse"], FAILING, "needs an inverse-mode config"),
        (["sample", "paths"], _with_sampling(FAILING, x0=[10.0]),
         "outside the grid box"),
        (["sample", "desirability"],
         _with_sampling(FAILING, queries=[[0.0], [50.0]]),
         "outside the grid box"),
        (["evolve", "--perturb", "bad("], FAILING, "--perturb does not parse"),
    ], ids=["mode-forward", "mode-inverse", "x0", "queries", "perturb"])
    def test_usage_error_comes_before_the_gate(self, tmp_path, capsys, args,
                                               config, message):
        code, out = run(args, tmp_path, config=config)
        assert code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "constraint checks failed" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @given(config=_small_forward_configs())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_check_decides_the_gate(self, tmp_path_factory, config):
        tmp = tmp_path_factory.mktemp("gate")
        checked, _, _, _ = _run_capturing(["check"], tmp, config, "check")
        assert checked in (0, 1)
        for args in (["solve", "--k", "2"], ["sample", "paths"]):
            code, err, raised, _ = _run_capturing(args, tmp, config)
            refused = "constraint checks failed" in err
            if checked == 1:
                assert code == 1 and refused, (args, err)
            else:
                assert not refused and not raised, (args, err, raised)

    def test_inverse_phi_is_gated(self, tmp_path, capsys):
        # phi reaches inverse design and the steady control, so the gate
        # evaluates it in inverse mode as well; sample feedback reads no
        # phi and is refused all the same, since check is the gate
        config = {
            "grid": {"lows": [-2.0], "highs": [2.0], "counts": [41]},
            "dynamics": {"phi": "1/x1", "sigma": [["sqrt(2)"]]},
            "target": {"p_inf": "exp(-x1^2)"},
            "sampling": {"dt": 0.01, "T": 0.1, "n_paths": 8},
        }
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["check", "--config", cfg, "--out", str(out)]) == 1
        line = "FAIL phi: evaluation failed: phi is nonfinite at node 20, " \
            "x = [0.0]"
        assert line in capsys.readouterr().out.splitlines()
        assert (only_dir(out, "check") / "check.json").exists()
        for args, cfg_path in (
                (["inverse"], cfg),
                (["sample", "paths"],
                 write_config(tmp_path, _with_sampling(config, mode="steady"),
                              "steady.json")),
                (["sample", "feedback"], cfg)):
            assert main(args + ["--config", cfg_path, "--out", str(out),
                                "--quiet"]) == 1
            assert line in capsys.readouterr().err


# a small 1D problem of each mode, quick enough to run every command on
SMALL_FORWARD = {
    "grid": {"lows": [-3.0], "highs": [3.0], "counts": [41]},
    "dynamics": {"phi": "x1^2", "sigma": [["sqrt(2)"]]},
    "cost": {"q": "6*x1^2"},
    "sampling": {"dt": 0.01, "T": 0.1, "n_paths": 16, "seed": 3},
}
SMALL_INVERSE = {**{k: v for k, v in SMALL_FORWARD.items() if k != "cost"},
                 "target": {"p_inf": "exp(-2*x1^2)"}}

NEEDS_FORWARD = ("error: this command needs a forward-mode config with a "
                 "[cost] section; this one has a [target]")
NEEDS_INVERSE = ("error: this command needs an inverse-mode config with a "
                 "[target] section; this one has a [cost]")


class TestCommandSurface:
    """The commands, their options and the config mode each one needs,
    pinned as the command line presents them."""

    # each command: None where it runs (exit 0), else the first stderr
    # line of its usage error (exit 2), on a forward and an inverse config
    MATRIX = [
        (["check"], None, None),
        (["solve"], None, NEEDS_FORWARD),
        (["spectrum"], None, None),
        (["spectrum", "--controlled"], None, NEEDS_FORWARD),
        (["evolve"], None, None),
        (["inverse"], NEEDS_INVERSE, None),
        (["sample", "paths"], None, None),
        (["sample", "desirability"], None, NEEDS_FORWARD),
        (["sample", "cost"], None, NEEDS_FORWARD),
        (["sample", "feedback"], None, None),
    ]

    @pytest.mark.filterwarnings("ignore:target density mass")
    @pytest.mark.parametrize("args, forward, inverse", MATRIX,
                             ids=[" ".join(row[0]) for row in MATRIX])
    def test_exit_code_of_every_command_on_either_mode(
            self, tmp_path, capsys, args, forward, inverse):
        for name, config, refusal in (("fwd", SMALL_FORWARD, forward),
                                      ("inv", SMALL_INVERSE, inverse)):
            code, _ = run(args, tmp_path, config=config, out=name)
            first = (capsys.readouterr().err.splitlines() or [None])[0]
            if refusal is None:
                assert code == 0, (name, first)
            else:
                assert (code, first) == (2, refusal), name

    @staticmethod
    def _options(parser):
        """{option strings, or the dest of a positional: choices}."""
        return {tuple(a.option_strings) or a.dest:
                list(a.choices) if a.choices is not None else None
                for a in parser._actions}

    def test_options_and_choices(self):
        common = {("-h", "--help"): None, ("--config",): None,
                  ("--out",): None, ("--seed",): None, ("--threads",): None,
                  ("--k",): None, ("--quiet",): None}
        commands = ["check", "solve", "spectrum", "evolve", "sample",
                    "inverse"]
        parser = _build_parser()
        assert self._options(parser) == {**common, "command": commands}
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        extra = {
            "spectrum": {("--controlled",): None},
            "evolve": {("--perturb",): None, ("--mode",): None,
                       ("--dt",): None, ("--T",): None},
            "sample": {"kind": ["paths", "desirability", "cost",
                                "feedback"]},
        }
        for name in commands:
            assert self._options(sub.choices[name]) == \
                {**common, **extra.get(name, {})}, name
        groups = [[a.option_strings for a in g._group_actions]
                  for g in sub.choices["evolve"]._mutually_exclusive_groups]
        assert groups == [[["--perturb"], ["--mode"]]]


class TestSolveOutputs:
    def test_solution_and_summary(self, tmp_path):
        code, out = run(["solve"], tmp_path)
        assert code == 0
        d = only_dir(out, "solve")
        summary = json.loads((d / "summary.json").read_text())
        assert abs(summary["c"] - 2.0) <= 1e-2
        assert summary["controlled_gap"] > 3.5
        assert summary["hjb_residual_sup"] < 1.0
        header = (d / "solution.csv").read_text().splitlines()[0]
        assert header.split(",")[0] == "x1"
        for col in ("Psi", "v", "p", "u1"):
            assert col in header
        # a 1D grid is tridiagonal
        assert summary["diagnostics"]["path"] == (
            "shift-invert+polish through one band Cholesky "
            "(half-bandwidth 1) of (shift I - M)")

    def test_manifest_fields(self, tmp_path):
        _, out = run(["solve"], tmp_path)
        d = only_dir(out, "solve")
        m = json.loads((d / "manifest.json").read_text())
        assert m["command"] == "solve"
        assert m["seed"] == 42
        assert set(m["outputs"]) == {"solution.csv", "summary.json"}
        assert m["version"]


class TestSpectrumOutputs:
    def test_eigenvalues_csv(self, tmp_path):
        code, out = run(["spectrum", "--controlled"], tmp_path)
        assert code == 0
        d = only_dir(out, "spectrum")
        rows = (d / "eigenvalues.csv").read_text().splitlines()
        vals = [float(r.split(",")[1]) for r in rows[1:]]
        expect = [0.0, -4.0, -8.0, -12.0]
        for got, ref in zip(vals, expect):
            assert abs(got - ref) <= 0.04 * max(1.0, abs(ref))
        summary = json.loads((d / "summary.json").read_text())
        assert summary["spectral_gap"] > 3.5


class TestEvolveOutputs:
    def test_decay_trajectory(self, tmp_path):
        cfg = write_config(tmp_path, FORWARD)
        code = main(["evolve", "--config", cfg, "--T", "2.0",
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 0
        d = only_dir(tmp_path / "out", "evolve")
        summary = json.loads((d / "summary.json").read_text())
        assert abs(abs(summary["fitted_rate"]) - 4.0) <= 0.2
        assert summary["eigen_comparison_error"] <= 1e-3
        assert (d / "trajectory.csv").exists()
        assert (d / "densities.csv").exists()


class TestFactorCounts:
    """Each forward solve factors (shift I - M) once, and that factor
    serves the eigensolve, the polish and the controlled spectrum."""

    @pytest.fixture
    def factors(self, monkeypatch):
        import importlib
        import pkgutil

        import densctl
        from densctl import spectral

        shifted_cholesky = spectral._shifted_cholesky
        shifts = []

        def counted(A, shift):
            shifts.append(shift)
            return shifted_cholesky(A, shift)

        for m in pkgutil.iter_modules(densctl.__path__):
            mod = importlib.import_module(f"densctl.{m.name}")
            if getattr(mod, "_shifted_cholesky", None) is shifted_cholesky:
                monkeypatch.setattr(mod, "_shifted_cholesky", counted)
        return shifts

    @pytest.mark.filterwarnings("ignore:target density mass")
    @pytest.mark.parametrize("args, config, count", [
        (["solve"], FORWARD, 1),
        (["spectrum", "--controlled"], FORWARD, 1),
        (["inverse"], INVERSE, 1),
        (["evolve", "--T", "0.5"], FORWARD, 2),    # eigensolve and CN
    ])
    def test_factor_count(self, tmp_path, factors, args, config, count):
        assert run(args, tmp_path, config=config)[0] == 0
        assert len(factors) == count


class TestFieldEvaluations:
    """The spec evaluates each of its fields once and keeps it, so a
    command evaluates each field at most once, for the gates and every
    solve together."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        from densctl.model import ProblemSpec

        counts = {}
        evaluate = ProblemSpec._evaluate

        def counted(spec, name):
            counts[name] = counts.get(name, 0) + 1
            return evaluate(spec, name)

        monkeypatch.setattr(ProblemSpec, "_evaluate", counted)
        return counts

    @pytest.mark.filterwarnings("ignore:target density mass")
    @pytest.mark.parametrize("args, config, expected", [
        (["solve"], FORWARD, {"diffusion": 1, "phi": 1, "q": 1}),
        (["inverse"], INVERSE, {"diffusion": 1, "phi": 1, "target": 1}),
        # reads no phi, but the gate evaluates it: `check` is the gate
        (["sample", "feedback"], INVERSE,
         {"diffusion": 1, "phi": 1, "target": 1}),
    ])
    def test_each_field_evaluated_once(self, tmp_path, evaluations, args,
                                       config, expected):
        assert run(args, tmp_path, config=config)[0] == 0
        assert evaluations == expected

    @pytest.mark.filterwarnings("ignore:target density mass")
    @pytest.mark.parametrize("config", [
        {**FORWARD, "sampling": {**FORWARD["sampling"], "T": 0.05}},
        INVERSE,
    ], ids=["forward", "inverse"])
    @pytest.mark.parametrize("args", [
        ["check"], ["solve"], ["spectrum"], ["spectrum", "--controlled"],
        ["evolve", "--T", "0.5"], ["inverse"], ["sample", "paths"],
        ["sample", "desirability"], ["sample", "cost"],
        ["sample", "feedback"],
    ], ids=" ".join)
    def test_every_command_evaluates_each_field_at_most_once(
            self, tmp_path, evaluations, args, config):
        code, _ = run(args, tmp_path, config=config)
        assert code in (0, 2)       # 2: the command needs the other mode
        assert all(n == 1 for n in evaluations.values()), evaluations

    @pytest.mark.parametrize("config", [FORWARD, INVERSE],
                             ids=["forward", "inverse"])
    def test_kept_fields_are_read_only(self, tmp_path, config):
        spec = load_config(write_config(tmp_path, config)).spec
        names = ["diffusion", "phi", "q" if spec.mode == "forward" else "target"]
        for name in names:
            field = getattr(spec, f"{name}_field")()
            assert getattr(spec, f"{name}_field")() is field
            with pytest.raises(ValueError, match="read-only"):
                field.values[0] = 1.0


class TestSamplingCommands:
    def test_paths_summary(self, tmp_path):
        code, out = run(["sample", "paths"], tmp_path)
        assert code == 0
        d = only_dir(out, "sample-paths")
        s = json.loads((d / "summary.json").read_text())
        assert s["n_paths"] == 400
        assert (d / "terminal.csv").exists()

    def test_desirability_and_cost(self, tmp_path):
        code, out = run(["sample", "desirability"], tmp_path)
        assert code == 0
        d = only_dir(out, "sample-desirability")
        rows = (d / "desirability.csv").read_text().splitlines()
        assert len(rows) == 6
        code2, _ = run(["sample", "cost"], tmp_path)
        assert code2 == 0

    def test_summaries_report_ess(self, tmp_path):
        assert run(["sample", "desirability"], tmp_path)[0] == 0
        assert run(["sample", "cost"], tmp_path)[0] == 0
        out = tmp_path / "out"
        s = json.loads((only_dir(out, "sample-desirability") /
                        "summary.json").read_text())
        assert len(s["ess"]) == 5
        assert all(1.0 <= e <= s["n_paths"] for e in s["ess"])
        s = json.loads((only_dir(out, "sample-cost") /
                        "summary.json").read_text())
        assert 1.0 <= s["ess"] <= s["n_used"]

    @pytest.mark.parametrize("command", ["cost", "desirability"])
    def test_degenerate_estimate_is_marked(self, tmp_path, capsys, command):
        # one path has no spread, so its stderr of 0 is no error bar
        one_path = {**FORWARD, "grid": {**FORWARD["grid"], "counts": [101]},
                    "sampling": {"dt": 0.01, "T": 1.0, "n_paths": 1,
                                 "seed": 3}}
        marker = " (degenerate: no valid error bar)"
        for config, marked in ((one_path, True), (FORWARD, False)):
            argv = ["sample", command, "--config",
                    write_config(tmp_path, config), "--out",
                    str(tmp_path / "out")]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(argv) == 0
            assert bool(caught) == marked
            lines = [line for line in capsys.readouterr().out.splitlines()
                     if "+-" in line]
            assert len(lines) == (1 if command == "cost" else 5)
            assert all(line.endswith(marker) == marked for line in lines)

    def test_feedback(self, tmp_path):
        code, out = run(["sample", "feedback"], tmp_path)
        assert code == 0
        d = only_dir(out, "sample-feedback")
        s = json.loads((d / "summary.json").read_text())
        assert 0.0 <= s["tv_distance"] <= 1.0


class TestInverseCommand:
    @pytest.mark.filterwarnings("ignore:target density mass")
    def test_roundtrip_outputs(self, tmp_path):
        code, out = run(["inverse"], tmp_path, config=INVERSE)
        assert code == 0
        d = only_dir(out, "inverse")
        rep = json.loads((d / "roundtrip.json").read_text())
        assert rep["density_sup_relative_error"] <= 1e-3
        assert rep["controlled_gap"] > 0
        header = (d / "inverse.csv").read_text().splitlines()[0]
        for col in ("p_target", "Psi", "q", "u1", "p_recovered"):
            assert col in header


class TestInverseDriftInputs:
    """On an inverse config the steady control and the feedback target
    are read off the target density with no operator. They are the
    fields that the full inverse design gives, bit for bit."""

    @pytest.mark.filterwarnings("ignore:target density mass")
    @pytest.mark.parametrize("config", [INVERSE, SIGMA2D_INVERSE],
                             ids=["ou1d", "sigma2d"])
    def test_match_the_inverse_design(self, tmp_path, config):
        cfg = load_config(write_config(tmp_path, config))
        cli_run = _Run(argparse.Namespace(), cfg)
        inv = solve_inverse(cfg.spec)
        np.testing.assert_array_equal(
            _drift_input(cli_run, "steady")["control"].values, inv.u.values)
        np.testing.assert_array_equal(
            _drift_input(cli_run, "feedback")["target"].values,
            inv.target.values)


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["paths", "desirability", "cost", "feedback"])
    def test_rerun_bit_identical_across_threads(self, tmp_path, kind):
        cfg = write_config(tmp_path, FORWARD)
        outs = []
        for tag, threads in (("a", "1"), ("b", "3")):
            code = main(["sample", kind, "--config", cfg, "--threads", threads,
                         "--out", str(tmp_path / tag), "--quiet"])
            assert code == 0
            outs.append(only_dir(tmp_path / tag, "sample-" + kind))
        for f in sorted(outs[0].iterdir()):
            if f.suffix == ".csv":
                assert f.read_bytes() == (outs[1] / f.name).read_bytes()

    def test_desirability_csv_matches_single_point_estimates(self, tmp_path):
        code, out = run(["sample", "desirability"], tmp_path)
        assert code == 0
        d = only_dir(out, "sample-desirability")
        c = json.loads((d / "summary.json").read_text())["c"]
        spec = load_config(str(tmp_path / "cfg.json")).spec
        s = FORWARD["sampling"]
        cfg = SdeConfig(dt=s["dt"], T=s["T"], n_paths=s["n_paths"],
                        seed=s["seed"])
        rows = (d / "desirability.csv").read_text().splitlines()[1:]
        for qi, row in enumerate(rows):
            x1, *fields = row.split(",")
            e = path_integral_desirabilities(
                spec, spec.q, c, [(float(x1),)], cfg,
                stream_base=qi * cfg.n_paths)[0]
            expect = [e.value, e.stderr, e.n_used, e.n_excluded]
            assert fields[:4] == [format_float(v) for v in expect]

    def test_solve_rerun_identical(self, tmp_path):
        cfg = write_config(tmp_path, FORWARD)
        for tag in ("a", "b"):
            main(["solve", "--config", cfg, "--out", str(tmp_path / tag),
                  "--quiet"])
        a = only_dir(tmp_path / "a", "solve")
        b = only_dir(tmp_path / "b", "solve")
        assert (a / "solution.csv").read_bytes() == (b / "solution.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


class TestRunDirectories:
    def test_options_that_change_bytes_get_their_own_directory(self, tmp_path):
        cfg = write_config(tmp_path, FORWARD)
        out = tmp_path / "out"
        for extra in (["sample", "paths", "--seed", "1"],
                      ["sample", "paths", "--seed", "2"],
                      ["spectrum"], ["spectrum", "--controlled"],
                      ["spectrum", "--k", "3"]):
            assert main(extra + ["--config", cfg, "--out", str(out),
                                 "--quiet"]) == 0
        names = [d.name for d in out.iterdir()]
        assert sum(n.startswith("sample-paths-") for n in names) == 2
        assert sum(n.startswith("spectrum-") for n in names) == 3

    def test_threads_do_not_change_the_directory(self, tmp_path):
        cfg = write_config(tmp_path, FORWARD)
        for threads in ("1", "3"):
            assert main(["sample", "paths", "--config", cfg, "--threads",
                         threads, "--out", str(tmp_path / "out"),
                         "--quiet"]) == 0
        only_dir(tmp_path / "out", "sample-paths")


    def test_rerun_removes_files_the_manifest_does_not_list(self, tmp_path):
        cfg = write_config(tmp_path, FORWARD)
        argv = ["sample", "paths", "--config", cfg, "--out",
                str(tmp_path / "out"), "--quiet"]
        assert main(argv) == 0
        d = only_dir(tmp_path / "out", "sample-paths")
        (d / "stale.csv").write_text("left by an older run\n")
        assert main(argv) == 0
        assert not (d / "stale.csv").exists()
        m = json.loads((d / "manifest.json").read_text())
        assert sorted(m["outputs"] + ["manifest.json"]) == sorted(
            f.name for f in d.iterdir())


class TestPrecedence:
    def test_flag_beats_env_beats_config(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, FORWARD)
        monkeypatch.setenv("DENSCTL_SEED", "7")
        code = main(["sample", "paths", "--config", cfg,
                     "--out", str(tmp_path / "env"), "--quiet"])
        assert code == 0
        m = json.loads(
            (only_dir(tmp_path / "env", "sample-paths") / "manifest.json").read_text()
        )
        assert m["seed"] == 7

        code = main(["sample", "paths", "--config", cfg, "--seed", "9",
                     "--out", str(tmp_path / "flag"), "--quiet"])
        assert code == 0
        m = json.loads(
            (only_dir(tmp_path / "flag", "sample-paths") / "manifest.json").read_text()
        )
        assert m["seed"] == 9

    def test_quiet_env(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, FORWARD)
        monkeypatch.setenv("DENSCTL_QUIET", "1")
        main(["check", "--config", cfg, "--out", str(tmp_path / "q")])
        assert capsys.readouterr().out == ""

    def test_out_env(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, FORWARD)
        monkeypatch.setenv("DENSCTL_OUT", str(tmp_path / "envout"))
        assert main(["check", "--config", cfg, "--quiet"]) == 0
        assert only_dir(tmp_path / "envout", "check").exists()


class TestConsoleScript:
    def test_help_via_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "densctl.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "solve" in proc.stdout

    def test_import_leaves_scipy_special_unloaded(self):
        # scipy.special costs every process about 30 ms and 3.7 MB at
        # import; densctl's one use of it, log-sum-exp, is fields._logsumexp
        proc = subprocess.run(
            [sys.executable, "-c",
             "import densctl.cli, sys; print('scipy.special' in sys.modules)"],
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip() == "False"


def _scipy_loaded_after(code: str) -> bool:
    """Whether a fresh interpreter has imported scipy after running
    `code`."""
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\n"
         "print('scipy' in sys.modules)"],
        capture_output=True, text=True, check=True,
    )
    return proc.stdout.strip().splitlines()[-1] == "True"


class TestScipyStaysUnloaded:
    """scipy is imported only by the code that assembles, factors or
    solves, so importing densctl and the commands that need no operator
    never load it."""

    @pytest.mark.parametrize("module", ["densctl", "densctl.cli"])
    def test_import(self, module):
        assert not _scipy_loaded_after(f"import {module}")

    @pytest.mark.parametrize("args, config, loads", [
        (["check"], FORWARD, False),
        (["sample", "paths"], FORWARD, False),
        (["sample", "feedback"], INVERSE, False),
        (["solve"], FORWARD, True),     # the guard is not vacuous
        (["sample", "paths"], _with_sampling(INVERSE, mode="steady"), False),
        (["sample", "paths"], _with_sampling(INVERSE, mode="feedback"), False),
    ])
    def test_commands(self, tmp_path, args, config, loads):
        argv = args + ["--config", write_config(tmp_path, config),
                       "--out", str(tmp_path / "out"), "--quiet"]
        code = f"from densctl.cli import main\nassert main({argv!r}) == 0"
        assert _scipy_loaded_after(code) is loads
