"""Monte Carlo engine: determinism, estimator identities, convergence.

Statistical assertions use wide gates (3 to 5 sigma) on fixed seeds, so
they are reproducible; the exact identities (constant cost, constant
shift, drift table equivalence) hold to rounding and are tested tight.
"""

import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import densctl as dc
from densctl.errors import SamplingError
from densctl.model import _cholesky
from densctl.sampling import (
    ESS_FLOOR,
    INIT_STREAM,
    _inside,
    _stream,
)

from conftest import ou_spec


@pytest.fixture(scope="module")
def ou401():
    return ou_spec()


@pytest.fixture(scope="module")
def ou_hjb(ou401):
    return dc.solve_hjb_principal(
        ou401.diffusion_field(), ou401.phi_field(), ou401.q_field()
    )


def cfg(**kw):
    base = dict(dt=1e-3, T=1.0, n_paths=256, seed=11)
    base.update(kw)
    return dc.SdeConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(SamplingError):
            cfg(dt=0.0)
        with pytest.raises(SamplingError):
            cfg(T=1e-4)
        with pytest.raises(SamplingError):
            cfg(n_paths=0)
        with pytest.raises(SamplingError):
            cfg(seed=-1)
        with pytest.raises(SamplingError):
            cfg(seed=2**64 - 1)

    @pytest.mark.parametrize("kw, message", [
        (dict(dt=np.nan, T=1.0), "dt must be finite and positive, got nan"),
        (dict(T=np.inf), "T must be finite and positive, got inf"),
        (dict(dt=np.inf), "dt must be finite and positive, got inf"),
        (dict(T=np.nan), "T must be finite and positive, got nan"),
    ], ids=["dt-nan", "T-inf", "dt-inf", "T-nan"])
    def test_nonfinite_step_or_horizon(self, kw, message):
        with pytest.raises(SamplingError, match=message):
            cfg(**kw)

    @pytest.mark.parametrize("kw", [
        dict(seed=1.5), dict(n_paths=10.5), dict(seed=True),
        dict(n_paths=True), dict(seed="3"), dict(n_paths=np.float64(8.0)),
    ], ids=["seed-float", "paths-float", "seed-bool", "paths-bool",
            "seed-str", "paths-numpy-float"])
    def test_non_integer_seed_or_path_count(self, kw):
        # refused here, not as a TypeError deep in the engine
        with pytest.raises(SamplingError, match="must be an integer"):
            cfg(**kw)

    def test_numpy_integers_are_integers(self):
        c = cfg(seed=np.uint64(7), n_paths=np.int64(3))
        assert (c.seed, c.n_paths) == (7, 3)

    def test_step_count_rounding(self):
        c = cfg(dt=0.1, T=1.0)
        assert c.n_steps == 10
        np.testing.assert_allclose(c.horizon, 1.0)


class TestDeterminism:
    def test_chunks_and_blocks_do_not_change_results(self, ou401, ou_hjb,
                                                      monkeypatch):
        # a uniform start puts particles at the wall, so paths reflect
        ens = dc.uniform_ensemble(ou401.grid, 512, 3)
        c = cfg(n_paths=512, T=0.2)
        # the uncontrolled, steady and feedback drifts
        for drift in ({}, {"control": ou_hjb.u}, {"target": ou_hjb.p}):
            ref = dc.simulate_sde(ou401, c, ens, **drift, cost_expr=ou401.q)
            with monkeypatch.context() as m:
                m.setattr(dc.sampling, "CHUNK_PATHS", 37)
                m.setattr(dc.sampling, "BLOCK_STEPS", 16)
                small = dc.simulate_sde(ou401, c, ens, **drift,
                                        cost_expr=ou401.q)
            assert ref.exited.any()
            np.testing.assert_array_equal(ref.terminal, small.terminal)
            np.testing.assert_array_equal(ref.cost_integral, small.cost_integral)
            np.testing.assert_array_equal(ref.exited, small.exited)

    def test_noise_memory_is_bounded_by_the_time_block(self, ou401):
        # 4000 steps of one-dimensional noise for 256 paths is 8.2 MB
        c = cfg(dt=1e-4, T=0.4, n_paths=256)
        tracemalloc.start()
        try:
            dc.simulate_sde(ou401, c, x0=(0.5,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2e6

    def test_constant_diffusion_step_memory_is_per_step(self, ou401):
        # the noise block of 2048 paths x 256 steps is 4.2 MB and the run
        # peaks at 5.6 MB; an increment array as wide as the block would
        # add another 4.2 MB
        c = cfg(dt=1e-3, T=0.512, n_paths=2048)
        tracemalloc.start()
        try:
            dc.simulate_sde(ou401, c, x0=(0.5,), cost_expr=ou401.q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7e6

    def test_state_dependent_step_memory_is_per_step(self):
        # sigma2d's Sigma(x) under feedback, with a running cost: the
        # noise block of 2048 paths x 256 steps x 2 is 8.4 MB and the run
        # peaks at 10.7 MB; the bound, 9% above the 10.5 MB of a
        # row-major step loop, keeps the work buffers path-sized, as one
        # more block-sized buffer would add 8.4 MB
        g = dc.Grid((-3.5, -3.5), (3.5, 3.5), (25, 25))
        spec = dc.ProblemSpec(
            grid=g, phi="(x1^2 + x2^2)/2",
            q="3/8*(x1 + x2)^2 + 3/16*(x1^4 + x2^4)",
            Sigma=[["1 + x1^2/4", "0.5"], ["0.5", "1 + x2^2/4"]])
        target = dc.ScalarField(g, np.exp(-spec.phi_field().values))
        ens = dc.uniform_ensemble(g, 2048, 3)
        c = cfg(dt=2e-3, T=0.512, n_paths=2048)
        tracemalloc.start()
        try:
            dc.simulate_sde(spec, c, ens, target=target, cost_expr=spec.q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 11.5e6

    @pytest.mark.parametrize("diffusion", [
        {"Sigma": [["2", "1"], ["1", "2"]]},
        {"Sigma": [["1 + x1^2/4", "0.5"], ["0.5", "1 + x2^2/4"]]},
        {"sigma": [["1 + sin(x2)/3", "0.3"], ["0.2*x1", "1"]]},
    ], ids=["constant", "Sigma(x)", "sigma(x)"])
    def test_chunks_do_not_change_2d_results(self, diffusion, monkeypatch):
        g = dc.Grid((-3.5, -3.5), (3.5, 3.5), (25, 25))
        spec = dc.ProblemSpec(grid=g, phi="(x1^2 + x2^2)/2", q="x1^2",
                              **diffusion)
        target = dc.ScalarField(g, np.exp(-spec.phi_field().values))
        ens = dc.uniform_ensemble(g, 300, 3)
        c = cfg(dt=2e-3, T=0.1, n_paths=300)
        # the uncontrolled and feedback drifts
        for drift in ({}, {"target": target}):
            ref = dc.simulate_sde(spec, c, ens, **drift, cost_expr=spec.q)
            with monkeypatch.context() as m:
                m.setattr(dc.sampling, "CHUNK_PATHS", 37)
                m.setattr(dc.sampling, "BLOCK_STEPS", 16)
                small = dc.simulate_sde(spec, c, ens, **drift,
                                        cost_expr=spec.q)
            assert ref.exited.any()
            np.testing.assert_array_equal(ref.terminal, small.terminal)
            np.testing.assert_array_equal(ref.cost_integral, small.cost_integral)

    def test_chunks_do_not_change_wide_sigma_results(self, monkeypatch):
        # a 1 x 2 sigma: two noise columns drive one coordinate; the box
        # is narrow so that paths reflect
        g = dc.Grid((-1.5,), (1.5,), (31,))
        spec = dc.ProblemSpec(grid=g, phi="x1^2", sigma=[["1", "0.5*x1"]],
                              q="x1^2")
        ens = dc.uniform_ensemble(g, 300, 3)
        c = cfg(dt=2e-3, T=0.1, n_paths=300)
        ref = dc.simulate_sde(spec, c, ens, cost_expr=spec.q)
        with monkeypatch.context() as m:
            m.setattr(dc.sampling, "CHUNK_PATHS", 37)
            m.setattr(dc.sampling, "BLOCK_STEPS", 16)
            small = dc.simulate_sde(spec, c, ens, cost_expr=spec.q)
        assert ref.exited.any()
        np.testing.assert_array_equal(ref.terminal, small.terminal)
        np.testing.assert_array_equal(ref.cost_integral, small.cost_integral)

    def test_batched_desirability_matches_single_points(self, ou401, ou_hjb):
        c = cfg(n_paths=100, T=0.5)
        pts = [(-1.0,), (0.0,), (1.5,)]
        batch = dc.path_integral_desirabilities(ou401, ou401.q, ou_hjb.c,
                                                pts, c)
        singles = [dc.path_integral_desirabilities(
                       ou401, ou401.q, ou_hjb.c, [y], c, stream_base=i * 100)[0]
                   for i, y in enumerate(pts)]
        assert batch == singles

    def test_seed_changes_results(self, ou401):
        a = dc.simulate_sde(ou401, cfg(seed=1), x0=(0.5,))
        b = dc.simulate_sde(ou401, cfg(seed=2), x0=(0.5,))
        assert not np.array_equal(a.terminal, b.terminal)

    def test_stream_base_offsets_are_disjoint(self, ou401):
        # path j of a run with stream_base=s equals path 0 of stream_base=s+j
        full = dc.simulate_sde(ou401, cfg(n_paths=8), x0=(0.5,), stream_base=0)
        single = dc.simulate_sde(ou401, cfg(n_paths=1), x0=(0.5,), stream_base=5)
        np.testing.assert_array_equal(full.terminal[5], single.terminal[0])

    @pytest.mark.parametrize("base", [-1, 2**64 - 2, 2**64 + 5,
                                      INIT_STREAM - 7])
    def test_stream_base_reaching_the_reserved_ids_is_refused(self, ou401,
                                                              base):
        # eight paths read ids base .. base + 7, which must stay below
        # the reserved init stream 2^64 - 2, for both callers
        with pytest.raises(SamplingError, match="stream_base"):
            dc.simulate_sde(ou401, cfg(n_paths=8, T=0.01), x0=(0.5,),
                            stream_base=base)
        with pytest.raises(SamplingError, match="stream_base"):
            dc.path_integral_desirabilities(
                ou401, ou401.q, 2.0, [(0.0,), (0.5,)],
                cfg(n_paths=4, T=0.01), stream_base=base)

    def test_stream_base_may_reach_the_last_path_id(self, ou401):
        batch = dc.simulate_sde(ou401, cfg(n_paths=8, T=0.01), x0=(0.5,),
                                stream_base=INIT_STREAM - 8)
        assert batch.n_paths == 8

    @given(base=st.one_of(st.integers(0, 2000),
                          st.integers(2**32 - 700, 2**32 + 700),
                          st.integers(2**56, 2**56 + 2000)),
           P=st.integers(1, 600), chunk=st.one_of(st.just(37),
                                                  st.integers(20, 700)),
           block=st.integers(1, 64), wide=st.booleans())
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_group_cuts_do_not_change_results(self, ou401, base, P, chunk,
                                              block, wide):
        # every path equals its row of a run that starts at the group
        # boundary, whatever the chunks and blocks cut; the wide spec
        # reads two noise columns
        spec = ou401
        if wide:
            spec = dc.ProblemSpec(grid=dc.Grid((-1.5,), (1.5,), (31,)),
                                  phi="x1^2", sigma=[["1", "0.5*x1"]],
                                  q="x1^2")
        skip = base % 256
        starts = dc.uniform_ensemble(spec.grid, skip + P, 3).positions
        c = cfg(T=0.05, n_paths=P)
        ref = dc.simulate_sde(spec, c, dc.Ensemble(starts), cost_expr=spec.q,
                              stream_base=base - skip)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(dc.sampling, "CHUNK_PATHS", chunk)
            m.setattr(dc.sampling, "BLOCK_STEPS", block)
            got = dc.simulate_sde(spec, c, dc.Ensemble(starts[skip:]),
                                  cost_expr=spec.q, stream_base=base)
        for name in ("terminal", "cost_integral", "exited"):
            assert getattr(got, name).tobytes() == \
                getattr(ref, name)[skip:].tobytes(), name

    def test_uniform_ensemble_deterministic(self, ou401):
        g = ou401.grid
        a = dc.uniform_ensemble(g, 100, seed=3)
        b = dc.uniform_ensemble(g, 100, seed=3)
        c = dc.uniform_ensemble(g, 100, seed=4)
        np.testing.assert_array_equal(a.positions, b.positions)
        assert not np.array_equal(a.positions, c.positions)
        assert g.contains(a.positions).all()


class TestDriftModes:
    def test_small_noise_tracks_the_ode(self):
        # noise at 1e-4 leaves the Euler error of x' = -2x visible
        g = dc.Grid((-6.0,), (6.0,), (101,))
        spec = dc.ProblemSpec(grid=g, phi="20000*x1^2", sigma=[["0.01"]], q="0")
        errs = []
        for dt in (0.01, 0.005):
            c = cfg(dt=dt, T=1.0, n_paths=512)
            out = dc.simulate_sde(spec, c, x0=(1.0,))
            errs.append(abs(out.terminal.mean() - np.exp(-2.0)))
        assert errs[0] <= 5e-3
        assert errs[1] <= 0.7 * errs[0]

    def test_stationary_variance_of_uncontrolled_process(self, ou401):
        # Sigma = 2 with phi = x^2 equilibrates to variance 1/2
        c = cfg(dt=1e-3, T=4.0, n_paths=20000, seed=7)
        out = dc.simulate_sde(ou401, c, x0=(0.0,))
        var = out.terminal[:, 0].var(ddof=1)
        se = 0.5 * np.sqrt(2.0 / (c.n_paths - 1))
        assert abs(var - 0.5) <= 3 * se + 5e-3

    def test_stationary_variance_under_a_wide_sigma(self):
        # sigma = [1, x/2] gives Sigma = 1 + x^2/4, and exp(-x^2) stays
        # stationary under the passive drift: variance 1/2
        g = dc.Grid((-6.0,), (6.0,), (401,))
        spec = dc.ProblemSpec(grid=g, phi="x1^2", sigma=[["1", "0.5*x1"]],
                              q="0")
        c = cfg(dt=2e-3, T=3.0, n_paths=20000, seed=7)
        out = dc.simulate_sde(spec, c, x0=(0.0,))
        var = out.terminal[:, 0].var(ddof=1)
        se = 0.5 * np.sqrt(2.0 / (c.n_paths - 1))
        assert abs(var - 0.5) <= 3 * se + 5e-3

    def test_steady_and_feedback_tables_agree(self, ou401, ou_hjb):
        # both modes realize the same total drift for the solved problem
        x0 = np.full((200, 1), 0.3)
        a = dc.simulate_sde(ou401, cfg(n_paths=200, T=0.5),
                            dc.Ensemble(positions=x0), control=ou_hjb.u)
        b = dc.simulate_sde(ou401, cfg(n_paths=200, T=0.5),
                            dc.Ensemble(positions=x0), target=ou_hjb.p)
        assert np.abs(a.terminal - b.terminal).max() <= 1e-9

    def test_controlled_ensemble_contracts_to_target(self, ou401, ou_hjb):
        # controlled stationary density has variance 1/4
        c = cfg(dt=1e-3, T=4.0, n_paths=20000, seed=19)
        out = dc.simulate_sde(ou401, c, x0=(0.0,), control=ou_hjb.u)
        var = out.terminal[:, 0].var(ddof=1)
        se = 0.25 * np.sqrt(2.0 / (c.n_paths - 1))
        assert abs(var - 0.25) <= 3 * se + 5e-3

    def test_control_and_target_together_are_refused(self, ou401, ou_hjb):
        # the drift follows the field given, so two fields name two drifts
        with pytest.raises(SamplingError, match="not both"):
            dc.simulate_sde(ou401, cfg(), x0=(0.0,), control=ou_hjb.u,
                            target=ou_hjb.p)


class TestReflection:
    def test_paths_stay_inside_and_flag_exits(self):
        g = dc.Grid((-0.5,), (0.5,), (11,))
        spec = dc.ProblemSpec(grid=g, phi="x1^2/100", sigma=[["sqrt(2)"]], q="0")
        c = cfg(dt=1e-2, T=2.0, n_paths=500, seed=2)
        out = dc.simulate_sde(spec, c, x0=(0.0,))
        assert out.exited.any()
        assert (out.terminal[:, 0] >= -0.5).all()
        assert (out.terminal[:, 0] <= 0.5).all()

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
           nan=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_in_box_test_is_the_elementwise_one(self, seed, n, nan):
        # a box that is not a cube, points on and just past its faces
        rng = np.random.default_rng(seed)
        lows = -rng.uniform(0.5, 5.0, n)
        highs = rng.uniform(0.5, 5.0, n)
        x = rng.uniform(lows, highs, (50, n))
        for _ in range(rng.integers(0, 3)):
            i, k = rng.integers(50), rng.integers(n)
            x[i, k] = rng.choice([lows[k], highs[k], np.nextafter(lows[k], -9),
                                  np.nextafter(highs[k], 9)])
        if nan:
            x[rng.integers(50), rng.integers(n)] = np.nan
        bounds = [(k, float(lows[k]), float(highs[k])) for k in range(n)]
        assert _inside(x, bounds) == bool(((x >= lows) & (x <= highs)).all())

    def test_deep_domain_rarely_exits(self, ou401):
        out = dc.simulate_sde(ou401, cfg(n_paths=500, seed=2), x0=(0.0,))
        assert not out.exited.any()


class TestStartsOutsideTheBox:
    """A start point outside the closed box is refused: the reflection
    would fold it inside, leaving only an exit flag behind."""

    def test_start_point(self, ou401):
        with pytest.raises(SamplingError, match=r"x = \[10.0\]"):
            dc.simulate_sde(ou401, cfg(n_paths=8, T=0.01), x0=(10.0,))

    def test_desirability_query(self, ou401):
        with pytest.raises(SamplingError, match="8 of 16 start points"):
            dc.path_integral_desirabilities(
                ou401, ou401.q, 2.0, [(0.0,), (50.0,)],
                cfg(n_paths=8, T=0.01))

    def test_cost_start(self, ou401):
        with pytest.raises(SamplingError, match="outside the grid box"):
            dc.estimate_c_mc(ou401, ou401.q, cfg(n_paths=8, T=0.01), (-6.5,))

    def test_feedback_particle(self, ou401):
        target = dc.ScalarField(ou401.grid, np.exp(
            -ou401.grid.node_coords()[:, 0] ** 2))
        ens = dc.Ensemble(positions=[[0.0], [6.001], [1.0]])
        with pytest.raises(SamplingError, match=r"x = \[6.001\]"):
            dc.simulate_sde(ou401, cfg(T=0.01), ens,
                            target=target)

    def test_starts_on_a_face_stay_legal(self, ou401):
        out = dc.simulate_sde(ou401, cfg(n_paths=8, T=0.01),
                              dc.Ensemble(positions=[[-6.0], [6.0]]))
        assert (np.abs(out.terminal) <= 6.0).all()
        g = dc.Grid((-1.0, 0.0), (1.0, 2.0), (5, 5))
        spec = dc.ProblemSpec(grid=g, phi="x1^2 + x2^2",
                              Sigma=[["1", "0"], ["0", "1"]], q="0")
        dc.simulate_sde(spec, cfg(n_paths=4, T=0.01), x0=(1.0, 0.0))


class TestInputsWithNothingToRun:
    """An input that leaves no path to run, or no finite cost, is
    refused by name; it is not reported as paths that blew up."""

    def test_empty_ensemble(self, ou401):
        ens = dc.Ensemble(positions=np.empty((0, 1)))
        with pytest.raises(SamplingError, match="start ensemble is empty"):
            dc.simulate_sde(ou401, cfg(n_paths=8, T=0.01), ens)

    def test_empty_ensemble_cost_estimate(self, ou401):
        ens = dc.Ensemble(positions=np.empty((0, 1)))
        with pytest.raises(SamplingError, match="start ensemble is empty"):
            dc.estimate_c_mc(ou401, ou401.q, cfg(n_paths=8, T=0.01), ens)

    def test_ensemble_of_another_dimension(self, ou401):
        ens = dc.Ensemble(positions=[[0.0, 0.0]])
        with pytest.raises(SamplingError, match="dimension 2, grid 1"):
            dc.simulate_sde(ou401, cfg(n_paths=8, T=0.01), ens)

    def test_infinite_cost_is_named(self):
        # no node at 0, so the grid never sees the pole that every path
        # starts on; the states stay finite
        g = dc.Grid((-1.5,), (1.5,), (10,))
        spec = dc.ProblemSpec(grid=g, phi="x1^2", sigma=[["sqrt(2)"]],
                              q="1/x1")
        with pytest.raises(SamplingError, match="running cost q is not "
                           "finite along the paths"):
            dc.simulate_sde(spec, cfg(n_paths=8, T=0.01), (0.0,),
                            cost_expr=spec.q)

    def test_point_without_a_usable_path_is_named(self, ou401):
        # log(x1) is NaN from the first step at x = -1 only
        with pytest.raises(SamplingError, match=r"every path from x = "
                           r"\[-1.0\] was excluded"):
            dc.path_integral_desirabilities(ou401, "log(x1)", 0.0,
                                            [(1.0,), (-1.0,)],
                                            cfg(n_paths=8, T=0.01))

    def test_state_blow_up_keeps_its_message(self):
        g = dc.Grid((-1.5,), (1.5,), (10,))
        spec = dc.ProblemSpec(grid=g, phi="1/x1", sigma=[["sqrt(2)"]],
                              q="x1^2")
        with pytest.raises(SamplingError, match="every path blew up"):
            dc.simulate_sde(spec, cfg(n_paths=8, T=0.01), (0.0,),
                            cost_expr=spec.q)

    @pytest.mark.parametrize("shift", [np.nan, np.inf, -np.inf])
    def test_nonfinite_cost_shift(self, ou401, shift):
        c = cfg(n_paths=8, T=0.01)
        with pytest.raises(SamplingError, match="cost_shift must be finite"):
            dc.simulate_sde(ou401, c, (0.0,), cost_expr=ou401.q,
                            cost_shift=shift)
        # the desirability estimator's c is the shift
        with pytest.raises(SamplingError, match="cost_shift must be finite"):
            dc.path_integral_desirabilities(ou401, ou401.q, shift,
                                            [(0.0,)], c)

    def test_no_query_points(self, ou401):
        with pytest.raises(SamplingError, match="no query points"):
            dc.path_integral_desirabilities(ou401, ou401.q, 2.0, [],
                                            cfg(n_paths=8, T=0.01))


class TestEstimators:
    def test_constant_cost_equal_to_shift_gives_unit_weight(self, ou401, ou_hjb):
        est = dc.path_integral_desirabilities(
            ou401, "2", 2.0, [(0.0,)], cfg(n_paths=64)
        )[0]
        assert est.value == 1.0
        assert est.stderr == 0.0
        assert not est.degenerate

    def test_constant_cost_recovers_rate_exactly(self, ou401):
        c = cfg(n_paths=64, T=2.0)
        y0 = dc.Ensemble(positions=np.zeros((64, 1)))
        est = dc.estimate_c_mc(ou401, "3.7", c, y0)
        assert abs(est.value - 3.7) <= 1e-12
        assert est.n_excluded == 0

    def test_long_horizon_stderr_does_not_underflow(self, ou401):
        # weights near 1e-238: their squares underflow in linear space
        c = cfg(dt=1e-2, T=400.0, n_paths=64, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = dc.path_integral_desirabilities(ou401, ou401.q, 0.0,
                                                  [(0.0,)], c)[0]
        assert 0.0 < est.value < 1e-200
        assert est.stderr > 0.0 or est.degenerate
        assert 1.0 <= est.ess <= 64

    def test_long_horizon_cost_estimate_does_not_underflow(self, ou401):
        # every weight underflows to zero in linear space, but the
        # log-mean (about -1100) is representable
        c = cfg(dt=1e-2, T=800.0, n_paths=64, seed=1)
        y0 = dc.Ensemble(positions=np.zeros((64, 1)))
        with pytest.warns(UserWarning, match="ESS"):
            est = dc.estimate_c_mc(ou401, ou401.q, c, y0)
        assert -(800.0 / 2.0) * est.value < np.log(np.finfo(float).tiny)
        assert np.isfinite(est.value) and est.value > 0.0
        assert np.isfinite(est.stderr) and est.stderr > 0.0
        assert 1.0 <= est.ess <= 64
        # the weights collapsed (ESS 1.4 of 64; c_hat = 2.81 +- 0.0021
        # against c = 2) although the stderr is small against c_hat
        assert est.stderr < 0.5 * est.value
        assert est.ess < ESS_FLOOR * est.n_used
        assert est.degenerate

    def test_cost_flag_does_not_depend_on_the_gauge_of_q(self, ou401):
        # the same paths and weights: shifting q by -1.7 shifts c_hat by
        # -1.7 and leaves the error bar and the flag alone
        c = cfg(n_paths=1024, seed=1)
        est = dc.estimate_c_mc(ou401, "6*x1^2", c, (0.0,))
        shifted = dc.estimate_c_mc(ou401, "6*x1^2 - 1.7", c, (0.0,))
        # the per-step sums of q - 1.7 round differently, by about 1e-16
        assert shifted.stderr == pytest.approx(est.stderr, rel=1e-12)
        assert shifted.ess == pytest.approx(est.ess, rel=1e-12)
        assert (shifted.n_used, shifted.degenerate) == (est.n_used, False)
        assert not est.degenerate
        assert shifted.value == pytest.approx(est.value - 1.7, abs=1e-12)

    def test_cost_stderr_matches_the_spread_over_seeds(self, ou401):
        ests = [dc.estimate_c_mc(ou401, ou401.q,
                                 cfg(dt=1e-2, T=2.0, n_paths=500, seed=s),
                                 (0.0,))
                for s in range(1, 13)]
        spread = np.std([e.value for e in ests], ddof=1)
        assert 0.5 <= spread / np.median([e.stderr for e in ests]) <= 1.6

    def test_desirability_weight_collapse_is_flagged(self, ou401):
        # ESS about 2% of 1000 paths at a relative stderr near 0.2
        c = cfg(dt=1e-2, T=10.0, n_paths=1000, seed=1)
        with pytest.warns(UserWarning, match="ESS"):
            est = dc.path_integral_desirabilities(ou401, ou401.q, 2.0,
                                                  [(2.0,)], c)[0]
        assert est.stderr < 0.5 * est.value
        assert est.ess < ESS_FLOOR * est.n_used
        assert est.degenerate

    @pytest.mark.parametrize("estimator", ["cost", "desirability"])
    def test_one_path_is_degenerate(self, estimator):
        # one path has no spread, so its zero stderr is no error bar
        spec = ou_spec(101)
        c = cfg(dt=1e-2, T=1.0, n_paths=1, seed=3)
        with pytest.warns(UserWarning, match="degenerate"):
            if estimator == "cost":
                ests = [dc.estimate_c_mc(spec, spec.q, c, (0.0,))]
            else:
                ests = dc.path_integral_desirabilities(
                    spec, spec.q, 2.0, [(-3.0,), (0.0,), (3.0,)], c)
        for est in ests:
            assert (est.n_used, est.stderr, est.degenerate) == (1, 0.0, True)

    def test_ess_of_equal_weights_is_the_path_count(self, ou401):
        est = dc.path_integral_desirabilities(ou401, "2", 0.0, [(0.0,)],
                                              cfg(n_paths=64))[0]
        assert est.ess == 64.0

    def test_desirability_matches_grid_ratios(self, ou401, ou_hjb):
        qs = [(-1.0,), (0.0,), (1.0,)]
        c = cfg(dt=1e-3, T=5.0, n_paths=4000, seed=123)
        ests = [
            dc.path_integral_desirabilities(
                ou401, ou401.q, ou_hjb.c, [y], c, stream_base=i * c.n_paths
            )[0]
            for i, y in enumerate(qs)
        ]
        pts = np.array(qs)
        grid_psi = dc.interpolate_values(ou401.grid, ou_hjb.Psi.values, pts)
        for i in (0, 2):
            r = ests[i].value / ests[1].value
            ref = grid_psi[i] / grid_psi[1]
            se = r * np.sqrt(
                (ests[i].stderr / ests[i].value) ** 2
                + (ests[1].stderr / ests[1].value) ** 2
            )
            assert abs(r - ref) <= 4 * se

    def test_rate_estimate_brackets_spectral_value(self, ou401, ou_hjb):
        c = cfg(dt=1e-3, T=10.0, n_paths=3000, seed=5)
        y0 = dc.Ensemble(positions=np.zeros((3000, 1)))
        est = dc.estimate_c_mc(ou401, ou401.q, c, y0)
        assert est.stderr > 0
        assert abs(est.value - ou_hjb.c) <= max(4 * est.stderr, 0.05 * ou_hjb.c)

    def test_nan_costs_are_excluded(self, ou401):
        # log of a sign-changing coordinate poisons some paths only
        c = cfg(n_paths=200, T=0.2, seed=3)
        est = dc.path_integral_desirabilities(ou401, "log(x1)", 0.0, [(0.05,)],
                                              c)[0]
        assert est.n_excluded > 0
        assert est.n_used == 200 - est.n_excluded
        assert np.isfinite(est.value)

    def test_all_paths_excluded_raises(self, ou401):
        c = cfg(n_paths=16, T=0.2)
        with pytest.raises(SamplingError):
            dc.path_integral_desirabilities(ou401, "log(0 - x1^2)", 0.0,
                                            [(0.0,)], c)


class TestHistogramAndTv:
    def test_node_placed_particles_recover_weights(self):
        g = dc.Grid((0.0,), (1.0,), (5,))
        pos = np.repeat(g.node_coords(), [1, 2, 3, 2, 2], axis=0)
        ens = dc.Ensemble(positions=pos)
        hist = dc.histogram_density(ens, g)
        w = g.quadrature_weights()
        np.testing.assert_allclose(w @ hist.values, 1.0, rtol=1e-12)
        expect = np.array([1, 2, 3, 2, 2]) / 10.0 / w
        np.testing.assert_allclose(hist.values, expect, rtol=1e-12)

    def test_tv_identities(self):
        g = dc.Grid((0.0,), (1.0,), (5,))
        w = g.quadrature_weights()
        a = dc.ScalarField(g, np.array([0.0, 2.0, 2.0, 0.0, 0.0]) / (w @ [0, 2, 2, 0, 0]))
        b = dc.ScalarField(g, np.array([0.0, 0.0, 0.0, 2.0, 2.0]) / (w @ [0, 0, 0, 2, 2]))
        assert dc.tv_distance(a, a) == 0.0
        np.testing.assert_allclose(dc.tv_distance(a, b), 1.0, rtol=1e-12)

    def test_histogram_statistical_consistency(self, ou401):
        # equilibrated controlled-free ensemble vs Gibbs density
        c = cfg(dt=2e-3, T=6.0, n_paths=40000, seed=31)
        out = dc.simulate_sde(ou401, c, x0=(0.0,))
        ens = dc.Ensemble(positions=out.terminal)
        hist = dc.histogram_density(ens, ou401.grid)
        w = ou401.grid.quadrature_weights()
        x = ou401.grid.node_coords()[:, 0]
        ref = np.exp(-(x**2))
        ref /= w @ ref
        tv = dc.tv_distance(hist, dc.ScalarField(ou401.grid, ref))
        assert tv <= 0.05


class TestDensityFeedbackLoop:
    def test_converges_to_target_in_tv(self, ou401):
        g = ou401.grid
        x = g.node_coords()[:, 0]
        w = g.quadrature_weights()
        tgt = np.exp(-2 * x**2)
        tgt /= w @ tgt
        target = dc.ScalarField(g, tgt)
        c = dc.SdeConfig(dt=1e-2, T=8.0, n_paths=20000, seed=9)
        start = dc.uniform_ensemble(g, 20000, 9)
        out = dc.simulate_sde(ou401, c, start, target=target)
        # the ensemble at t = 0 and at t = 8
        snaps = [start, dc.Ensemble(positions=out.terminal)]
        tvs = [dc.tv_distance(dc.histogram_density(s, g), target) for s in snaps]
        assert tvs[-1] <= 0.05
        assert tvs[-1] < tvs[0]

    def test_positivity_gate_on_target(self, ou401):
        g = ou401.grid
        bad = dc.ScalarField(g, np.zeros(g.size))
        c = dc.SdeConfig(dt=1e-2, T=0.1, n_paths=10, seed=0)
        with pytest.raises(SamplingError):
            dc.simulate_sde(ou401, c, (0.0,), target=bad)


class TestEnsemble:
    def test_rejects_nonfinite_positions(self):
        with pytest.raises(SamplingError):
            dc.Ensemble(positions=np.array([[np.nan]]))

    def test_count(self):
        ens = dc.Ensemble(positions=np.zeros((7, 1)))
        assert ens.count == 7

    def test_empty_list_is_an_empty_ensemble(self, ou401):
        ens = dc.Ensemble(positions=[])
        assert ens.count == 0
        with pytest.raises(SamplingError, match="start ensemble is empty"):
            dc.simulate_sde(ou401, cfg(n_paths=8, T=0.01), ens)
        with pytest.raises(SamplingError, match="empty ensemble"):
            dc.histogram_density(ens, ou401.grid)


def _key(seed, word):
    return np.array([seed & 0xffffffff, seed >> 32, word & 0xffffffff,
                     word >> 32], dtype=np.uint32)


def _group(seed, g):
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(
        _key(seed, g))))


class _NoiseRecorder:
    """Dynamics whose increment is zero and which keeps every step's
    normals, so a run shows the noise each path reads."""

    def __init__(self, m):
        self.grid = dc.Grid((-1.0,), (1.0,), (5,))
        self.m = m
        self.seen = []

    def increment(self, x, dw, step):
        self.seen.append(dw.copy())
        return np.zeros_like(x)


class TestStreams:
    """The stream definition: stream ids are grouped GROUP_PATHS = 256 to
    a generator, SFC64 seeded by the four 32-bit words of (seed, group);
    a group's noise is drawn step-major and dimension-major, and path j
    reads row j mod 256 of its group. Reserved ids key a stream the same
    way, and no path group reaches them."""

    @pytest.mark.parametrize("key", [
        (0, 0), (5, 2**64 - 1), (2**64 - 3, INIT_STREAM),
        *[tuple(int(v) for v in k) for k in np.random.default_rng(2).integers(
            0, 2**64, size=(4, 2), dtype=np.uint64)],
    ])
    def test_stream_is_sfc64_of_the_fixed_width_key(self, key):
        got, ref = _stream(*key), _group(*key)
        np.testing.assert_array_equal(got.standard_normal(10**4),
                                      ref.standard_normal(10**4))
        np.testing.assert_array_equal(got.integers(0, 2**40, size=10**3),
                                      ref.integers(0, 2**40, size=10**3))

    def test_seed_and_group_words_do_not_collide(self):
        # SeedSequence([5, 7]) and SeedSequence([5 + 7 * 2^32, 0]) seed
        # one stream, as both trim to the words [5, 7]; fixed-width keys
        # keep them apart
        a = _stream(5, 7).standard_normal(16)
        b = _stream(5 + 7 * 2**32, 0).standard_normal(16)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed, base, P, m, chunk, block", [
        (11, 0, 300, 1, None, None),
        (11, 250, 300, 2, 37, 16),
        (2**64 - 3, 2**32 + 100, 520, 2, None, 16),
        (7, 2**40 - 3, 40, 3, 37, None),
    ])
    def test_path_reads_its_group_row(self, seed, base, P, m, chunk, block):
        steps = 40
        dyn = _NoiseRecorder(m)
        c = cfg(dt=0.01, T=steps * 0.01, n_paths=P, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            if chunk:
                mp.setattr(dc.sampling, "CHUNK_PATHS", chunk)
            if block:
                mp.setattr(dc.sampling, "BLOCK_STEPS", block)
            dc.sampling._integrate(dyn, c, np.zeros((P, 1)), base, None, 0.0)
        ids = base + np.arange(P, dtype=object)
        ref = {g: _group(seed, g).standard_normal((steps, m, 256))
               for g in set(ids // 256)}
        want = np.array([[ref[s // 256][b, :, s % 256] for s in ids]
                         for b in range(steps)])
        # the chunks run one after another, each over every step
        seen = np.concatenate([np.stack(dyn.seen[i:i + steps])
                               for i in range(0, len(dyn.seen), steps)],
                              axis=1)
        np.testing.assert_array_equal(seen, want)


class TestStackedRoot:
    @given(n=st.integers(1, 3), count=st.integers(1, 40),
           scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_lapack(self, n, count, scale, seed):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((count, n, n))
        A = scale * (B @ np.swapaxes(B, 1, 2) + np.eye(n))
        got, ref = _cholesky(A, 0), np.linalg.cholesky(A)
        if n <= 2:
            # the engine's artifacts rest on this equality for 2D Sigma(x)
            np.testing.assert_array_equal(got, ref)
        else:
            # LAPACK sums the pivot's dot product in its own order; the
            # tolerance is relative to the largest entry of the root
            np.testing.assert_allclose(got, ref, rtol=1e-14,
                                       atol=1e-14 * np.abs(ref).max())

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_indefinite_member_raises(self, n):
        A = np.tile(2.0 * np.eye(n), (5, 1, 1))
        A[3, -1, -1] = -1.0
        with pytest.raises(SamplingError, match="step 17"):
            _cholesky(A, 17)

    def test_noise_factor_is_the_lapack_root(self):
        spec = dc.ProblemSpec(grid=dc.Grid((-1.0, -1.0), (1.0, 1.0), (5, 5)),
                              phi="x1^2 + x2^2",
                              Sigma=[["2", "1"], ["1", "2"]], q="0")
        d = spec.diffusion
        pts = spec.grid.node_coords()
        np.testing.assert_array_equal(
            d.factor(d.matrix(pts)),
            np.linalg.cholesky(spec.diffusion_field().values))
        # a constant diffusion's noise matrix is the root at one point, in
        # C order as np.linalg.cholesky returns it
        assert d.factor(d.matrix(pts[:1]))[0].flags.c_contiguous

    def test_indefinite_constant_sigma_is_a_densctl_error(self):
        spec = dc.ProblemSpec(grid=dc.Grid((-3.0, -3.0), (3.0, 3.0), (9, 9)),
                              phi="x1^2 + x2^2",
                              Sigma=[["1", "2"], ["2", "1"]], q="0")
        with pytest.raises(SamplingError,
                           match=r"Sigma is not positive definite \(pivot 2"):
            dc.simulate_sde(spec, cfg(T=0.01, n_paths=4), (0.0, 0.0))

    def test_nan_member_passes_for_exclusion(self):
        A = np.tile(np.eye(2), (3, 1, 1))
        A[1] = np.nan
        L = _cholesky(A, 0)
        assert np.isnan(L[1][np.tril_indices(2)]).all()
        np.testing.assert_array_equal(L[[0, 2]], A[[0, 2]])


class TestGoldenBits:
    """sha256 of the terminal, cost_integral and exited bytes of seven
    small runs. The first four were first recorded before the per-path
    streams, the step's error-state handling, the stacked Cholesky root
    and the in-place interpolant were reworked; the sigma2d_steady and
    sigma2d_feedback runs, which read a two-column table under a
    state-dependent Sigma, before the step loop went dimension-major;
    sigma2d_sigma, under a state-dependent sigma, when sigma sigma^T
    became explicit products summed in column order. All seven were
    re-recorded, on purpose, when the per-path Philox streams gave way
    to one SFC64 stream per group of 256 paths, drawn step-major; the
    engine's arithmetic was unchanged. The runs need no eigensolver, and
    their matrix products are 1 x 1 or explicit, so BLAS and ARPACK do
    not enter the bits. Only a change that alters the definition of the
    random streams on purpose may re-record them."""

    GOLDEN = {
        "uncontrolled": "7ea3c66bf5f57b32c6ebd56145048b41"
                        "39252530c806a62306c9f7e4a8294baa",
        "steady": "f19da46c05eafdd1d65533e17903dd81"
                  "daba6e6c0f3d38190081c0dd67dae8a2",
        "feedback": "469b2d26d75ae775c397965c026de900"
                    "5f101bbb055162baa645ce1a27834725",
        "sigma2d": "67f1426825185cd6889d90780998acb6"
                   "263b547a39a9a6e4987aaf56e85af748",
        "sigma2d_steady": "638cef5cb0f570cf60c41bb56803c437"
                          "1cdd4b1e38d5d07c5940452df5cef2ed",
        "sigma2d_feedback": "fa388d9e0a421f02752589e609c3bc98"
                            "164a76d46a9663b6e547de72a9efb6dc",
        "sigma2d_sigma": "2fd14a7bee3cf1c288bcd41acdfb9f79"
                         "113acf20aff71b3d45aefc0235dc1ecf",
    }

    @staticmethod
    def _run(name, ou401):
        g = ou401.grid
        x = g.node_coords()
        c = cfg(T=0.2)
        if name == "uncontrolled":
            return dc.simulate_sde(ou401, c, (0.5,), cost_expr=ou401.q)
        ens = dc.uniform_ensemble(g, 256, 3)
        if name == "steady":
            return dc.simulate_sde(ou401, cfg(T=0.2), ens,
                                   control=dc.VectorField(g, -x),
                                   cost_expr=ou401.q)
        if name == "feedback":
            return dc.simulate_sde(
                ou401, cfg(T=0.2), ens,
                target=dc.ScalarField(g, np.exp(-x[:, 0] ** 2)))
        g2 = dc.Grid((-3.5, -3.5), (3.5, 3.5), (25, 25))
        spec = dc.ProblemSpec(
            grid=g2, phi="(x1^2 + x2^2)/2", q="x1^2",
            Sigma=[["1 + x1^2/4", "0.5"], ["0.5", "1 + x2^2/4"]])
        ens2 = dc.uniform_ensemble(g2, 300, 3)
        x2 = g2.node_coords()
        if name == "sigma2d_steady":
            # a two-column control table, read through the interpolant
            u = np.stack([-x2[:, 0] + 0.3 * x2[:, 1] ** 2,
                          np.sin(x2[:, 0]) - x2[:, 1]], axis=1)
            return dc.simulate_sde(
                spec, cfg(dt=2e-3, T=0.1, n_paths=300), ens2,
                control=dc.VectorField(g2, u), cost_expr=spec.q)
        if name == "sigma2d_feedback":
            # grad(log p) of a skewed target is a two-column table
            p = np.exp(-(x2[:, 0] ** 2 + x2[:, 0] * x2[:, 1] + x2[:, 1] ** 2)
                       / 2 - 0.1 * x2[:, 0])
            return dc.simulate_sde(
                spec, cfg(dt=2e-3, T=0.1, n_paths=300),
                ens2, target=dc.ScalarField(g2, p), cost_expr=spec.q)
        if name == "sigma2d_sigma":
            # a state-dependent sigma with a constant entry
            spec = dc.ProblemSpec(
                grid=g2, phi=spec.phi, q=spec.q,
                sigma=[["1 + x1^2/4", "0.5"], ["0.3*sin(x1)", "1 + x2^2/8"]])
        return dc.simulate_sde(spec, cfg(dt=2e-3, T=0.1, n_paths=300), ens2,
                               cost_expr=spec.q)

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_hash(self, name, ou401):
        batch = self._run(name, ou401)
        if name.startswith("sigma2d"):
            # the uniform start puts paths near the faces: the
            # reflection is part of the pinned bits
            assert batch.exited.any()
        h = hashlib.sha256()
        for a in (batch.terminal, batch.cost_integral, batch.exited):
            h.update(np.ascontiguousarray(a).tobytes())
        assert h.hexdigest() == self.GOLDEN[name]
