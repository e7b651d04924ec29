import dataclasses
import hashlib
import os

import numpy as np
import pytest
from scipy.linalg import expm

from etpf import presets, run
from etpf.channel import ActuationDelay, SensingSchedule, node_of
from etpf.config import build_sim_config, load_config
from etpf.engine import SensingConfig, SimConfig, heatmap
from etpf.exceptions import ConfigurationError, PredictorError
from etpf.trigger import TriggerConfig

from conftest import assert_same_run, own_step, per_step, prediction_error

_MAIN_PID = os.getpid()


def _example1_failing_in_workers():
    # fails only in a pool worker, so a serial rerun of the sweep would
    # succeed and hide the worker's error
    if os.getpid() != _MAIN_PID:
        raise ConfigurationError("config factory failed in a worker")
    return presets.example1()


class TestRunBasics:
    def test_equilibrium_rest(self):
        cfg = dataclasses.replace(
            presets.linear2d(), x0=np.zeros(2), T=2.0, monitor=None
        )
        tr = run(cfg)
        np.testing.assert_array_equal(tr.x, np.zeros_like(tr.x))
        # at most the initializing event at t0, with zero control
        assert tr.events.count <= 1
        assert all(u == 0.0 for u in tr.events.event_controls)

    def test_near_continuous_limit_matches_undelayed_loop(self):
        # tiny delay, perfect sensing, trigger firing every step: the loop
        # approximates xdot = (A + BK)x
        sys = presets.linear2d_system()
        h = 1e-3
        cfg = SimConfig(
            model=sys.to_model(),
            delay=ActuationDelay.constant(h),
            sensing=SensingConfig(mode="perfect"),
            trigger=TriggerConfig.fixed_ratio(1e-12),
            x0=np.array([1.0, 1.0]),
            h=h,
            T=5.0,
            predictor_method="linear-closed-form",
            linear=sys,
        )
        tr = run(cfg)
        A_cl = sys.A_cl
        exact = np.array([expm(A_cl * t) @ cfg.x0 for t in tr.times])
        err = np.max(np.linalg.norm(tr.x - exact, axis=1))
        assert err <= 5e-2

    def test_t0_is_first_delivery(self):
        cfg = presets.example1()  # d_psi = 1
        tr = run(cfg)
        assert tr.t0 == pytest.approx(1.0)
        assert np.all(tr.u[tr.times < tr.t0] == 0.0)
        assert tr.events.event_times[0] == pytest.approx(tr.t0)

    def test_divergence_aborts_with_partial_trace(self):
        tr = run(presets.example2())
        assert tr.diverged
        last = tr.diagnostics["final_step"]
        assert last < len(tr.times) - 1
        assert np.all(np.isfinite(tr.x))

    def test_divergence_in_prehistory(self):
        # the prediction over [phi(0), 0] blows up before the step loop; the
        # run still ends through the divergence exit with a partial trace
        cfg = dataclasses.replace(presets.example2(), x0=np.array([1e4, 1e4]))
        tr = run(cfg)
        assert tr.diverged
        assert tr.diagnostics["final_step"] == 0
        assert np.isnan(tr.pre_p[-1]).all()
        np.testing.assert_array_equal(tr.x, np.tile(cfg.x0, (len(tr.times), 1)))

    @pytest.mark.parametrize("method", ["open-loop", "semi-closed-loop"])
    def test_prehistory_covers_the_first_partial_segment(self, method):
        # example1's phi(0) = -0.519 lies off the grid: the pre-history flow
        # covers [phi(0), -0.51] before its first node, as the closed-loop
        # replay does, instead of holding x0 there
        base = dataclasses.replace(presets.example1(), T=2.0, monitor=None)
        closed = run(base)
        tr = run(dataclasses.replace(base, predictor_method=method))
        assert tr.pre_times[0] == base.delay.phi(0.0) and tr.pre_times[1] == -51 * base.h
        assert np.all(tr.pre_p[1] != base.x0)
        np.testing.assert_allclose(tr.pre_p[1], closed.pre_p[1], rtol=0.0, atol=1e-3)

    def test_divergence_leaves_unreached_control_rows_zero(self):
        # a re-anchor that diverges at step s stops the run before the
        # trigger of step s: the control rows from s on stay 0, as does every
        # row when the pre-history diverges, whatever the pre-history control
        ex2 = presets.example2()
        sensing = dataclasses.replace(ex2.sensing, delta_tau=0.3, d_psi=None, mu_psi=0.8,
                                      sigma_psi=0.5, seed=8)
        tr = run(dataclasses.replace(ex2, T=6.0, sensing=sensing))
        s = tr.diagnostics["final_step"]
        assert tr.diverged and np.isnan(tr.p[s]).all()
        assert np.any(tr.u[:s] != 0.0) and np.all(tr.u[s:] == 0.0)
        tr = run(dataclasses.replace(ex2, x0=np.array([1e4, 1e4]), u_prehistory=0.7,
                                     sensing=SensingConfig(mode="perfect")))
        assert tr.diverged and tr.diagnostics["final_step"] == 0
        assert np.all(tr.u == 0.0)

    def test_plant_delay_beyond_controller_delay_rejected(self):
        # the plant would read u before the controller's pre-history starts
        cfg = dataclasses.replace(presets.example1(), T=2.0,
                                  delay=ActuationDelay.constant(0.9),
                                  ctrl_delay=ActuationDelay.constant(0.5))
        with pytest.raises(ConfigurationError):
            run(cfg)

    def test_delay_not_positive_on_the_grid_rejected(self):
        # node_of places phi(0) = 0 and phi(0) = -5e-12 (5e-10 steps at
        # h = 0.01) on node 0, which leaves no pre-history step
        base = dataclasses.replace(presets.example1(), T=2.0, monitor=None)
        for delay in (ActuationDelay(phi=lambda t: t, M0=1.0, M1=1.0, m2=1.0),
                      ActuationDelay.constant(5e-12)):
            with pytest.raises(ConfigurationError):
                run(dataclasses.replace(base, delay=delay))
        # 2e-11 s is 2e-9 steps: one partial pre-history step onto t = 0
        tr = run(dataclasses.replace(base, delay=ActuationDelay.constant(2e-11)))
        assert not tr.diverged and tr.pre_times.tolist() == [-2e-11]

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_plant_state_diverges(self, bad):
        # the linear predictor uses (A, B), so only the plant sees the bad f;
        # f(0, 0) = 0 as SystemModel requires
        sys = presets.linear2d_system()
        model = dataclasses.replace(
            sys.to_model(), f=lambda x, u: np.array([bad if x.any() else 0.0, 0.0])
        )
        cfg = dataclasses.replace(presets.linear2d(), model=model, T=1.0, monitor=None)
        tr = run(cfg)
        assert tr.diverged
        assert tr.diagnostics["final_step"] == 0
        assert np.all(np.isfinite(tr.x))

    @pytest.mark.parametrize("bound", [1.5, 1.6])
    def test_block_path_diverges_where_the_per_step_path_does(self, bound):
        # |x| of linear2d peaks at 1.80 at t = 0.5 s: a lower plant bound is
        # crossed inside a block, whose rows stop before it; the loop then
        # takes that step and leaves through the one divergence exit
        cfg = dataclasses.replace(presets.linear2d(), T=3.0, monitor=None,
                                  divergence_threshold=bound)
        oracle, tr = run(per_step(cfg)), run(cfg)
        assert tr.diverged and oracle.diverged
        assert tr.diagnostics["final_step"] == oracle.diagnostics["final_step"]
        assert tr.events.event_times == oracle.events.event_times
        np.testing.assert_allclose(tr.x, oracle.x, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(tr.u == 0.0, oracle.u == 0.0)

    def test_config_validation(self):
        cfg = presets.linear2d()
        with pytest.raises(ConfigurationError):
            dataclasses.replace(cfg, h=-1.0)
        with pytest.raises(ConfigurationError):
            dataclasses.replace(cfg, x0=np.zeros(3))
        with pytest.raises(ConfigurationError):
            SensingConfig(mode="telepathic")
        with pytest.raises(ConfigurationError):
            SensingConfig(mode="periodic", delta_tau=1.0)

    def test_determinism_bitwise(self):
        cfg = dataclasses.replace(presets.example2(), T=3.0)
        a, b = run(cfg), run(cfg)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.p, b.p)
        assert a.events.event_times == b.events.event_times

    def test_stale_deliveries_discarded(self, monkeypatch):
        # Gaussian sensing delays reorder deliveries; a delivery is stale
        # when a fresher transmission reached the controller no later.  The
        # engine must discard stale samples, so a schedule without them
        # gives the same run.
        base = presets.example1()
        cfg = dataclasses.replace(
            base, ctrl_delay=ActuationDelay.constant(0.8), T=10.0, monitor=None,
            sensing=dataclasses.replace(
                base.sensing, delta_tau=0.3, d_psi=None, mu_psi=0.8,
                sigma_psi=0.5, seed=0,
            ),
        )
        full = cfg.sensing.schedule(cfg.T)
        a = run(cfg)
        stale = {
            ell for ell, tau, _dv, grid_t in a.deliveries
            if any(tau2 > tau and grid2 <= grid_t for _, tau2, _, grid2 in a.deliveries)
        }
        assert len(full.transmit_times) == 34
        assert len(stale) == 10
        keep = [ell for ell in range(len(full.transmit_times)) if ell not in stale]
        fresh = SensingSchedule(full.transmit_times[keep], full.delivery_times[keep])
        monkeypatch.setattr(SensingConfig, "schedule", lambda self, horizon: fresh)
        b = run(cfg)
        assert not a.diverged and not b.diverged
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.p, b.p)
        assert a.events.event_times == b.events.event_times

    def test_deliveries_snapped_to_grid(self):
        tr = run(dataclasses.replace(presets.example2(), T=5.0))
        for _ell, tau, dv, grid_t in tr.deliveries:
            k = round(grid_t / tr.h)
            assert grid_t == pytest.approx(k * tr.h, abs=1e-12)
            assert grid_t >= dv - 1e-12
            assert grid_t - dv <= tr.h + 1e-12


def _diverging(name):
    """Configs whose runs stop at each phase of the divergence rule."""
    ex2 = presets.example2()
    if name == "pre-history":
        return dataclasses.replace(ex2, x0=np.array([1e4, 1e4]))
    if name == "re-anchor":  # out-of-order Gaussian sensing
        sensing = dataclasses.replace(ex2.sensing, delta_tau=0.3, d_psi=None, mu_psi=0.8,
                                      sigma_psi=0.5, seed=8)
        return dataclasses.replace(ex2, T=6.0, sensing=sensing)
    if name == "advance":
        return ex2
    return dataclasses.replace(presets.linear2d(), T=3.0, monitor=None, divergence_threshold=1.5)


class TestDivergenceRule:
    """The engine decides divergence: |x| <= divergence_threshold after each plant step and
    |p| <= 1e3 divergence_threshold after each re-anchor and advance, the pre-history's too."""

    @pytest.mark.parametrize("phase, bound, step", [
        ("pre-history", "prediction", 0),
        ("re-anchor", "prediction", 368),
        ("advance", "prediction", 144),
        ("plant step", "plant", 118),
    ])
    def test_divergence_names_its_bound_and_phase(self, phase, bound, step):
        cfg = _diverging(phase)
        tr = run(cfg)
        assert tr.diverged and tr.diagnostics["final_step"] == step
        assert tr.diagnostics["divergence"] == {"bound": bound, "phase": phase, "step": step,
                                                "t": step * cfg.h}
        assert f"diverged: True ({bound} bound, {phase}, step {step}, " in tr.summary()

    def test_delivery_flags_only_on_reached_rows(self):
        # a re-anchor that diverges at step s still flags its delivery; a pre-history
        # divergence reaches no row, though perfect sensing delivers at node 0
        tr = run(_diverging("re-anchor"))
        s = tr.diagnostics["final_step"]
        assert tr.delivery_flags[s] == 1.0 and not tr.delivery_flags[s + 1 :].any()
        assert tr.delivery_flags[:s].any()
        tr = run(dataclasses.replace(_diverging("pre-history"),
                                     sensing=SensingConfig(mode="perfect")))
        assert tr.diagnostics["divergence"]["phase"] == "pre-history"
        assert not tr.delivery_flags.any()

    def test_converged_run_has_no_divergence(self, linear_trace):
        assert linear_trace.diagnostics["divergence"] is None and not linear_trace.diverged

    def test_other_predictor_errors_propagate(self, monkeypatch):
        # only the engine's own bounds end a run as diverged
        from etpf.predictor import ClosedLoopPredictor

        advance = ClosedLoopPredictor.advance

        def failing(self, k):
            if k == 50:
                raise PredictorError("history does not cover the window")
            advance(self, k)

        monkeypatch.setattr(ClosedLoopPredictor, "advance", failing)
        with pytest.raises(PredictorError, match="does not cover"):
            run(dataclasses.replace(presets.example1(), T=2.0, monitor=None))


# Which predictor method stabilizes which preset (README, "Divergence"): the outcome,
# the step a diverging run stops at, the bound that fired and the event count
PRESET_OUTCOMES = [
    ("example1", "closed-loop", None, 1189),
    ("example1", "semi-closed-loop", (2153, "plant"), 1006),
    ("example1", "open-loop", (1990, "plant"), 936),
    ("example1", "linear-closed-form", PredictorError, 0),
    ("example2", "closed-loop", (144, "prediction"), 15),
    ("example2", "semi-closed-loop", (248, "plant"), 19),
    ("example2", "open-loop", (153, "plant"), 10),
    ("example2", "linear-closed-form", PredictorError, 0),
    ("linear2d", "closed-loop", None, 112),
    ("linear2d", "semi-closed-loop", None, 112),
    ("linear2d", "open-loop", None, 112),
    ("linear2d", "linear-closed-form", None, 112),
]


@pytest.mark.parametrize("preset, method, stop, events", PRESET_OUTCOMES,
                         ids=[f"{p}-{m}" for p, m, _s, _e in PRESET_OUTCOMES])
def test_preset_outcome_per_method(preset, method, stop, events):
    cfg = dataclasses.replace(presets.get_preset(preset), predictor_method=method, monitor=None)
    if stop is PredictorError:  # a nonlinear preset has no LinearSystem to predict with
        with pytest.raises(PredictorError, match="needs a LinearSystem"):
            run(cfg)
        return
    tr = run(cfg)
    assert tr.events.count == events
    if stop is None:
        assert not tr.diverged and tr.diagnostics["final_step"] == len(tr.times) - 1
    else:
        assert tr.diverged and tr.diagnostics["final_step"] == stop[0]
        assert tr.diagnostics["divergence"]["bound"] == stop[1]


class TestChannelTables:
    @staticmethod
    def count_sigma(monkeypatch):
        calls = []
        sigma = ActuationDelay.sigma
        monkeypatch.setattr(
            ActuationDelay, "sigma", lambda self, t: calls.append(t) or sigma(self, t)
        )
        return calls

    def test_second_run_builds_no_tables(self, monkeypatch):
        # every nonlinear method, including the semi-closed-loop start at the
        # off-grid phi(0), reads sigma and sigmadot from the cached tables
        calls = self.count_sigma(monkeypatch)
        for method in ("closed-loop", "semi-closed-loop", "open-loop"):
            cfg = dataclasses.replace(presets.example1(), T=5.0, predictor_method=method)
            first = run(cfg)
            calls.clear()
            second = run(cfg)
            assert calls == [], method
            for col in ("x", "u", "p", "e_norm", "threshold", "V", "L"):
                np.testing.assert_array_equal(getattr(first, col), getattr(second, col))
            assert first.events.event_times == second.events.event_times

    def test_heatmap_cell_shares_one_table_build(self, monkeypatch):
        # the tables are keyed by the delay's value: a fresh config of the same
        # preset, as every cell and every pool worker builds, solves no sigma again
        ActuationDelay.grid_tables.cache_clear()
        calls = self.count_sigma(monkeypatch)
        heatmap(dataclasses.replace(presets.example1(), T=5.0), [2.0], [1.0], n_ic=1, seed=0,
                workers=1)
        assert len(calls) == 1 and np.ndim(calls[0]) == 1  # the one array solve
        calls.clear()
        heatmap(dataclasses.replace(presets.example1(), T=5.0), [2.0, 3.0], [1.0], n_ic=4,
                seed=0, workers=1)
        assert calls == []


class TestPhi0JustAboveNode:
    """phi(0) within the snap above a node: ``node_of`` places it on that node,
    so the pre-history takes no partial first step.  The grid tables, the
    predictors and the monitor all read sigma and u there."""

    CASES = [
        pytest.param(0.3, 0.1, id="D0.3-h0.1"),
        pytest.param(0.7, 0.01, id="D0.7-h0.01"),
        pytest.param(0.35, 0.01, id="D0.35-h0.01"),
    ]
    METHODS = [
        pytest.param("example1", "closed-loop", True, id="closed-loop-monitored"),
        pytest.param("example1", "semi-closed-loop", True, id="semi-closed-loop-monitored"),
        pytest.param("example1", "open-loop", False, id="open-loop"),
        pytest.param("linear2d", "linear-closed-form", False, id="linear-closed-form"),
    ]

    @pytest.mark.parametrize("preset, method, monitored", METHODS)
    @pytest.mark.parametrize("D, h", CASES)
    def test_runs_without_divergence(self, preset, method, monitored, D, h):
        delay = ActuationDelay.constant(D)
        phi0 = delay.phi(0.0)
        k, on = node_of(phi0, h)
        assert on and k * h < phi0  # the case under test
        base = getattr(presets, preset)()
        cfg = dataclasses.replace(base, delay=delay, h=h, T=3.0, predictor_method=method,
                                  monitor=base.monitor if monitored else None)
        tr = run(cfg)
        assert not tr.diverged
        assert tr.events.count > 0
        if monitored:
            assert np.isfinite(tr.V[:: cfg.monitor.stride]).all()
        if method in ("closed-loop", "open-loop"):
            assert prediction_error(tr, delay) <= 1e-9


def _counting(cfg):
    """``cfg`` with its plant f counting its calls into the returned list."""
    calls, f = [0], cfg.model.f

    def counted(x, u):
        calls[0] += 1
        return f(x, u)

    return dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, f=counted)), calls


class TestOneEulerChain:
    """The plant reads the closed-loop replay's states where the replay started from a row
    of the run's own trajectory under the plant's delay; the oracle is the same run with an
    equal but distinct controller delay, which keeps the plant's own Euler step."""

    ex1 = presets.example1()
    CASES = {
        "example1": (ex1, True),
        "on-node delta_tau": (dataclasses.replace(
            ex1, T=6.0, sensing=SensingConfig(mode="periodic", delta_tau=2.0, d_psi=0.57)), True),
        "off-node delta_tau": (dataclasses.replace(
            ex1, T=6.0, sensing=SensingConfig(mode="periodic", delta_tau=9 / 7, d_psi=0.57)),
            True),
        "perfect sensing": (dataclasses.replace(
            ex1, T=4.0, sensing=SensingConfig(mode="perfect"), u_prehistory=0.3), True),
        # sigma(t) stays below the next node: the replay never holds the plant's next row
        "delay below h": (dataclasses.replace(
            ex1, T=3.0, delay=ActuationDelay.constant(0.5 * ex1.h)), False),
        "diverging example2": (dataclasses.replace(
            presets.example2(), ctrl_delay=None, x0=np.array([1.5, 1.5])), True),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_replay_read_equals_own_step(self, name):
        cfg, reads = self.CASES[name]
        shared, shared_calls = _counting(cfg)
        own, own_calls = _counting(own_step(cfg))
        tr, oracle = run(shared), run(own)
        assert_same_run(tr, oracle)
        np.testing.assert_array_equal(tr.V, oracle.V)
        np.testing.assert_array_equal(tr.L, oracle.L)
        # the plant's reads of the replay save f calls wherever they happen
        assert (shared_calls[0] < own_calls[0]) == reads
        if name == "diverging example2":
            assert tr.diverged

    def test_equal_ctrl_delay_keeps_the_plants_own_step(self, tmp_path):
        # delays compare by value and share their tables, but the plant reads the
        # replay only when the controller's delay is the plant's own object
        cfg = dataclasses.replace(self.ex1, T=5.0)
        twin = dataclasses.replace(cfg, ctrl_delay=ActuationDelay.example1())
        assert twin.ctrl_delay == cfg.delay and twin.ctrl_delay is not cfg.delay
        shared, shared_calls = _counting(cfg)
        own, own_calls = _counting(twin)
        tr, oracle = run(shared), run(own)
        assert_same_run(tr, oracle)
        assert (shared_calls[0], own_calls[0]) == (582, 1082)
        oracle.write_trace_csv(tmp_path / "trace.csv")
        oracle.write_events_csv(tmp_path / "events.csv")
        digests = [hashlib.sha256((tmp_path / n).read_bytes()).hexdigest()
                   for n in ("trace.csv", "events.csv")]
        assert digests == [
            "7d9f2339c66b3b4704fe689e32b36aa89c688926300a50ba5946b863cdc2eea3",
            "a3f1e731d146c79ace1b4e9dbdc7aed630c62bf2da85ed5987ef4d9164342b6b",
        ]

    def test_on_node_anchors_do_not_depend_on_delta_tau(self):
        # with the nominal model, a re-anchor on a node lands on the replay's own
        # state: the trace is that of the pre-history's one chain, whatever the
        # period, and only off-node anchors (9/7) move it
        base = dataclasses.replace(self.ex1, T=6.0, x0=np.array([0.3, -1.2]), monitor=None)

        def at(delta_tau):
            return run(dataclasses.replace(base, sensing=SensingConfig(
                mode="periodic", delta_tau=delta_tau, d_psi=0.57)))

        ref = at(2.0)
        for dt in (0.5, 6.0):
            tr = at(dt)
            for name in ("x", "u", "p", "e_norm", "threshold", "event_flags"):
                np.testing.assert_array_equal(getattr(tr, name), getattr(ref, name))
            assert tr.events.event_times == ref.events.event_times
        off = at(9 / 7)
        assert not np.array_equal(off.x, ref.x)

    def test_heatmap_rows_on_the_grid_agree(self, heatmap_result):
        # of heatmap-ex1's delta_tau rows, only 0.5 and 6.0 transmit on nodes: they
        # are equal cell for cell, and the axis measures the off-node anchor error
        spec, mat, _elapsed = heatmap_result
        on = [i for i, dt in enumerate(spec.delta_tau_grid)
              if all(node_of(k * dt, self.ex1.h)[1] for k in range(int(self.ex1.T / dt) + 1))]
        assert [spec.delta_tau_grid[i] for i in on] == [0.5, 6.0]
        np.testing.assert_array_equal(mat[on[0]], mat[on[1]])


class TestMonitorAttachment:
    def test_monitored_columns_present(self, linear_trace):
        stride = presets.linear2d().monitor.stride
        vals = linear_trace.V[::stride]
        assert np.all(np.isfinite(vals))
        assert np.all(vals >= 0.0)
        # L vanishes once the pre-t0 disturbance has left the window
        assert linear_trace.L[::stride][-1] == 0.0

    def test_v_decreases_overall(self, linear_trace):
        stride = presets.linear2d().monitor.stride
        vals = linear_trace.V[::stride]
        assert vals[-1] < 1e-6 * vals[0]


class TestHeatmap:
    def test_stable_cell_small(self):
        mat = heatmap(presets.example1(), [2.0], [1.0], n_ic=3, seed=42, workers=1)
        assert mat.shape == (1, 1)
        assert mat[0, 0] <= 0.5

    def test_seed_reproducibility(self):
        a = heatmap(presets.example1(), [2.0], [1.0], n_ic=2, seed=7, workers=1)
        b = heatmap(presets.example1(), [2.0], [1.0], n_ic=2, seed=7, workers=1)
        np.testing.assert_array_equal(a, b)

    def test_parallel_matches_serial(self):
        args = ([2.0], [0.5, 1.0])
        serial = heatmap(presets.example1(), *args, n_ic=2, seed=3, workers=1,
                         config_factory=presets.example1)
        pooled = heatmap(presets.example1(), *args, n_ic=2, seed=3, workers=2,
                         config_factory=presets.example1)
        # the preset config itself pickles: the pool gets it without a factory
        pooled_cfg = heatmap(presets.example1(), *args, n_ic=2, seed=3, workers=2)
        np.testing.assert_array_equal(pooled, serial)
        np.testing.assert_array_equal(pooled_cfg, serial)

    def test_yaml_config_runs_in_the_pool(self, tmp_path):
        # a YAML-built config has no factory; it pickles, so the pool runs it
        path = tmp_path / "cfg.yaml"
        path.write_text("preset: example1\ndelay: {kind: sinusoidal, D: 0.4, a: 0.1}\n"
                        "sim: {T: 4.0}\n")
        base = build_sim_config(load_config(path))
        args = ([1.0, 2.0], [0.5])
        serial = heatmap(base, *args, n_ic=2, seed=5, workers=1)
        pooled = heatmap(base, *args, n_ic=2, seed=5, workers=2)
        assert serial.tobytes() == pooled.tobytes()

    def test_unpicklable_config_raises_before_any_cell(self, monkeypatch):
        import etpf.engine as engine
        ran = []
        monkeypatch.setattr(engine, "run", lambda cfg: ran.append(cfg) or run(cfg))
        delay = ActuationDelay(phi=lambda t: t - 1.0, M0=1.0, M1=1.0, m2=1.0)
        base = dataclasses.replace(presets.example1(), delay=delay, T=2.0)
        with pytest.raises(ConfigurationError, match=r"base_cfg\.delay\.phi does not pickle"):
            heatmap(base, [2.0], [1.0], n_ic=1, seed=1, workers=2)
        with pytest.raises(ConfigurationError, match="config_factory does not pickle"):
            heatmap(base, [2.0], [1.0], n_ic=1, seed=1, workers=2, config_factory=lambda: base)
        assert ran == []
        # one worker needs no pickling
        heatmap(base, [2.0], [1.0], n_ic=1, seed=1, workers=1)
        assert len(ran) == 1

    def test_worker_error_propagates(self):
        with pytest.raises(ConfigurationError, match="in a worker"):
            heatmap(presets.example1(), [2.0], [1.0], n_ic=1, seed=1, workers=2,
                    config_factory=_example1_failing_in_workers)

    def test_configuration_error_raises(self):
        # only divergence saturates a cell; an unknown method is not divergence
        base = dataclasses.replace(presets.example1(), T=2.0, predictor_method="magic")
        with pytest.raises(PredictorError, match="unknown predictor method"):
            heatmap(base, [2.0], [1.0], n_ic=1, seed=1, workers=1)

    @pytest.mark.parametrize("value", ["two", "-1", "1.5", ""])
    def test_bad_thread_count_env_rejected(self, monkeypatch, value):
        monkeypatch.setenv("ETPF_THREADS", value)
        with pytest.raises(ConfigurationError, match="ETPF_THREADS"):
            heatmap(presets.example1(), [2.0], [1.0], n_ic=1, seed=1)

    def test_thread_count_env_caps_workers(self, monkeypatch):
        # one worker: the picklable sweep runs in this process, with no pool
        import concurrent.futures
        monkeypatch.setenv("ETPF_THREADS", " 1 ")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
        mat = heatmap(presets.example1(), [2.0], [1.0], n_ic=1, seed=7,
                      config_factory=presets.example1)
        assert mat.shape == (1, 1)

    def test_bad_n_ic(self):
        with pytest.raises(ConfigurationError):
            heatmap(presets.example1(), [2.0], [1.0], n_ic=0, seed=1)

    @pytest.mark.parametrize("bad", [-1.0, -1e-300, float("nan")])
    def test_negative_sensing_delay_raises_before_any_cell(self, monkeypatch, bad):
        # a negative d_psi used to run as d_psi = 0, while heatmap.csv kept its label
        import etpf.engine as engine
        ran = []
        monkeypatch.setattr(engine, "run", lambda cfg: ran.append(cfg) or run(cfg))
        base = dataclasses.replace(presets.example1(), T=3.0)
        with pytest.raises(ConfigurationError, match="d_psi must be nonnegative"):
            heatmap(base, [2.0], [0.0, bad], n_ic=1, seed=1, workers=1)
        assert ran == []

    def test_negative_zero_sensing_delay_is_zero(self):
        base = dataclasses.replace(presets.example1(), T=3.0)
        mat = heatmap(base, [2.0], [-0.0, 0.0], n_ic=2, seed=1, workers=1)
        assert mat[0, 0].tobytes() == mat[0, 1].tobytes()
