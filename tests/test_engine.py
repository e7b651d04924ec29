import dataclasses
import os

import numpy as np
import pytest
from scipy.linalg import expm

from etpf import presets, run
from etpf.channel import ActuationDelay, SensingSchedule, node_of
from etpf.engine import SensingConfig, SimConfig, heatmap
from etpf.exceptions import ConfigurationError, PredictorError
from etpf.trigger import TriggerConfig

from conftest import per_step, prediction_error

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
        calls = self.count_sigma(monkeypatch)
        base = dataclasses.replace(presets.example1(), T=5.0)
        heatmap(base, [2.0], [1.0], n_ic=1, seed=0, workers=1)
        one_run = len(calls)
        calls.clear()
        base = dataclasses.replace(presets.example1(), T=5.0)
        heatmap(base, [2.0], [1.0], n_ic=4, seed=0, workers=1)
        assert one_run > 0 and len(calls) == one_run


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
        # the example1 delay map is a closure: this config cannot be
        # pickled, so the sweep runs serially
        unpicklable = heatmap(presets.example1(), *args, n_ic=2, seed=3, workers=2)
        np.testing.assert_array_equal(pooled, serial)
        np.testing.assert_array_equal(unpicklable, serial)

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
