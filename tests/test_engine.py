import dataclasses
import hashlib
import os
from unittest import mock

import numpy as np
import pytest
from scipy.linalg import expm

from etpf import presets, run
from etpf.channel import ActuationDelay, SensingSchedule, node_of
from etpf.config import build_sim_config, load_config
from etpf.engine import SensingConfig, SimConfig, heatmap
from etpf.exceptions import ConfigurationError, PredictorError
from etpf.model import LinearSystem, SystemModel
from etpf.monitor import MonitorConfig
from etpf.predictor import ClosedLoopPredictor
from etpf.trigger import TriggerConfig

from conftest import assert_same_run, own_step, per_step, prediction_error, unfused

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
            sys.to_model(), f=lambda x, u: (bad if any(x) else 0.0, 0.0)
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

    @pytest.mark.parametrize("preset, T, h", [(presets.example1, 25.0, 0.03),
                                              (presets.linear2d, 2.5, 0.0075)])
    def test_horizon_off_the_grid_rejected(self, preset, T, h):
        # the run used to end on the nearest node without a word: at 24.99 and 2.4975
        with pytest.raises(ConfigurationError, match=rf"T = {T} .* steps h = {h}"):
            dataclasses.replace(preset(), T=T, h=h)
        # a horizon on the grid ends on its own node
        tr = run(dataclasses.replace(preset(), T=3.0, h=h, monitor=None))
        assert len(tr.times) == round(3.0 / h) + 1
        assert tr.times[-1] == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("build", [
        lambda: SensingConfig(mu_psi=0.1, sigma_psi=-0.02),
        lambda: SensingConfig(delta_tau=np.nan, d_psi=1.0),
        lambda: dataclasses.replace(presets.example1(), h=np.nan),
        lambda: dataclasses.replace(presets.example1(), T=np.nan),
        lambda: dataclasses.replace(presets.example1(), T=np.inf),
        lambda: MonitorConfig(stride=2.5),
        lambda: TriggerConfig.nonlinear(presets.example1().cert, 0.5, L_K=np.nan),
        lambda: TriggerConfig.fixed_ratio(np.nan),
        lambda: MonitorConfig(b=np.nan),
        lambda: dataclasses.replace(presets.example1(), divergence_threshold=np.nan),
        lambda: dataclasses.replace(presets.example1(), divergence_threshold=-1.0),
        lambda: dataclasses.replace(presets.example1(), u_prehistory=np.nan),
    ], ids=["sigma_psi<0", "delta_tau=nan", "h=nan", "T=nan", "T=inf", "stride=2.5",
            "L_K=nan", "rho_bar=nan", "b=nan", "divergence_threshold=nan",
            "divergence_threshold=-1", "u_prehistory=nan"])
    def test_invalid_config_raises_at_construction(self, build):
        # each once escaped run as a numpy or Python error, or ran wrong without one
        with pytest.raises(ConfigurationError):
            build()

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

    @pytest.mark.parametrize("T, delta_tau", [(0.3, 0.1), (0.6, 0.2), (0.7, 0.1), (2.3, 0.05)])
    def test_the_transmission_at_T_is_adopted_at_node_N(self, T, delta_tau):
        # T / delta_tau falls one ulp short of an integer: the transmission at T still
        # counts, and with no sensing delay it is adopted at the last node
        assert T / delta_tau < round(T / delta_tau)
        cfg = dataclasses.replace(presets.example1(), T=T, monitor=None,
                                  sensing=SensingConfig(delta_tau=delta_tau, d_psi=0.0))
        tr = run(cfg)
        assert len(tr.deliveries) == round(T / delta_tau) + 1
        assert tr.deliveries[-1][3] == pytest.approx(T) and tr.delivery_flags[-1] == 1.0

    def test_diverged_events_csv_has_every_event(self, ex2_trace, tmp_path):
        ex2_trace.write_events_csv(tmp_path / "events.csv")
        rows = np.loadtxt(tmp_path / "events.csv", delimiter=",", skiprows=1, ndmin=2)
        assert ex2_trace.diverged and len(rows) == ex2_trace.events.count > 0
        assert not np.isnan(rows[:, 3:5]).any()  # p_norm and e_pre_reset

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


def _overflowing(name):
    """A config whose run meets a float power past the range in the named phase."""
    ex2 = presets.example2()
    gaussian = dict(delta_tau=0.19, mu_psi=0.5, sigma_psi=0.5)
    if name == "re-anchor":  # the replay of a re-anchor's window
        return dataclasses.replace(ex2, T=3.0, sensing=SensingConfig(**gaussian, seed=128))
    if name == "control":  # K(p) of an event, |p| within a bound of 1e203
        return dataclasses.replace(ex2, T=3.0, sensing=SensingConfig(**gaussian, seed=2),
                                   divergence_threshold=1e200)
    # xdot = x^3, uncontrolled: the chain, 0.5 s ahead of the plant, blows up first (from
    # x0 = 2 within the pre-history's window), and a linear prediction never does
    cubic = SystemModel(state_dim=1, f=lambda x, u: (x[0] ** 3 + u,), K=lambda x: 0.0,
                        L_f=1.0, L_K=1.0)
    return SimConfig(model=cubic, delay=ActuationDelay.constant(0.5),
                     sensing=SensingConfig(delta_tau=10.0, d_psi=0.0),
                     trigger=TriggerConfig.fixed_ratio(0.1), T=4.0,
                     x0=np.array([2.0 if name == "pre-history" else 0.5]),
                     divergence_threshold=1e300,
                     linear=LinearSystem(A=[[0.0]], B=[[1.0]], K_gain=[[-1.0]], Q=[[1.0]]),
                     predictor_method="linear-closed-form" if name == "plant step"
                     else "closed-loop")


class TestDivergenceRule:
    """The engine decides divergence: |x| <= divergence_threshold after each plant step and
    |p| <= 1e3 divergence_threshold after each re-anchor and advance, the pre-history's too;
    an overflow stops a run in the phase it happens in."""

    @pytest.mark.parametrize("phase, bound, step, before", [
        ("pre-history", "prediction", 0, True),
        ("re-anchor", "prediction", 368, False),
        ("advance", "prediction", 144, False),
        ("plant step", "plant", 118, True),
    ])
    def test_divergence_names_its_bound_and_phase(self, phase, bound, step, before):
        cfg = _diverging(phase)
        tr = run(cfg)
        assert tr.diverged and tr.diagnostics["final_step"] == step
        assert tr.diagnostics["divergence"] == {"bound": bound, "phase": phase, "step": step,
                                                "t": step * cfg.h, "before_control": before}
        assert f"diverged: True ({bound} bound, {phase}, step {step}, " in tr.summary()

    @pytest.mark.parametrize("make, t, sigma_t0, before", [
        # a 20 s delay: the unstable plant leaves the bound under u = 0 at t = 17.29, before
        # the first control, made at t0 = 1, reaches it at sigma(t0) = 21
        pytest.param(lambda: dataclasses.replace(presets.example1(), monitor=None, T=60.0,
                                                 delay=ActuationDelay.constant(20.0)),
                     17.29, 21.0, True, id="example1-delay-20"),
        # the prediction fails at t = 1.44, after the control of t0 = 0.11 has arrived
        pytest.param(presets.example2, 1.44, 0.313, False, id="example2"),
    ])
    def test_stop_before_any_control_reached_the_plant(self, make, t, sigma_t0, before):
        cfg = make()
        tr = run(cfg)
        d = tr.diagnostics["divergence"]
        assert d["t"] == pytest.approx(t) and d["before_control"] is before
        assert cfg.delay.sigma(tr.t0) == pytest.approx(sigma_t0, abs=1e-3)
        assert f"\nstopped before any control reached the plant: {before}\n" in tr.summary()

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

    @pytest.mark.parametrize("phase, bound, step, before", [
        ("pre-history", "prediction", 0, True),
        ("re-anchor", "prediction", 131, False),
        ("advance", "prediction", 160, False),
        ("plant step", "plant", 210, False),
        ("control", "prediction", 106, False),
    ])
    def test_an_overflow_is_a_divergence(self, phase, bound, step, before):
        # Python's float power raises OverflowError where a product gives inf: the run ends
        # on the one divergence exit, in the phase it was in
        cfg, raised = _overflowing(phase), []

        def watched(g):
            def call(*args):
                try:
                    return g(*args)
                except OverflowError:
                    raised.append(g)
                    raise
            return call

        model = dataclasses.replace(cfg.model, f=watched(cfg.model.f), K=watched(cfg.model.K))
        tr = run(dataclasses.replace(cfg, model=model))
        assert raised == [cfg.model.K if phase == "control" else cfg.model.f]
        assert tr.diagnostics["divergence"] == {"bound": bound, "phase": phase, "step": step,
                                                "t": step * cfg.h, "before_control": before}
        assert tr.diagnostics["final_step"] == step and np.isfinite(tr.x).all()
        assert f"diverged: True ({bound} bound, {phase}, step {step}, " in tr.summary()

    def test_heatmap_saturates_a_run_that_overflows(self):
        # the cell's one initial state (seed 3) overflows in a re-anchor's replay: a divergence,
        # which the cell counts at the saturation value
        base = dataclasses.replace(presets.example2(), T=3.0)
        assert heatmap(base, [0.5], [0.3], n_ic=1, seed=3, workers=1).tolist() == [[1e9]]

    def test_other_predictor_errors_propagate(self):
        # only the engine's own bounds and an overflow end a run as diverged: an error from a
        # re-anchor at the first delivery (node 100), or from an advance of the pre-history
        # (after it the loop takes most of the chain's steps itself), propagates
        cfg = dataclasses.replace(presets.example1(), T=2.0, monitor=None)
        for method, node in (("reanchor", 100), ("advance", -20)):
            original = getattr(ClosedLoopPredictor, method)

            def failing(self, *args, original=original, node=node):
                if args[-1] == node:
                    raise PredictorError("history does not cover the window")
                original(self, *args)

            with mock.patch.object(ClosedLoopPredictor, method, failing):
                with pytest.raises(PredictorError, match="does not cover"):
                    run(cfg)


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
    of the run's own trajectory under the plant's delay; the oracle is the same run with the
    replay read switched off (``own_step``), which keeps the plant's own Euler step."""

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
        own, own_calls = _counting(cfg)
        tr = run(shared)
        with own_step():
            oracle = run(own)
        assert_same_run(tr, oracle)
        np.testing.assert_array_equal(tr.V, oracle.V)
        np.testing.assert_array_equal(tr.L, oracle.L)
        # the plant's reads of the replay save f calls wherever they happen
        assert (shared_calls[0] < own_calls[0]) == reads
        if name == "diverging example2":
            assert tr.diverged

    def test_equal_ctrl_delay_reads_the_replay(self, tmp_path):
        # delays compare by value: a controller delay equal to the plant's, though another
        # object, shares its tables and lets the plant read the replay
        cfg = dataclasses.replace(self.ex1, T=5.0)
        twin = dataclasses.replace(cfg, ctrl_delay=ActuationDelay.example1())
        assert twin.ctrl_delay == cfg.delay and twin.ctrl_delay is not cfg.delay
        shared, shared_calls = _counting(cfg)
        equal, equal_calls = _counting(twin)
        tr, twin_tr = run(shared), run(equal)
        assert_same_run(tr, twin_tr)
        assert (shared_calls[0], equal_calls[0]) == (582, 582)
        twin_tr.write_trace_csv(tmp_path / "trace.csv")
        twin_tr.write_events_csv(tmp_path / "events.csv")
        digests = [hashlib.sha256((tmp_path / n).read_bytes()).hexdigest()
                   for n in ("trace.csv", "events.csv")]
        assert digests == [
            "47326ba6521c2c1ed1c47b59b9cf09ea95ae07f2738afe7eb33a5e53a8d7c03d",
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


def _scalar_f(x, u):
    return (0.8 * x[0] + u,)


def _chain3_f(x, u):
    return (x[1], x[2], 0.5 * x[0] - x[1] + 0.2 * x[2] + u)


class TestStateDimensions:
    """The presets are all 2-state, whose rows the loop stores through flat views; a 1-state
    and a 3-state plant take the numpy row writes.  Under a constant on-grid delay with
    on-grid deliveries, the closed-loop prediction is the plant's own chain."""

    D, h = 0.3, 0.01
    MODELS = {
        1: SystemModel(state_dim=1, f=_scalar_f, K=lambda x: -2.0 * x[0], L_f=1.0, L_K=2.0),
        3: SystemModel(state_dim=3, f=_chain3_f, K=lambda x: -0.5 * x[0] - 1.5 * x[1] - 1.2 * x[2],
                       L_f=2.0, L_K=2.0),
    }

    @pytest.mark.parametrize("n", MODELS)
    def test_rows_are_the_euler_recursion(self, n):
        h, delay = self.h, ActuationDelay.constant(self.D)
        cfg = SimConfig(model=self.MODELS[n], delay=delay,
                        sensing=SensingConfig(delta_tau=0.5, d_psi=0.2),
                        trigger=TriggerConfig.fixed_ratio(0.05), x0=np.linspace(1.0, -0.5, n),
                        h=h, T=4.0, u_prehistory=0.1)
        tr = run(cfg)
        N, m = len(tr.times) - 1, node_of(self.D, h)[0]
        assert not tr.diverged and tr.events.count > 10
        # x: the Euler recursion under u(phi(k h)), read through the delay's row table
        rows = delay.grid_tables(h, node_of(delay.phi(0.0), h)[0], N).rows
        x, X = tuple(cfg.x0.tolist()), [cfg.x0]
        for k in range(N):
            u = tr.u[rows[k]] if rows[k] >= 0 else cfg.u_prehistory
            x = tuple(a + h * b for a, b in zip(x, cfg.model.f(x, float(u))))
            X.append(x)
        assert np.array(X).tobytes() == tr.x.tobytes()
        # p(t) = x(sigma(t)), bit for bit, wherever that row exists: from t = 0, where the
        # prediction from x0 is the plant's chain too, through t0 and on
        assert tr.t0 > 0.0 and tr.p[: N + 1 - m].tobytes() == tr.x[m:].tobytes()


class TestActuationError:
    """``w_max_after_t0`` is the largest |w| = |u - K(p(t_k))| over the control rows from t0
    on, the held rows between events included."""

    def test_every_preset_reads_zero(self, all_preset_traces):
        for name, tr in all_preset_traces.items():
            assert tr.diagnostics["w_max_after_t0"] == 0.0, name

    def test_a_perturbed_held_row_is_reported(self):
        cfg = dataclasses.replace(presets.example1(), T=5.0, monitor=None)
        ref = run(cfg)
        ev, k0 = ref.event_flags, node_of(ref.t0, cfg.h)[0]
        # a held row two steps before the next event: its event control K(p(t_k)) is the row
        # before it, and the step copies it to the row after
        k = next(k for k in range(k0 + 1, len(ev) - 2) if ev[k - 1] and not ev[k : k + 2].any())
        advance, delta = ClosedLoopPredictor.advance, 1e-3

        def perturbing(self, j):
            if j == k - 1:  # the step has just copied row k - 1 into row k
                self.grid.U[k] += delta
            advance(self, j)

        # with fused off the engine calls advance on every step, the held row's included
        with unfused(), mock.patch.object(ClosedLoopPredictor, "advance", perturbing):
            tr = run(cfg)
        assert not tr.event_flags[k] and tr.u[k] != tr.u[k - 1]
        assert ref.diagnostics["w_max_after_t0"] == 0.0
        assert tr.diagnostics["w_max_after_t0"] == pytest.approx(delta, rel=1e-9)


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

    def test_a_delay_of_75_overflows_to_inf(self):
        # exp(b D) = exp(750) is past the float range: L and V read inf while the window
        # holds the pre-t0 disturbance at full weight, with no OverflowError and no NaN
        cfg = dataclasses.replace(presets.linear2d(), h=0.01, T=2.0,
                                  delay=ActuationDelay.constant(75.0))
        tr = run(cfg)
        L, V = tr.L[:: cfg.monitor.stride], tr.V[:: cfg.monitor.stride]
        assert not np.isnan(L).any() and not np.isnan(V).any()
        assert (L[0], V[0]) == (np.inf, np.inf)


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

    @pytest.mark.parametrize("n_ic, seed, what", [
        (2.5, 1, "n_ic"), (True, 1, "n_ic"), (1, -1, "seed"), (1, 1.5, "seed"),
    ])
    def test_mistyped_n_ic_or_seed_raises(self, n_ic, seed, what):
        # numpy used to raise TypeError (n_ic 2.5 or True, seed 1.5) or ValueError (seed -1)
        with pytest.raises(ConfigurationError, match=what):
            heatmap(presets.example1(), [2.0], [1.0], n_ic=n_ic, seed=seed, workers=1)

    @pytest.mark.parametrize("dt_grid, dp_grid", [([], [1.0]), ([2.0], []), ([[2.0]], [1.0])])
    def test_empty_or_nested_grid_raises(self, dt_grid, dp_grid):
        with pytest.raises(ConfigurationError, match="grid must be a nonempty list"):
            heatmap(presets.example1(), dt_grid, dp_grid, n_ic=1, seed=1, workers=1)

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
