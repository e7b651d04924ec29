"""End-to-end acceptance gate: benchmark-preset reproduction and property
suites, each criterion at its stated tolerance."""

import dataclasses
import math
import time

import numpy as np
import pytest

from etpf import presets, run
from etpf.monitor import decay_report
from etpf.tradeoff import NU_MAX, aggregate_J, delta_of_nu, mu_of_nu, optimize_nu
from etpf.trigger import TriggerConfig, min_dwell, min_dwell_numeric

from conftest import prediction_error


class TestC1Example1Stabilization:
    def test_final_norm_events_and_runtime(self):
        start = time.monotonic()
        tr = run(presets.example1())
        elapsed = time.monotonic() - start
        assert tr.final_state_norm <= 0.1
        assert 0 < tr.events.count < math.inf
        assert tr.events.min_dwell_observed > 0
        assert elapsed <= 30.0


class TestC2Example1RobustnessMargin:
    def test_rho_margin_brackets(self):
        base = presets.example1()
        stable = run(dataclasses.replace(
            base, trigger=TriggerConfig.fixed_ratio(0.5), monitor=None
        ))
        assert stable.final_state_norm <= 0.5
        unstable = run(dataclasses.replace(
            base, trigger=TriggerConfig.fixed_ratio(1.0), monitor=None
        ))
        assert unstable.diverged or unstable.final_state_norm > 10.0


class TestC3HeatmapStructure:
    def test_stability_border(self, heatmap_result):
        spec, mat, elapsed = heatmap_result
        dt = np.asarray(spec.delta_tau_grid)
        dp = np.asarray(spec.d_psi_grid)
        assert mat.shape == (8, 8)
        i = int(np.argmin(np.abs(dt - 2.0)))
        j = int(np.argmin(np.abs(dp - 1.0)))
        assert mat[i, j] <= 0.5
        bad_region = mat[(dt >= 5.0), :].ravel().tolist() + mat[:, dp >= 3.0].ravel().tolist()
        assert max(bad_region) >= 10.0
        assert elapsed <= 600.0


class TestC4LinearExponentialRate:
    def test_log_v_slope(self, linear_trace):
        sys = presets.linear2d_system()
        theta = presets.linear2d().trigger.theta
        mu = (2.0 - theta) * sys.lam_min_Q / (4.0 * sys.lam_max_P)
        rep = decay_report(linear_trace.times, linear_trace.V, linear_trace.t0, mu=mu)
        assert rep.slope is not None
        assert rep.slope <= -mu * (1.0 - 0.1)


class TestC5DwellTimeBound:
    @staticmethod
    def _constants():
        cfg = presets.linear2d()
        sys = cfg.linear
        a = sys.L_f * sys.K_norm          # M2 = 1 for the constant delay
        c = sys.L_f * (1.0 + sys.K_norm)
        R = sys.lam_min_Q * math.sqrt(cfg.trigger.theta) / (
            4.0 * sys.PB_norm * sys.K_norm
        )
        return a, c, R

    def test_observed_dwell_dominates_analytic(self, linear_trace):
        a, c, R = self._constants()
        delta = min_dwell(a, c, R)
        assert linear_trace.events.count >= 2
        assert linear_trace.events.min_dwell_observed >= delta

    def test_ode_oracle_matches_closed_form(self):
        a, c, R = self._constants()
        delta = min_dwell(a, c, R)
        assert abs(min_dwell_numeric(a, c, R) - delta) <= 1e-6 * (1.0 + delta)


class TestC6PredictorExactness:
    def test_example1_fine_step(self, ex1_trace_fine):
        err = prediction_error(ex1_trace_fine, presets.example1().delay)
        assert err <= 5e-2

    def test_linear_fine_step(self, linear_trace):
        err = prediction_error(linear_trace, presets.linear2d().delay)
        assert err <= 5e-2

    def test_first_order_convergence(self, linear_trace):
        coarse_cfg = dataclasses.replace(presets.linear2d(), h=2e-3, monitor=None)
        coarse = run(coarse_cfg)
        err_coarse = prediction_error(coarse, coarse_cfg.delay)
        err_fine = prediction_error(linear_trace, coarse_cfg.delay)
        assert err_fine <= 0.6 * err_coarse


class TestC7TriggerInvariant:
    def test_threshold_respected_on_all_presets(self, all_preset_traces):
        for name, tr in all_preset_traces.items():
            last = tr.diagnostics["final_step"]
            pdiff = np.linalg.norm(np.diff(tr.p, axis=0), axis=1)
            for i in range(len(tr.times)):
                if i > last or tr.times[i] < tr.t0:
                    continue
                if tr.event_flags[i]:
                    assert tr.e_norm[i] == 0.0, name
                    continue
                if math.isnan(tr.threshold[i]):
                    continue
                slack = pdiff[i - 1] if i > 0 else 0.0
                assert tr.e_norm[i] <= tr.threshold[i] + slack + 1e-12, (
                    f"{name} at t={tr.times[i]}"
                )


class TestC8WIdentity:
    def test_w_vanishes_after_t0(self, all_preset_traces):
        for name, tr in all_preset_traces.items():
            assert tr.diagnostics["w_max_after_t0"] <= 1e-9, name


class TestC9TradeoffOptimizer:
    def test_monotonicity_optimality_and_runtime(self):
        start = time.monotonic()
        spec = presets.tradeoff()
        consts = spec.constants()
        deltas = [delta_of_nu(consts, v) for v in spec.nu_grid]
        mus = [mu_of_nu(consts, v) for v in spec.nu_grid]
        assert all(b > a for a, b in zip(deltas, deltas[1:]))
        assert all(b < a for a, b in zip(mus, mus[1:]))

        grid = np.linspace(1e-4, NU_MAX - 1e-6, 10_000)
        prev = 0.0
        for lam in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]:
            res = optimize_nu(consts, lam)
            J = np.array([aggregate_J(consts, lam, v) for v in grid])
            nu_oracle = grid[int(np.argmax(J))]
            assert abs(res.nu - nu_oracle) <= 1e-4, lam
            assert res.nu >= prev - 1e-12
            prev = res.nu
        assert time.monotonic() - start <= 5.0


class TestC10Determinism:
    @staticmethod
    def _artifacts(cfg, outdir):
        tr = run(cfg)
        trace = outdir / "trace.csv"
        events = outdir / "events.csv"
        tr.write_trace_csv(trace)
        tr.write_events_csv(events)
        return trace.read_bytes(), events.read_bytes()

    @pytest.mark.parametrize("name", ["example1", "example2", "linear2d"])
    def test_byte_identical_csvs(self, name, tmp_path):
        cfg = dataclasses.replace(presets.get_preset(name), T=4.0)
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        a_dir.mkdir()
        b_dir.mkdir()
        a = self._artifacts(cfg, a_dir)
        b = self._artifacts(cfg, b_dir)
        assert a == b
