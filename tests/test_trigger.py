import dataclasses
import math

import numpy as np
import pytest

from etpf import presets
from etpf.config import build_sim_config
from etpf.engine import run
from etpf.exceptions import ConfigurationError, DomainError
from etpf.model import LinearSystem
from etpf.presets import _ex1_linearization, linear2d_system
from etpf.trigger import (
    EventLog,
    TriggerConfig,
    check_and_fire,
    decide,
    first_crossing,
    min_dwell,
    min_dwell_numeric,
    threshold,
)

from test_golden import GOLDEN_CSV, sha256


def exact(p_last, p, rho):
    """``check_and_fire`` under ``threshold``: the per-row rule the float decision stands for."""
    return check_and_fire(np.array(p_last), np.array(p), threshold(TriggerConfig.fixed_ratio(rho), p))[0]


def agrees(p_last, p, rho) -> bool:
    """``decide`` leaves the row to the exact norms or decides it as they do."""
    got = decide(tuple(p_last), tuple(p), rho, math.hypot(*p))
    return got is None or got == exact(p_last, p, rho)


class TestTriggeringError:
    def test_zero_after_event(self):
        p = np.array([1.0, 2.0])
        assert check_and_fire(p, p, 0.0) == (False, 0.0)

    def test_subtraction(self):
        _, e_norm = check_and_fire([1.0, 1.0], [1.0, 0.0], 2.0)
        assert e_norm == pytest.approx(1.0)
        _, e_norm = check_and_fire([4.0, 0.0], [1.0, 4.0], 10.0)
        assert e_norm == pytest.approx(5.0)


class TestThreshold:
    def test_fixed_ratio(self):
        cfg = TriggerConfig.fixed_ratio(0.5)
        assert threshold(cfg, [3.0, 4.0]) == pytest.approx(2.5)

    def test_linear_coefficient_formula(self):
        sys = linear2d_system()
        theta = 0.5
        cfg = TriggerConfig.linear(sys, theta=theta)
        expected = sys.lam_min_Q * math.sqrt(theta) / (4.0 * sys.PB_norm * sys.K_norm)
        assert cfg.rho_bar == pytest.approx(expected)
        assert threshold(cfg, [1.0, 0.0]) == pytest.approx(expected)

    def test_nonlinear_example1_coefficient(self):
        # Q = I certificate of the benchmark linearization: the quadratic forms
        # collapse the threshold rho_inv(theta gamma(|p|)) / (2 L_K) to a fixed ratio
        # of about 0.0199
        sys = _ex1_linearization()
        L_K = 7.0 * math.sqrt(2.0)
        cfg = TriggerConfig.nonlinear(sys, theta=0.5, L_K=L_K)
        ratio = threshold(cfg, [1.0, 0.0])
        gamma = sys.lam_min_Q / 2.0 * 1.0 ** 2  # gamma(|p|) at |p| = 1
        c_rho = 2.0 * sys.PB_norm ** 2 / sys.lam_min_Q  # rho(r) = c_rho r^2
        assert ratio == pytest.approx(math.sqrt(0.5 * gamma / c_rho) / (2.0 * L_K), rel=1e-12)
        assert ratio == pytest.approx(0.0199, abs=2e-4)
        # threshold is homogeneous in |p|
        assert threshold(cfg, [2.0, 0.0]) == pytest.approx(2.0 * ratio)

    def test_zero_state(self):
        cfg = TriggerConfig.fixed_ratio(0.5)
        assert threshold(cfg, [0.0, 0.0]) == 0.0

    def test_missing_certificate(self):
        with pytest.raises(ConfigurationError, match="certificate"):
            TriggerConfig.nonlinear(None, theta=0.5, L_K=1.0)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            TriggerConfig(mode="fixed-ratio", theta=1.5, rho_bar=0.5)
        with pytest.raises(ConfigurationError):
            TriggerConfig.fixed_ratio(-1.0)
        with pytest.raises(ConfigurationError):
            TriggerConfig(mode="sometimes", theta=0.5)
        # a linear trigger without its ratio fails when it is built
        with pytest.raises(ConfigurationError):
            TriggerConfig(mode="linear", theta=0.5)

    def test_linear_factory_raises_configuration_errors(self):
        # math.sqrt(-1) used to raise ValueError, and B = 0 or K = 0 ZeroDivisionError
        with pytest.raises(ConfigurationError, match="theta"):
            TriggerConfig.linear(linear2d_system(), theta=-1.0)
        stable = LinearSystem(A=-np.eye(2), B=[[0.0], [1.0]], K_gain=[[0.0, 0.0]], Q=np.eye(2))
        with pytest.raises(ConfigurationError, match="rho_bar"):
            TriggerConfig.linear(stable, theta=0.5)


class TestOneRatio:
    """The nonlinear and the linear trigger are one formula: with ``L_K = |K|`` they give the
    same ratio, and a run under either has the same bits."""

    @staticmethod
    def stabilized(seed):
        """A random controllable pair with K from pole placement at two random stable poles."""
        rng = np.random.default_rng(seed)
        A = rng.uniform(-2.0, 2.0, (2, 2))
        B = rng.uniform(-2.0, 2.0, (2, 1))
        C = np.hstack([B, A @ B])  # controllability matrix
        poles = -rng.uniform(0.5, 3.0, 2)
        # Ackermann: K = -[0 1] C^-1 phi(A), phi the desired characteristic polynomial
        phi = A @ A - poles.sum() * A + poles.prod() * np.eye(2)
        K = -np.linalg.solve(C.T, [0.0, 1.0]) @ phi
        return LinearSystem(A=A, B=B, K_gain=K.reshape(1, 2), Q=np.diag(rng.uniform(0.5, 2.0, 2)))

    @pytest.mark.parametrize("seed", [None, 1, 2, 3, 4, 5])
    def test_nonlinear_ratio_is_the_linear_ratio(self, seed):
        sys = linear2d_system() if seed is None else self.stabilized(seed)
        for theta in (0.1, 0.5, 0.9):
            want = TriggerConfig.linear(sys, theta).rho_bar.hex()
            assert TriggerConfig.nonlinear(sys, theta, sys.K_norm).rho_bar.hex() == want

    def test_nonlinear_linear2d_is_the_linear2d_run(self, tmp_path):
        cfg = build_sim_config({"preset": "linear2d", "trigger": {"mode": "nonlinear"}})
        assert cfg.trigger.mode == "nonlinear"
        tr = run(cfg)
        trace, events = tmp_path / "trace.csv", tmp_path / "events.csv"
        tr.write_trace_csv(trace)
        tr.write_events_csv(events)
        assert (sha256(trace.read_bytes()), sha256(events.read_bytes())) == GOLDEN_CSV["linear2d"]

    def test_nonlinear_example1_checks_one_row_exactly(self):
        # the first check; the float decision settles every later row
        ex1 = presets.example1()
        cfg = dataclasses.replace(ex1, monitor=None,
                                  trigger=TriggerConfig.nonlinear(ex1.cert, 0.5, ex1.model.L_K))
        tr = run(cfg)
        assert tr.events.count > 100
        assert tr.diagnostics["exact_trigger_checks"] == 1


class TestCheckAndFire:
    def test_below_threshold_no_fire(self):
        cfg = TriggerConfig.fixed_ratio(0.5)
        fired, e_norm = check_and_fire([1.1], [1.0], threshold(cfg, [1.0]))
        assert not fired
        assert e_norm == pytest.approx(0.1)

    def test_crossing_fires_and_resets(self):
        cfg = TriggerConfig.fixed_ratio(0.5)
        thr = threshold(cfg, [1.0])
        # the first check, before any event, always fires
        assert check_and_fire(None, [1.0], thr) == (True, 0.0)
        fired, e_norm = check_and_fire([1.6], [1.0], thr)
        assert fired
        assert e_norm == pytest.approx(0.6)
        # |e| exactly at the threshold fires too
        assert check_and_fire([1.5], [1.0], thr)[0]
        # caller resets: e = 0 afterwards, which never re-fires
        assert check_and_fire([1.0], [1.0], thr) == (False, 0.0)

    def test_equilibrium_rest(self):
        cfg = TriggerConfig.fixed_ratio(0.5)
        assert check_and_fire([0.0], [0.0], threshold(cfg, [0.0])) == (False, 0.0)

    def test_event_log_ordering(self):
        log = EventLog()
        log.record(1.0, 0.0, 0.0, 100)
        with pytest.raises(DomainError):
            log.record(1.0, 0.0, 0.0, 100)
        assert log.min_dwell_observed == math.inf
        log.record(1.5, -0.3, 0.25, 150)
        assert log.min_dwell_observed == pytest.approx(0.5)
        # a rejected event leaves every column as it was
        assert (log.event_times, log.event_controls, log.e_pre_reset, log.event_nodes) == (
            [1.0, 1.5], [0.0, -0.3], [0.0, 0.25], [100, 150])


class TestFloatDecision:
    """``decide`` against the exact rule; where they could disagree it returns None."""

    def test_random_draws(self):
        rng = np.random.default_rng(30)
        decided = 0
        for n in range(1, 5):
            P = rng.standard_normal((25_000, n)) * 10.0 ** rng.uniform(-6, 6, (25_000, 1))
            # |e| around rho |p|: fires and holds both
            rho = 10.0 ** rng.uniform(-3, 0.5, 25_000)
            E = rng.standard_normal((25_000, n))
            E *= (rho * np.linalg.norm(P, axis=1) * rng.uniform(0.5, 1.5, 25_000)
                  / np.linalg.norm(E, axis=1))[:, None]
            for p_last, p, r in zip((P + E).tolist(), P.tolist(), rho.tolist()):
                got = decide(tuple(p_last), tuple(p), r, math.hypot(*p))
                assert got is None or got == exact(p_last, p, r), (p_last, p, r)
                decided += got is not None
        assert decided > 0.999 * 100_000

    @staticmethod
    def ties(n, count, seed):
        """(p_last, p, rho) with |e| within a few ulps of the exact threshold, both sides."""
        rng = np.random.default_rng(seed)
        for _ in range(count):
            p, rho = rng.standard_normal(n), float(10.0 ** rng.uniform(-2, 0.3))
            thr = threshold(TriggerConfig.fixed_ratio(rho), p)
            v = rng.standard_normal(n)
            base = p + v * (thr / np.linalg.norm(v))
            for k in range(-4, 5):
                p_last = base.copy()
                p_last[0] = base[0] + k * np.spacing(base[0])
                yield p_last.tolist(), p.tolist(), rho

    def test_ties(self):
        cases = [c for n in (1, 2, 3, 4) for c in self.ties(n, 1500, seed=n)]
        assert all(agrees(*c) for c in cases)
        fires = [exact(*c) for c in cases]
        assert 0.2 < sum(fires) / len(cases) < 0.8  # both sides
        # the float norms alone order |e| and the threshold the other way round on some
        # of them: the band is what keeps those from the float decision
        flipped = sum(math.dist(a, b) != r * math.hypot(*b) and
                      (math.dist(a, b) > r * math.hypot(*b)) != fire
                      for (a, b, r), fire in zip(cases, fires))
        assert flipped > 100

    @pytest.mark.parametrize("p_last, p", [
        ([1e-160, 0.0], [0.0, 1e-160]),  # |e| and |p| below 1e-150: e . e underflows
        ([2e-151, 1.0], [1e-151, 1.0]),  # |e| alone
        ([1.0, 1.0], [1e-152, 0.0]),  # |p| alone
        ([0.5, -0.25], [0.5, -0.25]),  # e = 0
        ([0.0, 0.0], [0.0, 0.0]),  # at rest
        ([3e154, 0.0], [-3e154, 1.0]),  # e . e overflows
    ])
    @pytest.mark.parametrize("rho", [1e-3, 0.5, 40.0])
    def test_extreme_norms_are_left_to_the_exact_rule(self, p_last, p, rho):
        assert decide(tuple(p_last), tuple(p), rho, math.hypot(*p)) is None
        assert agrees(p_last, p, rho)

    def test_nan_ratio_decides_nothing(self):
        assert decide((1.0, 0.0), (0.0, 1.0), math.nan, 1.0) is None

    @pytest.mark.parametrize("n", range(1, 7))
    def test_vecdot_rows_round_as_dot(self, n):
        # the norms after the loop (trigger.fill_norms) take vecdot for the per-row dot of
        # threshold and check_and_fire: on this host, bit for bit
        rng = np.random.default_rng(n)
        A = rng.standard_normal((20_000, n)) * 10.0 ** rng.uniform(-8, 8, (20_000, 1))
        rows = np.array([a.dot(a) for a in A])
        assert np.vecdot(A, A).tobytes() == rows.tobytes()


class TestFirstCrossing:
    def test_rows_follow_check_and_fire(self):
        rng = np.random.default_rng(1)
        rho = 0.2
        for _ in range(50):
            p_ev = rng.standard_normal(2)
            P = p_ev + 0.3 * rng.standard_normal((40, 2)) * np.linspace(0, 1, 40)[:, None]
            P[0] = p_ev  # e = 0 never fires
            first, e_n = first_crossing(p_ev, P, thr := rho * np.linalg.norm(P, axis=1))
            rows = [check_and_fire(p_ev, p, t) for p, t in zip(P, thr)]
            fired = [f for f, _e in rows]
            assert first == (fired.index(True) if True in fired else len(P))
            # |e| by vecdot, bit for bit the per-row dot of check_and_fire
            assert e_n.tobytes() == np.array([e for _f, e in rows]).tobytes()

    def test_no_rows_and_rest(self):
        assert first_crossing(np.zeros(2), np.zeros((0, 2)), np.zeros(0))[0] == 0
        # at rest (p = 0, e = 0) nothing fires
        assert first_crossing(np.zeros(2), np.zeros((3, 2)), np.zeros(3))[0] == 3


class TestMinDwell:
    def test_hand_value(self):
        assert min_dwell(1.0, 2.0, 1.0) == pytest.approx(math.log(4.0 / 3.0))
        assert min_dwell(1.0, 2.0, 1.0) == pytest.approx(0.28768, abs=1e-5)

    def test_vanishing_with_r(self):
        assert min_dwell(1.0, 2.0, 1e-12) == pytest.approx(0.0, abs=1e-11)

    def test_ode_oracle_agreement(self):
        for a, c, R in [(1.0, 2.0, 1.0), (0.3, 1.1, 0.05), (5.0, 9.0, 2.0)]:
            delta = min_dwell(a, c, R)
            assert min_dwell_numeric(a, c, R) == pytest.approx(
                delta, abs=1e-6 * (1.0 + delta)
            )

    def test_monotonicity(self):
        base = min_dwell(1.0, 2.0, 1.0)
        # increasing R increases delta; increasing c decreases it
        assert min_dwell(1.0, 2.0, 1.2) > base
        assert min_dwell(1.0, 2.5, 1.0) < base
        grid = np.linspace(0.1, 3.0, 20)
        deltas = [min_dwell(1.0, 2.0, R) for R in grid]
        assert all(b > a for a, b in zip(deltas, deltas[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            min_dwell(-1.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            min_dwell(1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            min_dwell(1.0, 2.0, 0.0)
