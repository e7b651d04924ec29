import math

import numpy as np
import pytest

from etpf.exceptions import ConfigurationError, DomainError
from etpf.model import linear_certificate
from etpf.presets import _ex1_linearization, linear2d_system
from etpf.trigger import (
    EventLog,
    TriggerConfig,
    check_and_fire,
    first_crossing,
    min_dwell,
    min_dwell_numeric,
    threshold,
)


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
        # collapse the threshold to a fixed ratio of about 0.0199
        sys = _ex1_linearization()
        cert = linear_certificate(sys)
        L_K = 7.0 * math.sqrt(2.0)
        cfg = TriggerConfig.nonlinear(theta=0.5, L_K=L_K)
        ratio = threshold(cfg, [1.0, 0.0], cert)
        expected = sys.lam_min_Q * math.sqrt(0.5) / (4.0 * sys.PB_norm * L_K)
        assert ratio == pytest.approx(expected, rel=1e-12)
        assert ratio == pytest.approx(0.0199, abs=2e-4)
        # threshold is homogeneous in |p|
        assert threshold(cfg, [2.0, 0.0], cert) == pytest.approx(2.0 * ratio)

    def test_zero_state(self):
        cfg = TriggerConfig.fixed_ratio(0.5)
        assert threshold(cfg, [0.0, 0.0]) == 0.0

    def test_missing_certificate(self):
        cfg = TriggerConfig.nonlinear(theta=0.5, L_K=1.0)
        with pytest.raises(ConfigurationError):
            threshold(cfg, [1.0])

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            TriggerConfig.fixed_ratio(0.5, theta=1.5)
        with pytest.raises(ConfigurationError):
            TriggerConfig.fixed_ratio(-1.0)
        with pytest.raises(ConfigurationError):
            TriggerConfig(mode="sometimes", theta=0.5)
        # a linear trigger without its ratio fails when it is built
        with pytest.raises(ConfigurationError):
            TriggerConfig(mode="linear", theta=0.5)


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
        log.record(1.0, 0.0)
        with pytest.raises(DomainError):
            log.record(1.0, 0.0)
        assert log.min_dwell_observed == math.inf
        log.record(1.5, 0.0)
        assert log.min_dwell_observed == pytest.approx(0.5)


class TestFirstCrossing:
    def test_rows_follow_check_and_fire(self):
        rng = np.random.default_rng(1)
        rho = 0.2
        for _ in range(50):
            p_ev = rng.standard_normal(2)
            P = p_ev + 0.3 * rng.standard_normal((40, 2)) * np.linspace(0, 1, 40)[:, None]
            P[0] = p_ev  # e = 0 never fires
            first, e_n, thr = first_crossing(p_ev, P, rho)
            fired = [check_and_fire(p_ev, p, rho * np.linalg.norm(p))[0] for p in P]
            assert first == (fired.index(True) if True in fired else len(P))
            np.testing.assert_allclose(e_n, np.linalg.norm(p_ev - P, axis=1), rtol=1e-15)
            np.testing.assert_allclose(thr, rho * np.linalg.norm(P, axis=1), rtol=1e-15)

    def test_no_rows_and_rest(self):
        assert first_crossing(np.zeros(2), np.zeros((0, 2)), 0.5)[0] == 0
        # at rest (p = 0, e = 0) nothing fires
        assert first_crossing(np.zeros(2), np.zeros((3, 2)), 0.5)[0] == 3


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
