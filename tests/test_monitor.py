import math

import numpy as np
import pytest
from scipy.integrate import quad

from etpf.channel import ActuationDelay
from etpf.exceptions import ConfigurationError, CoverageError, MonitorError
from etpf.model import ISSCertificate, linear_certificate
from etpf.monitor import (
    MonitorConfig,
    compute_L,
    compute_V,
    compute_w,
    decay_report,
)
from etpf.presets import linear2d_system
from etpf.signals import TimedSignal


def const_signal(value, start=-10.0):
    sig = TimedSignal()
    sig.append(start, value)
    sig.append(100.0, value)
    return sig


class TestComputeW:
    def test_zero_when_control_matches(self):
        u = const_signal([2.0])
        K = lambda x: np.array([2.0])
        np.testing.assert_allclose(compute_w(u.sample(0.0), [1.0], K), [0.0])

    def test_prehistory_definition(self):
        u = const_signal([3.0])
        K = lambda x: np.array([0.0])
        np.testing.assert_allclose(compute_w(u.sample(-0.5), [1.0], K), [3.0])


class TestComputeL:
    def test_zero_disturbance(self):
        w = const_signal([0.0])
        phi = lambda t: t - 0.5
        for form in ("sup", "integral"):
            cfg = MonitorConfig(b=10.0, form=form)
            assert compute_L(cfg, w, 0.0, 0.5, phi, n_nodes=51) == 0.0

    def test_sup_endpoint(self):
        c, b, M0 = 2.0, 3.0, 0.7
        w = const_signal([c])
        cfg = MonitorConfig(b=b, form="sup")
        got = compute_L(cfg, w, 0.0, M0, lambda t: t - 0.5, n_nodes=701)
        assert got == pytest.approx(c * math.exp(b * M0), rel=1e-9)

    def test_integral_flat(self):
        c = 2.0
        w = const_signal([c])
        cfg = MonitorConfig(b=1e-12, form="integral")
        got = compute_L(cfg, w, 0.0, 0.5, lambda t: t - 0.5, n_nodes=501)
        assert got == pytest.approx(c * c * 0.5, rel=1e-6)

    def test_bad_window(self):
        cfg = MonitorConfig()
        with pytest.raises(MonitorError):
            compute_L(cfg, const_signal([0.0]), 1.0, 0.5, lambda t: t, n_nodes=2)


def compute_L_loop(cfg, w_history, t, sigma_t, phi, n_nodes):
    """compute_L as it was before the window became arrays: one tau at a time."""
    if sigma_t == t:
        return 0.0
    taus = np.linspace(t, sigma_t, n_nodes)
    vals = []
    for tau in taus:
        w = w_history.sample(phi(float(tau)))
        vals.append((float(tau), float(np.linalg.norm(w))))
    if cfg.form == "sup":
        return max(math.exp(cfg.b * (tau - t)) * w for tau, w in vals)
    integrand = np.array([math.exp(cfg.b * (tau - t)) * w * w for tau, w in vals])
    return float(np.trapezoid(integrand, taus))


class TestComputeLArrays:
    """The array window gives the bits of the per-tau loop it replaced."""

    DELAYS = [
        pytest.param(ActuationDelay.example1, id="example1"),
        pytest.param(lambda: ActuationDelay.sinusoidal(0.5, 0.2), id="sinusoidal"),
        pytest.param(lambda: ActuationDelay.constant(0.5), id="constant"),
    ]

    @staticmethod
    def random_history(rng, start, end, h, n_inputs=1):
        """A linear w history on the grid of step h, random values."""
        w = TimedSignal()
        for k in range(int(math.floor(start / h)), int(math.ceil(end / h)) + 1):
            w.append(k * h, rng.standard_normal(n_inputs) * rng.choice([1e-6, 1.0, 1e3], n_inputs))
        return w

    @pytest.mark.parametrize("n_inputs", [1, 2, 3])
    @pytest.mark.parametrize("form", ["sup", "integral"])
    @pytest.mark.parametrize("make", DELAYS)
    def test_bit_equal_to_loop(self, make, form, n_inputs):
        d = make()
        cfg = MonitorConfig(b=float(np.random.default_rng(0).uniform(0.5, 20.0)), form=form)
        for seed in range(6):
            rng = np.random.default_rng(seed)
            h = float(rng.choice([1e-2, 2e-3, 0.013]))
            w = self.random_history(rng, d.phi(0.0), 12.0, h, n_inputs)
            for t in rng.uniform(0.0, 10.0, 8):
                sig_t = d.sigma(float(t))
                for n_nodes in (2, max(2, int(round((sig_t - t) / h)) + 1), 777):
                    got = compute_L(cfg, w, float(t), sig_t, d.phi, n_nodes=n_nodes)
                    want = compute_L_loop(cfg, w, float(t), sig_t, d.phi, n_nodes=n_nodes)
                    assert type(got) is float
                    assert got.hex() == want.hex(), (seed, t, n_nodes)

    @pytest.mark.parametrize("form", ["sup", "integral"])
    def test_window_reaching_the_last_stamp(self, form):
        # phi(sigma(t)) = t exactly for dyadic t and D = 0.5: the window's
        # last point is the history's last stamp
        d, cfg = ActuationDelay.constant(0.5), MonitorConfig(b=3.0, form=form)
        rng = np.random.default_rng(5)
        for t in (0.5, 2.25, 4.0):
            w = self.random_history(rng, -0.5, t, 0.125)
            assert w.last_time == t
            for n_nodes in (2, 51):
                got = compute_L(cfg, w, t, t + 0.5, d.phi, n_nodes=n_nodes)
                want = compute_L_loop(cfg, w, t, t + 0.5, d.phi, n_nodes=n_nodes)
                assert got.hex() == want.hex()
            # one step further reaches past the history on both paths
            with pytest.raises(CoverageError):
                compute_L_loop(cfg, w, t + 0.125, t + 0.625, d.phi, n_nodes=3)
            with pytest.raises(CoverageError):
                compute_L(cfg, w, t + 0.125, t + 0.625, d.phi, n_nodes=3)


class TestComputeV:
    def _quad_cert(self, c_rho):
        return ISSCertificate(
            S=lambda x: 0.0, grad_S=lambda x: np.zeros(1),
            alpha1=lambda r: r * r, alpha2=lambda r: r * r,
            gamma=lambda r: r * r, rho=lambda r: c_rho * r * r,
            gamma_inv=lambda y: math.sqrt(max(y, 0.0)),
            rho_inv=lambda y: math.sqrt(max(y, 0.0) / c_rho),
            rho_quad_coeff=c_rho,
        )

    def test_origin(self):
        cert = linear_certificate(linear2d_system())
        assert compute_V(MonitorConfig(), [0.0, 0.0], 0.0, cert) == 0.0

    def test_quadratic_closed_form(self):
        # c_rho = 1, b = 2, L = 1, S = 0 -> (2/b) * (2L)^2 / 2 = 2
        cert = self._quad_cert(1.0)
        got = compute_V(MonitorConfig(b=2.0, form="sup"), [0.0], 1.0, cert)
        assert got == pytest.approx(2.0)

    def test_closed_form_matches_quadrature(self):
        c_rho, b, L = 0.37, 10.0, 1.3
        cert = self._quad_cert(c_rho)
        got = compute_V(MonitorConfig(b=b, form="sup"), [0.0], L, cert)
        integral, _ = quad(lambda r: c_rho * r, 0.0, 2.0 * L)
        assert got == pytest.approx((2.0 / b) * integral, abs=1e-12)

    def test_linear_integral_form(self):
        # S(x) = 1 with c_rho = 1 (|PB| = 1, lam_min(Q) = 2): V = 1 + 2 L
        c_rho = 1.0
        cert = ISSCertificate(
            S=lambda x: float(np.dot(x, x)), grad_S=lambda x: 2.0 * np.asarray(x),
            alpha1=lambda r: r * r, alpha2=lambda r: r * r,
            gamma=lambda r: r * r, rho=lambda r: c_rho * r * r,
            gamma_inv=lambda y: math.sqrt(max(y, 0.0)),
            rho_inv=lambda y: math.sqrt(max(y, 0.0)),
            rho_quad_coeff=c_rho,
        )
        got = compute_V(MonitorConfig(form="integral"), [1.0, 0.0], 0.5, cert)
        assert got == pytest.approx(2.0)

    def test_negative_L_rejected(self):
        cert = linear_certificate(linear2d_system())
        with pytest.raises(MonitorError):
            compute_V(MonitorConfig(), [0.0, 0.0], -1.0, cert)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            MonitorConfig(b=0.0)
        with pytest.raises(ConfigurationError):
            MonitorConfig(form="median")


class TestDecayReport:
    def test_equilibrium(self):
        rep = decay_report([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], 0.0)
        assert rep.at_equilibrium
        assert "equilibrium" in str(rep)

    def test_no_finite_v_not_evaluated(self):
        # a diverged run skips the monitor, so V is NaN throughout
        rep = decay_report([0.0, 1.0, 2.0], [np.nan] * 3, 0.0)
        assert not rep.at_equilibrium
        assert rep.n_points == 0
        assert str(rep) == "V-decay: not evaluated (no finite V after t0)"

    def test_exponential_slope(self):
        ts = np.linspace(0.0, 10.0, 101)
        V = np.exp(-0.5 * ts)
        rep = decay_report(ts, V, 0.0, mu=0.4)
        assert rep.slope == pytest.approx(-0.5, abs=1e-9)
        assert rep.slope_ok

    def test_slow_decay_flagged(self):
        ts = np.linspace(0.0, 10.0, 101)
        V = np.exp(-0.1 * ts)
        rep = decay_report(ts, V, 0.0, mu=0.4)
        assert not rep.slope_ok
