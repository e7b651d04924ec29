import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad

from etpf import presets
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
        assert compute_w(2.0, [1.0], lambda x: 2.0) == 0.0

    def test_prehistory_definition(self):
        assert compute_w(3.0, [1.0], lambda x: 0.0) == 3.0


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

    @pytest.mark.parametrize("n_inputs", [1])
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


def compute_V_point(cfg, x, L, cert):
    """compute_V as it was before it took arrays: one state and one L, quadratic rho."""
    s_val = float(cert.S(np.atleast_1d(x)))
    if cfg.form == "integral":
        return s_val + 2.0 * cert.rho_quad_coeff * L
    if L == 0.0:
        return s_val
    return s_val + (2.0 / cfg.b) * cert.rho_quad_coeff * (2.0 * L) ** 2 / 2.0


class TestArrayMonitor:
    """One ``compute_L`` over many windows and one ``compute_V`` over many rows give the
    bits of the per-point calls, on whatever BLAS and libm this host has."""

    DELAYS = {
        "constant": lambda: ActuationDelay.constant(0.5),
        "sinusoidal": lambda: ActuationDelay.sinusoidal(0.5, 0.2),
        "table": lambda: ActuationDelay.from_table([0.0, 4.0, 8.0, 12.0], [0.5, 0.7, 0.4, 0.6]),
        "example1": ActuationDelay.example1,
    }
    CERTS = {
        "linear2d": lambda: presets.linear2d().cert,
        "example1": lambda: presets.example1().cert,
    }
    STATES = hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.just(2)),
                        elements=st.floats(-1e8, 1e8))

    @settings(max_examples=60, deadline=None)
    @given(X=STATES, form=st.sampled_from(["sup", "integral"]),
           cert=st.sampled_from(sorted(CERTS)), b=st.floats(0.5, 20.0), data=st.data())
    def test_V_and_S_rows_are_the_per_point_values(self, X, form, cert, b, data):
        cert, cfg = self.CERTS[cert](), MonitorConfig(b=b, form=form)
        L = data.draw(hnp.arrays(np.float64, len(X), elements=st.floats(0.0, 1e8)))
        hexes = lambda vals: [float(v).hex() for v in vals]  # noqa: E731
        assert hexes(cert.S(X)) == hexes(cert.S(x) for x in X)
        want = hexes(compute_V_point(cfg, x, v, cert) for x, v in zip(X, L.tolist()))
        assert hexes(compute_V(cfg, X, L, cert)) == want
        per_point = [compute_V(cfg, x, v, cert) for x, v in zip(X, L.tolist())]
        assert all(type(v) is float for v in per_point)
        assert hexes(per_point) == want

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(sorted(DELAYS)), form=st.sampled_from(["sup", "integral"]),
           seed=st.integers(0, 2**32 - 1),
           ts=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=12),
           n_nodes=st.integers(2, 700), zero_width=st.booleans())
    def test_L_windows_are_the_per_window_values(self, kind, form, seed, ts, n_nodes, zero_width):
        d, rng = self.DELAYS[kind](), np.random.default_rng(seed)
        cfg = MonitorConfig(b=float(rng.uniform(0.5, 20.0)), form=form)
        w = TestComputeLArrays.random_history(rng, d.phi(0.0), 12.0, float(rng.choice([1e-2, 2e-3])))
        t = np.array(ts)
        sig = d.sigma(t)
        if zero_width:  # a window of no width is 0
            sig[::2] = t[::2]
        got = compute_L(cfg, w, t, sig, d.phi, n_nodes)
        want = [compute_L_loop(cfg, w, a, s, d.phi, n_nodes) for a, s in zip(t.tolist(), sig.tolist())]
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
        per_window = [compute_L(cfg, w, a, s, d.phi, n_nodes) for a, s in zip(t.tolist(), sig.tolist())]
        assert [v.hex() for v in per_window] == [v.hex() for v in want]

    def test_rows_past_the_chunk(self):
        # 2,048 window nodes at a time: 30 windows of 700 nodes take 15 chunks
        d, rng = ActuationDelay.constant(0.5), np.random.default_rng(8)
        w = TestComputeLArrays.random_history(rng, -0.5, 12.0, 1e-2)
        t = np.linspace(0.0, 9.0, 30)
        for form in ("sup", "integral"):
            cfg = MonitorConfig(b=10.0, form=form)
            got = compute_L(cfg, w, t, t + 0.5, d.phi, 700)
            want = [compute_L_loop(cfg, w, a, a + 0.5, d.phi, 700) for a in t.tolist()]
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]


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
