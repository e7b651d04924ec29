import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad

from etpf import presets, run
from etpf.channel import ActuationDelay, node_of
from etpf.exceptions import ConfigurationError, MonitorError
from etpf.model import LinearSystem
from etpf.monitor import (
    MonitorConfig,
    compute_L,
    compute_V,
    compute_w,
    decay_report,
)
from etpf.presets import linear2d_system


def const_history(value, start=-10.0, end=100.0):
    """A constant w on [start, end], as compute_L takes it: images and values."""
    return np.array([start, end]), np.array([value, value])


class TestComputeW:
    def test_zero_when_control_matches(self):
        assert compute_w(2.0, [1.0], lambda x: 2.0) == 0.0

    def test_prehistory_definition(self):
        assert compute_w(3.0, [1.0], lambda x: 0.0) == 3.0


class TestComputeL:
    def test_zero_disturbance(self):
        for form in ("sup", "integral"):
            cfg = MonitorConfig(b=10.0, form=form)
            assert compute_L(cfg, *const_history(0.0), [0.0], [0.5]).tolist() == [0.0]

    def test_sup_endpoint(self):
        c, b, M0 = 2.0, 3.0, 0.7
        cfg = MonitorConfig(b=b, form="sup")
        got = compute_L(cfg, *const_history(c), [0.0], [M0])
        assert got == pytest.approx([c * math.exp(b * M0)], rel=1e-9)

    def test_integral_flat(self):
        c = 2.0
        cfg = MonitorConfig(b=1e-12, form="integral")
        got = compute_L(cfg, *const_history(c), [0.0], [0.5])
        assert got == pytest.approx([c * c * 0.5], rel=1e-6)

    def test_bad_window(self):
        cfg = MonitorConfig()
        with pytest.raises(MonitorError):
            compute_L(cfg, *const_history(0.0), [1.0], [0.5])


def dense_L(cfg, s, w, phi, taus, t, sigma_t, n=100_001):
    """The window functional on ``n`` points of [t, sigma_t] and on the images ``taus``
    inside it, w linear between the stamps ``s`` and 0 past the last: the reference for
    ``compute_L``."""
    tau = np.union1d(np.linspace(t, sigma_t, n), taus[(taus > t) & (taus < sigma_t)])
    wt = np.interp(phi(tau), s, w, right=0.0)
    f = np.exp(cfg.b * (tau - t))
    return float((f * np.abs(wt)).max() if cfg.form == "sup" else np.trapezoid(f * wt * wt, tau))


class TestComputeLArrays:
    """One ``compute_L`` over many windows against a dense reference on random histories."""

    DELAYS = [
        pytest.param(ActuationDelay.example1, id="example1"),
        pytest.param(lambda: ActuationDelay.sinusoidal(0.5, 0.2), id="sinusoidal"),
        pytest.param(lambda: ActuationDelay.constant(0.5), id="constant"),
    ]

    @staticmethod
    def random_history(rng, d, end, h):
        """A w history on phi(0) and the nodes of step h from it to ``end``, where w is 0,
        as compute_L takes it: the images sigma(s) of the stamps and random values."""
        s = np.r_[d.phi(0.0), np.arange(math.floor(d.phi(0.0) / h) + 1, round(end / h) + 1) * h]
        w = rng.standard_normal(len(s)) * rng.choice([1e-3, 1.0, 1e3], len(s))
        w[-1] = 0.0
        return d.sigma(s), w

    @pytest.mark.parametrize("form", ["sup", "integral"])
    @pytest.mark.parametrize("make", DELAYS)
    def test_matches_the_dense_reference(self, make, form):
        # the sup form takes the maximum over the window's ends and images, the integral
        # form weights each segment linearly: both within (b dtau)^2 / 8 of the functional;
        # 1e-4 more for w linear in tau where the reference has it linear in s = phi(tau)
        d, rng = make(), np.random.default_rng(3)
        for b in (1.0, 10.0, 20.0):
            cfg = MonitorConfig(b=b, form=form)
            taus, w = self.random_history(rng, d, 2.0, 1e-2)
            t = np.r_[rng.uniform(0.0, taus[-1], 6), taus[-1], taus[-1] + 1.0]
            got = compute_L(cfg, taus, w, t, d.sigma(t))
            want = [dense_L(cfg, d.phi(taus), w, d.phi, taus, a, z)
                    for a, z in zip(t.tolist(), d.sigma(t).tolist())]
            bound = (b * np.diff(taus).max()) ** 2 / 8.0 + 1e-4
            np.testing.assert_allclose(got, want, rtol=bound, atol=0.0)
            if form == "sup" and d.m2 == d.M1:  # a constant delay: no point above the ends
                # and images, where w is linear in tau as in the reference
                assert (got <= np.array(want) * (1.0 + 1e-12)).all()
            assert got[-2:].tolist() == [0.0, 0.0]  # from the last image on, w is 0

    @pytest.mark.parametrize("form", ["sup", "integral"])
    def test_window_reaching_the_last_stamp(self, form):
        # a window that runs past the last image counts its part up to it; one that
        # starts before the first image is outside the history
        d, cfg = ActuationDelay.constant(0.5), MonitorConfig(b=3.0, form=form)
        rng = np.random.default_rng(5)
        for end in (0.5, 2.25, 4.0):
            taus, w = self.random_history(rng, d, end, 0.125)
            t = np.array([end - 0.25, end - 0.5])
            inside = compute_L(cfg, taus, w, t, np.minimum(t + 0.5, taus[-1]))
            assert compute_L(cfg, taus, w, t, t + 0.5).tolist() == inside.tolist()
            assert (inside > 0.0).all()
            with pytest.raises(MonitorError, match="before the first image"):
                compute_L(cfg, taus, w, [np.nextafter(taus[0], -np.inf)], [taus[0] + 0.5])

    @pytest.mark.parametrize("form", ["sup", "integral"])
    def test_a_history_of_several_blocks(self, form):
        # a history 100 long at b = 10 falls in blocks of 30 with weights relative to each
        # block's last image; windows inside one block and across two match the reference
        d, cfg = ActuationDelay.constant(0.5), MonitorConfig(b=10.0, form=form)
        taus, w = self.random_history(np.random.default_rng(7), d, 100.0, 1e-2)
        edges = taus[0] + 30.0 * np.arange(1, 4)
        t = np.r_[taus[0], edges - 0.25, edges, edges - 0.5, 50.0, 99.5]
        got = compute_L(cfg, taus, w, t, t + 0.5)
        want = [dense_L(cfg, d.phi(taus), w, d.phi, taus, a, a + 0.5) for a in t.tolist()]
        bound = (cfg.b * 1e-2) ** 2 / 8.0 + 1e-4
        np.testing.assert_allclose(got, want, rtol=bound, atol=0.0)

    def test_no_overflow_past_the_float_range(self):
        # L = exp(b (tau - t)) w^2 past 1e308 is inf, L of a window of w = 0 stays 0, and
        # a window near the last image stays finite however long the history is
        d, cfg = ActuationDelay.constant(75.0), MonitorConfig(b=10.0, form="integral")
        taus, w = self.random_history(np.random.default_rng(1), d, 0.0, 1e-2)
        t = np.array([0.0, 70.0, 74.9])
        with np.errstate(over="raise", invalid="raise"):  # no inf * 0 on the way
            got = compute_L(cfg, taus, w, t, t + 75.0)
        assert math.isinf(got[0]) and np.isfinite(got[1:]).all() and (got[1:] > 0).all()
        assert compute_L(cfg, taus, 0.0 * w, t, t + 75.0).tolist() == [0.0] * 3


class TestRunAccuracy:
    """A run's L against the dense reference on the run's own w history, linear between
    its stamps: phi(0), the pre-history nodes, the nodes before t0 and t0, where w is 0."""

    @staticmethod
    def check(cfg, tr, rtol, every=1):
        """L at every ``every``-th nonzero stride sample against the dense reference."""
        d, K, k0 = cfg.delay, cfg.model.K, node_of(tr.t0, tr.h)[0]
        s = np.r_[tr.pre_times, tr.times[:k0], tr.t0]
        w = [cfg.u_prehistory - K(p) for p in tr.pre_p] + [
            u - K(p) for u, p in zip(tr.u[:k0].tolist(), tr.p[:k0])] + [0.0]
        steps = np.arange(0, len(tr.times), cfg.monitor.stride)
        live = steps[tr.times[steps] < d.sigma(tr.t0)]
        assert (tr.L[live] > 0.0).all() and (tr.L[steps[len(live):]] == 0.0).all()
        want = [dense_L(cfg.monitor, s, w, d.phi, d.sigma(s), t, d.sigma(t))
                for t in tr.times[live[::every]].tolist()]
        np.testing.assert_allclose(tr.L[live[::every]], want, rtol=rtol, atol=0.0)

    @pytest.mark.parametrize("name", ["example1", "linear2d", "linear2d-sinusoidal"])
    def test_L_within_1e_4_of_the_dense_reference(self, name, request):
        if name == "example1":  # the sup form
            cfg, tr = presets.example1(), request.getfixturevalue("ex1_trace")
        elif name == "linear2d":  # the integral form
            cfg, tr = presets.linear2d(), request.getfixturevalue("linear_trace")
        else:
            cfg = dataclasses.replace(presets.linear2d(), T=2.0,
                                      delay=ActuationDelay.sinusoidal(0.5, 0.2))
            tr = run(cfg)
        self.check(cfg, tr, 1e-4)

    def test_a_late_first_delivery(self):
        # t0 = 80: the first windows lie 805 / b before sigma(t0), where a weight taken
        # relative to sigma(t0) underflows and L would read 0; the bound is the integral
        # form's (b h)^2 / 8 at h = 0.01
        base = presets.linear2d()
        cfg = dataclasses.replace(base, h=0.01, T=81.0, sensing=dataclasses.replace(
            base.sensing, delta_tau=1.0, d_psi=80.0))
        tr = run(cfg)
        assert tr.t0 == 80.0
        self.check(cfg, tr, (cfg.monitor.b * cfg.h) ** 2 / 8.0, every=40)


def c_rho(cert):
    """The coefficient of rho(r) = c_rho r^2 in the certificate of ``cert``."""
    pb = cert.PB_norm
    return 2.0 * pb * pb / cert.lam_min_Q


def compute_V_point(cfg, x, L, cert):
    """compute_V as it was before it took arrays: one state and one L, quadratic rho."""
    s_val = float(cert.S(np.atleast_1d(x)))
    if cfg.form == "integral":
        return s_val + 2.0 * c_rho(cert) * L
    if L == 0.0:
        return s_val
    return s_val + (2.0 / cfg.b) * c_rho(cert) * (2.0 * L) ** 2 / 2.0


class TestArrayMonitor:
    """One ``compute_V`` over many rows gives the bits of the per-point calls, on whatever
    BLAS and libm this host has."""

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


class TestComputeV:
    # A_cl = -1 and Q = 2 give P = 1 and |PB| = 1: S(x) = x^2 and c_rho = 2 * 1 / 2 = 1
    UNIT = LinearSystem(A=[[-1.0]], B=[[1.0]], K_gain=[[0.0]], Q=[[2.0]])

    def test_origin(self):
        assert compute_V(MonitorConfig(), [0.0, 0.0], 0.0, linear2d_system()) == 0.0

    def test_quadratic_closed_form(self):
        # c_rho = 1, b = 2, L = 1, S = 0 -> (2/b) * (2L)^2 / 2 = 2
        assert c_rho(self.UNIT) == 1.0
        got = compute_V(MonitorConfig(b=2.0, form="sup"), [0.0], 1.0, self.UNIT)
        assert got == pytest.approx(2.0)

    def test_closed_form_matches_quadrature(self):
        # A_cl = -1 and Q = 0.74 give P = 0.37 and |PB| = 0.37: c_rho = 2 * 0.37^2 / 0.74 = 0.37
        cert = LinearSystem(A=[[-1.0]], B=[[1.0]], K_gain=[[0.0]], Q=[[0.74]])
        b, L = 10.0, 1.3
        assert c_rho(cert) == pytest.approx(0.37, rel=1e-12)
        got = compute_V(MonitorConfig(b=b, form="sup"), [0.0], L, cert)
        integral, _ = quad(lambda r: 0.37 * r, 0.0, 2.0 * L)
        assert got == pytest.approx((2.0 / b) * integral, abs=1e-12)

    @pytest.mark.parametrize("L", [0.0, 1.3, [0.0, 0.2, 1.3]])
    def test_quadrature_matches_the_closed_form(self, L):
        # the sup form's (2/b) integral 0..2L of rho(r)/r dr, by quadrature here
        cfg = MonitorConfig(b=10.0, form="sup")
        for cert in (linear2d_system(), presets.example1().cert):
            x = np.zeros((len(L), 2)) if isinstance(L, list) else [0.0, 0.0]
            c = c_rho(cert)
            want = [(2.0 / cfg.b) * quad(lambda r: c * r, 0.0, 2.0 * v)[0]
                    for v in np.atleast_1d(L).tolist()]
            got = np.atleast_1d(compute_V(cfg, x, L, cert))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_linear_integral_form(self):
        # S(x) = 1 with c_rho = 1: V = 1 + 2 L
        got = compute_V(MonitorConfig(form="integral"), [1.0], 0.5, self.UNIT)
        assert got == pytest.approx(2.0)

    def test_negative_L_rejected(self):
        with pytest.raises(MonitorError):
            compute_V(MonitorConfig(), [0.0, 0.0], -1.0, linear2d_system())

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
