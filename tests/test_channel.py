import math
from bisect import bisect_left, bisect_right

import numpy as np
import pytest

from etpf.channel import ActuationDelay, SensingSchedule, node_of, nodes_of
from etpf.exceptions import ChannelModelError, ConfigurationError
from etpf.predictor import NodeGrid


class TestSigma:
    def test_constant_delay_inverse(self):
        d = ActuationDelay.constant(0.5)
        for t in (0.0, 1.3, 10.0):
            assert d.sigma(t) == pytest.approx(t + 0.5, abs=1e-12)

    def test_example1_peak(self):
        d = ActuationDelay.example1()
        # the delay at t = 5 is 1, so phi(5) = 4 and sigma(4) = 5
        assert d.phi(5.0) == pytest.approx(4.0, abs=1e-14)
        assert d.sigma(4.0) == pytest.approx(5.0, abs=1e-10)

    def test_roundtrip(self):
        for d in (ActuationDelay.example1(), ActuationDelay.sinusoidal(0.5, 0.2)):
            for t in np.linspace(0.0, 20.0, 41):
                assert d.sigma(d.phi(t)) == pytest.approx(t, abs=1e-10 * (1 + abs(t)))

    def test_sigma_strictly_increasing(self):
        d = ActuationDelay.example1()
        vals = [d.sigma(t) for t in np.linspace(0.0, 10.0, 101)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_constant_delay_unit_slope(self):
        d = ActuationDelay.constant(0.5)
        assert d.sigma_dot(1.0, 1e-3) == pytest.approx(1.0, abs=1e-9)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            ActuationDelay.constant(0.0)
        with pytest.raises(ConfigurationError):
            ActuationDelay.sinusoidal(0.2, 0.5)  # needs a < D

    def test_non_finite_delay_rejected(self):
        for D in (float("nan"), float("inf")):  # once accepted as a delay of NaN or inf
            with pytest.raises(ConfigurationError, match="finite"):
                ActuationDelay.constant(D)
            with pytest.raises(ConfigurationError):
                ActuationDelay.sinusoidal(D, 0.1)


TABLE_T, TABLE_D = [0.0, 1.0, 2.0], [0.4, 0.6, 0.5]

# each shape with its phi as the scalar math expression it had before phi took arrays
SHAPES = [
    pytest.param(ActuationDelay.example1,
                 lambda t: t - ((t - 5.0) ** 2 + 2.0) / (2.0 * (t - 5.0) ** 2 + 2.0),
                 id="example1"),
    pytest.param(lambda: ActuationDelay.constant(0.5), lambda t: t - 0.5, id="constant"),
    pytest.param(lambda: ActuationDelay.sinusoidal(0.5, 0.2),
                 lambda t: t - 0.5 - 0.2 * math.sin(t), id="sinusoidal"),
    pytest.param(lambda: ActuationDelay.from_table(TABLE_T, TABLE_D),
                 lambda s: s - float(np.interp(s, TABLE_T, TABLE_D)), id="table"),
]


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


class TestArrayPaths:
    """phi and sigma of an array hold the bits of their scalar forms, element by element.

    A CPU whose np.sin or np.float_power rounds differently from libm fails
    here by name, not only through a golden digest.
    """

    @pytest.mark.parametrize("make, old_phi", SHAPES)
    def test_phi_array_equals_scalar_expression(self, make, old_phi):
        rng = np.random.default_rng(11)
        # the run range, the example1 bump up close, and past the table's end
        ts = np.concatenate([rng.uniform(-2.0, 30.0, 200_000), rng.uniform(3.0, 7.0, 200_000)])
        got = make().phi(ts)
        assert bits(got) == bits([old_phi(t) for t in ts.tolist()])

    @pytest.mark.parametrize("make, old_phi", SHAPES)
    def test_sigma_array_equals_scalar_on_nodes(self, make, old_phi):
        d = make()
        for h, N in ((1e-2, 2500), (1e-3, 3000)):
            nodes = np.arange(node_of(d.phi(0.0), h)[0], N + 2) * h
            assert bits(d.sigma(nodes)) == bits([d.sigma(t) for t in nodes.tolist()])

    @pytest.mark.parametrize("make, old_phi", SHAPES)
    def test_sigma_array_equals_scalar_random(self, make, old_phi):
        d = make()
        # from phi(0) on, past the table's last time 2.0 as well
        ts = np.random.default_rng(12).uniform(d.phi(0.0), 30.0, 100_000)
        assert bits(d.sigma(ts)) == bits([d.sigma(t) for t in ts.tolist()])

    def test_sigma_of_empty_and_exact_bracket_ends(self):
        assert ActuationDelay.constant(0.5).sigma(np.empty(0)).shape == (0,)
        # the root sits exactly on the bracket's right end t + 2 M0 for these t,
        # so no element takes a Brent step
        edge = ActuationDelay(phi=lambda t: t - 2.0, M0=1.0, M1=1.0, m2=1.0)
        ts = [0.0, 1.0, 4.0]
        assert bits(edge.sigma(np.array(ts))) == bits([edge.sigma(t) for t in ts])
        assert edge.sigma(np.array(ts)).tolist() == [2.0, 3.0, 6.0]

    def test_bad_bracket_raises_where_scalar_raises(self):
        bad = ActuationDelay(phi=lambda t: t - 2.0, M0=1.0, M1=1.0, m2=1.0)
        ts = np.linspace(0, 10, 101)
        raised = []
        for t in ts:
            try:
                bad.sigma(float(t))
            except ChannelModelError:
                raised.append(True)
                with pytest.raises(ChannelModelError, match="bracket"):
                    bad.sigma(np.array([t]))
            else:
                raised.append(False)
                assert bits(bad.sigma(np.array([t]))) == bits([bad.sigma(float(t))])
        assert any(raised) and not all(raised)
        with pytest.raises(ChannelModelError, match="bracket"):
            bad.sigma(ts)
        way_off = ActuationDelay(phi=lambda t: t - 3.0, M0=1.0, M1=1.0, m2=1.0)
        with pytest.raises(ChannelModelError, match="bracket"):
            way_off.sigma(np.array([0.0, 1.0]))


class TestNodeOf:
    """``node_of(t, h)``: the nearest node and True within 1e-9 steps of it, else
    the first node above t and False."""

    H = 1e-2
    NODES = [-51, -1, 0, 1, 250, 2500]

    @pytest.mark.parametrize("k", NODES)
    def test_at_and_one_ulp_around_a_node(self, k):
        t = k * self.H
        for s in (t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)):
            assert node_of(s, self.H) == (k, True), s

    @pytest.mark.parametrize("k", NODES)
    def test_within_and_past_the_snap(self, k):
        h = self.H
        assert node_of((k + 0.5e-9) * h, h) == (k, True)
        assert node_of((k - 0.5e-9) * h, h) == (k, True)
        assert node_of((k + 2e-9) * h, h) == (k + 1, False)
        assert node_of((k - 2e-9) * h, h) == (k, False)

    def test_negative_times_and_other_steps(self):
        assert node_of(-0.507, self.H) == (-50, False)
        assert node_of(-0.5e-11, self.H) == (0, True)
        assert node_of(-2e-11, self.H) == (0, False)
        # 0.3 / 0.1 is 2.9999999999999996 in floats
        assert node_of(0.3, 0.1) == (3, True)
        assert node_of(-0.3, 0.1) == (-3, True)
        assert all(type(v) is int for v in (node_of(0.3, 0.1)[0], node_of(0.25, 0.1)[0]))

    def test_array_form_matches_elementwise(self):
        h = self.H
        ts = [k * h + d for k in self.NODES for d in (0.0, 0.5e-9 * h, -0.5e-9 * h, 2e-9 * h,
                                                       -2e-9 * h, 0.5 * h, -0.5 * h, 0.37 * h)]
        ts += [math.nextafter(k * h, math.inf) for k in self.NODES] + [-0.507, 0.3, -0.3]
        k, on = nodes_of(np.array(ts), h)
        assert list(zip(k.tolist(), on.tolist())) == [node_of(t, h) for t in ts]


def snapped_phi(delay, s, h):
    """phi(s), snapped onto the grid node ``node_of`` places it on (the rule the tables use)."""
    sp = delay.phi(s)
    k, on = node_of(sp, h)
    return k * h if on else sp


class TestGridTables:
    DELAYS = [
        pytest.param(ActuationDelay.example1, id="example1"),
        pytest.param(lambda: ActuationDelay.sinusoidal(0.5, 0.2), id="sinusoidal"),
        pytest.param(lambda: ActuationDelay.from_table([0.0, 3.0, 6.0], [0.4, 0.9, 0.6]),
                     id="from_table"),
    ]

    @pytest.mark.parametrize("make", DELAYS)
    def test_nodes_bit_equal(self, make):
        d, h, N = make(), 1e-2, 600
        phi0 = d.phi(0.0)
        m_lo = node_of(phi0, h)[0]
        sig, sdot, j_k = d.grid_tables(h, m_lo, N)
        # slot 0 is phi(0), the others the nodes from m_lo on
        want = [d.sigma(phi0)] + [d.sigma(m * h) for m in range(m_lo, N + 2)]
        np.testing.assert_array_equal(sig, want)
        # sigmadot against the scalar loop it replaces: centered, one-sided
        # at phi(0) and at node m_lo, none at node N + 1
        want_sdot = [d.sigma_dot(phi0, h), (sig[2] - sig[1]) / h]
        for i in range(2, len(sig) - 1):
            want_sdot.append((sig[i + 1] - sig[i - 1]) / (2.0 * h))
        np.testing.assert_array_equal(sdot, want_sdot + [math.nan])
        assert len(j_k) * h > sig[-1]
        # the row table: last node of 0, h, ..., N h at or before the snapped phi(k h),
        # -1 before 0
        phi_k = [snapped_phi(d, k * h, h) for k in range(len(j_k))]
        nodes = [k * h for k in range(N + 1)]
        np.testing.assert_array_equal(j_k, [bisect_right(nodes, v) - 1 for v in phi_k])
        assert j_k.dtype.kind == "i"
        # built once per (h, m_lo, N)
        assert d.grid_tables(h, m_lo, N)[0] is sig


class TestTableCache:
    """The grid tables are keyed by the delay's value with (h, m_lo, N), in one bounded
    process-wide cache, and are read-only: every run on an equal key shares them."""

    def test_shapes_compare_and_hash_by_value(self):
        for make in (ActuationDelay.example1, lambda: ActuationDelay.constant(0.5),
                     lambda: ActuationDelay.sinusoidal(0.5, 0.2),
                     lambda: ActuationDelay.from_table(TABLE_T, TABLE_D)):
            a, b = make(), make()
            assert a is not b and a == b and hash(a) == hash(b)
        assert ActuationDelay.constant(0.5) != ActuationDelay.constant(0.6)
        # a user callable compares by identity
        phi, twin = (lambda t: t - 0.5), (lambda t: t - 0.5)
        assert ActuationDelay(phi, 0.5, 1.0, 1.0) == ActuationDelay(phi, 0.5, 1.0, 1.0)
        assert ActuationDelay(phi, 0.5, 1.0, 1.0) != ActuationDelay(twin, 0.5, 1.0, 1.0)

    def test_equal_delays_share_one_entry(self):
        h, N = 1e-2, 300
        a, b = ActuationDelay.sinusoidal(0.5, 0.2), ActuationDelay.sinusoidal(0.5, 0.2)
        m_lo = node_of(a.phi(0.0), h)[0]
        assert a.grid_tables(h, m_lo, N) is b.grid_tables(h, m_lo, N)
        # M0 fixes the brackets of the solve, so it is part of the key
        wide = ActuationDelay(a.phi, 1.0, a.M1, a.m2)
        assert wide.grid_tables(h, m_lo, N) is not a.grid_tables(h, m_lo, N)

    def test_tables_are_read_only(self):
        h, N = 1e-2, 300
        d = ActuationDelay.example1()
        tables = d.grid_tables(h, node_of(d.phi(0.0), h)[0], N)
        for a in tables:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        for derived in (tables.rows, tables.sigs, tables.targets):
            assert isinstance(derived, tuple)
        assert tables.rows is tables.rows  # built once

    def test_two_preset_runs_solve_sigma_once(self, monkeypatch):
        from etpf import run
        from etpf.config import build_sim_config

        ActuationDelay.grid_tables.cache_clear()
        solves, real = [], ActuationDelay.sigma

        def counted(self, t):
            if np.ndim(t):
                solves.append(len(t))
            return real(self, t)

        monkeypatch.setattr(ActuationDelay, "sigma", counted)
        for _ in range(2):
            run(build_sim_config({"preset": "example1"}))
        assert len(solves) == 1

    def test_cache_stays_within_its_bound(self):
        from etpf.channel import TABLES_MAX

        for i in range(TABLES_MAX + 5):
            ActuationDelay.constant(0.5 + 0.01 * i).grid_tables(1e-2, -50 - i, 20)
            assert ActuationDelay.grid_tables.cache_info().currsize <= TABLES_MAX
        assert ActuationDelay.grid_tables.cache_info().maxsize == TABLES_MAX


class Hold:
    """The control history as a right-closed hold over stamps, by bisect.

    The value stored at ``t_i`` applies on ``[t_i, t_{i+1})`` and past the
    last stamp; there is none before the first.  This is the reference that
    the control rows, ``NodeGrid.u_at`` and ``NodeGrid.u_breaks`` must match.
    """

    def __init__(self):
        self.times, self.values = [], []

    def append(self, t, value):
        assert not self.times or t > self.times[-1]
        self.times.append(float(t))
        self.values.append(float(value))

    def sample(self, s):
        i = bisect_right(self.times, s) - 1
        assert i >= 0, f"no control before {self.times[0]}"
        return self.values[i]

    def breakpoints(self, a, b):
        i, j = bisect_right(self.times, a), bisect_left(self.times, b)
        return [a, *self.times[i:j], b]


class TestRowTable:
    """A read of row ``j_k[k]`` is the hold of the control history at phi(k h), snapped.

    The rows follow the engine's protocol: row k is written by an event at
    k h, and otherwise starts as a copy of row k - 1 when step k - 1 ends, so
    reads of row k + 1 before its event see the held control.  ``u_at`` and
    ``u_breaks`` of the run's ``NodeGrid``, which read the rows and the event
    times and nodes, match the hold and its stamps as well.
    """

    DELAYS = [
        pytest.param(ActuationDelay.example1, 1e-2, id="example1"),
        pytest.param(lambda: ActuationDelay.sinusoidal(0.5, 0.2), 1e-2, id="sinusoidal"),
        pytest.param(lambda: ActuationDelay.from_table([0.0, 3.0, 6.0], [0.4, 0.9, 0.6]),
                     1e-2, id="from_table"),
        # every phi(k h) lands exactly on a node
        pytest.param(lambda: ActuationDelay.constant(0.5), 1e-3, id="constant-on-nodes"),
    ]

    @staticmethod
    def protocol(d, h, N, seed, on_step):
        """Run the engine's row protocol with random events, calling
        ``on_step(k, grid, hold)`` before and after the event at each node k."""
        phi0 = d.phi(0.0)
        rng = np.random.default_rng(seed)
        events = set(rng.choice(N + 1, size=int(rng.integers(1, 120)), replace=False).tolist())
        if seed % 2:
            events.add(0)  # t0 = 0: the pre-history control holds until then
        else:
            events.discard(0)  # t0 > 0: u = 0 from t = 0 until the first event
        u_pre = 0.3
        hold = Hold()
        hold.append(phi0, u_pre)
        U = [0.0] * (N + 1)  # the engine's rows
        event_times, event_nodes = [], []
        grid = NodeGrid(d, h, U, u_pre, event_times, event_nodes)
        if 0 in events:
            U[0] = u_pre
        else:
            hold.append(0.0, 0.0)
        for k in range(N + 1):
            on_step(k, grid, hold)
            if k in events:
                u = float(rng.standard_normal())
                hold.append(k * h, u)
                event_times.append(k * h)
                event_nodes.append(k)
                U[k] = u
                on_step(k, grid, hold)
            if k < N:
                U[k + 1] = U[k]
        return grid, hold, rng

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("make, h", DELAYS)
    def test_row_read_equals_sample(self, make, h, seed):
        d, N = make(), 600
        m_lo = node_of(d.phi(0.0), h)[0]
        _sig, _sdot, j_k = d.grid_tables(h, m_lo, N)
        assert d.grid_tables(h, m_lo, N)[2] is j_k  # cached with the other tables
        phi_k = [snapped_phi(d, k * h, h) for k in range(len(j_k))]
        by_row = {}
        for i, j in enumerate(j_k.tolist()):
            by_row.setdefault(j, []).append(i)

        def check(row, grid, hold):
            for i in by_row.get(row, []):
                got = grid.u_row(row)
                want = hold.sample(phi_k[i])
                assert float(got).hex() == want.hex(), (i, row, phi_k[i])

        def on_step(k, grid, hold):
            if k == 0:
                check(-1, grid, hold)
            check(k, grid, hold)
            if k < len(grid.U) - 1:
                grid.U[k + 1] = grid.U[k]
                check(k + 1, grid, hold)  # row k + 1 before its event

        self.protocol(d, h, N, seed, on_step)
        assert sum(len(by_row.get(j, [])) for j in range(-1, N + 1)) == len(phi_k)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("make, h", DELAYS)
    def test_u_at_and_u_breaks_equal_the_hold(self, make, h, seed):
        """``u_at`` is the hold at the time ``node_of`` places s at: a node within its
        snap stands for s, as in the row table."""
        d, N = make(), 600
        phi0 = d.phi(0.0)

        def queries(s):
            return [s, math.nextafter(s, -math.inf), math.nextafter(s, math.inf)]

        def snapped(s):
            k, on = node_of(s, h)
            return k * h if on and k >= 0 else s  # before t = 0 the hold is u_pre throughout

        def on_step(k, grid, hold):
            # up to the current node, before and after its event
            for s in queries(k * h):
                if phi0 <= s <= k * h:
                    assert float(grid.u_at(s)).hex() == hold.sample(snapped(s)).hex(), (k, s)

        grid, hold, rng = self.protocol(d, h, N, seed, on_step)
        T = N * h
        pre = [m * h for m in range(math.ceil(phi0 / h), 0)]
        points = [s for x in [phi0, *pre, *hold.times, T] for s in queries(x)]
        points += rng.uniform(phi0, T, 500).tolist()
        points = [s for s in points if s >= phi0]
        for s in points + [T + 1.0]:
            assert float(grid.u_at(s)).hex() == hold.sample(snapped(s)).hex(), s
        # below phi(0) the control is the pre-history's, where the hold has none
        for s in (math.nextafter(phi0, -math.inf), phi0 - h, phi0 - 1.0):
            assert grid.u_at(s) is grid.u_pre
        # random windows from a time to a node, with starts on stamps and nodes too
        starts = rng.uniform(phi0, T, 300).tolist()
        starts += [rng.choice(hold.times[1:]) for _ in range(100)] + [phi0, phi0, 0.0]
        ends = rng.integers(0, N + 1, len(starts) - 3).tolist() + [N, 0, N]
        for a, now in zip(starts, ends):
            b = now * h
            if a <= b:
                assert [a, *(k * h for k in grid.u_breaks(a, now)), b] == hold.breakpoints(a, b), (a, b)


class TestFromTable:
    def test_piecewise_linear_profile(self):
        d = ActuationDelay.from_table([0.0, 10.0], [0.5, 1.5])
        assert d.phi(5.0) == pytest.approx(5.0 - 1.0)
        assert d.M0 == pytest.approx(1.5)

    def test_bad_tables_rejected(self):
        with pytest.raises(ConfigurationError):
            ActuationDelay.from_table([0.0, 1.0], [1.0, -1.0])
        with pytest.raises(ConfigurationError):
            ActuationDelay.from_table([1.0, 0.0], [1.0, 1.0])


def bound_excess(d: ActuationDelay) -> float:
    """The most by which the delay ``t - phi(t)`` passes ``M0``, or a difference quotient
    of phi leaves ``[m2, M1]``, on 2,501 points of [0, 25]; at most 0 up to rounding when
    the declared bounds hold.  A quotient is phi' somewhere between its two points."""
    t = np.linspace(0.0, 25.0, 2501)
    phi = d.phi(t)
    slope = np.diff(phi) / np.diff(t)
    assert (t - phi).min() > 0.0
    return max((t - phi).max() - d.M0, d.m2 - slope.min(), slope.max() - d.M1)


class TestVerifyDelayBounds:
    """Each built-in delay shape meets the ``(M0, M1, m2)`` it declares: ``sigma``'s
    bracket ``[t, t + 2 M0]`` rests on ``M0``, and ``M2 = 1 / m2`` is the dwell constant."""

    def test_example1_bounds_pass(self):
        assert bound_excess(ActuationDelay.example1()) <= 1e-9

    def test_constant_bounds_pass(self):
        assert bound_excess(ActuationDelay.constant(0.5)) <= 1e-9

    def test_sinusoidal_bounds_pass(self):
        assert bound_excess(ActuationDelay.sinusoidal(0.5, 0.2)) <= 1e-9

    @pytest.mark.parametrize("times, delays", [
        # rising only: phi' = 1 past t = 10, where np.interp holds the delay
        pytest.param([0.0, 10.0], [0.5, 1.0], id="rising"),
        pytest.param([0.0, 10.0], [1.5, 0.5], id="falling"),
        pytest.param(TABLE_T, TABLE_D, id="mixed"),
    ])
    def test_table_bounds_pass(self, times, delays):
        assert bound_excess(ActuationDelay.from_table(times, delays)) <= 1e-9

    def test_understated_m0_fails(self):
        bad = ActuationDelay(phi=lambda t: t - 2.0, M0=1.0, M1=1.0, m2=1.0)
        assert bound_excess(bad) == pytest.approx(1.0)


class TestSensingSchedule:
    def test_seed_reproducibility(self):
        a = SensingSchedule.periodic(1.0, 20.0, mu_psi=0.1, sigma_psi=0.02, seed=7)
        b = SensingSchedule.periodic(1.0, 20.0, mu_psi=0.1, sigma_psi=0.02, seed=7)
        np.testing.assert_array_equal(a.delivery_times, b.delivery_times)

    def test_gaussian_clipped_at_zero(self):
        sched = SensingSchedule.periodic(
            0.5, 50.0, mu_psi=0.0, sigma_psi=1.0, seed=0
        )
        assert np.all(sched.delivery_times >= sched.transmit_times)

    @pytest.mark.parametrize("T, delta_tau", [(0.3, 0.1), (0.6, 0.2), (0.7, 0.1), (1.4, 0.05),
                                              (2.3, 0.01)])
    def test_a_quotient_one_ulp_short_keeps_the_transmission_at_T(self, T, delta_tau):
        assert T / delta_tau < round(T / delta_tau)
        sched = SensingSchedule.periodic(delta_tau, T, d_psi=0.0)
        assert len(sched.transmit_times) == round(T / delta_tau) + 1
        assert sched.transmit_times[-1] == pytest.approx(T)

    def test_invalid_schedules_rejected(self):
        with pytest.raises(ConfigurationError):
            SensingSchedule(transmit_times=[0.0, 1.0], delivery_times=[0.5, 0.5])
        with pytest.raises(ConfigurationError):
            SensingSchedule(transmit_times=[1.0, 2.0], delivery_times=[1.0, 2.0])
        with pytest.raises(ConfigurationError):
            SensingSchedule.periodic(0.0, 10.0, d_psi=1.0)
        with pytest.raises(ConfigurationError):
            SensingSchedule.periodic(1.0, 10.0)
