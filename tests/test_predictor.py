import contextlib
import dataclasses
import functools
import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from etpf import engine as etpf_engine
from etpf import predictor as etpf_predictor
from etpf import presets, run
from etpf.channel import SNAP, ActuationDelay, node_of
from etpf.engine import SensingConfig
from etpf.exceptions import PredictorError
from etpf.model import LinearSystem, SystemModel
from etpf.predictor import LIFT, ClosedLoopPredictor, LinearPredictor, NodeGrid, make_predictor
from etpf.presets import linear2d_system
from etpf.trigger import TriggerConfig

from conftest import assert_same_run, cold_linear_memos, per_step, prediction_error, unfused
from reference_predictors import (
    affine_unmemoized,
    integrate_per_segment,
    predict_linear,
    predict_open_loop_step,
    window_nodes,
)


def bits(p) -> bytes:
    """The bytes of a state tuple: ``-0.0`` and ``0.0`` differ, as do NaNs of other bits."""
    return np.array(p).tobytes()


def zero_model(n=1):
    return SystemModel(
        state_dim=n, f=lambda x, u: (0.0,) * n, K=lambda x: 0.0,
        L_f=0.0, L_K=0.0,
    )


def integrator_model():
    # scalar xdot = u
    return SystemModel(
        state_dim=1, f=lambda x, u: (u,),
        K=lambda x: 0.0, L_f=1.0, L_K=0.0,
    )


def control_grid(delay, u0, h=1e-2, N=400, events=()):
    """The engine's NodeGrid for ``delay`` over a scalar control history.

    u is ``u0`` before the first event, and ``value`` from each event
    ``(k, value)`` at node k h on, as the engine's rows and event times hold it.
    """
    U = np.full(N + 1, float(u0))
    for k, value in events:
        U[k:] = value
    return NodeGrid(delay, h, U.tolist(), float(u0), [k * h for k, _ in events],
                    [k for k, _ in events])


def closed_loop(model, grid, anchor_time, anchor_state, now):
    """ClosedLoopPredictor's prediction of x(sigma(now h)) from one anchor."""
    pred = ClosedLoopPredictor(model, grid)
    pred.reanchor(anchor_time, anchor_state, now)
    return pred.p


class TestClosedLoopReference:
    """The engine's closed-loop predictor against hand integrals."""

    def test_zero_dynamics_constant(self):
        delay = ActuationDelay.constant(0.5)
        p = closed_loop(zero_model(), control_grid(delay, 1.0), 1.0, [2.5], 300)
        assert p[0] == pytest.approx(2.5)

    def test_scalar_integrator_hand_integral(self):
        # xdot = u with constant u = c: p(t) = x(tau) + c (t - phi(tau))
        delay = ActuationDelay.constant(0.5)
        c, tau, now = 2.0, 1.0, 2300
        grid = control_grid(delay, c, h=1e-3, N=3000)
        p = closed_loop(integrator_model(), grid, tau, [1.0], now)
        t = now * 1e-3
        assert p[0] == pytest.approx(1.0 + c * (t - (tau - 0.5)), rel=1e-9)


class TestTimeBase:
    """``NodeGrid`` places a float time on the grid by ``node_of``'s rule alone."""

    DELAYS = {
        "example1": ActuationDelay.example1,  # phi(0) off the grid
        "sinusoidal": lambda: ActuationDelay.sinusoidal(0.5, 0.2),  # phi(0) on node -50
        "from_table": lambda: ActuationDelay.from_table([0.0, 1.5, 3.0], [0.4537, 0.9, 0.6]),
    }

    @pytest.mark.parametrize("kind", sorted(DELAYS))
    def test_sigma_reads_the_tables_and_solves_only_off_the_grid(self, kind, monkeypatch):
        delay, h, N = self.DELAYS[kind](), 1e-2, 300
        grid = control_grid(delay, 0.0, h=h, N=N)
        sig, sdot = grid.tables[:2]

        def sigma(s, dot=False):
            return grid.window_start(s, dot)[0]

        calls, solve = [], ActuationDelay.sigma
        monkeypatch.setattr(ActuationDelay, "sigma",
                            lambda self, t: calls.append(t) or solve(self, t))
        # every table node, and the times within the snap either side of it
        for k in range(grid.lo + 1, N + 2):
            for s in (k * h, k * h - 0.5 * SNAP * h, k * h + 0.5 * SNAP * h):
                assert sigma(s) == sig[k - grid.lo], (k, s)
                if k <= N:  # sigma_dot has no entry at N + 1
                    assert sigma(s, dot=True) == sdot[k - grid.lo], (k, s)
        # phi(0): slot 0, unless node_of places it on a node
        phi0 = delay.phi(0.0)
        k0, on0 = node_of(phi0, h)
        assert on0 == (kind == "sinusoidal")
        slot = k0 - grid.lo if on0 else 0
        assert sigma(phi0) == sig[slot] and sigma(phi0, dot=True) == sdot[slot]
        assert calls == []
        # off the grid: the delay's own solve, once for sigma and twice for sigma_dot
        for s in (0.505, 1.2345, 2.0 * N * h / 3.0 + 0.3 * h):
            assert sigma(s) == solve(delay, s) and calls == [s]
            assert sigma(s, dot=True) == delay.sigma_dot(s, h) and len(calls) == 5
            calls.clear()

    def test_u_at_within_the_snap_below_an_event_node_reads_its_row(self):
        # events at nodes 0 and 150: a time 1 ulp or half the snap below either stands for
        # the node and reads the event's row; the row table reads phi(k h) the same way
        delay, h = ActuationDelay.constant(0.5), 1e-2
        grid = control_grid(delay, 0.4, h=h, events=[(0, 0.7), (150, -1.1)])
        for k, before, row in ((0, 0.4, 0.7), (150, 0.7, -1.1)):
            t = k * h
            for s in (t, math.nextafter(t, -math.inf), t - 0.5 * SNAP * h):
                assert grid.u_at(s) == row, (k, s)
            for s in (t - 2.0 * SNAP * h, t - 0.5 * h):  # past the snap: the control before
                assert grid.u_at(s) == before, (k, s)


class TestLinearClosedForm:
    def test_homogeneous_flow(self):
        sys = linear2d_system()
        delay = ActuationDelay.constant(0.5)
        x_tau = np.array([1.0, -2.0])
        t, tau = 2.0, 1.0
        p = predict_linear(t, tau, x_tau, control_grid(delay, 0.0), delay, sys, 1e-3)
        expected = expm(sys.A * (delay.sigma(t) - tau)) @ x_tau
        np.testing.assert_allclose(p, expected, atol=1e-9)

    def test_zero_A_hand_integral(self):
        # A = 0: p = x(tau) + B c (t - phi(tau)); window length t - phi(tau)
        A0 = LinearSystem(A=[[0.0]], B=[[1.0]], K_gain=[[-1.0]], Q=[[1.0]])
        delay = ActuationDelay.constant(0.5)
        c, tau, t = 3.0, 1.0, 1.5
        p = predict_linear(t, tau, [1.0], control_grid(delay, c), delay, A0, 1e-3)
        assert p[0] == pytest.approx(1.0 + c * (t - delay.phi(tau)), rel=1e-6)

    def test_agreement_with_closed_loop(self):
        sys = linear2d_system()
        model = sys.to_model()
        delay = ActuationDelay.constant(0.5)
        grid = control_grid(delay, 0.3, h=1e-3, N=3000, events=[(700, -1.1), (1400, 0.6)])
        p_lin = predict_linear(2.0, 1.0, [1.0, -1.0], grid, delay, sys, 1e-3)
        p_cl = closed_loop(model, grid, 1.0, [1.0, -1.0], 2000)
        np.testing.assert_allclose(p_lin, p_cl, atol=1e-3)


H = 1e-3
DELAYS = {
    "constant": lambda: ActuationDelay.constant(0.5),
    "sinusoidal": lambda: ActuationDelay.sinusoidal(0.5, 0.2),
    "from_table": lambda: ActuationDelay.from_table([0.0, 1.0, 2.0], [0.4, 0.6, 0.5]),
}


@functools.cache
def linear_predictor_delay(kind):
    """One delay per kind, so its grid tables of step H are built once."""
    return DELAYS[kind]()


def segment_predictor(kind, stamps):
    """LinearPredictor over u with a value before the window and an event at each stamp.

    ``stamps`` are node indices: events fire at grid nodes.
    """
    delay = linear_predictor_delay(kind)
    grid = control_grid(delay, 0.4, h=H, N=2000,
                        events=[(k, math.cos(3.0 * j) - 0.2) for j, k in enumerate(stamps)])
    # oscillating and unstable open loop, so exp(A r) is not a polynomial
    sys = LinearSystem(A=[[0.2, 1.0], [-1.0, 0.1]], B=[[0.0], [1.0]],
                       K_gain=[[-1.0, -2.0]], Q=np.eye(2))
    return LinearPredictor(sys, grid)


def per_node_reference(pred, p, s_from, s_to):
    """The re-anchor as one exact step per grid node of the window."""
    nodes = window_nodes(s_from, s_to, pred.h)
    for left, right in zip(nodes[:-1], nodes[1:]):
        E, Phi = pred._step_mats(pred.grid.window_start(right)[0] - pred.grid.window_start(left)[0])
        p = E @ p + Phi @ (pred.sys.B[:, 0] * pred.grid.u_at(left))
    return p


class TestLinearSegmentReanchor:
    """One exact step per control segment equals the per-node composition."""

    NOW = 1100
    ANCHORS = {"on-grid": 600 * H, "off-grid": 600 * H + 0.000437}

    # node indices of the events; "at-ends" puts them on the nodes of the
    # window ends, which for the off-grid anchor is the node just before it
    STAMPS = {
        "none": [],
        "one": [800],
        "several": [650, 700, 701, 950, 1099],
        "at-ends": [600, 900, 1100],
    }

    @pytest.mark.parametrize("stamps", sorted(STAMPS))
    @pytest.mark.parametrize("anchor", ["on-grid", "off-grid"])
    @pytest.mark.parametrize("kind", sorted(DELAYS))
    def test_matches_per_node_steps(self, kind, anchor, stamps):
        s_from = self.ANCHORS[anchor]
        pred = segment_predictor(kind, self.STAMPS[stamps])
        p0 = np.array([1.0, -0.5])
        got = pred._integrate(p0, s_from, self.NOW)
        want = per_node_reference(pred, p0, s_from, self.NOW * H)
        assert np.abs(want).max() < 10.0  # O(1) states
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(sorted(DELAYS)),
        start=st.integers(200, 1000),
        offset=st.floats(0.0, 0.999),
        length=st.integers(1, 500),
        interior=st.sets(st.integers(1, 499), max_size=8),
    )
    def test_random_windows(self, kind, start, offset, length, interior):
        s_from, now = (start + offset) * H, start + length
        stamps = [start + k for k in sorted(interior) if k < length]
        pred = segment_predictor(kind, stamps)
        p0 = np.array([0.3, 1.0])
        np.testing.assert_allclose(pred._integrate(p0, s_from, now),
                                   per_node_reference(pred, p0, s_from, now * H),
                                   rtol=0.0, atol=1e-12)

    def test_one_step_per_segment(self):
        # a 500-node window with 3 interior stamps is 4 control segments
        pred = segment_predictor("constant", [700, 800, 950])
        calls = []
        step_mats = pred._step_mats
        pred._step_mats = lambda dsig: calls.append(dsig) or step_mats(dsig)
        pred.reanchor(1.1, [1.0, 0.0], 1100)
        assert len(window_nodes(pred.delay.phi(1.1), 1.1, H)) - 1 == 500
        assert len(calls) == 4
        np.testing.assert_allclose(sum(calls), 0.5, rtol=1e-12)

    def test_window_start_placed_once(self, monkeypatch):
        # a re-anchor reads sigma and u at its window start phi(tau) through one node_of:
        # 301 calls over linear2d's re-anchors, 602 when each read placed it again.  The
        # anchor method serves reanchor and a block's re-anchor ahead, which a block may
        # compute again when a crossing came first: each anchor counts once
        calls, per_anchor = [], {}
        node_of_, anchored = etpf_predictor.node_of, LinearPredictor.anchored
        monkeypatch.setattr(etpf_predictor, "node_of",
                            lambda t, h: calls.append(t) or node_of_(t, h))

        def counted(self, anchor_time, anchor_state, now):
            n = len(calls)
            p = anchored(self, anchor_time, anchor_state, now)
            per_anchor.setdefault((anchor_time, now), set()).add(len(calls) - n)
            return p

        monkeypatch.setattr(LinearPredictor, "anchored", counted)
        run(dataclasses.replace(presets.linear2d(), x0=np.array([1.1, 0.9])))
        assert all(len(c) == 1 for c in per_anchor.values())
        counts = [c for (c,) in per_anchor.values()]
        assert sum(counts) == 301 and max(counts) == 1


class TestSegmentMemo:
    """Every linear step reads ``(E, Phi B u)`` from one memo, with the bits of the
    unmemoized steps (``tests/reference_predictors.py``)."""

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(sorted(DELAYS)),
        start=st.integers(200, 1000),
        offset=st.floats(0.0, 0.999),
        length=st.integers(1, 500),
        interior=st.sets(st.integers(1, 499), max_size=8),
        slide=st.integers(1, 60),
    )
    def test_integrate_matches_the_unmemoized_reference(self, kind, start, offset, length,
                                                        interior, slide):
        # windows sliding over the same events: their inner segments hit the memo
        pred = segment_predictor(kind, [start + k for k in sorted(interior)])
        p0 = np.array([0.3, 1.0])
        for j in range(4):
            s_from, now = (start + offset + j * slide) * H, start + length + j * slide
            got = pred._integrate(p0, s_from, now)
            assert got.tobytes() == integrate_per_segment(pred, p0, s_from, now).tobytes()

    def test_a_repeated_window_is_all_hits(self):
        pred = segment_predictor("sinusoidal", [650, 700, 701, 950])
        p0 = np.array([1.0, -0.5])
        first = pred._integrate(p0, 600.4 * H, 1100)
        calls = []
        step_mats = pred._step_mats
        pred._step_mats = lambda dsig: calls.append(dsig) or step_mats(dsig)
        assert pred._integrate(p0, 600.4 * H, 1100).tobytes() == first.tobytes()
        assert calls == []

    @pytest.mark.parametrize("kind", sorted(DELAYS))
    def test_advance_and_block_match_the_unmemoized_reference(self, kind):
        stamps = [300, 650, 700, 701, 950]
        memo, ref = segment_predictor(kind, stamps), segment_predictor(kind, stamps)
        ref._affine = functools.partial(affine_unmemoized, ref)
        out = {}
        for name, pred in (("memo", memo), ("ref", ref)):
            rows = []
            pred.set_p(np.array([1.0, -0.5]))
            # from phi(0) through the pre-history and past the events; block keeps p
            for k in range(pred.grid.lo, 1200):
                pred.advance(k)
                rows.append(pred.p)
                if k >= 0 and k % 37 == 0:
                    rows.extend(pred.block(k + 1, 200))
            out[name] = np.array(rows)
        # a smoothly varying delay changes the advance key at every slot: no block rows
        blocks = len(out["memo"]) - (1200 - memo.grid.lo)
        assert blocks == 0 if kind == "sinusoidal" else blocks > 1000
        assert out["memo"].tobytes() == out["ref"].tobytes()

    def test_signed_zero_controls_do_not_share_an_entry(self):
        pred = segment_predictor("constant", [])
        for u in (0.0, -0.0, 0.0, -0.0):
            c = pred._affine(1e-3, u)[1]
            assert c.tobytes() == affine_unmemoized(pred, 1e-3, u)[1].tobytes()
        assert len(pred._memo) == 2

    def test_one_stacked_expm_for_the_advance_keys(self, monkeypatch):
        # a time-varying delay gives nearly every advance its own key: one stacked
        # expm at construction covers them all, then one call per new segment key; the
        # process-wide memo starts empty, as in a fresh process
        cold_linear_memos()
        cfg = dataclasses.replace(presets.linear2d(), T=4.0, monitor=None,
                                  delay=ActuationDelay.sinusoidal(0.5, 0.2))
        made, expms = [], []
        make, real_expm = etpf_engine.make_predictor, etpf_predictor.expm
        monkeypatch.setattr(etpf_engine, "make_predictor",
                            lambda *a, **k: made.append(make(*a, **k)) or made[-1])
        monkeypatch.setattr(etpf_predictor, "expm",
                            lambda M: expms.append(M.shape[0]) or real_expm(M))
        tr = run(cfg)
        pred = made[0]
        advance_keys = len({round(d, 14) for d in np.diff(pred.grid.tables[0]).tolist()})
        assert advance_keys > 4096 and expms[0] == advance_keys
        assert expms[1:] == [1] * (len(pred._mats) - advance_keys) and len(expms) > 1
        # every memo entry holds the E of its step key
        keyed = {id(E) for E, _Phi in pred._mats.values()}
        assert pred._memo and all(id(E) in keyed for E, _c in pred._memo.values())

        def digest(tr):
            h = hashlib.sha256()
            for a in (tr.x, tr.p, tr.u, np.array(tr.events.event_times)):
                h.update(np.ascontiguousarray(a).tobytes())
            return h.hexdigest()

        # the bits of the steps before the memo, recorded then; re-recorded when the steps came
        # from the package's Padé kernel in place of scipy's expm: x, p and u moved by at most
        # 1.4e-13 relative, the event times did not; and again when the kernel took the finite
        # series of nilpotent slices: x 4.3e-15, p 7.1e-14, u 1.3e-14, no event time moved
        assert digest(tr) == "0ee2ceb293e5ed9899c3e703b49dfb33be40ed24a096097afbdd9f6f4343f48d"
        monkeypatch.setattr(LinearPredictor, "_affine", affine_unmemoized)
        monkeypatch.setattr(LinearPredictor, "_integrate", integrate_per_segment)
        assert digest(run(cfg)) == digest(tr)


class TestProcessMemo:
    """The process-wide memos of the linear path, ``(E, Phi)`` per dsig and the lift tables,
    are keyed by exact bits: a run's bytes do not depend on what ran before it."""

    @staticmethod
    def configs():
        base = dataclasses.replace(presets.linear2d(), monitor=None)
        return {
            "linear2d": base,
            "sinusoidal": dataclasses.replace(base, delay=ActuationDelay.sinusoidal(0.5, 0.2)),
            "constant-1.3": dataclasses.replace(base, delay=ActuationDelay.constant(1.3)),
            "mismatched": dataclasses.replace(base, ctrl_delay=ActuationDelay.constant(0.55)),
        }

    def test_bytes_do_not_depend_on_process_history(self, monkeypatch):
        cfgs, cold = self.configs(), {}
        for name, cfg in cfgs.items():
            cold_linear_memos()
            cold[name] = run(cfg)
        # warm: after the other linear runs, in two orders
        expms = []
        real_expm = etpf_predictor.expm
        monkeypatch.setattr(etpf_predictor, "expm", lambda M: expms.append(len(M)) or real_expm(M))
        for order in (list(cfgs), list(cfgs)[::-1]):
            expms.clear()
            for name in order:
                assert_same_run(run(cfgs[name]), cold[name])
        assert expms == []  # the second pass found every step in the memo

    def test_a_rounded_key_is_not_shared(self, monkeypatch):
        # two dsig values with one round(dsig, 14) key and different bits: each predictor's
        # table keeps the first dsig it meets for a key, the process-wide memo must not
        d1, d2 = 0.3, 0.3 + 4e-15
        assert round(d1, 14) == round(d2, 14) and d1 != d2
        sys, delay = linear2d_system(), ActuationDelay.constant(0.5)
        cold_linear_memos()
        first, second = (LinearPredictor(sys, control_grid(delay, 0.0)) for _ in range(2))
        expms = []
        real_expm = etpf_predictor.expm
        monkeypatch.setattr(etpf_predictor, "expm",
                            lambda M: expms.append(M[:, 0, 2].tolist()) or real_expm(M))
        E1, _ = first._step_mats(d1)
        E2, Phi2 = second._step_mats(d2)
        assert expms == [[d1], [d2]]
        M = np.zeros((1, 4, 4))
        M[0, :2, :2], M[0, :2, 2:] = sys.A * d2, np.eye(2) * d2
        want = real_expm(M)[0]
        assert E2.tobytes() == want[:2, :2].tobytes() and Phi2.tobytes() == want[:2, 2:].tobytes()
        assert E1.tobytes() != E2.tobytes()  # the test can tell the two keys apart


class TestOpenLoop:
    def test_zero_dynamics_step(self):
        delay = ActuationDelay.constant(0.5)
        p = predict_open_loop_step([4.0], 1.0, control_grid(delay, 1.0), delay,
                                   zero_model(), 1e-2)
        assert p[0] == pytest.approx(4.0)

    def test_stable_scalar_tracks(self):
        # xdot = -x, u unused; p solves pdot = sigmadot f(p) and should track
        # x(sigma(t)) = x0 e^{-(t + D)} within O(h)
        model = SystemModel(
            state_dim=1, f=lambda x, u: (-x[0],), K=lambda x: 0.0,
            L_f=1.0, L_K=0.0,
        )
        delay = ActuationDelay.constant(0.5)
        h = 1e-3
        p = np.array([math.exp(-0.5)])  # x(sigma(0)) for x0 = 1
        grid = control_grid(delay, 0.0)
        t = 0.0
        while t < 2.0 - 1e-12:
            p = predict_open_loop_step(p, t, grid, delay, model, h)
            t += h
        assert p[0] == pytest.approx(math.exp(-(2.0 + 0.5)), abs=5e-4)

    def test_divergence_flagged(self):
        model = SystemModel(
            state_dim=1, f=lambda x, u: (1e13 * x[0],), K=lambda x: 0.0,
            L_f=1.0, L_K=0.0,
        )
        delay = ActuationDelay.constant(0.5)
        with pytest.raises(PredictorError):
            predict_open_loop_step([1.0], 0.0, control_grid(delay, 0.0), delay, model, 1.0)


def test_prediction_error_names_an_empty_horizon():
    # the delay is 0.5: every target sigma(t) from t0 = 0 on lies past T = 0.4
    cfg = dataclasses.replace(presets.linear2d(), T=0.4, monitor=None)
    with pytest.raises(ValueError, match=r"t0 = 0\.0, sigma\(t0\) = 0\.5, T = 0\.4"):
        prediction_error(run(cfg), cfg.delay)


class TestIncrementalClosedLoop:
    def test_exact_on_stabilized_run(self, ex1_trace):
        # the replayed prediction reproduces the plant at the warped time to
        # float precision on the benchmark run
        err = prediction_error(ex1_trace, presets.example1().delay)
        assert err <= 1e-9

    @pytest.mark.parametrize("D", [0.5 - 5e-13, 0.5 + 5e-13, 0.5 - 5e-11, 0.5 + 5e-11],
                             ids=["phi-just-above-nodes", "phi-just-below-nodes",
                                  "phi-above-nodes-past-the-snap", "phi-below-nodes-past-the-snap"])
    def test_delay_within_the_snap_of_the_grid(self, D):
        # At h = 0.01, 5e-13 s is 5e-11 steps, within node_of's snap: phi(0),
        # every phi(k h) and every sigma(k h) are taken as the nodes next to
        # them, by the row table and the replay alike.  5e-11 s is 5e-9 steps,
        # past the snap: the pre-history starts off the grid, each row read
        # is the node at or below phi(k h), and the replay closes each target
        # with a 5e-11 s partial step, whose f is kept only when its row is
        # final.  Either way the prediction differs from the plant by at most
        # 5e-11 |df|.
        delay = ActuationDelay.constant(D)
        tr = run(dataclasses.replace(presets.example1(), T=6.0, delay=delay, monitor=None))
        assert not tr.diverged
        assert prediction_error(tr, delay) <= 1e-8

    def test_anchor_monotonicity_enforced(self):
        model = integrator_model()
        delay = ActuationDelay.constant(0.5)
        pred = ClosedLoopPredictor(model, control_grid(delay, 0.0))
        pred.reanchor(1.0, [0.0], 100)
        with pytest.raises(PredictorError):
            pred.reanchor(0.5, [0.0], 100)

    def test_make_predictor_validation(self):
        model = integrator_model()
        delay = ActuationDelay.constant(0.5)
        with pytest.raises(PredictorError):
            make_predictor("magic", model, control_grid(delay, 0.0))
        with pytest.raises(PredictorError):
            make_predictor("linear-closed-form", model, control_grid(delay, 0.0),
                           linear=None)


class TestReplayMemo:
    """A re-anchor onto a node of the replay chain with the chain's own state."""

    H = 1e-2

    @staticmethod
    def counting_model(calls):
        def f(x, u):
            calls.append(1)
            return presets._ex1_f(x, u)

        return SystemModel(state_dim=2, f=f, K=presets._ex1_K, L_f=1.0, L_K=1.0)

    def setup_predictor(self, calls):
        # as in the engine: a re-anchor, then advances that keep the partial
        # step's f once its control row is final
        delay = ActuationDelay.example1()
        grid = control_grid(delay, 0.5, h=self.H, N=600, events=[(50, -1.0), (120, 0.3)])
        pred = ClosedLoopPredictor(self.counting_model(calls), grid)
        pred.reanchor(1.0, [1.0, 0.5], 200)
        for k in range(200, 230):
            pred.advance(k)
        return pred, delay, grid

    def test_hit_replays_nothing(self):
        calls = []
        pred, delay, grid = self.setup_predictor(calls)
        node = 130
        state = np.array(pred._chain[node - pred._c0])
        p, head, head_node = pred.p, pred._chain[-1], pred._c0 + len(pred._chain) - 1
        calls.clear()
        pred.reanchor(node * self.H, state, 230)
        assert calls == []
        assert bits(pred.p) == bits(p)
        assert pred._chain[-1] is head and pred._c0 + len(pred._chain) - 1 == head_node
        # only the nodes from the anchor on are kept
        assert pred._c0 == node
        # the same bits as a replay from scratch
        fresh = ClosedLoopPredictor(self.counting_model([]), grid)
        fresh.reanchor(node * self.H, state, 230)
        assert bits(fresh.p) == bits(p)

    def test_one_ulp_off_replays(self):
        calls = []
        pred, delay, grid = self.setup_predictor(calls)
        node = 130
        state = np.array(pred._chain[node - pred._c0])
        hit = pred.p
        state[0] = np.nextafter(state[0], math.inf)
        calls.clear()
        pred.reanchor(node * self.H, state, 230)
        assert calls  # replayed
        assert bits(pred.p) != bits(hit)
        fresh = ClosedLoopPredictor(self.counting_model([]), grid)
        fresh.reanchor(node * self.H, state, 230)
        assert bits(fresh.p) == bits(pred.p)


    def test_target_below_the_head_replays(self):
        # a target before the chain's head cannot be read off the chain
        calls = []
        pred, delay, grid = self.setup_predictor(calls)
        node = 130
        state = np.array(pred._chain[node - pred._c0])
        pred.reanchor(node * self.H, state, 200)
        fresh = ClosedLoopPredictor(self.counting_model([]), grid)
        fresh.reanchor(node * self.H, state, 200)
        assert bits(fresh.p) == bits(pred.p)

    def test_signed_zero_is_not_a_hit(self):
        # -0.0 == 0.0, but under xdot = x the replay from -0.0 keeps the sign
        model = SystemModel(state_dim=1, f=lambda x, u: x, K=lambda x: 0.0,
                            L_f=1.0, L_K=0.0)
        delay = ActuationDelay.constant(0.5)
        pred = ClosedLoopPredictor(model, control_grid(delay, 0.0))
        pred.reanchor(1.0, [0.0], 100)
        pred.reanchor(1.2, [-0.0], 150)
        assert math.copysign(1.0, pred.p[0]) == -1.0


class TestOneNodeAdvance:
    """The engine takes ``advance``'s one-node case, the kept f onto one replayed node and a
    partial step, itself on two-state closed-loop runs; ``advance`` always replays through
    ``_extend``.  Every step the engine takes must have the bits and ``f`` calls of the same
    run under ``unfused``, which calls ``advance`` on every step."""

    DELAYS = {
        "example1": ActuationDelay.example1(),
        "sinusoidal": ActuationDelay.sinusoidal(0.7, 0.3),
        "from_table": ActuationDelay.from_table([0.0, 1.5, 3.0, 5.0], [0.6, 1.1, 0.45, 0.9]),
        "constant-off-grid": ActuationDelay.constant(0.5037),
    }

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", DELAYS)
    def test_advance_matches_extend(self, kind, seed):
        # transmissions every delta_tau, on the grid (seed 0: re-anchors that hit the chain)
        # or off it, with drawn sensing delays; events where the trigger fires
        sensing = SensingConfig(delta_tau=[0.5, 0.3713, 0.7317][seed], mu_psi=0.3,
                                sigma_psi=0.1, seed=seed)
        advance, runs = ClosedLoopPredictor.advance, []
        for context in (contextlib.nullcontext, unfused):
            calls, advances = [], []

            def counted(self, k):
                advances.append(k)
                advance(self, k)

            cfg = dataclasses.replace(
                presets.example1(), T=4.0, delay=self.DELAYS[kind], sensing=sensing,
                u_prehistory=0.2, monitor=None, model=TestReplayMemo.counting_model(calls))
            with context(), mock.patch.object(ClosedLoopPredictor, "advance", counted):
                runs.append((run(cfg), len(calls), len(advances)))
        (tr, f_calls, advanced), (oracle, f_oracle, every) = runs
        assert_same_run(tr, oracle)
        assert f_calls == f_oracle
        steps = tr.diagnostics["final_step"]
        assert steps == 400 and every - advanced > 0.3 * steps  # the engine's own steps


class TestHeldLinearTerm:
    def test_advance_matches_the_full_step(self, monkeypatch):
        # u_prehistory = 0.3 before t = 0, then U rows 0 until the first event
        # at t0 = d_psi > 0: advance's Phi @ (B @ u) must change at t = 0 and
        # at every event
        # once events start, a linear2d run steps in blocks (LinearPredictor.block)
        # and no longer calls advance; per_step keeps every step in advance
        cfg = per_step(dataclasses.replace(
            presets.linear2d(), T=1.5, u_prehistory=0.3, monitor=None,
            sensing=dataclasses.replace(presets.linear2d().sensing, d_psi=0.2),
        ))
        original = LinearPredictor.advance
        seen = []

        def checked(self, k):
            g, sig = self.grid, self.grid.tables[0]
            E, Phi = self._step_mats(float(sig[k + 1 - g.lo] - sig[k - g.lo]))
            expected = E @ np.array(self.p) + Phi @ (self.sys.B[:, 0] * g.u_row(k))
            original(self, k)
            assert bits(self.p) == expected.tobytes(), k
            seen.append((k < 0, len(g.events)))

        monkeypatch.setattr(LinearPredictor, "advance", checked)
        tr = run(cfg)
        assert tr.t0 > 0 and tr.events.count > 2
        assert (True, 0) in seen and (False, 0) in seen and (False, 2) in seen


class TestLinearBlock:
    """``LinearPredictor.block`` against the advances it stands for."""

    def predictor(self, delay, p):
        grid = control_grid(delay, 0.4, h=1e-3, N=3000)
        pred = LinearPredictor(linear2d_system(), grid)
        pred.reanchor(0.0, np.zeros(2), 1000)
        pred.set_p(np.array(p))
        return pred

    def test_rows_match_the_advances(self):
        pred = self.predictor(ActuationDelay.constant(0.5), [1.0, -0.5])
        rows = pred.block(1000, 10 * LIFT)
        assert len(rows) == LIFT  # the power table bounds the block
        for i, row in enumerate(rows):
            pred.advance(1000 + i)
            np.testing.assert_allclose(row, pred.p, rtol=1e-13, atol=1e-15)

    def test_no_rows_when_the_advance_key_changes_every_slot(self):
        # a block of one row would be advance's own step
        pred = self.predictor(ActuationDelay.sinusoidal(0.5, 0.2), [1.0, -0.5])
        assert len(pred.block(1000, 50)) == 0
        assert len(self.predictor(ActuationDelay.constant(0.5), [1.0, -0.5]).block(1000, 1)) == 0

    def test_rows_are_not_truncated(self):
        # p_1 grows by p_2 h = 1e8 per step past 1e12: the block only computes, the
        # engine decides divergence
        pred = self.predictor(ActuationDelay.constant(0.5), [1e12 - 5.5e8, 1e11])
        rows = pred.block(1000, 50)
        assert len(rows) == 50 and rows[-1, 0] > 1e12

    def test_run_stops_where_the_per_step_path_does(self, monkeypatch):
        # xdot = u, one event at t = 0 with the gain -1e5 and no other event
        # (ratio 1e6): p = 1 - 1e5 t ramps past the prediction bound 1e3 * 2 at
        # t = 0.02, while x = x0 = 1 until the control arrives at t = D = 0.5.
        # The crossing lies inside the block that starts at the event: its rows
        # stop before it, and the loop's own advance stops the run there
        sys = LinearSystem(A=[[0.0]], B=[[1.0]], K_gain=[[-1e5]], Q=[[1.0]])
        cfg = dataclasses.replace(
            presets.linear2d(), model=sys.to_model(), linear=sys, cert=None, monitor=None,
            x0=np.array([1.0]), T=1.0, divergence_threshold=2.0,
            trigger=TriggerConfig.fixed_ratio(1e6),
            sensing=SensingConfig(mode="periodic", delta_tau=1.0, d_psi=0.0),
        )
        blocks = []
        block = LinearPredictor.block

        def recorded(self, k, L):
            rows = block(self, k, L)
            blocks.append((k, len(rows)))
            return rows

        monkeypatch.setattr(LinearPredictor, "block", recorded)
        tr = run(cfg)
        oracle = run(per_step(cfg))
        s = tr.diagnostics["final_step"]
        assert tr.diagnostics["divergence"] == oracle.diagnostics["divergence"] == {
            "bound": "prediction", "phase": "advance", "step": s, "t": s * cfg.h,
            "before_control": True}
        assert 15 <= s <= 25 and np.all(tr.x[: s + 1] == 1.0)
        assert blocks[0][0] == 0 and blocks[0][1] > s
        np.testing.assert_allclose(tr.p, oracle.p, rtol=1e-12, equal_nan=True)


class TestDivergenceCheck:
    """One comparison per check catches NaN, inf and values above the bound."""

    @staticmethod
    def rate_model(rate):
        # xdot = rate while u is nonzero; f(0, 0) = 0 as SystemModel requires
        return SystemModel(
            state_dim=1, f=lambda x, u: (rate if u != 0.0 else 0.0,),
            K=lambda x: 0.0, L_f=0.0, L_K=0.0,
        )

    RATES = [
        pytest.param(math.nan, id="nan"),
        pytest.param(math.inf, id="inf"),
        pytest.param(1e15, id="above-cap"),  # h * rate = 1e13 > 1e12
    ]

    @pytest.mark.parametrize("rate", RATES)
    def test_run_stops_on_the_prediction(self, rate):
        # u = K(p) = 1 from the first event, at t0 = 0.3, on: the closed-loop
        # replay's first step under it, the advance of step 30 onto sigma(0.31) =
        # 0.81, ends at 1 + 0.01 rate, NaN, inf or 1e13, past the 1e12 bound.  The
        # plant still reads u_pre = 0 there, so only the prediction bound fires
        model = dataclasses.replace(self.rate_model(rate), K=lambda x: 1.0 if any(x) else 0.0)
        cfg = dataclasses.replace(
            presets.example1(), model=model, delay=ActuationDelay.constant(0.5),
            sensing=SensingConfig(mode="periodic", delta_tau=1.0, d_psi=0.3),
            trigger=TriggerConfig.fixed_ratio(0.5), x0=np.array([1.0]), T=2.0,
            cert=None, monitor=None,
        )
        tr = run(cfg)
        assert tr.diagnostics["divergence"] == {
            "bound": "prediction", "phase": "advance", "step": 30, "t": 30 * cfg.h,
            "before_control": True}
        assert tr.events.event_times == [0.3] and np.all(tr.x == 1.0)

    @pytest.mark.parametrize("rate", RATES)
    def test_reference_functions(self, rate):
        delay = ActuationDelay.constant(0.5)
        with pytest.raises(PredictorError):
            predict_open_loop_step([0.0], 0.0, control_grid(delay, 1.0), delay,
                                   self.rate_model(rate), 1e-2)

    def test_finite_below_cap_passes(self):
        delay = ActuationDelay.constant(0.5)
        # 50 steps of 0.01 at rate 1e12 end at 5e11, under the cap
        p = closed_loop(self.rate_model(1e12), control_grid(delay, 1.0), 1.0, [0.0], 100)
        assert p[0] == pytest.approx(5e11, rel=1e-6)


class TestSemiClosed:
    @pytest.mark.parametrize("method, tol", [
        pytest.param("semi-closed-loop", 1e-1, id="semi-closed-loop"),
        # with the nominal model and delay, the open-loop Euler flow matches
        # the plant's own Euler iterates
        pytest.param("open-loop", 1e-9, id="open-loop"),
    ])
    def test_tracks_linear_run(self, method, tol):
        # engine-level check: the method stays within its documented
        # tolerance on a stable linear run
        cfg = dataclasses.replace(
            presets.linear2d(), predictor_method=method, T=5.0, monitor=None,
        )
        tr = run(cfg)
        assert not tr.diverged
        err = prediction_error(tr, cfg.delay)
        assert err <= tol
