"""Invariants of the engine over random small configurations of ``example1``.

The example1 model and trigger run under a random actuation delay (constant,
sinusoidal or a piecewise-linear table) and a random sensing channel: perfect
sensing, which re-anchors the prediction at every step, or a periodic one (a
period on or off the grid of step h, a constant or a seeded Gaussian sensing
delay, which reorders deliveries).
"""

import dataclasses

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from etpf import presets, run
from etpf.channel import ActuationDelay, node_of
from etpf.engine import SensingConfig

from conftest import prediction_error

H = presets.example1().h
T = 3.0


@st.composite
def delays(draw):
    kind = draw(st.sampled_from(["constant", "sinusoidal", "table"]))
    if kind == "constant":
        return ActuationDelay.constant(draw(st.floats(0.2, 1.0)))
    if kind == "sinusoidal":
        D = draw(st.floats(0.3, 0.9))
        return ActuationDelay.sinusoidal(D, draw(st.floats(0.0, 0.9 * D)))
    # knots 1.5 s apart; slopes stay below 0.6 in magnitude, so phi increases
    values = draw(st.lists(st.floats(0.2, 1.0), min_size=3, max_size=3))
    return ActuationDelay.from_table([0.0, 1.5, 3.0], values)


@st.composite
def sensings(draw):
    if draw(st.integers(0, 4)) == 0:
        return SensingConfig(mode="perfect")
    delta_tau = draw(st.integers(10, 80)) * H
    if draw(st.booleans()):
        # off the grid: only the first transmission, at t = 0, is on a node
        delta_tau += draw(st.floats(0.01, 0.99)) * H
    if draw(st.booleans()):
        return SensingConfig(mode="periodic", delta_tau=delta_tau,
                             d_psi=draw(st.floats(0.0, 1.0)))
    return SensingConfig(mode="periodic", delta_tau=delta_tau,
                         mu_psi=draw(st.floats(0.0, 1.0)),
                         sigma_psi=draw(st.floats(0.05, 1.0)),
                         seed=draw(st.integers(0, 2**16)))


def on_grid(t):
    return node_of(t, H)[1]


@settings(max_examples=60, deadline=None)
@given(delay=delays(), sensing=sensings())
def test_run_invariants(delay, sensing):
    cfg = dataclasses.replace(presets.example1(), T=T, delay=delay, sensing=sensing,
                              monitor=None)
    tr = run(cfg)
    event(f"sensing: {sensing.mode}")
    assert not tr.diverged

    # w vanishes once events have started
    assert tr.diagnostics["w_max_after_t0"] <= 1e-9

    # C7: the threshold holds off events from t0 on, up to the prediction's
    # jump over the step (the trigger is checked at nodes only); e resets at events
    live = (tr.times >= tr.t0) & (tr.event_flags == 0)
    jump = np.r_[0.0, np.linalg.norm(np.diff(tr.p, axis=0), axis=1)]
    assert np.all(tr.e_norm[live] <= tr.threshold[live] + jump[live] + 1e-12)
    assert np.all(tr.e_norm[tr.event_flags == 1] == 0.0)

    # the channel tables invert phi: phi(sigma(k h)) = k h at every table node
    # (slot 0 holds sigma(phi(0)))
    m_lo = node_of(delay.phi(0.0), H)[0]
    N = int(round(T / H))
    nodes = np.r_[delay.phi(0.0), np.arange(m_lo, N + 2) * H]
    sig = delay.grid_tables(H, m_lo, N)[0]
    assert np.all(np.abs(delay.phi(sig) - nodes) <= 1e-12 * (1.0 + np.abs(nodes)))

    # event times are strictly increasing grid nodes
    ev = np.array(tr.events.event_times)
    assert np.all(np.diff(ev) > 0)
    np.testing.assert_array_equal(ev, np.round(ev / H) * H)

    # the closed-loop replay is the plant's own Euler scheme: exact when every
    # anchor is a node.  An off-grid anchor closes its first partial step with
    # f at the interpolated state, so the prediction is only O(h) close there.
    if all(on_grid(tau) for _ell, tau, _dv, _grid_t in tr.deliveries):
        event("every anchor on the grid")
        assert prediction_error(tr, delay) <= 1e-9

    # deterministic to the bit
    again = run(cfg)
    for name in ("x", "u", "p", "e_norm", "threshold", "event_flags", "delivery_flags"):
        np.testing.assert_array_equal(getattr(again, name), getattr(tr, name))
    assert again.events.event_times == tr.events.event_times
