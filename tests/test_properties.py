"""Invariants of the engine over random small configurations of ``example1``.

The example1 model and trigger run under a random actuation delay (constant,
sinusoidal or a piecewise-linear table) and a random periodic sensing channel
(a period on or off the grid of step h, a constant or a seeded Gaussian
sensing delay, which reorders deliveries).
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
    assert not tr.diverged

    # w vanishes once events have started
    assert tr.diagnostics["w_max_after_t0"] <= 1e-9

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
