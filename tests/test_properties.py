"""Invariants of the engine over random small configurations.

The example1 model and trigger run under a random actuation delay (constant,
sinusoidal or a piecewise-linear table) and a random sensing channel: perfect
sensing, which re-anchors the prediction at every step, or a periodic one (a
period on or off the grid of step h, a constant or a seeded Gaussian sensing
delay, which reorders deliveries).

The plant's reads of the closed-loop replay are checked against the same
configuration with an equal but distinct controller delay, under which the
plant takes its own Euler steps.

Semi-closed-loop runs, whose predictor integrates its history window as
arrays, are checked bit for bit against the same run with the per-stamp
reference predictor of ``reference_predictors``.

``linear2d`` runs, which step between breakpoints in blocks, are checked
against the same configuration stepped one node at a time: a plant ``f``
that is not the linear system's own keeps the engine on its per-step path.

The engine's adoption table, built before the step loop, is checked against
the per-step adoption loop it replaced, kept here as ``adoptions_per_step``.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from etpf import predictor as etpf_predictor
from etpf import presets, run
from etpf.channel import ActuationDelay, node_of
from etpf.exceptions import ConfigurationError
from etpf.engine import SensingConfig, _adoptions

from conftest import assert_same_run, own_step, per_step, prediction_error
from reference_predictors import ReferenceSemiClosed

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
    assert_same_run(run(cfg), tr)


@settings(max_examples=60, deadline=None)
@given(delay=delays(), sensing=sensings(), u_pre=st.sampled_from([0.0, 0.3]))
def test_replay_read_equals_own_step(delay, sensing, u_pre):
    # the plant reads the closed-loop replay's rows under its own delay, and takes
    # its own Euler steps under an equal but distinct one: the same bits either way
    cfg = dataclasses.replace(presets.example1(), T=T, delay=delay, sensing=sensing,
                              u_prehistory=u_pre, monitor=None)
    assert_same_run(run(cfg), run(own_step(cfg)))


@settings(max_examples=60, deadline=None)
@given(delay=delays(), sensing=sensings())
def test_semi_closed_equals_per_stamp_reference(delay, sensing):
    cfg = dataclasses.replace(presets.example1(), T=T, delay=delay, sensing=sensing,
                              predictor_method="semi-closed-loop", monitor=None)
    tr = run(cfg)
    event(f"sensing: {sensing.mode}")
    with mock.patch.object(etpf_predictor, "SemiClosedPredictor", ReferenceSemiClosed):
        assert_same_run(tr, run(cfg))


@st.composite
def linear_runs(draw, delay, T=T, mismatch=True):
    h = presets.linear2d().h
    x0 = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2)))
    delta_tau = draw(st.integers(10, 80)) * h
    if draw(st.booleans()):
        sensing = SensingConfig(mode="periodic", delta_tau=delta_tau,
                                d_psi=draw(st.floats(0.0, 1.0)))
    else:
        sensing = SensingConfig(mode="periodic", delta_tau=delta_tau,
                                mu_psi=draw(st.floats(0.0, 1.0)),
                                sigma_psi=draw(st.floats(0.05, 1.0)),
                                seed=draw(st.integers(0, 2**16)))
    cfg = dataclasses.replace(presets.linear2d(), T=T, x0=x0, delay=draw(delay),
                              sensing=sensing, monitor=None)
    if mismatch and draw(st.integers(0, 3)) == 0:
        # the controller assumes a longer constant delay than the plant's
        D = -cfg.delay.phi(0.0) * draw(st.floats(1.0, 1.5))
        cfg = dataclasses.replace(cfg, ctrl_delay=ActuationDelay.constant(D))
    return cfg


@settings(max_examples=60, deadline=None)
@given(cfg=linear_runs(st.floats(0.05, 1.0).map(ActuationDelay.constant)))
def test_linear_blocks_match_per_step(cfg):
    tr, oracle = run(cfg), run(per_step(cfg))
    assert tr.diverged == oracle.diverged
    assert tr.events.event_times == oracle.events.event_times
    np.testing.assert_array_equal(tr.delivery_flags, oracle.delivery_flags)
    # relative to the trajectory's size, down to the smallest normal double:
    # below it (x0 near 1e-313, say) rounding is absolute, not relative
    scale = 1e-12 * np.max(np.abs(oracle.x)) + np.finfo(float).tiny
    assert np.max(np.abs(tr.x - oracle.x)) <= scale
    np.testing.assert_array_equal(np.isnan(tr.p), np.isnan(oracle.p))
    assert np.nanmax(np.abs(tr.p - oracle.p), initial=0.0) <= scale


@settings(max_examples=8, deadline=None)
@given(cfg=linear_runs(st.tuples(st.floats(0.3, 0.9), st.floats(0.05, 0.9)).map(
    lambda da: ActuationDelay.sinusoidal(da[0], da[1] * da[0])), T=1.0, mismatch=False))
def test_linear_sinusoidal_forms_no_block(cfg):
    # the advance key changes at every node, so every step is the per-step one
    assert_same_run(run(cfg), run(per_step(cfg)))


def adoptions_per_step(sensing, T, h, N):
    """``(deliveries, delivery nodes, adoptions)`` as the step loop found them one node at a
    time: at a node with deliveries, the freshest one, adopted iff at least as fresh as
    the last adoption.  Perfect sensing adopts the state at every node from node 1 on."""
    sched = sensing.schedule(T)
    if sched is None:
        return [], list(range(N + 1)), {k: k * h for k in range(1, N + 1)}
    deliveries, by_index = [], {}
    for ell, (tau, dv) in enumerate(zip(sched.transmit_times, sched.delivery_times)):
        idx = node_of(dv, h)[0]
        if idx > N:
            continue
        deliveries.append((ell, float(tau), float(dv), idx))
        by_index.setdefault(idx, []).append(deliveries[-1])
    nodes, adopted, anchor_tau = [], {}, 0.0
    for step in range(N + 1):
        if step in by_index:
            nodes.append(step)
            best = max(by_index[step], key=lambda d: d[1])
            if best[1] >= anchor_tau:
                anchor_tau = adopted[step] = best[1]
    return [(d[0], d[1], d[2], d[3] * h) for d in deliveries], nodes, adopted


@settings(max_examples=300, deadline=None)
@given(sensing=sensings(), T=st.sampled_from([1.0, 3.0, 12.0]))
def test_adoption_table_equals_the_per_step_loop(sensing, T):
    N = int(round(T / H))
    oracle = adoptions_per_step(sensing, T, H, N)
    if not oracle[1]:  # no delivery inside the horizon
        with pytest.raises(ConfigurationError, match="no sensing delivery"):
            _adoptions(sensing, T, H, N)
        return
    deliveries, nodes, adopt = _adoptions(sensing, T, H, N)
    event(f"sensing: {sensing.mode}")
    if sensing.mode == "periodic" and len(adopt) < len(nodes):
        event("a stale delivery dropped")
    assert deliveries == oracle[0]
    assert nodes == oracle[1]
    assert adopt == oracle[2]
