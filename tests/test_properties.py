"""Invariants of the engine over random small configurations.

The example1 model and trigger run under a random actuation delay (constant,
sinusoidal or a piecewise-linear table) and a random sensing channel: perfect
sensing, which re-anchors the prediction at every step, or a periodic one (a
period on or off the grid of step h, a constant or a seeded Gaussian sensing
delay, which reorders deliveries).

The plant's reads of the closed-loop replay are checked against the same
configuration with the replay read switched off (``own_step``), under which the
plant takes its own Euler steps.

Semi-closed-loop runs, whose predictor integrates its history window as
arrays, are checked bit for bit against the same run with the per-stamp
reference predictor of ``reference_predictors``, and their history stamps
against the engine's node times ``k * h``.

``linear2d`` runs, which step between breakpoints in blocks, are checked
against the same configuration stepped one node at a time: a plant ``f``
that is not the linear system's own keeps the engine on its per-step path.
Their step matrices, built per advance key when the predictor is made, are
checked bit for bit against the lazily filled cache of ``ReferenceLinear``.

The engine's adoption table, built before the step loop, is checked against
the per-step adoption loop it replaced, kept here as ``adoptions_per_step``.

Configs whose scalar fields are drawn from valid values and from NaN, +-inf,
0 and negatives either run or raise an ``ETPFError``: no other exception
leaves building or running one.  Config dicts, as YAML and ``--override`` give
them, drawn with mistyped sections, unknown keys and mistyped values, either
build a ``SimConfig`` or raise ``ConfigurationError``.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from etpf import engine as etpf_engine
from etpf import predictor as etpf_predictor
from etpf import presets, run
from etpf.channel import ActuationDelay, node_of
from etpf.config import SCHEMA, build_sim_config
from etpf.exceptions import ConfigurationError, ETPFError
from etpf.engine import SensingConfig, SimConfig, SimTrace
from etpf.model import LinearSystem
from etpf.monitor import MonitorConfig
from etpf.trigger import TriggerConfig

from conftest import assert_same_run, own_step, per_step, prediction_error
from reference_predictors import ReferenceLinear, ReferenceSemiClosed, trigger_per_step

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


@settings(max_examples=80, deadline=None)
@given(delay=st.one_of(delays(), st.floats(1.0, 10.0).map(ActuationDelay.constant)),
       sensing=sensings(), rho_bar=st.floats(0.005, 0.1))
def test_run_invariants(delay, sensing, rho_bar):
    # constant delays up to 10, past example1's M0 = 1, and a random fixed trigger ratio;
    # a longer run keeps some of a long delay's prediction targets inside the horizon
    cfg = dataclasses.replace(presets.example1(), T=2 * T if delay.M0 > 1.0 else T,
                              delay=delay, sensing=sensing,
                              trigger=TriggerConfig.fixed_ratio(rho_bar),
                              monitor=None)
    tr = run(cfg)
    event(f"sensing: {sensing.mode}")
    event(f"delay beyond 1: {delay.M0 > 1.0}")
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
    N = node_of(cfg.T, H)[0]
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
    # Targets sigma(t) past the horizon are not compared.
    if (all(on_grid(tau) for _ell, tau, _dv, _grid_t in tr.deliveries)
            and delay.sigma(tr.t0) <= cfg.T):
        event("every anchor on the grid")
        assert prediction_error(tr, delay) <= 1e-9

    # deterministic to the bit
    assert_same_run(run(cfg), tr)


@settings(max_examples=60, deadline=None)
@given(delay=delays(), sensing=sensings(), u_pre=st.sampled_from([0.0, 0.3]))
def test_replay_read_equals_own_step(delay, sensing, u_pre):
    # the plant reads the closed-loop replay's rows, or takes its own Euler steps with
    # the replay read switched off: the same bits either way
    cfg = dataclasses.replace(presets.example1(), T=T, delay=delay, sensing=sensing,
                              u_prehistory=u_pre, monitor=None)
    tr = run(cfg)
    with own_step():
        assert_same_run(tr, run(cfg))


@settings(max_examples=60, deadline=None)
@given(delay=delays(), sensing=sensings())
def test_semi_closed_equals_per_stamp_reference(delay, sensing):
    cfg = dataclasses.replace(presets.example1(), T=T, delay=delay, sensing=sensing,
                              predictor_method="semi-closed-loop", monitor=None)
    tr = run(cfg)
    event(f"sensing: {sensing.mode}")
    with mock.patch.object(etpf_predictor, "SemiClosedPredictor", ReferenceSemiClosed):
        assert_same_run(tr, run(cfg))


@settings(max_examples=60, deadline=None)
@given(delay=st.one_of(delays(), st.floats(1.0, 2.5).map(ActuationDelay.constant)),
       sensing=sensings())
def test_semi_closed_history_stands_on_node_times(delay, sensing):
    # the integrand history stamps phi(0), then node k at k h, the engine's time of node k
    cfg = dataclasses.replace(presets.example1(), T=2 * T if delay.M0 > 1.0 else T,
                              delay=delay, sensing=sensing,
                              predictor_method="semi-closed-loop", monitor=None)
    made, make = [], etpf_engine.make_predictor
    with mock.patch.object(etpf_engine, "make_predictor",
                           lambda *a, **k: made.append(make(*a, **k)) or made[-1]):
        run(cfg)
    pred, (k0, on) = made[0], node_of(delay.phi(0.0), H)
    first, n = k0 - (not on), pred._n  # phi(0)'s slot, the node the history advances from
    assert n > 1 and pred._times[0] == delay.phi(0.0)
    want = np.array([k * H for k in range(first + 1, first + n)])
    assert pred._times[1:n].tobytes() == want.tobytes()


def assert_trigger_per_step(tr, cfg):
    E, TH, ev, pre = trigger_per_step(tr, cfg.trigger)
    assert tr.e_norm.tobytes() == E.tobytes()
    assert tr.threshold.tobytes() == TH.tobytes()
    assert tr.event_flags.tobytes() == ev.tobytes()
    assert np.array(tr.events.e_pre_reset).tobytes() == np.array(pre).tobytes()
    # each exact check calls threshold once: the first check, and the rows decide() left
    checked = int(np.count_nonzero(~np.isnan(TH)))
    exact = tr.diagnostics["exact_trigger_checks"]
    assert 1 <= exact <= checked
    event(f"{cfg.trigger.mode}: rows left to the exact norms beyond the first: {exact > 1}")


@settings(max_examples=40, deadline=None)
@given(delay=delays(), sensing=sensings(), rho_bar=st.floats(0.005, 0.1),
       nonlinear=st.booleans())
def test_float_trigger_equals_the_per_step_trigger(delay, sensing, rho_bar, nonlinear):
    # E, the threshold, the event rows and |e| before each reset, bit for bit, with the
    # float decision and the norms filled after the loop as with the exact rule at every row
    ex1 = presets.example1()
    trig = (TriggerConfig.nonlinear(ex1.cert, 0.5, ex1.model.L_K) if nonlinear
            else TriggerConfig.fixed_ratio(rho_bar))
    cfg = dataclasses.replace(ex1, T=T, delay=delay, sensing=sensing, trigger=trig, monitor=None)
    tr = run(cfg)
    event(f"diverged: {tr.diverged}")
    assert_trigger_per_step(tr, cfg)


@st.composite
def linear_runs(draw, delay, T=T, mismatch=True, off_grid=False):
    h = presets.linear2d().h
    x0 = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2)))
    delta_tau = draw(st.integers(10, 80)) * h
    if off_grid and draw(st.booleans()):
        delta_tau += draw(st.floats(0.01, 0.99)) * h
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


def linear2d_run(x0, D, **sensing):
    return dataclasses.replace(presets.linear2d(), T=T, x0=np.array(x0),
                               delay=ActuationDelay.constant(D), monitor=None,
                               sensing=SensingConfig(mode="periodic", **sensing))


FAST = LinearSystem(A=[[5.0]], B=[[1.0]], K_gain=[[-15.0]], Q=[[1.0]])


@settings(max_examples=60, deadline=None)
@given(cfg=linear_runs(st.floats(0.05, 1.0).map(ActuationDelay.constant)))
# a block runs through the next adopted delivery, re-anchoring on its own rows ahead: a crossing
# on the delivery row itself, with the window starting after the block's first row, so that
# the anchor reads the rows ahead held at U[s]
@example(cfg=linear2d_run([1.3, -0.6], 0.05, delta_tau=0.08, d_psi=0.0))
# Gaussian sensing: an adopted delivery inside a block overtook a transmission that arrives,
# stale, later in the same block
@example(cfg=linear2d_run([-1.085, 1.781], 0.971, delta_tau=0.05, mu_psi=0.94, sigma_psi=0.41,
                          seed=28390))
# anchors off the grid, between two rows ahead, and the plant's control row passing an event
# node before the delivery
@example(cfg=linear2d_run([-1.46, 1.39], 0.799, delta_tau=0.0185, d_psi=0.65))
# xdot = 5 x + u predicted 1.8 ahead while the plant's delay is 0.3: the re-anchor at t = 0.36
# jumps past the prediction bound inside a block, and the run stops in the re-anchor phase
@example(cfg=dataclasses.replace(
    presets.linear2d(), model=FAST.to_model(), linear=FAST, cert=None, monitor=None,
    x0=np.array([1.0]), T=1.0, divergence_threshold=6500.0, delay=ActuationDelay.constant(0.3),
    ctrl_delay=ActuationDelay.constant(1.8), trigger=TriggerConfig.fixed_ratio(0.5),
    sensing=SensingConfig(mode="periodic", delta_tau=0.05, d_psi=0.01)))
def test_linear_blocks_match_per_step(cfg):
    tr, oracle = run(cfg), run(per_step(cfg))
    assert tr.diverged == oracle.diverged
    # the bound, the phase and the step of a stop
    assert tr.diagnostics["divergence"] == oracle.diagnostics["divergence"]
    assert tr.events.event_times == oracle.events.event_times
    np.testing.assert_array_equal(tr.delivery_flags, oracle.delivery_flags)
    # relative to the trajectory's size, down to the smallest normal double:
    # below it (x0 near 1e-313, say) rounding is absolute, not relative
    scale = 1e-12 * np.max(np.abs(oracle.x)) + np.finfo(float).tiny
    assert np.max(np.abs(tr.x - oracle.x)) <= scale
    np.testing.assert_array_equal(np.isnan(tr.p), np.isnan(oracle.p))
    assert np.nanmax(np.abs(tr.p - oracle.p), initial=0.0) <= scale


def test_linear_prehistory_rows_stop_where_the_per_step_advances_do():
    # xdot = 5 x + u predicted 1.8 ahead: the pre-history's block rows cross the prediction
    # bound part of the way to t = 0, at the row where the per-step advances do
    cfg = dataclasses.replace(
        presets.linear2d(), model=FAST.to_model(), linear=FAST, cert=None, monitor=None,
        x0=np.array([1.0]), T=1.0, divergence_threshold=1.0, delay=ActuationDelay.constant(1.8),
        trigger=TriggerConfig.fixed_ratio(0.5))
    tr, oracle = run(cfg), run(per_step(cfg))
    assert tr.diagnostics["divergence"] == oracle.diagnostics["divergence"]
    assert tr.diagnostics["divergence"]["phase"] == "pre-history"
    assert 0 < np.isnan(tr.pre_p).all(axis=1).sum() < len(tr.pre_p)
    np.testing.assert_allclose(tr.pre_p, oracle.pre_p, rtol=1e-12, equal_nan=True)


@settings(max_examples=30, deadline=None)
@given(cfg=linear_runs(st.floats(0.05, 1.0).map(ActuationDelay.constant)))
def test_linear_float_trigger_equals_the_per_step_trigger(cfg):
    # the linear trigger rho_bar |p| on the per-step path, every row checked by the loop, and
    # on the block path, whose rows first_crossing checks with the same vecdot norms
    assert cfg.trigger.mode == "linear"
    for c in (per_step(cfg), cfg):
        assert_trigger_per_step(run(c), c)


@settings(max_examples=8, deadline=None)
@given(cfg=linear_runs(st.tuples(st.floats(0.3, 0.9), st.floats(0.05, 0.9)).map(
    lambda da: ActuationDelay.sinusoidal(da[0], da[1] * da[0])), T=1.0, mismatch=False))
def test_linear_sinusoidal_forms_no_block(cfg):
    # the advance key changes at every node, so every step is the per-step one
    assert_same_run(run(cfg), run(per_step(cfg)))


@settings(max_examples=60, deadline=None)
@given(cfg=linear_runs(delays(), off_grid=True))
# phi(0) = -0.75 + 1 ulp snaps onto node -750, so no advance takes slot 0: its dsig of
# -1.1e-16 has the key 0.0 of a re-anchor segment's dsig of exactly 0
@example(cfg=dataclasses.replace(
    presets.linear2d(), T=3.0, x0=np.array([1.0, 0.0]), delay=ActuationDelay.constant(0.5),
    ctrl_delay=ActuationDelay.constant(0.7499999999999999), monitor=None,
    sensing=SensingConfig(mode="periodic", delta_tau=0.011, mu_psi=0.0, sigma_psi=1.0, seed=1)))
def test_linear_step_table_equals_the_lazy_cache(cfg):
    # the step matrices built at construction, one per advance key at its first slot,
    # give the bits of the cache filled in call order as the steps ask for them
    tr = run(cfg)
    with mock.patch.object(etpf_predictor, "LinearPredictor", ReferenceLinear):
        oracle = run(cfg)
    assert_same_run(tr, oracle)
    for name in ("x", "u", "p"):
        assert getattr(tr, name).tobytes() == getattr(oracle, name).tobytes(), name


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
            sensing.adoptions(T, H, N)
        return
    deliveries, nodes, adopt = sensing.adoptions(T, H, N)
    event(f"sensing: {sensing.mode}")
    if sensing.mode == "periodic" and len(adopt) < len(nodes):
        event("a stale delivery dropped")
    assert deliveries == oracle[0]
    assert nodes == oracle[1]
    assert adopt == oracle[2]


# valid values of each scalar config field: h >= 5e-3 and T <= 2 keep a run at 400 steps
VALID = {
    "h": [1e-2, 5e-3], "T": [1.0, 2.0], "u_prehistory": [0.0, 0.3],
    "divergence_threshold": [1e9, 2.0], "delta_tau": [0.5, 0.77], "d_psi": [0.0, 0.4],
    "mu_psi": [0.3], "sigma_psi": [0.0, 0.2], "seed": [0, 7], "theta": [0.5, 0.9],
    "rho_bar": [0.015, 0.5], "L_K": [1.0, 10.0], "b": [10.0, 1.0], "stride": [1, 10],
}
INVALID = [float("nan"), float("inf"), float("-inf"), 0.0, -1.0]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), base=st.sampled_from([presets.example1, presets.linear2d]),
       bad=st.sets(st.sampled_from(sorted(VALID)), max_size=2),
       nonlinear=st.booleans(), gaussian=st.booleans())
def test_only_documented_exceptions(data, base, bad, nonlinear, gaussian):
    v = {name: data.draw(st.sampled_from(INVALID + [2.5] * (name == "stride") if name in bad
                                         else VALID[name]), label=name) for name in VALID}
    try:
        sensing = (SensingConfig(delta_tau=v["delta_tau"], mu_psi=v["mu_psi"],
                                 sigma_psi=v["sigma_psi"], seed=v["seed"]) if gaussian
                   else SensingConfig(delta_tau=v["delta_tau"], d_psi=v["d_psi"]))
        trigger = (TriggerConfig.nonlinear(base().cert, v["theta"], v["L_K"]) if nonlinear
                   else TriggerConfig("fixed-ratio", v["theta"], rho_bar=v["rho_bar"]))
        monitor = MonitorConfig(b=v["b"], form=base().monitor.form, stride=v["stride"])
        cfg = dataclasses.replace(base(), sensing=sensing, trigger=trigger, monitor=monitor,
                                  **{k: v[k] for k in ("h", "T", "u_prehistory",
                                                       "divergence_threshold")})
        assert isinstance(cfg, SimConfig)
        tr = run(cfg)
    except ETPFError as exc:
        event(type(exc).__name__)
        assert bad, f"valid config raised {exc!r}"
        return
    event("ran")
    assert isinstance(tr, SimTrace)


# what YAML gives: numbers, NaN, numeric and other strings, booleans, lists, and the names
# that select a kind, mode or method
NAMES = st.sampled_from(["abc", "1e-3", "example1", "example2", "linear", "constant",
                         "sinusoidal", "periodic", "perfect", "fixed-ratio", "nonlinear",
                         "closed-loop", "linear-closed-form", "sup", "integral"])
NUMBERS = st.one_of(st.floats(-3.0, 10.0), st.sampled_from([float("nan"), float("inf"), 2.5]))
CONFIG_SCALARS = st.one_of(NUMBERS, st.integers(-2, 12), NAMES, st.booleans(), st.none())
ROWS = st.lists(NUMBERS, min_size=2, max_size=2)
# a value of the declared type, though not always in range
TYPED = {"float": NUMBERS, "int": st.integers(-2, 12), "bool": st.booleans(), "str": NAMES,
         "matrix": st.one_of(NUMBERS, ROWS, st.lists(ROWS, min_size=2, max_size=2))}


@st.composite
def config_dicts(draw):
    """A preset or none, then sections that are mostly mappings of mostly known keys with
    mostly values of their declared types."""
    data = {}
    preset = draw(st.sampled_from([None, "example1", "example2", "linear2d", "heatmap-ex1"]))
    if preset is not None:
        data["preset"] = preset
    for name in draw(st.lists(st.sampled_from(sorted(SCHEMA) * 3 + ["quantum"]), max_size=4)):
        schema = SCHEMA.get(name, {})
        if draw(st.integers(0, 4)) == 0:  # not a mapping
            data[name] = draw(st.one_of(CONFIG_SCALARS, st.lists(CONFIG_SCALARS, max_size=2)))
            continue
        keys = draw(st.lists(st.sampled_from(sorted(schema) * 4 + ["bogus"]), max_size=4))
        data[name] = {key: draw(TYPED[schema[key]] if key in schema and draw(st.booleans())
                                else st.one_of(CONFIG_SCALARS, st.lists(CONFIG_SCALARS)))
                      for key in keys}
    return data


@settings(max_examples=300, deadline=None)
@given(data=config_dicts())
def test_config_dicts_build_or_raise_configuration_error(data):
    try:
        cfg = build_sim_config(data)
    except ConfigurationError as exc:
        event(str(exc).split(" ")[0])
        return
    event("built")
    assert isinstance(cfg, SimConfig)
