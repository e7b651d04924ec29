"""Golden outputs: the C10 byte-identity promise checked across commits.

The digests are the sha256 of ``trace.csv`` and ``events.csv`` of each
simulation preset at its full horizon, of ten variants that reach the
code paths the presets do not (the semi-closed-loop predictor on a nonlinear
and on a linear plant, the open-loop predictor, perfect sensing with a
nonzero pre-history control, a mismatched controller delay with out-of-order
deliveries, a time-varying delay under the linear predictor, a sensing
period off the grid, and the nonlinear trigger on a nonlinear and on a
linear plant), and of the
raw ``float64`` bytes of the ``heatmap-ex1`` matrix.  A change that moves any of these bytes must
say which bytes changed and why, and re-record the digest here.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from etpf import presets, run
from etpf.channel import ActuationDelay
from etpf.engine import SensingConfig
from etpf.predictor import (ClosedLoopPredictor, LinearPredictor, NodeGrid, OpenLoopPredictor,
                            SemiClosedPredictor)
from etpf.trigger import TriggerConfig

from conftest import offgrid_config

GOLDEN_CSV = {
    "example1": (
        "5c048e8e54db9d7ae21caeca85d861601b3addba78859e6cd187df344e4744dd",
        "608f784384632d5a1ba255e6abdb6f2db3180892302342b23d98f257cd860350",
    ),
    "example2": (
        "4cd75849063b31aa523f976af0e4d1ecf8a72eeec6548fad192c39f85fc51ecb",
        "3deed8d48acecfb79bca9551801a0208e613b892306c992f513d4f07badd951c",
    ),
    "example2-body": (
        "79b7afb719fba55ac5ec10ba61d82d6c4c7c68032b86a19d646e8080ca2535df",
        "40b9f3201b5ce803ea84a8a64a63faca5eea8b13cb0e60712008226324b56767",
    ),
    # re-recorded when linear runs began to step in blocks: x, u, p, e_norm,
    # threshold and V move at the rounding level, event times do not
    "linear2d": (
        "6c63698930dc9161c4b62db31aa93e6836d83f3f4720505ac8b469ba7e19cb3e",
        "b3e00e4060ca72ff6892f6e03d96ffb616e0988f0d99cd5891b2a926aa05ed7e",
    ),
}
GOLDEN_VARIANT_CSV = {
    # the three semi-closed-loop digests were re-recorded when the integrand history took
    # the engine's node times (k + 1) h in place of k h + h: x, u, p, e_norm, threshold, V
    # and L move at the rounding level (at most 1.1e-12 relative), event times do not
    "example1-semi-closed": (
        "f459b6cbb8541fd538c0ab16706d2cbb2883fea6ed5990413bb49cd55b04fd24",
        "edbf86b0ad2f6ac05e6327c2db025019572b859ffa526e8779164f6d2212be27",
    ),
    "example1-open-loop": (
        "c1377acf26d78b3b0cf7703a8c45040564bee0be3b964061efcdf0b61c2c4047",
        "9b99dad919a40d0448b3cdf524dbf59360e06399de8898cebe177a864a929081",
    ),
    "example1-perfect-prehistory": (
        "8ca584bae6e1fc396a36b08518c6f6433e582e35eca2aa0046fe2ecac212adb1",
        "12431b317a7d90866501c08556781888987e736793971ba44325c1f528202623",
    ),
    "example1-semi-closed-perfect-prehistory": (
        "531ff4a290058776d5d78cac50945ff607bc7fbe36a79ba079669ce4ab58d32e",
        "52811db35eaacaa2786f3ac26d70a8f5df8ade584222717c52c1faf9f382f79d",
    ),
    "example1-mismatch-gaussian": (
        "dbc6dc7cac476a0f00a9bd98fd95d75b660767235d614722f6e52173b67589d8",
        "81231367a1a3248c507815b92ae93305ecc1f01c29617a01de78a980c7b6923f",
    ),
    "linear2d-semi-closed": (
        "b117380eef281e780f96845e9f3f99cb792f9ee665fe2c1c19a83c54baee1846",
        "67bb6c126b89d08194f60f2796b769e7afce88c1cc33b1aa2efd1e7c2f169cc8",
    ),
    "linear2d-sinusoidal": (
        "9d106ed7f19869252e2cd5dab7b731327f367ffa8894d91a4e4450cf33f21cfc",
        "6c724e8ef469e26f73bda626ca5e7e86cc61dccaf06fab32cbd483da94f055e9",
    ),
    "example1-offgrid": (
        "182165377663467428481a207f68c98bc9c4fc22e6b496da406270f391e31424",
        "2fcd33e37f430ba85548e47d900e150e178974a7ab1ccead4845b98107270925",
    ),
    # the threshold of the nonlinear trigger is no ratio of |p|: the closed-loop replay
    # still serves the plant, while the linear run stays on the per-step path
    "example1-nonlinear-trigger": (
        "d2331647ab8b19fcdfa5703c0a02d4ed21831cc85e284cf0a90a7052620457c9",
        "d7effab6ce8db13983ce216389e242be18495b0a7f59b734baad981aefbbf7a3",
    ),
    "linear2d-nonlinear-trigger": (
        "79ee696b7f940b6f085e3c2006cd36fcbb37ed8481129c633d997739a7ea734b",
        "aad7d936259fd4a101206d5af89a2205e646883b84a4d41c4172f61c796c7652",
    ),
}
GOLDEN_HEATMAP = "b01b4b88e31930da40762ae71c8ff5eb1450212b33189cbd0343be76b076b61a"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_CSV))
def test_preset_csvs(name, all_preset_traces, tmp_path):
    tr = all_preset_traces[name]
    trace, events = tmp_path / "trace.csv", tmp_path / "events.csv"
    tr.write_trace_csv(trace)
    tr.write_events_csv(events)
    assert (sha256(trace.read_bytes()), sha256(events.read_bytes())) == GOLDEN_CSV[name]


def variant_config(name):
    ex1 = presets.example1()
    if name == "example1-semi-closed":
        return dataclasses.replace(ex1, T=5.0, predictor_method="semi-closed-loop")
    if name == "example1-open-loop":
        return dataclasses.replace(ex1, T=5.0, predictor_method="open-loop")
    if name == "example1-perfect-prehistory":
        # t0 = 0, so the pre-history control is in force up to the first event
        return dataclasses.replace(ex1, T=3.0, sensing=SensingConfig(mode="perfect"),
                                   u_prehistory=0.3)
    if name == "example1-semi-closed-perfect-prehistory":
        # the semi-closed-loop step onto t = 0 reads u(0) before the event there
        return dataclasses.replace(ex1, T=4.0, sensing=SensingConfig(mode="perfect"),
                                   u_prehistory=-0.4, predictor_method="semi-closed-loop")
    if name == "example1-mismatch-gaussian":
        # transmissions 6 and 7 arrive after 8: stale deliveries are discarded
        sensing = SensingConfig(mode="periodic", mu_psi=1.0, sigma_psi=1.5, seed=0)
        return dataclasses.replace(ex1, T=10.0, ctrl_delay=ActuationDelay.constant(0.8),
                                   sensing=sensing)
    if name == "linear2d-semi-closed":
        # every delivery re-anchors over a 500-node window of the integrand history
        return dataclasses.replace(presets.linear2d(), T=2.0, predictor_method="semi-closed-loop")
    if name == "example1-offgrid":
        return offgrid_config()
    if name == "example1-nonlinear-trigger":
        return dataclasses.replace(ex1, T=5.0, trigger=TriggerConfig.nonlinear(0.5, ex1.model.L_K))
    if name == "linear2d-nonlinear-trigger":
        lin = presets.linear2d()
        return dataclasses.replace(lin, T=2.0, trigger=TriggerConfig.nonlinear(0.5, lin.model.L_K))
    assert name == "linear2d-sinusoidal"
    return dataclasses.replace(presets.linear2d(), T=2.0,
                               delay=ActuationDelay.sinusoidal(0.5, 0.2))


@pytest.mark.parametrize("name", sorted(GOLDEN_VARIANT_CSV))
def test_variant_csvs(name, tmp_path):
    tr = run(variant_config(name))
    trace, events = tmp_path / "trace.csv", tmp_path / "events.csv"
    tr.write_trace_csv(trace)
    tr.write_events_csv(events)
    assert (sha256(trace.read_bytes()), sha256(events.read_bytes())) == GOLDEN_VARIANT_CSV[name]


@pytest.mark.parametrize("name", [*sorted(GOLDEN_CSV), *sorted(GOLDEN_VARIANT_CSV)])
def test_sigma_lookups_are_anchor_window_starts(name, monkeypatch):
    """The float lookup ``NodeGrid.window_start`` (sigma and u at one float time) serves only
    an anchor's window start: every call comes from a re-anchor, with that anchor's phi(tau),
    and never asks for the node time of now, whose sigma the predictors read from the tables."""
    cfg = presets.get_preset(name) if name in GOLDEN_CSV else variant_config(name)
    calls, anchors, window_start = [], [], NodeGrid.window_start

    def spy(grid, s, dot=False):
        calls.append((s, anchors[-1] if anchors else None))
        return window_start(grid, s, dot)

    def spied(reanchor):
        def wrapped(pred, anchor_time, anchor_state, now):
            anchors.append((pred.delay.phi(anchor_time), now))
            try:
                return reanchor(pred, anchor_time, anchor_state, now)
            finally:
                anchors.pop()
        return wrapped

    for cls in (ClosedLoopPredictor, OpenLoopPredictor, SemiClosedPredictor, LinearPredictor):
        monkeypatch.setattr(cls, "reanchor", spied(cls.reanchor))
    monkeypatch.setattr(NodeGrid, "window_start", spy)
    run(dataclasses.replace(cfg, monitor=None))
    # the semi-closed history starts at phi(0), a linear re-anchor integrates from phi(tau)
    assert calls or cfg.predictor_method in ("closed-loop", "open-loop")
    for s, anchor in calls:
        assert anchor is not None, s  # inside a re-anchor
        phi_tau, now = anchor
        assert s == phi_tau, (s, anchor)
        # the step loop's anchors; the pre-history's window starts at phi(0), its own slot
        assert now < 0 or s != now * cfg.h, (s, anchor)


def test_heatmap_matrix(heatmap_result):
    _spec, mat, _elapsed = heatmap_result
    assert mat.dtype == np.float64
    assert sha256(np.ascontiguousarray(mat).tobytes()) == GOLDEN_HEATMAP
