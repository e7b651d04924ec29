"""Golden outputs: the C10 byte-identity promise checked across commits.

The digests are the sha256 of ``trace.csv`` and ``events.csv`` of each
simulation preset at its full horizon, of eleven variants that reach the
code paths the presets do not (the semi-closed-loop predictor on a nonlinear
and on a linear plant, the open-loop predictor, perfect sensing with a
nonzero pre-history control, a mismatched controller delay with out-of-order
deliveries, a time-varying delay under the linear predictor, a sensing
period off the grid, the nonlinear trigger on a nonlinear and on a
linear plant, and a constant delay of 10 under the monitor), and of the
raw ``float64`` bytes of the ``heatmap-ex1`` matrix.  A change that moves any of these bytes must
say which bytes changed and why, and re-record the digest here.

Every ``trace.csv`` digest of a monitored run was re-recorded when the monitor
took one pass over the w history in place of resampling each window: only the
V and L columns moved, every other column and every ``events.csv`` kept its bytes.

The two nonlinear-trigger digests were re-recorded when that trigger became
``rho_bar |p|`` with a ratio computed once: ``example1`` moved only its threshold column,
by at most 3.3e-16 relative; ``linear2d``, now on the block path, moved x, p, u, e_norm,
threshold and V by at most 1.6e-11 relative.  Both kept every event time.

The four digests of runs on the linear-closed-form predictor (``linear2d`` and the
``linear2d-D10``, ``linear2d-nonlinear-trigger`` and ``linear2d-sinusoidal`` variants) were
re-recorded when its step matrices came from the package's own Padé kernel in place of
scipy's ``expm`` and the block rows took their norms by ``vecdot``.  In ``trace.csv`` x, u,
p, e_norm, threshold and V moved, in ``events.csv`` p_norm, e_pre_reset and u, by at most
2.8e-13 relative, except in ``linear2d-D10`` (u 7.6e-12, e_norm 8.6e-11, e_pre_reset
2.1e-11).  t, L, the flag columns, k, t_k and dwell kept their bytes: no event time moved.

The same four were re-recorded when linear blocks began to run through the next delivery, the
pre-history became block rows and ``expm`` took the finite series of nilpotent slices: x, u,
p, e_norm, threshold, V and L (``linear2d`` and ``linear2d-nonlinear-trigger``), and p_norm,
e_pre_reset and u, moved by at most 4.4e-13 relative, except in ``linear2d-D10`` (u 1.4e-11,
p 3.4e-12, e_norm 1.6e-10, e_pre_reset 1.4e-11).  No event time moved.
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
        "468449330b14a110bc150b2c96adc996cadfd2e7eeff002d30283f9564e457d0",
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
        "e05a0a74e4948a73d493c1fb3961f7f9b0942bdad601b61ac840d1aa5a561c57",
        "18bd747eb1c5b547d64ed56f301caa5acf8fd97e385a909b43fc472ead3e1e4f",
    ),
}
GOLDEN_VARIANT_CSV = {
    # the three semi-closed-loop digests were re-recorded when the integrand history took
    # the engine's node times (k + 1) h in place of k h + h: x, u, p, e_norm, threshold, V
    # and L move at the rounding level (at most 1.1e-12 relative), event times do not
    "example1-semi-closed": (
        "829f20916b487a84f94343eebba0b2e99411d681fefdef74ebd28e224e2628e0",
        "edbf86b0ad2f6ac05e6327c2db025019572b859ffa526e8779164f6d2212be27",
    ),
    "example1-open-loop": (
        "e845b1d51cb59a7089dde5d7a7c0db045129b8467c9d84ffa099ff0e5592e1e7",
        "9b99dad919a40d0448b3cdf524dbf59360e06399de8898cebe177a864a929081",
    ),
    "example1-perfect-prehistory": (
        "444edf8c92db0ece8daa08e740dc92bf9b6831404e55ab84d0beef2a01c726b2",
        "12431b317a7d90866501c08556781888987e736793971ba44325c1f528202623",
    ),
    "example1-semi-closed-perfect-prehistory": (
        "a2a8089015d48959ee0459ed3740442e5ed47cf3ed15e1a18de8be5ec29d125d",
        "52811db35eaacaa2786f3ac26d70a8f5df8ade584222717c52c1faf9f382f79d",
    ),
    "example1-mismatch-gaussian": (
        "9c907b6f84d5f5b95f3f7dcf5893dccfdcf142a5a34706417fb227ef2131701b",
        "81231367a1a3248c507815b92ae93305ecc1f01c29617a01de78a980c7b6923f",
    ),
    "linear2d-semi-closed": (
        "fe8ed4c5eeac20f7be0b4436a3da00aed959efaa481b93d85a711b26f9fde016",
        "67bb6c126b89d08194f60f2796b769e7afce88c1cc33b1aa2efd1e7c2f169cc8",
    ),
    "linear2d-sinusoidal": (
        "8a05cc521b4729df97b07f8b3753f056465fbb4d5e89eba35d9073436e411a80",
        "3c03a5815b7a4c29996d3978a0dbae8b4510a3c50d9083bd3152c85177c4d0e6",
    ),
    "example1-offgrid": (
        "422af42a2adc0147a62f6829ff3633eb8be95119f0a7053250e3df289415f53a",
        "2fcd33e37f430ba85548e47d900e150e178974a7ab1ccead4845b98107270925",
    ),
    # the nonlinear trigger's threshold is rho_bar |p| with its own ratio: the float decision
    # settles its rows, and the linear run takes the block path
    "example1-nonlinear-trigger": (
        "2a2b3f104c0219735fe14c8e179bf890852cd4b8c5473779fc70caf75534c079",
        "d7effab6ce8db13983ce216389e242be18495b0a7f59b734baad981aefbbf7a3",
    ),
    # a constant delay of 10 with the monitor on: windows of 10,000 nodes
    "linear2d-D10": (
        "a2b8ab3191d03132f3a6f574ec115e36a3611cc68497ec18bc05ad5b82128ec7",
        "422e84ffec8548e969c6c1b38c604436009c951b931bc4b901dbe1116cf297ca",
    ),
    "linear2d-nonlinear-trigger": (
        "6715e225325d9cd995559a9971e06628718fee6b6f3f826a42e5ea113a3fc5ec",
        "36b44413793881def853a00d49cd52c1032cc28c91af15b3fa0982b2c0d81472",
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
        return dataclasses.replace(ex1, T=5.0,
                                   trigger=TriggerConfig.nonlinear(ex1.cert, 0.5, ex1.model.L_K))
    if name == "linear2d-nonlinear-trigger":
        lin = presets.linear2d()
        return dataclasses.replace(lin, T=2.0,
                                   trigger=TriggerConfig.nonlinear(lin.cert, 0.5, lin.model.L_K))
    if name == "linear2d-D10":
        return dataclasses.replace(presets.linear2d(), T=12.0, delay=ActuationDelay.constant(10.0))
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
    an anchor's window start: every call comes from a re-anchor (or ``LinearPredictor.anchored``,
    a block's re-anchor ahead), with that anchor's phi(tau), and never asks for the node time
    of now, whose sigma the predictors read from the tables."""
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
    # a linear run's blocks re-anchor ahead through the anchor method that reanchor calls
    monkeypatch.setattr(LinearPredictor, "anchored", spied(LinearPredictor.anchored))
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
