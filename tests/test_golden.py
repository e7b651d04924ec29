"""Golden outputs: the C10 byte-identity promise checked across commits.

The digests are the sha256 of ``trace.csv`` and ``events.csv`` of each
simulation preset at its full horizon, of six short variants that reach the
code paths the presets do not (the semi-closed-loop and open-loop
predictors, perfect sensing with a nonzero pre-history control, a
mismatched controller delay with out-of-order deliveries, and a time-varying
delay under the linear predictor), and of the raw ``float64`` bytes of the
``heatmap-ex1`` matrix.  A change that moves any of these bytes must
say which bytes changed and why, and re-record the digest here.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from etpf import presets, run
from etpf.channel import ActuationDelay
from etpf.engine import SensingConfig

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
    "example1-semi-closed": (
        "2ca309242b14ef6b9af1e72a18a0efec17f88a3194509caa56566801b4d07bff",
        "a5619123e3ead1f5169a5b6787f71630af10a13ba32ec00fb42261f340e3a40c",
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
        "4d80d2248f36b69cdfd3f0a228bcf58d078ad2f2ae10fbe85c01d8eafdb6c323",
        "69374c676f6fbd327cc7b0a1daced2bb324938c2d00f3a0a366f9863ff35503e",
    ),
    "example1-mismatch-gaussian": (
        "dbc6dc7cac476a0f00a9bd98fd95d75b660767235d614722f6e52173b67589d8",
        "81231367a1a3248c507815b92ae93305ecc1f01c29617a01de78a980c7b6923f",
    ),
    "linear2d-sinusoidal": (
        "9d106ed7f19869252e2cd5dab7b731327f367ffa8894d91a4e4450cf33f21cfc",
        "6c724e8ef469e26f73bda626ca5e7e86cc61dccaf06fab32cbd483da94f055e9",
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


def test_heatmap_matrix(heatmap_result):
    _spec, mat, _elapsed = heatmap_result
    assert mat.dtype == np.float64
    assert sha256(np.ascontiguousarray(mat).tobytes()) == GOLDEN_HEATMAP
