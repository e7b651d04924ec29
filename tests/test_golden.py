"""Golden outputs: the C10 byte-identity promise checked across commits.

The digests are the sha256 of ``trace.csv`` and ``events.csv`` of each
simulation preset at its full horizon, and of the raw ``float64`` bytes of
the ``heatmap-ex1`` matrix.  A change that moves any of these bytes must
say which bytes changed and why, and re-record the digest here.
"""

import hashlib

import numpy as np
import pytest

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
    "linear2d": (
        "2f5a5d4ed6baabc8dd98ed6dcd5182b9eff02eaf896a3afda8bbd99513550b38",
        "187e58e8d6b94a52aca7de03f7febf59b33e1ba8d7bdabeb67bcf0ec45ace94f",
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


def test_heatmap_matrix(heatmap_result):
    _spec, mat, _elapsed = heatmap_result
    assert mat.dtype == np.float64
    assert sha256(np.ascontiguousarray(mat).tobytes()) == GOLDEN_HEATMAP
