"""The CSV renderer against ``'%.17g' %``, byte for byte."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from etpf import csvout


def pct(cols) -> bytes:
    """The reference: each row's values through ``'%.17g' %``, comma-separated."""
    rows = np.asarray(cols).tolist()
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows).encode()


def random_doubles(rng, n):
    """Random bit patterns (every class of double) and log-uniform values over 40 decades."""
    bits = rng.integers(0, 2**64, n // 3, dtype=np.uint64).view(np.float64)
    wide = rng.choice([-1.0, 1.0], n - n // 3) * 10.0 ** rng.uniform(-20, 20, n - n // 3)
    return np.concatenate([bits, wide])


NAMED = [
    0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, 1e-4, 9.9999999999999995e-05, 1e16, 1e17, 99999999999999999.0,
    9999999999999998.0, 0.99999999999999989, 1.0, 0.1, 0.3, 1 / 3, 1e-11, 9.99e-12, 1e-5,
    123.0, 1200.0, 10.0, 0.5, 12345678901234567.0, 1e22, 1e23, -2.5e-7,
]


def near_ties(rng, n):
    """The doubles nearest to 18-digit decimals ending in 5, over 35 decades."""
    mant = rng.integers(10**16, 10**17, n)
    exps = rng.integers(-32, 3, n)
    return np.array([float(f"{m}5e{e}") for m, e in zip(mant.tolist(), exps.tolist())])


class TestRender:
    def test_named_cases(self):
        cols = np.array(NAMED).reshape(-1, 1)
        assert csvout.render(cols) == pct(cols)
        assert csvout.render(cols.reshape(1, -1)) == pct(cols.reshape(1, -1))

    def test_each_decade_edge(self):
        p = 10.0 ** np.arange(-13, 19)
        edges = np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])
        cols = np.concatenate([edges, -edges]).reshape(-1, 2)
        assert csvout.render(cols) == pct(cols)

    def test_near_ties(self):
        cols = near_ties(np.random.default_rng(1), 3000).reshape(-1, 3)
        assert csvout.render(cols) == pct(cols)

    @pytest.mark.parametrize("ncols", [1, 7, 12])
    def test_random_doubles(self, ncols):
        v = random_doubles(np.random.default_rng(ncols), 120_000)
        cols = v[: len(v) // ncols * ncols].reshape(-1, ncols)
        assert len(cols) > csvout._ROWS  # spans several blocks
        assert csvout.render(cols) == pct(cols)

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(1, 5)),
                  elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
    def test_hypothesis_arrays(self, cols):
        assert csvout.render(cols) == pct(cols)

    def test_empty(self):
        assert csvout.render(np.empty((0, 4))) == b""

    def test_without_certificate_every_element_takes_pct(self, monkeypatch):
        # a long double of fewer than 64 bits certifies nothing: the same bytes, from '%'
        tables = csvout._tables()
        monkeypatch.setattr(csvout, "_tables", lambda: (tables[0], False) + tables[2:])
        v = np.concatenate([random_doubles(np.random.default_rng(3), 3000), NAMED])
        cols = v.reshape(-1, 2)
        assert csvout.render(cols) == pct(cols)

    def test_write_csv(self, tmp_path):
        cols = random_doubles(np.random.default_rng(4), 3 * 1100).reshape(-1, 3)
        csvout.write_csv(tmp_path / "t.csv", ["a", "b", "c"], cols)
        assert (tmp_path / "t.csv").read_bytes() == b"a,b,c\n" + pct(cols)
