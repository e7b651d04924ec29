"""The CSV renderer against ``'%.17g' %``, byte for byte."""

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from etpf import csvout
from etpf.engine import SimTrace
from etpf.trigger import EventLog


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
        # no fraction is more than 1/2 from 1/2, so nothing is certified: the same bytes, from '%'
        monkeypatch.setattr(csvout, "_TIE", 0.5)
        v = np.concatenate([random_doubles(np.random.default_rng(3), 3000), NAMED])
        cols = v.reshape(-1, 2)
        assert csvout.render(cols) == pct(cols)

    def test_exact_ties(self):
        # o / 2^(17-d) with o odd has 18 significant digits, the last a 5: '%' rounds the
        # tie to even, so none of them may be certified
        rng = np.random.default_rng(7)
        ties = []
        for d in range(-5, 13):
            k = 17 - d
            lo, hi = math.ceil(10.0**d * 2**k), math.floor(10.0 ** (d + 1) * 2**k)
            ties += [(2 * o + 1) / 2**k for o in rng.integers(lo // 2, hi // 2, 40).tolist()]
        cols = np.array(ties).reshape(-1, 4)
        assert all(len(t := Decimal(v).as_tuple().digits) == 18 and t[-1] == 5 for v in ties)
        assert csvout.render(cols) == pct(cols) and csvout.render(-cols) == pct(-cols)

    def test_adjacent_zeros_of_both_signs(self):
        # equal as floats, different in bits and in text
        v = np.array([0.0, -0.0, -0.0, 0.0, 0.0, -0.0, 1.0, -0.0, 0.0])
        for cols in (v.reshape(-1, 1), v.reshape(-1, 3), v.reshape(1, -1)):
            assert csvout.render(cols) == pct(cols)

    def test_nan_runs(self):
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                         0xFFFFFFFFFFFFFFFF], dtype=np.uint64).view(np.float64)
        v = np.concatenate([np.repeat(nans, 7), [np.inf, np.nan, -np.inf, 2.5, np.nan]])
        cols = np.column_stack([v, v[::-1], np.roll(v, 3)])
        assert csvout.render(cols) == pct(cols)

    def test_runs_across_a_block_edge(self):
        n = 2 * csvout._ROWS + 7
        cols = np.empty((n, 4))
        cols[:, 0] = 0.1
        cols[:, 1] = np.repeat([1 / 3, -2e-7, 1e-300], [csvout._ROWS - 3, csvout._ROWS + 5, 5])
        cols[:, 2] = np.where(np.arange(n) % 10 == 0, np.arange(n) / 7, np.nan)
        cols[:, 3] = np.repeat([0.0, 1.0, -0.0], [csvout._ROWS - 1, 2, csvout._ROWS + 6])
        assert csvout.render(cols) == pct(cols)

    def test_columns_stack_like_a_table(self):
        rng = np.random.default_rng(5)
        n = csvout._ROWS + 300
        t, x, flags = np.arange(n) * 1e-3, rng.standard_normal((n, 2)), (np.arange(n) % 3 == 0) * 1.0
        table = np.column_stack([t, x, flags])
        assert csvout.render(t, x, flags) == csvout.render(table) == pct(table)
        assert csvout.render(t.tolist(), x, list(flags)) == pct(table)  # lists are columns too
        with pytest.raises(ValueError):  # not stacked up to the shorter one's length
            csvout.render(np.zeros(csvout._ROWS), np.zeros(csvout._ROWS + 5))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (csvout._ROWS + 1, 1), (1, 40)])
    def test_one_row_or_one_column(self, shape):
        cols = random_doubles(np.random.default_rng(sum(shape)), math.prod(shape)).reshape(shape)
        assert csvout.render(cols) == pct(cols)
        assert csvout.render(*cols.T) == pct(cols)

    def test_block_dense_in_fallbacks(self):
        # subnormals and 17-digit values beyond the certified decades, 24-character texts
        # among them, mixed with certified values, zeros and NaN, across two blocks
        rng = np.random.default_rng(6)
        n = 12 * (csvout._ROWS + 10)
        wide = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(98, 308, n)
        tiny = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-323, -98, n)
        v = np.where(rng.random(n) < 0.5, wide, tiny)
        mixed = v.copy()
        mixed[::5], mixed[1::7], mixed[2::11] = rng.standard_normal(n)[::5], 0.0, np.nan
        for vals in (v, mixed):
            cols = vals.reshape(-1, 12)
            assert max(len("%.17g" % x) for x in vals[:12 * csvout._ROWS].tolist()) == 24
            assert csvout.render(cols) == pct(cols)

    def test_write_csv(self, tmp_path):
        cols = random_doubles(np.random.default_rng(4), 3 * 1100).reshape(-1, 3)
        csvout.write_csv(tmp_path / "t.csv", ["a", "b", "c"], cols)
        assert (tmp_path / "t.csv").read_bytes() == b"a,b,c\n" + pct(cols)
        # over a longer file, then a shorter one: no old byte is left
        (tmp_path / "t.csv").write_bytes(b"x" * 10**6)
        csvout.write_csv(tmp_path / "t.csv", ["a", "b", "c"], cols)
        assert (tmp_path / "t.csv").read_bytes() == b"a,b,c\n" + pct(cols)
        csvout.write_csv(tmp_path / "t.csv", ["a"], cols[:2, 0])
        assert (tmp_path / "t.csv").read_bytes() == b"a\n" + pct(cols[:2, :1])

    def test_failed_write_leaves_no_old_bytes(self, tmp_path, monkeypatch):
        cols = random_doubles(np.random.default_rng(5), 2 * 3 * csvout._ROWS).reshape(-1, 3)
        path = tmp_path / "t.csv"
        path.write_bytes(b"x" * 10**6)
        render_block, calls = csvout._render_block, []

        def fail_on_second_block(v, ncols):
            calls.append(ncols)
            if len(calls) == 2:
                raise OSError(28, "No space left on device")
            return render_block(v, ncols)

        monkeypatch.setattr(csvout, "_render_block", fail_on_second_block)
        with pytest.raises(OSError):
            csvout.write_csv(path, ["a", "b", "c"], cols)
        assert path.read_bytes() == b"a,b,c\n" + pct(cols[: csvout._ROWS])

    def test_unequal_columns_leave_the_file_alone(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"old")
        with pytest.raises(ValueError, match="unequal"):
            csvout.write_csv(path, ["a", "b"], np.zeros(3), np.zeros(4))
        assert path.read_bytes() == b"old"


class TestEventsCsv:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_p_norm_has_the_bits_of_the_per_row_dot(self, dim, tmp_path):
        # write_events_csv takes the norms of all event rows in one vecdot; it must give
        # the bits of math.sqrt(p.dot(p)) for each row, over 40 decades of magnitudes
        rng = np.random.default_rng(dim)
        n = 20_000
        P = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-20, 20, (n, 1))
        P[: n // 2] *= 10.0 ** rng.uniform(-2, 2, (n // 2, dim))  # rows of unequal entries
        log = EventLog(event_times=list(np.arange(n) * 0.01), event_controls=[0.0] * n,
                       e_pre_reset=[0.0] * n)
        z = np.zeros(n)
        tr = SimTrace(times=z, x=P, u=z, p=P, e_norm=z, threshold=z, V=z, L=z,
                      event_flags=np.ones(n), delivery_flags=z, events=log, deliveries=[],
                      t0=0.0, h=0.01)
        tr.write_events_csv(tmp_path / "events.csv")
        rows = (tmp_path / "events.csv").read_text().splitlines()[1:]
        assert [row.split(",")[3] for row in rows] == ["%.17g" % math.sqrt(p.dot(p)) for p in P]
