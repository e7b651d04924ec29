import numpy as np
import pytest

from etpf.channel import ActuationDelay
from etpf.exceptions import CoverageError, DomainError, PredictorError
from etpf.model import SystemModel
from etpf.predictor import NodeGrid, SemiClosedPredictor, window_integral
from etpf.signals import TimedSignal

from reference_predictors import ListSignal


def make(pairs):
    sig = TimedSignal()
    for t, v in pairs:
        sig.append(t, v)
    return sig


def list_signal(pairs):
    sig = ListSignal()
    for t, v in pairs:
        sig.append(t, v)
    return sig


class TestSample:
    def test_linear_midpoint(self):
        sig = make([(0.0, 0.0), (2.0, 4.0)])
        assert sig.sample(1.0) == pytest.approx(2.0)

    def test_exact_at_stamps(self):
        sig = make([(0.0, 0.25), (1.0, -3.5), (2.5, 7.0)])
        for t, v in [(0.0, 0.25), (1.0, -3.5), (2.5, 7.0)]:
            assert sig.sample(t)[0] == v

    def test_query_before_first_stamp_rejected(self):
        sig = make([(0.0, 1.0), (1.0, 2.0)])
        with pytest.raises(CoverageError):
            sig.sample(-0.1)

    def test_linear_query_past_last_stamp_rejected(self):
        sig = make([(0.0, 1.0), (1.0, 2.0)])
        with pytest.raises(CoverageError):
            sig.sample(1.5)

    def test_empty_signal_rejected(self):
        with pytest.raises(CoverageError):
            TimedSignal().sample(0.0)

    def test_vector_values(self):
        sig = make([(0.0, [0.0, 2.0]), (2.0, [4.0, 0.0])])
        np.testing.assert_allclose(sig.sample(1.0), [2.0, 1.0])

    def test_bits_of_the_per_stamp_loop(self):
        # the one interpolation formula, scalar and array queries alike
        rng = np.random.default_rng(3)
        times = np.cumsum(rng.uniform(0.01, 1.0, 40))
        values = rng.standard_normal((40, 2))
        sig, ref = TimedSignal(times, values), list_signal(zip(times, values))
        ts = np.concatenate((times, rng.uniform(times[0], times[-1], 200)))
        want = np.array([ref.sample(t) for t in ts])
        assert sig.sample_array(ts).tobytes() == want.tobytes()
        assert np.array([sig.sample(t) for t in ts]).tobytes() == want.tobytes()


class TestAppend:
    def test_non_increasing_stamp_rejected(self):
        sig = make([(0.0, 1.0)])
        with pytest.raises(DomainError):
            sig.append(0.0, 2.0)
        with pytest.raises(DomainError):
            sig.append(-1.0, 2.0)
        # still a ValueError for callers that catch that
        assert issubclass(DomainError, ValueError)

    def test_integration_bounds_out_of_order_rejected(self):
        # by the reference integral; the predictor's window never runs backwards
        sig = list_signal([(0.0, 1.0), (1.0, 2.0)])
        with pytest.raises(DomainError):
            sig.integrate(0.8, 0.2)


class TestBulkConstructor:
    PAIRS = [(-0.3, 0.25), (0.0, -3.5), (0.01, 7.0), (2.5, 0.0)]

    def test_equals_appends(self):
        times, values = zip(*self.PAIRS)
        bulk, appended = TimedSignal(times, values), make(self.PAIRS)
        for t in (-0.3, -0.1, 0.005, 1.0, 2.5):
            np.testing.assert_array_equal(bulk.sample(t), appended.sample(t))
        np.testing.assert_array_equal(bulk.sample_array([-0.2, 0.0, 2.0]),
                                      appended.sample_array([-0.2, 0.0, 2.0]))
        # both end at the last pair's stamp
        for sig in (bulk, appended):
            with pytest.raises(CoverageError, match="past last stamp 2.5"):
                sig.sample(np.nextafter(2.5, 3.0))
        bulk.append(3.0, 1.0)
        with pytest.raises(DomainError):
            bulk.append(3.0, 1.0)
        assert bulk.sample(3.0)[0] == 1.0

    def test_vector_values(self):
        sig = TimedSignal([0.0, 2.0], [[0.0, 2.0], [4.0, 0.0]])
        np.testing.assert_allclose(sig.sample(1.0), [2.0, 1.0])

    @pytest.mark.parametrize("times", [[0.0, 1.0, 1.0], [0.0, 2.0, 1.0]])
    def test_non_increasing_stamp_rejected(self, times):
        with pytest.raises(DomainError, match="1.0 after"):
            TimedSignal(times, [0.0, 0.0, 0.0])

    def test_empty(self):
        with pytest.raises(CoverageError):
            TimedSignal([], []).sample(0.0)


def integral(pairs, a, b):
    """``window_integral`` over the stamps and values of ``pairs``."""
    times, values = zip(*pairs)
    return window_integral(np.array(times), np.array(values, ndmin=2).T, a, b)


class TestIntegrate:
    """``window_integral``, the semi-closed-loop window sum, against hand integrals and
    the reference's per-stamp loop."""

    def test_constant_rectangle(self):
        assert integral([(0.0, 3.0), (2.0, 3.0)], 0.0, 2.0)[0] == pytest.approx(6.0)

    def test_linear_triangle(self):
        assert integral([(0.0, 0.0), (2.0, 4.0)], 0.0, 2.0)[0] == pytest.approx(4.0)

    def test_additive(self):
        pairs = [(0.0, 1.0), (0.7, -2.0), (1.3, 5.0), (2.0, 0.5)]
        whole = integral(pairs, 0.1, 1.9)[0]
        split = integral(pairs, 0.1, 1.0)[0] + integral(pairs, 1.0, 1.9)[0]
        assert whole == pytest.approx(split, rel=1e-12, abs=1e-12)

    def test_empty_window_is_zero(self):
        got = integral([(0.0, 1.0), (1.0, 2.0)], 0.5, 0.5)
        assert got.tobytes() == np.zeros(1).tobytes()

    def test_bits_of_the_left_to_right_loop(self):
        rng = np.random.default_rng(11)
        times = np.arange(-37, 600) * 1e-2 + 1e-2  # the predictor's stamps: k h + h
        times[0] = -0.3737
        values = rng.standard_normal((len(times), 2)) * rng.choice([1e-6, 1.0, 1e3], 2)
        ref = list_signal(zip(times, values))
        ends = [(times[0], times[-1]), (times[5], times[40]), (times[0], times[1])]
        ends += [tuple(np.sort(rng.uniform(times[0], times[-1], 2))) for _ in range(20)]
        for a, b in ends:
            got = window_integral(times, values, a, b)
            assert got.tobytes() == ref.integrate(a, b).tobytes(), (a, b)

    def test_coverage_failure(self):
        sig = list_signal([(1.0, 1.0), (3.0, 1.0)])
        with pytest.raises(CoverageError):
            sig.integrate(0.0, 2.0)
        with pytest.raises(CoverageError):
            sig.integrate(2.0, 4.0)
        # the predictor's window ends at the last stamp or before; one that starts
        # before the first is a PredictorError
        delay, h, N = ActuationDelay.constant(0.5), 1e-2, 200
        grid = NodeGrid(delay, h, [1.0] * (N + 1), 1.0, [], [])
        model = SystemModel(state_dim=1, f=lambda x, u: (u,), K=lambda x: 0.0,
                            L_f=1.0, L_K=0.0)
        pred = SemiClosedPredictor(model, grid)
        pred.reanchor(1.0, [0.0], 100)  # the history starts at phi(1) = 0.5
        for k in range(50, 60):
            pred.advance(k)
        with pytest.raises(PredictorError, match="does not reach"):
            pred.reanchor(0.9, [0.0], 60)
