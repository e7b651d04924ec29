import numpy as np
import pytest

from etpf.exceptions import CoverageError, DomainError
from etpf.signals import TimedSignal


def make(pairs):
    sig = TimedSignal()
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
        sig = make([(0.0, 1.0), (1.0, 2.0)])
        with pytest.raises(DomainError):
            sig.integrate(0.8, 0.2)


class TestIntegrate:
    def test_constant_rectangle(self):
        sig = make([(0.0, 3.0), (2.0, 3.0)])
        assert sig.integrate(0.0, 2.0)[0] == pytest.approx(6.0)

    def test_linear_triangle(self):
        sig = make([(0.0, 0.0), (2.0, 4.0)])
        assert sig.integrate(0.0, 2.0)[0] == pytest.approx(4.0)

    def test_additive(self):
        sig = make([(0.0, 1.0), (0.7, -2.0), (1.3, 5.0), (2.0, 0.5)])
        whole = sig.integrate(0.1, 1.9)[0]
        split = sig.integrate(0.1, 1.0)[0] + sig.integrate(1.0, 1.9)[0]
        assert whole == pytest.approx(split, rel=1e-12, abs=1e-12)

    def test_coverage_failure(self):
        sig = make([(1.0, 1.0), (3.0, 1.0)])
        with pytest.raises(CoverageError):
            sig.integrate(0.0, 2.0)
        with pytest.raises(CoverageError):
            sig.integrate(2.0, 4.0)
