"""Append-only timestamped signal buffers, piecewise-linear between stamps.

These back the semi-closed-loop integrand history and the monitor's
disturbance history w.  Queries outside the stored range are rejected.  The
control history u is not one of them: it lives in the engine's control rows
and event times (``NodeGrid``).
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .exceptions import CoverageError, DomainError

__all__ = ["TimedSignal"]


class TimedSignal:
    """Strictly increasing time stamps with vector values."""

    def __init__(self):
        self._times: list[float] = []
        self._values: list[np.ndarray] = []
        self._stacked = (np.empty(0), np.empty(0))  # arrays of the stamps and values

    def __len__(self) -> int:
        return len(self._times)

    @property
    def first_time(self) -> float:
        if not self._times:
            raise CoverageError("signal is empty")
        return self._times[0]

    @property
    def last_time(self) -> float:
        if not self._times:
            raise CoverageError("signal is empty")
        return self._times[-1]

    def append(self, t: float, value) -> None:
        t = float(t)
        if self._times and t <= self._times[-1]:
            raise DomainError(
                f"time stamps must be strictly increasing: {t} after {self._times[-1]}"
            )
        self._times.append(t)
        self._values.append(np.atleast_1d(np.asarray(value, dtype=float)).copy())

    def sample(self, t: float) -> np.ndarray:
        """Linearly interpolated value at ``t``."""
        if not self._times:
            raise CoverageError("signal is empty")
        t = float(t)
        if t < self._times[0]:
            raise CoverageError(f"query at t={t} before first stamp {self._times[0]}")
        if t > self._times[-1]:
            raise CoverageError(f"query at t={t} past last stamp {self._times[-1]}")
        idx = bisect_right(self._times, t) - 1
        if idx == len(self._times) - 1:
            return self._values[idx]
        t0, t1 = self._times[idx], self._times[idx + 1]
        lam = (t - t0) / (t1 - t0)
        return (1.0 - lam) * self._values[idx] + lam * self._values[idx + 1]

    def sample_array(self, ts) -> np.ndarray:
        """``sample`` at every point of ``ts``, one row each.

        Same bits per row, and the same CoverageError outside the stamps.
        """
        if not self._times:
            raise CoverageError("signal is empty")
        if len(self._stacked[0]) != len(self._times):
            self._stacked = (np.array(self._times), np.array(self._values))
        times, values = self._stacked
        ts = np.asarray(ts, dtype=float)
        if ts.min() < times[0]:
            raise CoverageError(f"query at t={ts.min()} before first stamp {times[0]}")
        if ts.max() > times[-1]:
            raise CoverageError(f"query at t={ts.max()} past last stamp {times[-1]}")
        idx = np.searchsorted(times, ts, "right") - 1
        out = values[idx]
        mid = idx < len(times) - 1
        i = idx[mid]
        lam = ((ts[mid] - times[i]) / (times[i + 1] - times[i]))[:, None]
        out[mid] = (1.0 - lam) * values[i] + lam * values[i + 1]
        return out

    def breakpoints(self, a: float, b: float) -> list[float]:
        """``a``, then the stamps strictly inside ``(a, b)``, then ``b``.

        The signal is linear between consecutive breakpoints.
        """
        nodes = [a]
        i = bisect_right(self._times, a)
        while i < len(self._times) and self._times[i] < b:
            nodes.append(self._times[i])
            i += 1
        nodes.append(b)
        return nodes

    def integrate(self, a: float, b: float) -> np.ndarray:
        """Integral of the signal over [a, b] on the stored grid.

        The composite trapezoidal rule on the stored stamps plus the
        interpolated endpoints, exact for the piecewise-linear signal.
        """
        if a > b:
            raise DomainError("integration bounds out of order")
        if not self._times or a < self._times[0] or b > self._times[-1]:
            raise CoverageError("integration window not covered by the signal")
        if a == b:
            return np.zeros_like(self._values[0])

        total = None
        nodes = self.breakpoints(a, b)
        for left, right in zip(nodes[:-1], nodes[1:]):
            seg = 0.5 * (right - left) * (self.sample(left) + self.sample(right))
            total = seg if total is None else total + seg
        return total
