"""Timestamped histories, piecewise-linear between stamps, as two arrays.

``interpolate`` is the one interpolation formula: ``TimedSignal`` reads it,
and the semi-closed-loop predictor reads its integrand history, kept in arrays
of its own, through it directly.  The control history u lives in the engine's
control rows and event times (``NodeGrid``), the monitor's w in an array of
values at plant-time images (``monitor.compute_L``).
"""

from __future__ import annotations

import numpy as np

from .exceptions import CoverageError, DomainError

__all__ = ["TimedSignal"]


def interpolate(times: np.ndarray, values: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Rows of the signal at ``ts``, each inside [times[0], times[-1]] (not checked).

    ``(1 - lam) v0 + lam v1`` between stamps, also at a stamp, where lam = 0,
    and the stored row at the last stamp.  ``np.interp`` rounds differently.
    """
    idx = np.searchsorted(times, ts, "right") - 1
    out = values[idx]
    mid = idx < len(times) - 1
    i = idx[mid]
    lam = ((ts[mid] - times[i]) / (times[i + 1] - times[i]))[:, None]
    out[mid] = (1.0 - lam) * values[i] + lam * values[i + 1]
    return out


class TimedSignal:
    """Strictly increasing time stamps with vector values; queries outside them are rejected."""

    def __init__(self, times=(), values=()):
        """``append(times[i], values[i])`` for every i, with the order checked once."""
        times = np.array(times, dtype=float)
        if (bad := np.flatnonzero(times[1:] <= times[:-1])).size:
            t, prev = times[bad[0] + 1], times[bad[0]]
            raise DomainError(f"time stamps must be strictly increasing: {t} after {prev}")
        self._times = times
        # one row per stamp: scalar values become rows of one
        self._values = np.atleast_2d(np.array(values, dtype=float).T).T

    def append(self, t: float, value) -> None:
        """Add a stamp after the last one; copies both arrays, so build in bulk where possible."""
        t, row = float(t), np.atleast_1d(np.asarray(value, dtype=float))
        if len(self._times) and t <= self._times[-1]:
            raise DomainError(
                f"time stamps must be strictly increasing: {t} after {self._times[-1]}"
            )
        values = self._values if len(self._times) else np.empty((0, len(row)))
        self._times, self._values = np.append(self._times, t), np.vstack((values, row))

    def sample(self, t: float) -> np.ndarray:
        """Linearly interpolated value at ``t``."""
        return self.sample_array([t])[0]

    def sample_array(self, ts) -> np.ndarray:
        """The value at every point of ``ts``, one row each."""
        times = self._times
        if not len(times):
            raise CoverageError("signal is empty")
        ts = np.asarray(ts, dtype=float)
        if ts.min() < times[0]:
            raise CoverageError(f"query at t={ts.min()} before first stamp {times[0]}")
        if ts.max() > times[-1]:
            raise CoverageError(f"query at t={ts.max()} past last stamp {times[-1]}")
        return interpolate(times, self._values, ts)
