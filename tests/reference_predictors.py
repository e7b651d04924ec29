"""Whole-window reference predictors, kept for the tests.

``predict_open_loop_step`` and ``predict_linear`` are the per-call forms of
the open-loop and matrix-exponential predictors: each call re-runs its full
window from the control history, read through ``NodeGrid.u_at``.  The engine
uses the incremental ``*Predictor`` classes of ``etpf.predictor``; the tests
check those forms against hand integrals.

``affine_unmemoized`` and ``integrate_per_segment`` are ``LinearPredictor``'s
exact steps without the segment memo: ``Phi @ (B u)`` formed at every step,
and sigma and u read at every control break by the float lookups.

``ReferenceSemiClosed`` is ``SemiClosedPredictor`` with its integrand history
in a ``ListSignal``: one scalar ``sample`` per stamp, and a window integral
that adds its trapezoids one at a time, left to right.

``_capped`` and ``_open_loop_step`` are the per-predictor divergence check the
predictors once made themselves (max |p_i| <= 1e12, raising
``PredictorError``); the engine now decides divergence, and the tests keep
this check as an oracle for the reference functions.
"""

import math
from bisect import bisect_left, bisect_right
from typing import Callable, Optional

import numpy as np
from scipy.linalg import expm

from etpf.channel import ActuationDelay
from etpf.exceptions import CoverageError, DomainError, PredictorError
from etpf.model import LinearSystem, SystemModel
from etpf.predictor import NodeGrid, _Predictor

_DIVERGENCE_CAP = 1e12


def _capped(x: np.ndarray) -> bool:
    """max |x_i| <= the divergence cap; False for NaN and inf."""
    for v in x.tolist():
        if not abs(v) <= _DIVERGENCE_CAP:
            return False
    return True


def _open_loop_step(p, h_sdot, fx) -> np.ndarray:
    p_next = p + h_sdot * fx
    if not _capped(p_next):
        raise PredictorError("open-loop prediction diverged")
    return p_next


def window_nodes(s0: float, t: float, h: float) -> list[float]:
    """Integration nodes: s0, then multiples of h, ending exactly at t."""
    if t < s0:
        raise PredictorError(f"prediction target {t} precedes window start {s0}")
    nodes = [s0]
    m = math.ceil(s0 / h - 1e-9)
    s = m * h
    if s <= s0 + 1e-12 * (1.0 + abs(s0)):
        m += 1
        s = m * h
    while s < t - 1e-12 * (1.0 + abs(t)):
        nodes.append(s)
        m += 1
        s = m * h
    if t > nodes[-1] + 1e-12 * (1.0 + abs(t)):
        nodes.append(t)
    return nodes


def predict_open_loop_step(
    p,
    s: float,
    grid: NodeGrid,
    delay: ActuationDelay,
    model: SystemModel,
    h: float,
    sigma_dot: Optional[Callable[[float], float]] = None,
) -> np.ndarray:
    """One explicit-Euler step of the open-loop prediction flow."""
    if sigma_dot is None:
        sigma_dot = lambda v: delay.sigma_dot(v, h)
    p = np.atleast_1d(np.asarray(p, dtype=float))
    return _open_loop_step(p, h * sigma_dot(s), model.f(p, grid.u_at(s)))


def predict_linear(
    t: float,
    anchor_time: float,
    anchor_state,
    grid: NodeGrid,
    delay: ActuationDelay,
    sys: LinearSystem,
    h: float,
) -> np.ndarray:
    """Matrix-exponential prediction for linear plants.

    p(t) = exp(A (sigma(t) - tau)) x(tau)
           + integral phi(tau)..t of sigmadot(s) exp(A (sigma(t) - sigma(s))) B u(s) ds

    evaluated by trapezoidal quadrature on the u grid (nodes aligned to
    multiples of h plus the window endpoints).
    """
    A, B = sys.A, sys.B
    tau = float(anchor_time)
    x_tau = np.asarray(anchor_state, dtype=float)
    s0 = delay.phi(tau)
    sig_t = delay.sigma(float(t))
    nodes = window_nodes(s0, float(t), h)
    sig_nodes = [tau] + [delay.sigma(s) for s in nodes[1:]]
    p = expm(A * (sig_t - tau)) @ x_tau
    g_prev = None
    for s, sig_s in zip(nodes, sig_nodes):
        sdot = delay.sigma_dot(s, h)
        g = sdot * (expm(A * (sig_t - sig_s)) @ (B[:, 0] * grid.u_at(s)))
        if g_prev is not None:
            p = p + 0.5 * (s - s_prev) * (g_prev + g)
        g_prev, s_prev = g, s
    return p


def affine_unmemoized(pred, dsig: float, u: float):
    """``LinearPredictor._affine`` without its memo: the step's ``(E, Phi @ (B u))``."""
    E, Phi = pred._step_mats(dsig)
    return E, Phi @ (pred.sys.B[:, 0] * u)


def integrate_per_segment(pred, p, s_from: float, s_to: float) -> np.ndarray:
    """``LinearPredictor._integrate`` without the memo: one step per control segment,
    with sigma and u at each break from ``NodeGrid.sigma`` and ``NodeGrid.u_at``."""
    g = pred.grid
    ev = g.events
    inner = ev[bisect_right(ev, s_from):bisect_left(ev, s_to)]
    if s_from < 0.0 < s_to and inner[:1] != [0.0]:
        inner.insert(0, 0.0)
    nodes = [s_from, *inner, s_to]
    sig = [g.sigma(s) for s in nodes]
    for i in range(len(nodes) - 1):
        E, c = affine_unmemoized(pred, sig[i + 1] - sig[i], g.u_at(nodes[i]))
        p = E @ p + c
    return p


class ListSignal:
    """Strictly increasing stamps with vector values in lists, linear between stamps."""

    def __init__(self):
        self.times: list[float] = []
        self.values: list[np.ndarray] = []

    def append(self, t: float, value) -> None:
        t = float(t)
        if self.times and t <= self.times[-1]:
            raise DomainError(f"time stamps must be increasing: {t} after {self.times[-1]}")
        self.times.append(t)
        self.values.append(np.atleast_1d(np.asarray(value, dtype=float)).copy())

    def sample(self, t: float) -> np.ndarray:
        t = float(t)
        if not self.times or t < self.times[0] or t > self.times[-1]:
            raise CoverageError(f"query at t={t} outside the stamps")
        idx = bisect_right(self.times, t) - 1
        if idx == len(self.times) - 1:
            return self.values[idx]
        t0, t1 = self.times[idx], self.times[idx + 1]
        lam = (t - t0) / (t1 - t0)
        return (1.0 - lam) * self.values[idx] + lam * self.values[idx + 1]

    def integrate(self, a: float, b: float) -> np.ndarray:
        """Trapezoids on a, the stamps strictly inside (a, b) and b, added left to right."""
        if a > b:
            raise DomainError("integration bounds out of order")
        if not self.times or a < self.times[0] or b > self.times[-1]:
            raise CoverageError("integration window not covered by the signal")
        if a == b:
            return np.zeros_like(self.values[0])
        nodes = [a]
        i = bisect_right(self.times, a)
        while i < len(self.times) and self.times[i] < b:
            nodes.append(self.times[i])
            i += 1
        nodes.append(b)
        total = None
        for left, right in zip(nodes[:-1], nodes[1:]):
            seg = 0.5 * (right - left) * (self.sample(left) + self.sample(right))
            total = seg if total is None else total + seg
        return total


class ReferenceSemiClosed(_Predictor):
    """``SemiClosedPredictor`` on a ``ListSignal`` history."""

    def __init__(self, model, delay, grid: NodeGrid):
        super().__init__(model, delay, grid)
        self.g_history = ListSignal()

    def reanchor(self, anchor_time: float, anchor_state, t_now: float) -> None:
        self.anchor_time = float(anchor_time)
        self._anchor_state = np.atleast_1d(np.asarray(anchor_state, dtype=float)).copy()
        s0 = self.delay.phi(self.anchor_time)
        hist = self.g_history
        if not hist.times:
            self.p = self._anchor_state.copy()
            self._integral = np.zeros_like(self.p)
            hist.append(s0, self.grid.sigma_dot(s0) * self.model.f(self.p, self.grid.u_at(s0)))
            self._t = s0
            return
        if s0 < hist.times[0]:
            raise PredictorError("g-history does not reach the new anchor window")
        self._integral = hist.integrate(s0, min(t_now, hist.times[-1]))
        self.p = self._anchor_state + self._integral
        self._t = t_now

    def advance(self, k: int) -> None:
        g, hist = self.grid, self.g_history
        s_next, sdot, u = k * self.h + self.h, float(g.sdot[k + 1 - g.lo]), g.u_row(k + 1)
        dt = s_next - self._t
        g_left = hist.sample(min(self._t, hist.times[-1]))
        p_pred = self.p + dt * g_left
        g_right = sdot * self.model.f(p_pred, u)
        self._integral = self._integral + 0.5 * dt * (g_left + g_right)
        self.p = self._anchor_state + self._integral
        hist.append(s_next, sdot * self.model.f(self.p, u))
        self._t = s_next
