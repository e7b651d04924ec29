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

``ReferenceLinear`` is ``LinearPredictor`` with the step-matrix cache it once
kept: filled lazily in call order, each key ``round(dsig, 14)`` holding the
matrix exponential of the first dsig seen for it, up to 4,096 keys (later keys
are recomputed at every step and not memoized), and at most 256 block lifts.
Its exponentials come from the package's own kernel, ``etpf.predictor.expm``,
one slice at a time: it checks the tables and memos, not the kernel.

``trigger_per_step`` is the engine's trigger as it ran before the float norms
decided most rows: ``threshold`` and ``check_and_fire`` at every checked row.

``_capped`` and ``_open_loop_step`` are the per-predictor divergence check the
predictors once made themselves (max |p_i| <= 1e12, raising
``PredictorError``); the engine now decides divergence, and the tests keep
this check as an oracle for the reference functions.
"""

import math
import struct
from bisect import bisect_left, bisect_right
from typing import Callable, Optional

import numpy as np
from scipy.linalg import expm

from etpf import predictor as etpf_predictor
from etpf.channel import ActuationDelay
from etpf.exceptions import CoverageError, DomainError, PredictorError
from etpf.model import LinearSystem, SystemModel, lift
from etpf.predictor import LIFT, LinearPredictor, NodeGrid, _Predictor
from etpf.trigger import check_and_fire, threshold

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
    return _open_loop_step(p, h * sigma_dot(s), np.array(model.f(tuple(p.tolist()), grid.u_at(s))))


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


def integrate_per_segment(pred, p, s_from: float, now: int) -> np.ndarray:
    """``LinearPredictor._integrate`` without the memo: one step per control segment from
    ``s_from`` to node ``now``, with sigma at each break from ``NodeGrid.window_start`` and u
    from ``NodeGrid.u_at``."""
    g = pred.grid
    ev, s_to = g.events, now * g.h
    inner = ev[bisect_right(ev, s_from):bisect_left(ev, s_to)]
    if s_from < 0.0 < s_to and inner[:1] != [0.0]:
        inner.insert(0, 0.0)
    nodes = [s_from, *inner, s_to]
    sig = [g.window_start(s)[0] for s in nodes]
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

    def __init__(self, model, grid: NodeGrid):
        super().__init__(model, grid)
        self.g_history = ListSignal()

    def reanchor(self, anchor_time: float, anchor_state, now: int) -> None:
        self.anchor_time = float(anchor_time)
        self._anchor_state = np.atleast_1d(np.asarray(anchor_state, dtype=float)).copy()
        s0 = self.delay.phi(self.anchor_time)
        hist = self.g_history
        if not hist.times:
            self.p = tuple(self._anchor_state.tolist())
            self._integral = np.zeros_like(self._anchor_state)
            sdot, u = self.grid.window_start(s0, dot=True)
            hist.append(s0, sdot * np.array(self.model.f(self.p, u)))
            return
        if s0 < hist.times[0]:
            raise PredictorError("g-history does not reach the new anchor window")
        self._integral = hist.integrate(s0, hist.times[-1])
        self.p = tuple((self._anchor_state + self._integral).tolist())

    def advance(self, k: int) -> None:
        g, hist = self.grid, self.g_history
        s_next, sdot, u = (k + 1) * self.h, float(g.tables[1][k + 1 - g.lo]), g.u_row(k + 1)
        dt = s_next - hist.times[-1]
        g_left = hist.values[-1]
        p_pred = np.array(self.p) + dt * g_left
        g_right = sdot * np.array(self.model.f(tuple(p_pred.tolist()), u))
        self._integral = self._integral + 0.5 * dt * (g_left + g_right)
        self.p = tuple((self._anchor_state + self._integral).tolist())
        hist.append(s_next, sdot * np.array(self.model.f(self.p, u)))


class ReferenceLinear(LinearPredictor):
    """``LinearPredictor`` with a lazily filled, call-order, capped step-matrix cache."""

    def __init__(self, sys: LinearSystem, grid: NodeGrid):
        _Predictor.__init__(self, sys, grid)
        self.sys = sys
        self._cache, self._memo, self._lifts = {}, {}, {}
        self._sig = grid.tables.sigs
        # the slots where the advance key changes, then the table's end
        d = np.diff(grid.tables[0])
        keys = [round(v, 14) for v in d.tolist()]
        self._runs = [i for i in range(1, len(d)) if keys[i] != keys[i - 1]] + [len(d)]

    def _step_mats(self, dsig: float):
        if (mats := self._cache.get(key := round(dsig, 14))) is None:
            n = self.sys.n
            M = np.zeros((2 * n, 2 * n))
            M[:n, :n], M[:n, n:] = self.sys.A * dsig, np.eye(n) * dsig
            E = etpf_predictor.expm(M[None])[0]
            mats = (E[:n, :n], E[:n, n:])
            if len(self._cache) < 4096:
                self._cache[key] = mats
        return mats

    def _affine(self, dsig: float, u: float):
        if (mats := self._memo.get(bits := struct.pack("dd", dsig, u))) is None:
            E, Phi = self._step_mats(dsig)
            mats = (E, Phi @ (self.sys.B[:, 0] * u))
            if round(dsig, 14) in self._cache:
                self._memo[bits] = mats
        return mats

    def _lifted(self, k: int, L: int, d: int, p_d) -> np.ndarray:
        i, n, runs = k - self.grid.lo, len(self.p), self._runs
        assert 1 <= L <= min(LIFT, runs[bisect_right(runs, i)] - i)
        E, c = self._affine(dsig := self._sig[i + 1] - self._sig[i], self.grid.u_row(k))
        if L == 1:
            return (E @ np.array(self.p) + c)[None]
        if (G := self._lifts.get(key := round(dsig, 14))) is None:
            G = lift(E, LIFT)
            if len(self._lifts) < 256:
                self._lifts[key] = G
        if p_d is None:
            return (G[: L * n] @ np.concatenate((self.p, c))).reshape(L, n)
        # the rows on both sides of the re-anchored row d, by LinearPredictor's stacked product
        m = d - k
        Z = np.stack((np.concatenate((self.p, c)), np.concatenate((p_d, c))), axis=1)
        R = (G[: max(m - 1, L - m) * n] @ Z).reshape(-1, n, 2)
        return np.concatenate((R[: m - 1, :, 0], p_d[None], R[: L - m, :, 1]))


def trigger_per_step(trace, trig):
    """``(E, TH, event_flags, e_pre_reset)`` of the trigger checked row by row over the
    prediction rows of ``trace``: the rows from ``t0`` on that the run reached, those with
    a prediction (a run with blocks checks fewer)."""
    n = len(trace.times)
    E, TH, ev, pre = np.zeros(n), np.full(n, np.nan), np.zeros(n), []
    p_last = None
    for k in range(round(trace.t0 / trace.h), n):
        if np.isnan(p := trace.p[k]).any():
            break
        TH[k] = thr = threshold(trig, p)
        fired, e_n = check_and_fire(p_last, p, thr)
        if fired:
            ev[k], p_last = 1.0, p
            pre.append(e_n)
        else:
            E[k] = e_n
    return E, TH, ev, pre
