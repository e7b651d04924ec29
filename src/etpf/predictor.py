"""Prediction of the future plant state x(sigma(t)).

Four strategies are provided:

* ``closed-loop``: re-integrate ``pdot = sigmadot * f(p, u)`` from the most
  recent delivered state every time a prediction is needed.  Most robust; a
  fresh delivery wipes out all accumulated mismatch.
* ``semi-closed-loop``: accumulate the prediction integral by trapezoidal
  quadrature over the stored integrand history, anchored at the delivered
  state.
* ``open-loop``: advance ``pdot = sigmadot * f(p, u)`` one step at a time,
  never re-anchoring.  Cheap but drifts for unstable plants.
* ``linear-closed-form``: matrix-exponential solution for linear plants.

The ``*Predictor`` classes keep incremental state for the simulation engine
and read sigma and the control from its ``NodeGrid``.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .channel import GridTables, node_of
from .exceptions import PredictorError
from .model import LinearSystem, lift
from .signals import interpolate

__all__ = [
    "ClosedLoopPredictor",
    "OpenLoopPredictor",
    "SemiClosedPredictor",
    "LinearPredictor",
    "make_predictor",
    "NodeGrid",
    "PREDICTOR_METHODS",
]

PREDICTOR_METHODS = ("closed-loop", "semi-closed-loop", "open-loop", "linear-closed-form")

LIFT = 128  # rows of the power tables, the longest block of LinearPredictor.block


# ---------------------------------------------------------------------------
# Incremental predictors for the simulation engine.
#
# All four share the interface: reanchor(anchor_time, anchor_state, t_now),
# advance(k) stepping the target time from node k h to (k + 1) h, and the
# current value in .p.  advance reads sigma and u at grid nodes from a
# NodeGrid; reanchor takes float times and may start off the grid.  The
# predictors only compute: the engine decides whether p has diverged.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NodeGrid:
    """The channel and the control of one run on the grid of step ``h``.

    ``sig[k - lo]`` and ``sdot[k - lo]`` are sigma and its difference
    quotient at node k h for k > lo, and at phi(0) for k = lo (slot 0 of
    ``tables``, the shared ``ActuationDelay.grid_tables``).  ``U[j]`` is the control, a float, in
    force at node j h for j >= 0: the engine writes a row at an event and
    otherwise copies the row before it when a step ends, so a read of the
    next row before its event sees the held value.  ``u_pre`` is the
    control before t = 0.  ``rows[k]`` is the row holding u(phi(k h)), -1
    for ``u_pre``.  ``events`` is the run's list of event times, shared
    with its ``EventLog``; with the rows it is the whole control history.
    ``sigma`` and ``sigma_dot`` answer float queries, off the grid too.
    """

    h: float
    lo: int
    tables: GridTables
    sig: np.ndarray
    sdot: np.ndarray
    rows: tuple
    U: np.ndarray
    u_pre: float
    sigma: Callable[[float], float]
    sigma_dot: Callable[[float], float]
    events: list

    def u_row(self, j: int) -> float:
        return self.U[j] if j >= 0 else self.u_pre

    def u_at(self, s: float) -> float:
        """u(s): ``u_pre`` for s < 0, else the row of the last node k with k h <= s."""
        if s < 0.0:
            return self.u_pre
        h, N = self.h, len(self.U) - 1
        k = min(int(s / h), N)
        # int(s / h) may land one node off either way
        if k * h > s:
            k -= 1
        elif k < N and (k + 1) * h <= s:
            k += 1
        return self.U[k]

    def u_breaks(self, a: float, b: float) -> list:
        """``a``, then 0 and the event times strictly inside ``(a, b)``, then ``b``.

        u is constant between consecutive breaks.
        """
        ev = self.events
        inner = ev[bisect_right(ev, a):bisect_left(ev, b)]
        if a < 0.0 < b and inner[:1] != [0.0]:
            inner.insert(0, 0.0)
        return [a, *inner, b]


class _Predictor:
    """The state every predictor keeps: its inputs and the current ``p``."""

    def __init__(self, model, delay, grid: NodeGrid):
        self.model = model
        self.delay = delay
        self.grid = grid
        self.h = grid.h
        self.p: Optional[np.ndarray] = None
        self.anchor_time: Optional[float] = None


class ClosedLoopPredictor(_Predictor):
    """Incremental closed-loop prediction by replaying the plant scheme.

    The prediction ODE is integrated in the untransformed (plant) time
    variable on the engine's own grid: the replayed iterates
    ``xhat_{k+1} = xhat_k + h f(xhat_k, u(phi(k h)))`` coincide with the
    plant's Euler iterates because the consumed u history is immutable.
    This is what makes the closed-loop method robust for unstable plants:
    prediction mismatch does not compound with the window length, unlike a
    re-integration on time-warped nodes.  The value at sigma(t) is closed
    with a partial Euler step, whose ``f(xhat_k, u)`` the next replay step
    from node k reuses.

    Full replay steps read only final control rows, so the chain of replayed
    states is a function of its start node and state alone: a re-anchor on a
    node whose stored state has the anchor state's bits replays nothing.
    """

    def __init__(self, model, delay, grid: NodeGrid):
        super().__init__(model, delay, grid)
        # the replayed states at nodes _c0, _c0 + 1, ...: the last one is the head
        self._chain, self._c0 = [], 0
        self._f_k: Optional[np.ndarray] = None  # f(head, u(phi(k h))), if kept
        self._targets = grid.tables.targets  # per table slot: advance's target, its node_of

    def _extend(self, sig_target: float, kt: int, on: bool, final_rows: int) -> None:
        """Replay up to ``sig_target`` at node_of (kt, on); U rows below ``final_rows`` are final."""
        h, f, chain = self.h, self.model.f, self._chain
        U, rows, u_pre = self.grid.U, self.grid.rows, self.grid.u_pre
        k, xhat, f_k = self._c0 + len(chain) - 1, chain[-1], self._f_k
        # replay to the target's node, or to the node below it and a partial step
        while k < kt - (not on):
            if f_k is None:
                j = rows[k]
                f_k = f(xhat, U[j] if j >= 0 else u_pre)
            xhat = xhat + h * f_k
            f_k = None
            k += 1
            chain.append(xhat)
        if not on and k < kt:
            fx = f_k
            if fx is None:
                j = rows[k]
                fx = f(xhat, U[j] if j >= 0 else u_pre)
                # keep it unless an event may still overwrite row j
                f_k = fx if j < final_rows else None
            self.p = xhat + (sig_target - k * h) * fx
        else:
            self.p = xhat.copy()
        self._f_k = f_k

    def reanchor(self, anchor_time: float, anchor_state, t_now: float) -> None:
        if self.anchor_time is not None and anchor_time < self.anchor_time:
            raise PredictorError("anchor time must be nondecreasing")
        self.anchor_time = float(anchor_time)
        x = np.array(anchor_state, dtype=float, ndmin=1)
        sig = self.grid.sigma(float(t_now))
        kt, on_t = node_of(sig, self.h)
        k, on = node_of(anchor_time, self.h)
        chain, c, head = self._chain, k - self._c0, self._c0 + len(self._chain) - 1
        # a hit: node k is on the chain, with x's bits, and the head is not past the target
        if on and 0 <= c and k <= head <= kt - (not on_t) and x.tobytes() == chain[c].tobytes():
            del chain[:c]  # anchors never move back
        else:
            if not on:
                # off-grid anchor: partial step onto the next node
                u = self.grid.u_at(self.delay.phi(anchor_time))
                x = x + (k * self.h - anchor_time) * self.model.f(x, u)
            self._chain, self._f_k = [x], None
        self._c0 = k
        self._extend(sig, kt, on_t, 0)

    def replayed(self, k: int) -> Optional[np.ndarray]:
        """The chain's state at node k, None where it holds none; chain arrays are never
        written to, so a caller may keep the one returned."""
        c = k - self._c0
        return self._chain[c] if 0 <= c < len(self._chain) else None

    def advance(self, k: int) -> None:
        """Move the prediction target from sigma(k h) to sigma((k + 1) h)."""
        # rows below 0 hold u_pre, final throughout the pre-history
        self._extend(*self._targets[k + 1 - self.grid.lo], max(k + 1, 0))


class OpenLoopPredictor(_Predictor):
    """sigma-form flow, one Euler step per engine step, never re-anchored.

    The first anchor starts the flow at its window start phi(anchor_time)
    with p = the anchor state; the engine makes it at t = 0, so the flow
    starts at phi(0), where the window is empty.
    """

    def reanchor(self, anchor_time, anchor_state, t_now):
        if self.anchor_time is not None:
            return  # later deliveries are deliberately ignored
        self.anchor_time = float(anchor_time)
        self.p = np.atleast_1d(np.asarray(anchor_state, dtype=float)).copy()

    def advance(self, k: int) -> None:
        g, h = self.grid, self.h
        # slot 0 is phi(0) off the grid: the first step is the partial one to node k + 1
        dt = h if k > g.lo else (k + 1) * h - self.delay.phi(0.0)
        self.p = self.p + dt * float(g.sdot[k - g.lo]) * self.model.f(self.p, g.u_row(k))


def window_integral(times: np.ndarray, values: np.ndarray, a: float, b: float) -> np.ndarray:
    """Integral over [a, b] of the piecewise-linear signal, with times[0] <= a <= b <= times[-1].

    The trapezoid rule on ``a``, the stamps strictly inside ``(a, b)`` and ``b``,
    exact for the signal; the segments are summed left to right.
    """
    if a == b:
        return np.zeros(values.shape[1])
    inner = times[np.searchsorted(times, a, "right"):np.searchsorted(times, b, "left")]
    nodes = np.concatenate(([a], inner, [b]))
    v = interpolate(times, values, nodes)
    # np.cumsum adds left to right, so its last row has the bits of a loop; np.sum promises no order
    return np.cumsum((0.5 * np.diff(nodes))[:, None] * (v[:-1] + v[1:]), axis=0)[-1]


class SemiClosedPredictor(_Predictor):
    """Prediction integral accumulated by trapezoid over the stored history.

    Keeps a history of the integrand g(s) = sigmadot(s) f(p(s), u(s)); each
    step closes the new segment with a Heun-style predictor/corrector so the
    quadrature stays trapezoidal.  As in the open-loop flow, the first anchor
    starts the history at phi(anchor_time) with p = the anchor state.  The
    history is two arrays, stamps and rows of g: phi(anchor_time), then one
    node per advance, with room for every node of the grid's tables.
    """

    def __init__(self, model, delay, grid: NodeGrid):
        super().__init__(model, delay, grid)
        self._n, self._times, self._g = 0, None, None  # stamps stored, stamps, rows of g
        self._anchor_state: Optional[np.ndarray] = None
        self._t: Optional[float] = None
        self._integral: Optional[np.ndarray] = None

    def reanchor(self, anchor_time: float, anchor_state, t_now: float) -> None:
        self.anchor_time = float(anchor_time)
        self._anchor_state = np.atleast_1d(np.asarray(anchor_state, dtype=float)).copy()
        s0 = self.delay.phi(self.anchor_time)
        if self._n == 0:
            self.p = self._anchor_state.copy()
            self._integral = np.zeros_like(self.p)
            size = len(self.grid.sig)  # phi(0), then one node per advance at most
            self._times, self._g = np.empty(size), np.empty((size, len(self.p)))
            self._times[0] = self._t = s0
            self._g[0] = self.grid.sigma_dot(s0) * self.model.f(self.p, self.grid.u_at(s0))
            self._n = 1
            return
        times, g = self._times[: self._n], self._g[: self._n]
        if s0 < times[0]:
            raise PredictorError("g-history does not reach the new anchor window")
        self._integral = window_integral(times, g, s0, min(t_now, times[-1]))
        self.p = self._anchor_state + self._integral
        self._t = t_now

    def advance(self, k: int) -> None:
        """Close the segment to node k + 1 and store g there."""
        grid, n = self.grid, self._n
        s_next, sdot, u = k * self.h + self.h, float(grid.sdot[k + 1 - grid.lo]), grid.u_row(k + 1)
        dt, g_left = s_next - self._t, self._g[n - 1]
        if self._t < self._times[n - 1]:  # a re-anchor's t_now may sit one ulp below it
            g_left = interpolate(self._times[:n], self._g[:n], np.array([self._t]))[0]
        p_pred = self.p + dt * g_left  # Euler predictor
        g_right = sdot * self.model.f(p_pred, u)
        self._integral = self._integral + 0.5 * dt * (g_left + g_right)
        self.p = self._anchor_state + self._integral
        # store the corrected integrand value
        self._times[n], self._g[n], self._n = s_next, sdot * self.model.f(self.p, u), n + 1
        self._t = s_next


def expm(M: np.ndarray) -> np.ndarray:
    """scipy's matrix exponential, imported on first call (perfbench's tracer wraps this name)."""
    from scipy import linalg
    return linalg.expm(M)


class LinearPredictor(_Predictor):
    """Exact exponential stepping of the linear prediction.

    p(b) = exp(A dsig) p(a) + (integral 0..dsig exp(A r) dr) B u(a) with
    dsig = sigma(b) - sigma(a) solves the prediction ODE exactly wherever u
    is constant on [a, b).  ``advance`` takes one such step per engine step;
    a re-anchor takes one per control segment of its window.  Matrix
    exponentials are cached per distinct dsig, and each step reads
    ``(E, Phi B u)`` from a memo per bits of (dsig, u).  ``block`` takes a
    run of advances with one step matrix and one control at once.
    """

    def __init__(self, sys: LinearSystem, delay, grid: NodeGrid):
        super().__init__(sys, delay, grid)
        self.sys = sys
        self._cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        self._memo: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}  # see _affine
        self._sig = grid.tables.sigs
        self._lifts: dict[float, np.ndarray] = {}  # lift(E, LIFT) per advance key

    def _step_mats(self, dsig: float) -> tuple[np.ndarray, np.ndarray]:
        if (mats := self._cache.get(key := round(dsig, 14))) is None:
            n = self.sys.n
            M = np.zeros((2 * n, 2 * n))
            M[:n, :n], M[:n, n:] = self.sys.A * dsig, np.eye(n) * dsig
            E = expm(M)
            mats = (E[:n, :n], E[:n, n:])
            if len(self._cache) < 4096:
                self._cache[key] = mats
        return mats

    def _affine(self, dsig: float, u: float) -> tuple[np.ndarray, np.ndarray]:
        """``(E, Phi @ (B u))`` of the step over dsig: p -> E p + c.  Memoized per bits
        of dsig and u (zeros of either sign in c give E p + c zeros of either sign)
        where ``_step_mats`` caches E, so every entry holds the E of its advance key."""
        if (mats := self._memo.get(bits := struct.pack("dd", dsig, u))) is None:
            E, Phi = self._step_mats(dsig)
            mats = (E, Phi @ (self.sys.B[:, 0] * u))
            if round(dsig, 14) in self._cache:
                self._memo[bits] = mats
        return mats

    def _integrate(self, p, s_from: float, s_to: float) -> np.ndarray:
        # u is constant between consecutive breaks, so one exact step per
        # control segment is the composition of the per-node steps
        g, (a, *inner, b) = self.grid, self.grid.u_breaks(s_from, s_to)
        ks = [round(s / self.h) for s in inner]  # 0 and event times lie on nodes
        sig = [g.sigma(a), *[self._sig[k - g.lo] for k in ks], g.sigma(b)]
        u = [g.u_at(a), *[g.U[k] for k in ks]]
        for i in range(len(u)):
            E, c = self._affine(sig[i + 1] - sig[i], u[i])
            p = E @ p + c
        return p

    def reanchor(self, anchor_time: float, anchor_state, t_now: float) -> None:
        self.anchor_time = float(anchor_time)
        p = np.asarray(anchor_state, dtype=float).copy()
        s0 = self.delay.phi(self.anchor_time)
        if t_now > s0:
            p = self._integrate(p, s0, t_now)
        self.p = p

    def advance(self, k: int) -> None:
        g, sig, i = self.grid, self._sig, k - self.grid.lo
        E, c = self._affine(sig[i + 1] - sig[i], g.u_row(k))
        self.p = E @ self.p + c

    def block(self, k: int, L: int) -> np.ndarray:
        """``advance(k)``, ..., ``advance(k + L - 1)`` with row k's control, as rows of p;
        ``self.p`` stays.  Fewer rows where the advance key changes and past ``LIFT``;
        none instead of one."""
        g, i, n = self.grid, k - self.grid.lo, len(self.p)
        runs = g.tables.runs  # slots where the advance key changes, then the table's end
        L = min(L, LIFT, runs[bisect_right(runs, i)] - i)
        if L < 2:  # one row is advance's own step
            return np.empty((0, n))
        E, c = self._affine(dsig := self._sig[i + 1] - self._sig[i], g.U[k])
        if (G := self._lifts.get(key := round(dsig, 14))) is None:
            G = lift(E, LIFT)
            if len(self._lifts) < 256:
                self._lifts[key] = G
        return (G[: L * n] @ np.concatenate((self.p, c))).reshape(L, n)


def make_predictor(method, model, delay, grid: NodeGrid, linear=None):
    if method == "closed-loop":
        return ClosedLoopPredictor(model, delay, grid)
    if method == "open-loop":
        return OpenLoopPredictor(model, delay, grid)
    if method == "semi-closed-loop":
        return SemiClosedPredictor(model, delay, grid)
    if method == "linear-closed-form":
        if linear is None:
            raise PredictorError("linear-closed-form needs a LinearSystem")
        return LinearPredictor(linear, delay, grid)
    raise PredictorError(f"unknown predictor method {method!r}")
