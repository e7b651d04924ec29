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

import math
import struct
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import islice
from typing import Optional

import numpy as np

from .channel import ActuationDelay, node_of
from .exceptions import ConfigurationError, PredictorError
from .model import LinearSystem, euler, expm, lift  # perfbench's tracer wraps expm here
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
STEPS_MAX = 20_000  # entries of the process-wide step memo (README, "The linear path shares")
_steps: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}  # bits of A and dsig -> (E, Phi)


@lru_cache(maxsize=STEPS_MAX // LIFT)
def lift_table(bits: bytes) -> np.ndarray:
    """``lift(M, LIFT)``, read-only, of the square M with these bytes, shared process-wide."""
    M = np.frombuffer(bits)
    (G := lift(M.reshape(n := math.isqrt(len(M)), n), LIFT)).flags.writeable = False
    return G


def anchor_state(X, tau: float, h: float):
    """``(x(tau), on)`` from the plant's rows ``X`` at the nodes: the row of the node ``node_of``
    places tau on (``on``), else the line between the rows around tau."""
    k, on = node_of(tau, h)  # snapped: a 1-ulp overshoot reads no row past tau's node
    lam = (tau - (k - 1) * h) / h
    return (X[k] if on else (1.0 - lam) * X[k - 1] + lam * X[k]), on


# ---------------------------------------------------------------------------
# Incremental predictors for the simulation engine.
#
# All four share the interface: reanchor(anchor_time, anchor_state, now) at
# node now, advance(k) stepping the target time from node k h to (k + 1) h, and the
# current value in .p, a tuple of floats.  Both read sigma and u at nodes from a
# NodeGrid; only an anchor's time and its window start may lie off the grid.  The
# predictors only compute: the engine decides whether p has diverged.
# ---------------------------------------------------------------------------


class NodeGrid:
    """The controller's channel and the control of one run on the grid of step ``h``.

    ``delay`` is the controller's delay model and ``tables`` its shared
    ``ActuationDelay.grid_tables`` over the nodes of ``U``: slot ``k - lo``
    of sigma (``tables[0]``) and of its difference quotient (``tables[1]``)
    belongs to node k h for k > lo, slot 0 to phi(0), and ``tables.rows[k]``
    is the row holding u(phi(k h)), -1 for ``u_pre``.  ``first`` is the node
    of phi(0)'s slot: lo, or lo + 1 where ``node_of`` places phi(0) on that
    node; the pre-history's first advance is from it.  ``U`` is a list of
    floats: ``U[j]`` is the control in force at node j h for j >= 0.  The
    engine writes a row at an event and otherwise copies the row before it
    when a step ends, so a read of the next row before its event sees the
    held value.  ``u_pre`` is the control before t = 0.  ``events`` and
    ``nodes`` are the run's lists of event times and of their nodes, shared
    with its ``EventLog``; with the rows they are the whole control history.
    """

    def __init__(self, delay: ActuationDelay, h: float, U: list, u_pre: float, events: list,
                 nodes: list):
        self.delay, self.h, self.U, self.u_pre = delay, h, U, u_pre
        self.events, self.nodes = events, nodes
        self.phi0 = delay.phi(0.0)
        m_lo, on = node_of(self.phi0, h)
        self.lo, self.first = m_lo - 1, m_lo - (not on)
        if self.first >= 0:
            raise ConfigurationError("the channel must have positive delay at t = 0")
        self.tables = delay.grid_tables(h, m_lo, len(U) - 1)

    def window_start(self, s: float, dot: bool = False) -> tuple[float, float]:
        """``(sigma(s), u_at(s))`` at an anchor's window start s = phi(tau), s placed on the
        grid once; ``dot`` gives sigma's difference quotient in place of sigma.  Either is
        the table entry of the node ``node_of`` places s on, slot 0 at phi(0), else solved."""
        table, (k, on) = self.tables[dot], node_of(s, self.h)
        u = self._u(k - (not on))
        if on and 0 < k - self.lo < len(table) - dot:  # sigma_dot has no entry at N + 1
            return float(table[k - self.lo]), u
        if s == self.phi0:
            return float(table[0]), u
        return (self.delay.sigma_dot(s, self.h) if dot else self.delay.sigma(s)), u

    def u_row(self, j: int) -> float:
        return self.U[j] if j >= 0 else self.u_pre

    def u_at(self, s: float) -> float:
        """u(s): the row of the last node k with k h <= s, where a node that ``node_of``
        places s on counts as at or below it; ``u_pre`` below node 0."""
        k, on = node_of(s, self.h)
        return self._u(k - (not on))

    def _u(self, k: int) -> float:
        return self.U[min(k, len(self.U) - 1)] if k >= 0 else self.u_pre

    def u_breaks(self, a: float, now: int) -> list:
        """The nodes of 0 and of the events strictly between time ``a`` and node ``now``:
        u is constant from ``a`` to the first, between consecutive ones and on to ``now``."""
        nodes = self.nodes
        inner = nodes[bisect_right(self.events, a):bisect_left(nodes, now)]
        if a < 0.0 and now > 0 and inner[:1] != [0]:
            inner.insert(0, 0)
        return inner


class _Predictor:
    """The state every predictor keeps: its inputs and the current ``p``, a tuple, so a
    caller may keep it without a copy.  ``block`` is the engine's linear fast path, None where
    a predictor has none; ``replayed`` and ``fused``, true for a replay chain, let the plant
    take its rows and a two-state run take ``advance``'s one-node step in the engine."""

    replayed = fused = False
    block = None

    def __init__(self, model, grid: NodeGrid):
        self.model, self.delay, self.grid, self.h = model, grid.delay, grid, grid.h
        self.p: Optional[tuple] = None
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

    The chain is the list ``_chain`` of the replayed states at nodes ``_c0``,
    ``_c0 + 1``, ..., its last one the head, and ``_f_k`` is f at the head
    under its node's control row where a partial step kept it, else None.  A
    re-anchor trims or replaces the list and moves ``_c0``; ``advance`` only
    appends to it, through ``_extend``.  The engine reads all three after each
    re-anchor and takes ``advance``'s one-node case itself on two-state runs.
    """

    replayed = fused = True

    def __init__(self, model, grid: NodeGrid):
        super().__init__(model, grid)
        self._chain, self._c0 = [], 0
        self._f_k: Optional[tuple] = None
        self._targets = grid.tables.targets  # per table slot: advance's target, its node_of
        # the grid's reads, bound once
        self._U, self._u_pre, self._lo = grid.U, grid.u_pre, grid.lo
        self._rows = grid.tables.rows

    def _extend(self, sig_target: float, kt: int, on: bool, final_rows: int) -> None:
        """Replay up to ``sig_target`` at node_of (kt, on); U rows below ``final_rows`` are final."""
        h, f, chain = self.h, self.model.f, self._chain
        U, rows, u_pre = self._U, self._rows, self._u_pre
        k, xhat, f_k = self._c0 + len(chain) - 1, chain[-1], self._f_k
        two = len(xhat) == 2  # euler's two-state step, unrolled
        # replay to the target's node, or to the node below it and a partial step
        while k < kt - (not on):
            if f_k is None:
                j = rows[k]
                f_k = f(xhat, U[j] if j >= 0 else u_pre)
            xhat = (xhat[0] + h * f_k[0], xhat[1] + h * f_k[1]) if two else euler(xhat, h, f_k)
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
            self.p = euler(xhat, sig_target - k * h, fx)
        else:
            self.p = xhat
        self._f_k = f_k

    def reanchor(self, anchor_time: float, anchor_state, now: int) -> None:
        if self.anchor_time is not None and anchor_time < self.anchor_time:
            raise PredictorError("anchor time must be nondecreasing")
        self.anchor_time = float(anchor_time)
        x = np.array(anchor_state, dtype=float, ndmin=1)
        sig, kt, on_t = self._targets[now - self._lo]
        k, on = node_of(anchor_time, self.h)
        chain, c, head = self._chain, k - self._c0, self._c0 + len(self._chain) - 1
        # a hit: node k is on the chain, with x's bits, and the head is not past the target
        if (on and 0 <= c and k <= head <= kt - (not on_t)
                and x.tobytes() == np.array(chain[c]).tobytes()):
            del chain[:c]  # anchors never move back
        else:
            x = tuple(x.tolist())
            if not on:
                # off-grid anchor: partial step onto the next node
                u = self.grid.u_at(self.delay.phi(anchor_time))
                x = euler(x, k * self.h - anchor_time, self.model.f(x, u))
            self._chain, self._f_k = [x], None
        self._c0 = k
        self._extend(sig, kt, on_t, 0)

    def advance(self, k: int) -> None:
        """Move the prediction target from sigma(k h) to sigma((k + 1) h)."""
        # rows below 0 hold u_pre, final throughout the pre-history
        self._extend(*self._targets[k + 1 - self._lo], k + 1 if k >= 0 else 0)


class OpenLoopPredictor(_Predictor):
    """sigma-form flow, one Euler step per engine step, never re-anchored.

    The first anchor starts the flow at its window start phi(anchor_time)
    with p = the anchor state; the engine makes it at t = 0, so the flow
    starts at phi(0), where the window is empty.
    """

    def reanchor(self, anchor_time, anchor_state, now):
        if self.anchor_time is not None:
            return  # later deliveries are deliberately ignored
        self.anchor_time = float(anchor_time)
        self.p = tuple(np.atleast_1d(np.asarray(anchor_state, dtype=float)).tolist())

    def advance(self, k: int) -> None:
        g, h = self.grid, self.h
        # slot 0 is phi(0) off the grid: the first step is the partial one to node k + 1
        dt = h if k > g.lo else (k + 1) * h - g.phi0
        self.p = euler(self.p, dt * float(g.tables[1][k - g.lo]), self.model.f(self.p, g.u_row(k)))


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
    node k h per advance, with room for every node of the grid's tables.  A
    later anchor integrates its window up to the last stamp, node ``now``.
    """

    def __init__(self, model, grid: NodeGrid):
        super().__init__(model, grid)
        self._n, self._times, self._g = 0, None, None  # stamps stored, stamps, rows of g
        self._anchor_state: Optional[np.ndarray] = None
        self._integral: Optional[np.ndarray] = None

    def reanchor(self, anchor_time: float, anchor_state, now: int) -> None:
        self.anchor_time = float(anchor_time)
        self._anchor_state = np.atleast_1d(np.asarray(anchor_state, dtype=float)).copy()
        s0 = self.delay.phi(self.anchor_time)
        if self._n == 0:
            self.p = tuple(self._anchor_state.tolist())
            self._integral = np.zeros_like(self._anchor_state)
            size = len(self.grid.tables[0])  # phi(0), then one node per advance at most
            self._times, self._g = np.empty(size), np.empty((size, len(self.p)))
            self._times[0] = s0
            sdot, u = self.grid.window_start(s0, dot=True)
            self._g[0] = np.multiply(sdot, self.model.f(self.p, u))
            self._n = 1
            return
        times, g = self._times[: self._n], self._g[: self._n]
        if s0 < times[0]:
            raise PredictorError("g-history does not reach the new anchor window")
        self._integral = window_integral(times, g, s0, times[-1])
        self.p = tuple((self._anchor_state + self._integral).tolist())

    def advance(self, k: int) -> None:
        """Close the segment to node k + 1 and store g there."""
        grid, n, i, f = self.grid, self._n, k + 1 - self.grid.lo, self.model.f
        s_next, sdot, u = (k + 1) * self.h, float(grid.tables[1][i]), grid.u_row(k + 1)
        dt, g_left = s_next - float(self._times[n - 1]), self._g[n - 1]
        p_pred = euler(self.p, dt, g_left.tolist())  # Euler predictor
        g_right = np.multiply(sdot, f(p_pred, u))
        self._integral = self._integral + 0.5 * dt * (g_left + g_right)
        self.p = tuple((self._anchor_state + self._integral).tolist())
        # store the corrected integrand value
        self._times[n], self._g[n], self._n = s_next, np.multiply(sdot, f(self.p, u)), n + 1


class LinearPredictor(_Predictor):
    """Exact exponential stepping of the linear prediction.

    p(b) = exp(A dsig) p(a) + (integral 0..dsig exp(A r) dr) B u(a) with
    dsig = sigma(b) - sigma(a) solves the prediction ODE exactly wherever u
    is constant on [a, b).  ``advance`` takes one such step per engine step;
    a re-anchor takes one per control segment of its window.  Matrix
    exponentials are kept per key ``round(dsig, 14)``, all advance keys from
    one stacked ``expm`` at construction; each step reads ``(E, Phi B u)``
    from a memo per bits of (dsig, u).  ``block`` takes a run of advances
    with one step key and one control at once.  The ``expm`` of each dsig and
    the lift of each E come from process-wide memos keyed by exact bits.
    """

    def __init__(self, sys: LinearSystem, grid: NodeGrid):
        super().__init__(sys, grid)
        self.sys = sys
        self._memo: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}  # see _affine
        self._sig, self._A_bits = grid.tables.sigs, sys.A.tobytes()
        # the advance keys' runs of slots and first dsigs, shared by every run on the tables
        self._runs, dsigs = grid.tables.step_keys
        self._mats = dict(zip((round(v, 14) for v in dsigs), self._exp_steps(dsigs)))

    def _exp_steps(self, dsigs: list) -> list:
        """``(E, Phi)`` over each dsig from the process-wide memo, the misses from one ``expm``."""
        keys = [self._A_bits + struct.pack("d", v) for v in dsigs]
        if miss := {k: v for k, v in zip(keys, dsigs) if k not in _steps}:
            n, ds = self.sys.n, np.array(list(miss.values()))[:, None, None]
            M = np.zeros((len(ds), 2 * n, 2 * n))
            M[:, :n, :n], M[:, :n, n:] = self.sys.A * ds, np.eye(n) * ds
            (R := expm(M)).flags.writeable = False
            _steps.update(zip(miss, ((E[:n, :n], E[:n, n:]) for E in R)))
        mats = [_steps[k] for k in keys]
        for k in list(islice(_steps, max(len(_steps) - STEPS_MAX, 0))):
            del _steps[k]  # the oldest: its exact key recomputes the same bits
        return mats

    def _step_mats(self, dsig: float) -> tuple[np.ndarray, np.ndarray]:
        if (mats := self._mats.get(key := round(dsig, 14))) is None:  # straight to _steps
            mats = _steps.get(self._A_bits + struct.pack("d", dsig)) or self._exp_steps([dsig])[0]
            self._mats[key] = mats
        return mats

    def _affine(self, dsig: float, u: float) -> tuple[np.ndarray, np.ndarray]:
        """``(E, Phi @ (B u))`` of the step over dsig: p -> E p + c.  Memoized per bits
        of dsig and u (zeros of either sign in c give E p + c zeros of either sign);
        E is the one of its step key."""
        if (mats := self._memo.get(bits := struct.pack("dd", dsig, u))) is None:
            E, Phi = self._step_mats(dsig)
            mats = self._memo[bits] = (E, Phi @ (self.sys.B[:, 0] * u))
        return mats

    def _integrate(self, p, s_from: float, now: int) -> np.ndarray:
        # u is constant between consecutive breaks, so one exact step per
        # control segment from s_from to node now is the composition of the per-node steps
        g, sig, ks = self.grid, self._sig, self.grid.u_breaks(s_from, now)
        sig0, u0 = g.window_start(s_from)
        sig = [sig0, *[sig[k - g.lo] for k in ks], sig[now - g.lo]]
        u = [u0, *[g.U[k] for k in ks]]
        for i in range(len(u)):
            E, c = self._affine(sig[i + 1] - sig[i], u[i])
            p = E @ p + c
        return p

    def anchored(self, anchor_time: float, anchor_state, now: int) -> np.ndarray:
        """The prediction at node ``now`` of a re-anchor on ``anchor_state`` at ``anchor_time``,
        from the grid's control history as it stands; ``self`` does not change."""
        p = np.array(anchor_state, dtype=float)
        s0 = self.delay.phi(float(anchor_time))
        return self._integrate(p, s0, now) if now * self.h > s0 else p

    def reanchor(self, anchor_time: float, anchor_state, now: int) -> None:
        self.anchor_time = float(anchor_time)
        self.set_p(self.anchored(anchor_time, anchor_state, now))

    def set_p(self, p: np.ndarray) -> None:
        """Take the array ``p`` as the prediction: the steps read it, ``p`` is its tuple."""
        self._p, self.p = p, tuple(p.tolist())

    def advance(self, k: int) -> None:
        self.set_p(self._lifted(k, 1, 0, None)[0])

    def span(self, k: int, L: int) -> int:
        """How many of L advances from node k a block takes: one step key, ``LIFT`` at most."""
        return min(L, LIFT, self._runs[bisect_right(self._runs, i := k - self.grid.lo)] - i)

    def block(self, k: int, L: int, d: int = 0, p_d=None) -> np.ndarray:
        """``advance(k)``, ..., ``advance(k + L - 1)`` with row k's control, as ``span(k, L)``
        rows of p, none instead of one; ``self.p`` stays.  With ``p_d``, k < d < k + span(k, L),
        row d is p_d, the rows after it advance from it in one stacked product with the rest."""
        L = self.span(k, L)
        return self._lifted(k, L, d, p_d) if L > 1 else np.empty((0, len(self._p)))

    def _lifted(self, k: int, L: int, d: int, p_d) -> np.ndarray:
        i, n = k - self.grid.lo, len(self._p)
        E, c = self._affine(self._sig[i + 1] - self._sig[i], self.grid.u_row(k))
        if L < 2:  # one step: advance's
            return (E @ self._p + c)[None]
        G = lift_table(E.tobytes())
        if p_d is None:
            return (G[: L * n] @ np.concatenate((self._p, c))).reshape(L, n)
        Z = np.concatenate((self._p, c, p_d, c)).reshape(2, -1).T
        R = (G[: max(d - k - 1, k + L - d) * n] @ Z).reshape(-1, n, 2)
        return np.concatenate((R[: d - k - 1, :, 0], p_d[None], R[: k + L - d, :, 1]))

    def rows(self, k: int, end: int) -> np.ndarray:
        """The rows of p at nodes k + 1 .. end, u held, as block rows; ``self.p`` moves on."""
        out = []
        while k < end:
            out.append(R := self._lifted(k, L := self.span(k, end - k), 0, None))
            self.set_p(R[-1])
            k += L
        return np.concatenate(out)


def make_predictor(method, model, grid: NodeGrid, linear=None):
    if method == "closed-loop":
        return ClosedLoopPredictor(model, grid)
    if method == "open-loop":
        return OpenLoopPredictor(model, grid)
    if method == "semi-closed-loop":
        return SemiClosedPredictor(model, grid)
    if method == "linear-closed-form":
        if linear is None:
            raise PredictorError("linear-closed-form needs a LinearSystem")
        return LinearPredictor(linear, grid)
    raise PredictorError(f"unknown predictor method {method!r}")
