"""Whole-window reference predictors, kept for the tests.

``predict_open_loop_step`` and ``predict_linear`` are the per-call forms of
the open-loop and matrix-exponential predictors: each call re-runs its full
window from the control history, read through ``NodeGrid.u_at``.  The engine
uses the incremental ``*Predictor`` classes of ``etpf.predictor``; the tests
check those forms against hand integrals.

``affine_unmemoized`` and ``integrate_per_segment`` are ``LinearPredictor``'s
exact steps without the segment memo: ``Phi @ (B u)`` formed at every step,
and sigma and u read at every control break by the float lookups.
"""

import math
from bisect import bisect_left, bisect_right
from typing import Callable, Optional

import numpy as np
from scipy.linalg import expm

from etpf.channel import ActuationDelay
from etpf.exceptions import PredictorError
from etpf.model import LinearSystem, SystemModel
from etpf.predictor import NodeGrid, _open_loop_step


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
