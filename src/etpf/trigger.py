"""Event-trigger evaluation and dwell-time bounds.

The trigger compares the prediction drift ``e(t) = p(t_k) - p(t)`` against a
state-dependent threshold and fires a control update when the threshold is
reached.  The analytic minimum dwell time is exposed both in closed form and
as an ODE-integrated variant for validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .exceptions import ConfigurationError, DomainError
from .model import LinearSystem

__all__ = [
    "TriggerConfig",
    "EventLog",
    "threshold",
    "check_and_fire",
    "decide",
    "fill_norms",
    "first_crossing",
    "min_dwell",
    "min_dwell_numeric",
]


def _rho_bar(sys: LinearSystem, theta: float, L_K: float) -> float:
    """``lam_min(Q) sqrt(theta) / (4 |PB| L_K)``: the paper's threshold, rho's inverse at
    ``theta gamma(|p|)`` over ``2 L_K``, is this ratio times |p| under the quadratic
    certificate ``sys`` (gamma and rho as in ``LinearSystem``)."""
    if not 0.0 < theta < 1.0:
        raise ConfigurationError("theta must lie in (0, 1)")
    gain = 4.0 * sys.PB_norm * L_K  # 0 for B = 0 or L_K = 0: no finite ratio
    return sys.lam_min_Q * math.sqrt(theta) / gain if gain else math.inf


@dataclass(frozen=True)
class TriggerConfig:
    """Trigger mode and its ratio: every mode fires on the threshold ``rho_bar * |p|``.

    * ``nonlinear``: ``rho_bar = lam_min(Q) sqrt(theta) / (4 |PB| L_K)`` from a
      certificate and the Lipschitz constant of K, by ``TriggerConfig.nonlinear``.
    * ``linear``: the same ratio with ``L_K = |K|``, by ``TriggerConfig.linear``.
    * ``fixed-ratio``: the ratio given directly; it reads no ``theta``
      (``TriggerConfig.fixed_ratio`` sets 0.5).
    """

    mode: str
    theta: float
    rho_bar: Optional[float] = None

    def __post_init__(self):
        if self.mode not in ("nonlinear", "linear", "fixed-ratio"):
            raise ConfigurationError(f"unknown trigger mode {self.mode!r}")
        if not 0.0 < self.theta < 1.0:
            raise ConfigurationError("theta must lie in (0, 1)")
        # a comparison that NaN fails
        if not (self.rho_bar is not None and 0 < self.rho_bar < math.inf):
            raise ConfigurationError(f"{self.mode} mode needs a finite rho_bar > 0")

    @staticmethod
    def nonlinear(cert: Optional[LinearSystem], theta: float, L_K: float) -> "TriggerConfig":
        if cert is None:
            raise ConfigurationError("the nonlinear trigger needs a certificate (cert)")
        return TriggerConfig(mode="nonlinear", theta=theta, rho_bar=_rho_bar(cert, theta, L_K))

    @staticmethod
    def linear(sys: LinearSystem, theta: float) -> "TriggerConfig":
        return TriggerConfig(mode="linear", theta=theta, rho_bar=_rho_bar(sys, theta, sys.K_norm))

    @staticmethod
    def fixed_ratio(rho_bar: float) -> "TriggerConfig":
        return TriggerConfig(mode="fixed-ratio", theta=0.5, rho_bar=rho_bar)


@dataclass
class EventLog:
    """Strictly increasing event times, with the control, |e| before the reset and node at each."""

    event_times: list = field(default_factory=list)
    event_controls: list = field(default_factory=list)
    e_pre_reset: list = field(default_factory=list)
    event_nodes: list = field(default_factory=list)

    def record(self, t: float, control, e_pre: float, node: int) -> None:
        if self.event_times and t <= self.event_times[-1]:
            raise DomainError("event times must be strictly increasing")
        self.event_times.append(float(t))
        self.event_controls.append(float(control))
        self.e_pre_reset.append(e_pre)
        self.event_nodes.append(node)

    @property
    def count(self) -> int:
        return len(self.event_times)

    @property
    def min_dwell_observed(self) -> float:
        if len(self.event_times) < 2:
            return math.inf
        return float(np.min(np.diff(self.event_times)))


def threshold(cfg: TriggerConfig, p) -> float:
    """Trigger threshold ``rho_bar * |p|`` at the current prediction."""
    p = np.asarray(p, dtype=float)  # sqrt(p . p): numpy's norm body, without its dispatch
    return cfg.rho_bar * math.sqrt(p.dot(p))


def check_and_fire(p_at_last_event, p_now, thr: float) -> tuple[bool, float]:
    """The trigger rule at one grid point: ``(fire, |e|)``, e = p(t_k) - p(t).

    The first check, before any event (``p_at_last_event`` is None), fires
    with |e| = 0.  After that the rule fires iff ``|e| > 0`` and
    ``|e| >= thr``: at the equilibrium (p = 0 so the threshold is 0) an
    event fires only if e != 0, so a system at rest does not chatter.  On
    fire the caller resets e by recording p(t_k) = p(t).
    """
    if p_at_last_event is None:
        return True, 0.0
    e = np.subtract(p_at_last_event, p_now)
    e_norm = math.sqrt(e.dot(e))
    return e_norm > 0.0 and e_norm >= thr, e_norm


BAND = 1e-12  # relative: wider than the gap between the float norms and the exact ones


def decide(p_at_last_event: tuple, p_now: tuple, rho_bar: float, p_n: float) -> Optional[bool]:
    """``check_and_fire`` under ``rho_bar |p|`` from float norms, a few ulps from ``sqrt(v . v)``;
    ``p_n`` is ``math.hypot(*p_now)``, which the caller has at hand.  None, for the exact
    norms, within ``BAND`` and for |e| or |p| outside (1e-150, 1e150), where ``v . v``
    underflows or overflows (``e = 0`` too)."""
    e_n = math.dist(p_at_last_event, p_now)
    thr = rho_bar * p_n
    if 1e-150 < e_n < 1e150 and 1e-150 < p_n < 1e150 and abs(e_n - thr) > BAND * thr:
        return e_n > thr
    return None


def fill_norms(P, E, TH, ev, lo: int, hi: int, rho_bar: float, e_pre: list) -> None:
    """The norms of rows ``lo`` to ``hi`` of ``P`` that ``decide`` settled (NaN in ``TH``) into
    ``TH``, ``E`` and the NaN entries of ``e_pre``; ``ev`` holds the event rows.  ``vecdot``
    rounds as the ``dot`` of ``threshold`` and ``check_and_fire``."""
    for a in range(lo, hi, 1024):
        r = a + np.flatnonzero(np.isnan(TH[a : min(a + 1024, hi)]))
        p, e = P[r], P[ev[np.searchsorted(ev, r) - 1]] - P[r]  # from the event before
        TH[r], E[r] = rho_bar * np.sqrt(np.vecdot(p, p)), np.sqrt(np.vecdot(e, e))
    late = np.flatnonzero(np.isnan(pre := np.array(e_pre)))
    pre[late], E[ev] = E[ev[late]], 0.0
    e_pre[:] = pre.tolist()


def first_crossing(p_at_last_event, P: np.ndarray, thr: np.ndarray):
    """``check_and_fire`` down the rows of ``P`` with the thresholds ``thr``: the first row
    that fires (``len(P)`` if none), and |e| of every row, by ``vecdot`` as in ``fill_norms``."""
    e = p_at_last_event - P
    e_norm = np.sqrt(np.vecdot(e, e))
    fire = (e_norm > 0.0) & (e_norm >= thr)
    return int(fire.argmax()) if fire.any() else len(P), e_norm


def _check_dwell_args(a: float, c: float, R: float) -> None:
    if a <= 0 or c <= 0 or R <= 0:
        raise DomainError("dwell-time constants must be positive")
    if a == c:
        raise DomainError("a and c must differ (c - a = M2*L_f > 0)")


def min_dwell(a: float, c: float, R: float) -> float:
    """Closed-form lower bound on the inter-event time.

    delta = ln((c + R a)/(c + R c)) / (a - c) with a = M2 L_f L_K and
    c = M2 L_f (1 + L_K); R is the threshold ratio the error/prediction
    quotient has to climb to.
    """
    _check_dwell_args(a, c, R)
    return math.log((c + R * a) / (c + R * c)) / (a - c)


def min_dwell_numeric(a: float, c: float, R: float) -> float:
    """Integrate ``rdot = (1 + r)(c + a r)`` from 0 until r = R."""
    _check_dwell_args(a, c, R)
    t_cap = 10.0 * min_dwell(a, c, R) + 1.0

    def rdot(_t, r):
        return (1.0 + r[0]) * (c + a * r[0])

    def reached(_t, r):
        return r[0] - R

    reached.terminal = True
    reached.direction = 1.0
    from scipy.integrate import solve_ivp
    sol = solve_ivp(rdot, (0.0, t_cap), [0.0], events=reached,
                    rtol=1e-10, atol=1e-14, dense_output=False)
    if not sol.t_events[0].size:
        raise DomainError("threshold ratio R not reached; inconsistent constants")
    return float(sol.t_events[0][0])
