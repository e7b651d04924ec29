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
from .model import ISSCertificate, LinearSystem

__all__ = [
    "TriggerConfig",
    "EventLog",
    "threshold",
    "check_and_fire",
    "first_crossing",
    "min_dwell",
    "min_dwell_numeric",
]


@dataclass(frozen=True)
class TriggerConfig:
    """Trigger mode and its parameters.

    * ``nonlinear``: threshold ``rho_inv(theta * gamma(|p|)) / (2 L_K)``,
      needs a certificate and the Lipschitz constant of K.
    * ``linear``: threshold ``rho_bar * |p|`` with the ratio
      ``rho_bar = lam_min(Q) sqrt(theta) / (4 |PB| |K|)`` derived from the
      linear system by ``TriggerConfig.linear``.
    * ``fixed-ratio``: threshold ``rho_bar * |p|`` (for presets that fix
      the ratio directly instead of deriving it from a certificate).
    """

    mode: str
    theta: float
    rho_bar: Optional[float] = None
    L_K: Optional[float] = None

    def __post_init__(self):
        if self.mode not in ("nonlinear", "linear", "fixed-ratio"):
            raise ConfigurationError(f"unknown trigger mode {self.mode!r}")
        if not 0.0 < self.theta < 1.0:
            raise ConfigurationError("theta must lie in (0, 1)")
        if self.mode != "nonlinear" and (self.rho_bar is None or self.rho_bar <= 0):
            raise ConfigurationError(f"{self.mode} mode needs rho_bar > 0")
        if self.mode == "nonlinear" and (self.L_K is None or self.L_K <= 0):
            raise ConfigurationError("nonlinear mode needs L_K > 0")

    @staticmethod
    def nonlinear(theta: float, L_K: float) -> "TriggerConfig":
        return TriggerConfig(mode="nonlinear", theta=theta, L_K=L_K)

    @staticmethod
    def linear(sys: LinearSystem, theta: float) -> "TriggerConfig":
        rho_bar = sys.lam_min_Q * math.sqrt(theta) / (4.0 * sys.PB_norm * sys.K_norm)
        return TriggerConfig(mode="linear", theta=theta, rho_bar=rho_bar)

    @staticmethod
    def fixed_ratio(rho_bar: float, theta: float = 0.5) -> "TriggerConfig":
        return TriggerConfig(mode="fixed-ratio", theta=theta, rho_bar=rho_bar)


@dataclass
class EventLog:
    """Strictly increasing event times with the controls applied at them."""

    event_times: list = field(default_factory=list)
    event_controls: list = field(default_factory=list)

    def record(self, t: float, control) -> None:
        if self.event_times and t <= self.event_times[-1]:
            raise DomainError("event times must be strictly increasing")
        self.event_times.append(float(t))
        self.event_controls.append(float(control))

    @property
    def count(self) -> int:
        return len(self.event_times)

    @property
    def min_dwell_observed(self) -> float:
        if len(self.event_times) < 2:
            return math.inf
        return float(np.min(np.diff(self.event_times)))


def threshold(cfg: TriggerConfig, p, cert: Optional[ISSCertificate] = None) -> float:
    """Trigger threshold as a function of the current prediction."""
    # sqrt(p . p): numpy's own norm body for a real vector, without its dispatch
    p = np.asarray(p, dtype=float)
    p_norm = math.sqrt(p.dot(p))
    if cfg.mode != "nonlinear":
        return cfg.rho_bar * p_norm
    if cert is None:
        raise ConfigurationError("nonlinear trigger needs an ISS certificate")
    return cert.rho_inv(cfg.theta * cert.gamma(p_norm)) / (2.0 * cfg.L_K)


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
    e = np.subtract(p_at_last_event, p_now)  # an ndarray for lists too
    e_norm = math.sqrt(e.dot(e))
    return e_norm > 0.0 and e_norm >= thr, e_norm


def first_crossing(p_at_last_event, P: np.ndarray, rho_bar: float):
    """``check_and_fire`` down the rows of ``P`` with the threshold ``rho_bar |p|``: the
    first row that fires (``len(P)`` if none), and |e| and the threshold of every row."""
    e = p_at_last_event - P
    e_norm = np.sqrt((e * e).sum(axis=1))
    thr = rho_bar * np.sqrt((P * P).sum(axis=1))
    fire = np.flatnonzero((e_norm > 0.0) & (e_norm >= thr))
    return int(fire[0]) if len(fire) else len(P), e_norm, thr


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


def min_dwell_numeric(a: float, c: float, R: float, rtol: float = 1e-10) -> float:
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
                    rtol=rtol, atol=1e-14, dense_output=False)
    if not sol.t_events[0].size:
        raise DomainError("threshold ratio R not reached; inconsistent constants")
    return float(sol.t_events[0][0])
