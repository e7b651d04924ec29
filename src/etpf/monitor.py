"""Lyapunov-Krasovskii monitoring of simulated runs.

The functional V couples the state energy S(x) with a delay-window term built
from the disturbance w(t) = u(t) - K(p(t) + e(t)).  After the first event w
vanishes identically, so V decay certifies that the event-triggered loop
behaves as designed; the monitor reports violations instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import ConfigurationError, MonitorError
from .model import ISSCertificate
from .signals import TimedSignal

__all__ = [
    "MonitorConfig",
    "compute_w",
    "compute_L",
    "compute_V",
    "decay_report",
    "DecayReport",
]


@dataclass(frozen=True)
class MonitorConfig:
    """b is the exponential-window design rate; form selects the L functional."""

    b: float = 10.0
    form: str = "sup"  # "sup" (nonlinear) or "integral" (linear)
    stride: int = 10

    def __post_init__(self):
        if self.b <= 0:
            raise ConfigurationError("b must be positive")
        if self.form not in ("sup", "integral"):
            raise ConfigurationError(f"unknown monitor form {self.form!r}")
        if self.stride < 1:
            raise ConfigurationError("stride must be at least 1")


def compute_w(u: float, p_held, K) -> float:
    """w(t) = u(t) - K(p(t) + e(t)), given u = u(t) and p_held = p(t) + e(t).

    ``p_held`` is p(t_k), the prediction held since the last event, and p(t)
    before the first event (e = 0 there).  Callers pass p(t_k) as stored
    rather than p(t) + e(t): adding e back would lose low bits to
    cancellation at large |p|, and w would not vanish exactly after t0.
    """
    return u - K(p_held)


def compute_L(cfg: MonitorConfig, w_history: TimedSignal, t, sigma_t, phi, n_nodes: int):
    """Window functional over ``n_nodes`` equally spaced tau in [t, sigma(t)].

    sup form:      max  exp(b (tau - t)) |w(phi(tau))|
    integral form: trapz exp(b (tau - t)) w(phi(tau))^2

    A float for float ``t`` and ``sigma_t``; for arrays, one value per window,
    with the bits of the per-window call.
    """
    t1, sig1 = np.atleast_1d(t).astype(float), np.atleast_1d(sigma_t).astype(float)
    if (sig1 < t1).any():
        raise MonitorError("sigma(t) precedes t")
    L, live = np.zeros(len(t1)), np.flatnonzero(sig1 != t1)
    for i in range(0, len(live), rows := max(1, 2048 // n_nodes)):  # bounds the temporaries
        r = live[i : i + rows]
        # C order: a sum over the rows of an F-ordered array adds in another order
        taus = np.ascontiguousarray(np.linspace(t1[r], sig1[r], n_nodes, axis=1))
        w = w_history.sample_array(phi(taus.ravel()))[:, 0].reshape(taus.shape)
        w_norm = np.sqrt(w * w)  # not abs(w): where w * w underflows the two differ
        # math.exp, not np.exp: the two differ in the last bit on some inputs
        arg = (cfg.b * (taus - t1[r, None])).ravel().tolist()
        weight = np.fromiter(map(math.exp, arg), float, len(arg)).reshape(taus.shape)
        if cfg.form == "sup":
            L[r] = (weight * w_norm).max(axis=1)
        else:
            L[r] = np.trapezoid(weight * w_norm * w_norm, taus, axis=1)
    return float(L[0]) if np.ndim(t) == np.ndim(sigma_t) == 0 else L


def compute_V(cfg: MonitorConfig, x, L, cert: ISSCertificate):
    """Lyapunov-Krasovskii value at one time stamp, or at each row of ``x`` for an array ``L``.

    sup form:      S(x) + (2/b) * integral 0..2L of rho(r)/r dr
                   (closed form when rho is quadratic)
    integral form: S(x) + 2 * c_rho * L, the linear-case functional
                   (c_rho = 2|PB|^2/lam_min(Q), so the L coefficient is
                   4|PB|^2/lam_min(Q))
    """
    L = np.asarray(L, dtype=float)
    if (L < 0).any():
        raise MonitorError("L must be nonnegative")
    s_val, c = cert.S(np.atleast_1d(np.asarray(x, dtype=float))), cert.rho_quad_coeff
    if cfg.form == "integral":
        if c is None:
            raise ConfigurationError("integral form needs a quadratic-rho certificate")
        V = s_val + 2.0 * c * L
    elif c is not None:
        # integral 0..2L of c*r dr = c*(2L)^2/2; float_power is libm's pow, as float ** is
        V = np.where(L == 0.0, s_val, s_val + (2.0 / cfg.b) * c * np.float_power(2.0 * L, 2) / 2.0)
    elif L.any() and not cert.integrable_flag:
        raise MonitorError("rho(r)/r is not integrable near 0")
    else:
        from scipy.integrate import quad
        q = [quad(lambda r: cert.rho(r) / r, 0.0, 2.0 * v, limit=200)[0] if v else 0.0
             for v in L.ravel().tolist()]
        V = np.where(L == 0.0, s_val, s_val + (2.0 / cfg.b) * np.reshape(q, L.shape))
    return float(V) if V.ndim == 0 else V


@dataclass
class DecayReport:
    at_equilibrium: bool
    max_positive_increment: float
    slope: Optional[float]
    mu: Optional[float]
    slope_ok: Optional[bool]
    n_points: int

    def __str__(self) -> str:
        if self.n_points == 0:
            return "V-decay: not evaluated (no finite V after t0)"
        if self.at_equilibrium:
            return "V-decay: at equilibrium (V == 0 throughout)"
        lines = [f"V-decay: max positive increment {self.max_positive_increment:.3e}"]
        if self.slope is not None:
            lines.append(f"log-V least-squares slope {self.slope:.4f}")
            if self.mu is not None:
                verdict = "ok" if self.slope_ok else "VIOLATED"
                lines.append(f"guaranteed rate -mu = {-self.mu:.4f} ({verdict})")
        return "; ".join(lines)


def decay_report(
    times,
    V,
    t0: float,
    mu: Optional[float] = None,
    slope_slack: float = 0.1,
) -> DecayReport:
    """Decay diagnostics for sampled V values on [t0, T].

    Reports the worst positive finite-difference increment of V after t0 and,
    when mu is given (linear runs), compares the least-squares slope of log V
    against -mu*(1 - slope_slack).  With no finite V after t0, as on a
    diverged run whose monitor was skipped, nothing is evaluated: the report
    has ``n_points == 0`` and is not at equilibrium.
    """
    times = np.asarray(times, dtype=float)
    V = np.asarray(V, dtype=float)
    mask = (times >= t0) & np.isfinite(V)
    ts, vs = times[mask], V[mask]
    if len(vs) == 0:
        return DecayReport(False, math.nan, None, mu, None, 0)
    if np.all(vs == 0.0):
        return DecayReport(True, 0.0, None, mu, None, int(len(vs)))
    max_inc = float(np.max(np.diff(vs))) if len(vs) > 1 else 0.0
    pos = vs > 0
    slope = None
    slope_ok = None
    if np.count_nonzero(pos) >= 2:
        coeffs = np.polyfit(ts[pos], np.log(vs[pos]), 1)
        slope = float(coeffs[0])
        if mu is not None:
            slope_ok = slope <= -mu * (1.0 - slope_slack)
    return DecayReport(False, max_inc, slope, mu, slope_ok, int(len(vs)))
