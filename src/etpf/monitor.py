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


def compute_w(u, p_held, K) -> np.ndarray:
    """w(t) = u(t) - K(p(t) + e(t)), given u = u(t) and p_held = p(t) + e(t).

    ``p_held`` is p(t_k), the prediction held since the last event, and p(t)
    before the first event (e = 0 there).  Callers pass p(t_k) as stored
    rather than p(t) + e(t): adding e back would lose low bits to
    cancellation at large |p|, and w would not vanish exactly after t0.
    """
    return u - np.atleast_1d(np.asarray(K(p_held), dtype=float))


def compute_L(
    cfg: MonitorConfig,
    w_history: TimedSignal,
    t: float,
    sigma_t: float,
    phi,
    n_nodes: int,
) -> float:
    """Window functional over ``n_nodes`` equally spaced tau in [t, sigma(t)].

    sup form:      max  exp(b (tau - t)) |w(phi(tau))|
    integral form: trapz exp(b (tau - t)) w(phi(tau))^2
    """
    if sigma_t < t:
        raise MonitorError("sigma(t) precedes t")
    if sigma_t == t:
        return 0.0
    taus = np.linspace(t, sigma_t, n_nodes)
    w = w_history.sample_array(phi(taus))
    # |w| per row.  np.linalg.norm of a row is a BLAS dot, which may fuse
    # its multiply-adds; only a single input gives its bits as an array
    if w.shape[1] == 1:
        w_norm = np.sqrt(w[:, 0] * w[:, 0])
    else:
        w_norm = np.array([float(np.linalg.norm(r)) for r in w])
    # math.exp, not np.exp: the two differ in the last bit on some inputs
    weight = np.array([math.exp(v) for v in (cfg.b * (taus - t)).tolist()])
    if cfg.form == "sup":
        return max((weight * w_norm).tolist())
    return float(np.trapezoid(weight * w_norm * w_norm, taus))


def compute_V(
    cfg: MonitorConfig,
    x,
    L: float,
    cert: ISSCertificate,
) -> float:
    """Lyapunov-Krasovskii value at one time stamp.

    sup form:      S(x) + (2/b) * integral 0..2L of rho(r)/r dr
                   (closed form when rho is quadratic)
    integral form: S(x) + 2 * c_rho * L, the linear-case functional
                   (c_rho = 2|PB|^2/lam_min(Q), so the L coefficient is
                   4|PB|^2/lam_min(Q))
    """
    if L < 0:
        raise MonitorError("L must be nonnegative")
    s_val = float(cert.S(np.atleast_1d(x)))
    if cfg.form == "integral":
        if cert.rho_quad_coeff is None:
            raise ConfigurationError("integral form needs a quadratic-rho certificate")
        return s_val + 2.0 * cert.rho_quad_coeff * L
    if L == 0.0:
        return s_val
    if cert.rho_quad_coeff is not None:
        # integral 0..2L of c*r dr = c*(2L)^2/2
        return s_val + (2.0 / cfg.b) * cert.rho_quad_coeff * (2.0 * L) ** 2 / 2.0
    if not cert.integrable_flag:
        raise MonitorError("rho(r)/r is not integrable near 0")
    from scipy.integrate import quad
    val, _err = quad(lambda r: cert.rho(r) / r, 0.0, 2.0 * L, limit=200)
    return s_val + (2.0 / cfg.b) * val


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
