"""Lyapunov-Krasovskii monitoring of simulated runs.

The functional V couples the state energy S(x) with a delay-window term built
from the disturbance w(t) = u(t) - K(p(t) + e(t)).  After the first event w
vanishes identically, so V decay certifies that the event-triggered loop
behaves as designed; the monitor reports violations instead of raising.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import ConfigurationError, MonitorError
from .model import LinearSystem

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
        if not 0 < self.b < math.inf:  # NaN too
            raise ConfigurationError("b must be positive and finite")
        if self.form not in ("sup", "integral"):
            raise ConfigurationError(f"unknown monitor form {self.form!r}")
        if not (isinstance(self.stride, numbers.Integral) and self.stride >= 1):
            raise ConfigurationError(f"stride must be an integer >= 1, got {self.stride!r}")


def compute_w(u: float, p_held, K) -> float:
    """w(t) = u(t) - K(p(t) + e(t)), given u = u(t) and p_held = p(t) + e(t).

    ``p_held`` is p(t_k), the prediction held since the last event, and p(t)
    before the first event (e = 0 there).  Callers pass p(t_k) as stored
    rather than p(t) + e(t): adding e back would lose low bits to
    cancellation at large |p|, and w would not vanish exactly after t0.
    """
    return u - K(p_held)


def _segments(ta, ea, wa, tb, eb, wb):
    """Exact integral on [ta, tb] of a linear weight ea..eb times (a linear w wa..wb)^2."""
    return (tb - ta) / 12.0 * (ea * (3.0 * wa * wa + 2.0 * wa * wb + wb * wb)
                               + eb * (wa * wa + 2.0 * wa * wb + 3.0 * wb * wb))


def compute_L(cfg: MonitorConfig, taus, w, t, sigma_t) -> np.ndarray:
    """L at each window [t_i, sigma_t_i] of plant time, in one pass over the w history: ``w``
    at the stamps' strictly increasing plant-time images ``taus`` = sigma(s_j), linear in tau
    between them, a window counting its part up to ``taus[-1]``.

    sup form:      max of exp(b (tau - t)) |w(phi(tau))| over the window's ends and images
    integral form: integral of exp(b (tau - t)) w(phi(tau))^2, exact per segment for a
                   weight linear between its ends

    Weights are relative to the last image of their block of images (under 300 / b long, so
    one block in most runs), so none exceeds 1 or underflows: L is inf only past the float range.
    """
    taus, w, t, sigma_t = (np.asarray(a, dtype=float) for a in (taus, w, t, sigma_t))
    if (sigma_t < t).any() or (t < taus[0]).any():
        raise MonitorError(f"a window is reversed or starts before the first image {taus[0]}")
    b, L = cfg.b, np.zeros(len(t))
    cut = np.flatnonzero(np.diff(np.floor((taus - taus[0]) * (b / 300.0))))
    for p, q in zip(np.r_[0, cut].tolist(), np.r_[cut, len(taus) - 1].tolist()):  # q starts the next
        tb, wb, end = taus[p : q + 1], w[p : q + 1], taus[q]
        x = np.clip(np.stack([t, sigma_t]), tb[0], end)  # the window ends, inside the block
        j = np.searchsorted(tb, x, "right") - 1  # the last image at or before each end
        e, ex, wx = np.exp(b * (tb - end)), np.exp(b * (x - end)), np.interp(x, tb, wb)
        if cfg.form == "sup":  # images j[0] + 1 .. j[1]; reduceat gives a[i] for an empty range
            inner = np.maximum.reduceat(np.append(e * np.abs(wb), 0.0), (j.T + 1).ravel())[::2]
            S = np.maximum((ex * np.abs(wx)).max(axis=0), np.where(j[1] > j[0], inner, 0.0))
            S[(t > end) | (sigma_t < tb[0])] = 0.0  # a window off the block
        else:  # the integral from tb[0] to each end: a prefix sum and the partial segment
            P = np.r_[0.0, np.cumsum(_segments(tb[:-1], e[:-1], wb[:-1], tb[1:], e[1:], wb[1:]))]
            F = P[j] + _segments(tb[j], e[j], wb[j], x, ex, wx)
            S = np.maximum(F[1] - F[0], 0.0)
        with np.errstate(divide="ignore", over="ignore"):  # log(0) = -inf: 0 there
            L = (np.maximum if cfg.form == "sup" else np.add)(L, np.exp(b * (end - t) + np.log(S)))
    return L


def compute_V(cfg: MonitorConfig, x, L, cert: LinearSystem):
    """Lyapunov-Krasovskii value at one time stamp, or at each row of ``x`` for an array ``L``,
    under the quadratic certificate of ``cert``: S(x) = x^T P x, rho(r) = c_rho r^2 with
    c_rho = 2|PB|^2/lam_min(Q).

    sup form:      S(x) + (2/b) * integral 0..2L of rho(r)/r dr = S(x) + (2/b) c_rho (2L)^2 / 2
    integral form: S(x) + 2 * c_rho * L, the linear-case functional
                   (the L coefficient is 4|PB|^2/lam_min(Q))
    """
    L = np.asarray(L, dtype=float)
    if (L < 0).any():
        raise MonitorError("L must be nonnegative")
    s_val, pb = cert.S(np.atleast_1d(np.asarray(x, dtype=float))), cert.PB_norm
    c = 2.0 * pb * pb / cert.lam_min_Q
    if cfg.form == "integral":
        V = s_val + 2.0 * c * L
    else:  # float_power is libm's pow, as float ** is
        V = np.where(L == 0.0, s_val, s_val + (2.0 / cfg.b) * c * np.float_power(2.0 * L, 2) / 2.0)
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


def decay_report(times, V, t0: float, mu: Optional[float] = None) -> DecayReport:
    """Decay diagnostics for sampled V values on [t0, T].

    Reports the worst positive finite-difference increment of V after t0 and,
    when mu is given (linear runs), compares the least-squares slope of log V
    against -0.9 mu: the guaranteed rate with a fixed 10% slack.  With no
    finite V after t0, as on a diverged run whose monitor was skipped, nothing
    is evaluated: the report has ``n_points == 0`` and is not at equilibrium.
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
            slope_ok = slope <= -0.9 * mu
    return DecayReport(False, max_inc, slope, mu, slope_ok, int(len(vs)))
