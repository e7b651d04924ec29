"""Communication-convergence trade-off for the linear case.

With theta = nu^2 and Q = q I scaled out through P1 = P / q, both the dwell
bound delta and the exponential rate mu become explicit functions of nu.  The
aggregate J(nu) = lambda*delta + (1-lambda)*mu is maximized by the positive
root of a cubic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .model import LinearSystem, solve_lyapunov, spectral_norm
from .trigger import min_dwell

__all__ = [
    "TradeoffConstants",
    "NuStar",
    "delta_of_nu",
    "mu_of_theta",
    "mu_of_nu",
    "aggregate_J",
    "optimize_nu",
    "sweep",
    "NU_MAX",
    "NU_EPS",
]

NU_MAX = math.sqrt(2.0)
NU_EPS = 1e-6


@dataclass(frozen=True)
class TradeoffConstants:
    """Constants of the delta/mu closed forms.

    a = M2 L_f L_K, c = M2 L_f (1 + L_K); P1 solves the Lyapunov equation
    with Q = I.
    """

    a: float
    c: float
    lam_max_P1: float
    PB1: float
    K_norm: float

    def __post_init__(self):
        if min(self.a, self.c, self.lam_max_P1, self.PB1, self.K_norm) <= 0:
            raise DomainError("all trade-off constants must be positive")
        if self.c <= self.a:
            raise DomainError("c must exceed a (c - a = M2*L_f > 0)")

    @staticmethod
    def from_linear_system(sys: LinearSystem, M2: float = 1.0) -> "TradeoffConstants":
        L_f = sys.L_f
        L_K = sys.K_norm
        P1 = solve_lyapunov(sys.A_cl, np.eye(sys.n))
        return TradeoffConstants(
            a=M2 * L_f * L_K,
            c=M2 * L_f * (1.0 + L_K),
            lam_max_P1=float(np.linalg.eigvalsh(P1)[-1]),
            PB1=spectral_norm(P1 @ sys.B),
            K_norm=L_K,
        )


def delta_of_nu(consts: TradeoffConstants, nu: float) -> float:
    """Dwell bound delta(nu): ``min_dwell(a, c, R)`` with R = nu/(|P1 B||K|)."""
    if nu <= 0:
        raise DomainError("nu must be positive")
    return min_dwell(consts.a, consts.c, nu / (consts.PB1 * consts.K_norm))


def mu_of_theta(theta: float, lam_min_Q: float, lam_max_P: float) -> float:
    """Guaranteed exponential rate mu = (2 - theta) lam_min(Q) / (4 lam_max(P))."""
    return (2.0 - theta) * lam_min_Q / (4.0 * lam_max_P)


def mu_of_nu(consts: TradeoffConstants, nu: float) -> float:
    """Exponential rate mu(nu) = (2 - nu^2)/(4 lam_max(P1)), ``mu_of_theta`` with Q = I."""
    if not 0.0 < nu < NU_MAX:
        raise DomainError("nu must lie in (0, sqrt(2)) for a positive rate")
    return mu_of_theta(nu * nu, 1.0, consts.lam_max_P1)


def aggregate_J(consts: TradeoffConstants, lam: float, nu: float) -> float:
    return lam * delta_of_nu(consts, nu) + (1.0 - lam) * mu_of_nu(consts, nu)


@dataclass(frozen=True)
class NuStar:
    nu: float
    flag: str  # "interior" | "boundary" | "degenerate" | "clipped"


def optimize_nu(consts: TradeoffConstants, lam: float) -> NuStar:
    """Positive real root of the stationarity cubic of J, clipped to (0, sqrt(2)).

    lam = 0 collapses the constant term (root at 0, all weight on mu);
    lam = 1 zeroes every nu-dependent coefficient (no root, delta saturates).
    """
    if not 0.0 <= lam <= 1.0:
        raise DomainError("lambda must lie in [0, 1]")
    if lam == 0.0:
        return NuStar(NU_EPS, "boundary")
    if lam == 1.0:
        return NuStar(NU_MAX - NU_EPS, "degenerate")
    g = consts.PB1 * consts.K_norm
    c3 = consts.a * (1.0 - lam)
    c2 = (consts.a + consts.c) * g * (1.0 - lam)
    c1 = consts.c * g * g * (1.0 - lam)
    c0 = -2.0 * consts.lam_max_P1 * g * lam
    roots = np.roots([c3, c2, c1, c0])
    real = [float(r.real) for r in roots if abs(r.imag) <= 1e-9 * (1.0 + abs(r)) and r.real > 0]
    if not real:
        raise DomainError("stationarity cubic has no positive real root")
    nu = min(real)  # the cubic has exactly one sign change, so one positive root
    if nu >= NU_MAX - NU_EPS:
        return NuStar(NU_MAX - NU_EPS, "clipped")
    return NuStar(nu, "interior")


def sweep(consts: TradeoffConstants, nu_grid, lambda_grid):
    """Tables behind the trade-off curves.

    Returns ``(nu_rows, lambda_rows)`` where nu_rows are
    ``(nu, delta(nu), mu(nu))`` and lambda_rows are
    ``(lambda, nu_star, flag)``.
    """
    nu_rows = [
        (float(nu), delta_of_nu(consts, float(nu)), mu_of_nu(consts, float(nu)))
        for nu in nu_grid
    ]
    lam_rows = []
    for lam in lambda_grid:
        res = optimize_nu(consts, float(lam))
        lam_rows.append((float(lam), res.nu, res.flag))
    return nu_rows, lam_rows
