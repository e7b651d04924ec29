"""Plant models, feedback laws, and ISS certificates.

A :class:`SystemModel` couples a vector field ``f(x, u)`` with a stabilizing
feedback ``K(x)`` and the Lipschitz data the trigger analysis needs.  For
linear plants, :class:`LinearSystem` derives the quadratic certificate from a
Lyapunov-equation solve.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .exceptions import ConfigurationError, NumericalError

__all__ = [
    "SystemModel",
    "ISSCertificate",
    "LinearSystem",
    "lift",
    "eval_f",
    "solve_lyapunov",
    "linear_certificate",
    "verify_certificate",
    "CertificateReport",
    "spectral_norm",
]


def spectral_norm(M) -> float:
    """Spectral norm via the symmetric eigensolve of the Gram matrix."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    w = np.linalg.eigvalsh(M.T @ M)
    return math.sqrt(max(float(w[-1]), 0.0))


@dataclass(frozen=True)
class SystemModel:
    """Single-input plant ``xdot = f(x, u)`` with feedback law ``K``.

    ``u`` is a float: ``f`` takes one and ``K`` returns one.  ``L_f`` is a
    Lipschitz bound of ``f`` on the operating region (supplied by the user
    for nonlinear plants); ``L_K`` is the global Lipschitz constant of ``K``.
    """

    state_dim: int
    f: Callable[[np.ndarray, float], np.ndarray]
    K: Callable[[np.ndarray], float]
    L_f: float
    L_K: float
    # the LinearSystem whose to_model() built this model, so f is the system's own
    # even once a wrapper that times it (perfbench's tracer) replaces it
    _linear = None

    def __post_init__(self):
        if self.state_dim < 1:
            raise ConfigurationError("state_dim must be positive")
        if self.L_f < 0 or self.L_K < 0:
            raise ConfigurationError("Lipschitz bounds must be nonnegative")
        x0 = np.zeros(self.state_dim)
        if np.linalg.norm(np.asarray(self.f(x0, 0.0), dtype=float)) > 1e-12:
            raise ConfigurationError("f(0, 0) must vanish (equilibrium at the origin)")
        if abs(float(self.K(x0))) > 1e-12:
            raise ConfigurationError("K(0) must vanish")


def eval_f(model: SystemModel, x, u: float) -> np.ndarray:
    """Evaluate the plant vector field with a dimension check on the state."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (model.state_dim,):
        raise ConfigurationError(
            f"state has shape {x.shape}, expected ({model.state_dim},)"
        )
    return np.atleast_1d(np.asarray(model.f(x, float(u)), dtype=float))


@dataclass(frozen=True)
class ISSCertificate:
    """ISS-Lyapunov data (S, alpha1, alpha2, gamma, rho) with inverses.

    ``rho_quad_coeff`` is set when ``rho(r) = c * r**2`` so downstream code can
    use the closed form of ``integral rho(r)/r dr``.
    """

    S: Callable[[np.ndarray], float]
    grad_S: Callable[[np.ndarray], np.ndarray]
    alpha1: Callable[[float], float]
    alpha2: Callable[[float], float]
    gamma: Callable[[float], float]
    rho: Callable[[float], float]
    gamma_inv: Callable[[float], float]
    rho_inv: Callable[[float], float]
    integrable_flag: bool = True
    rho_quad_coeff: Optional[float] = None


@dataclass(frozen=True)
class LinearSystem:
    """Linear single-input plant ``xdot = A x + B u`` with gain ``K_gain`` and certificate P.

    ``B`` is one column and ``K_gain`` one row.  ``P`` solves
    ``(A + B K)^T P + P (A + B K) = -Q`` and is derived at construction.
    """

    A: np.ndarray
    B: np.ndarray
    K_gain: np.ndarray
    Q: np.ndarray
    P: np.ndarray = field(init=False)

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        n = A.shape[0]
        if np.size(self.B) != n or np.size(self.K_gain) != n:
            raise ConfigurationError(f"a single-input plant needs B of {n} x 1 and K of 1 x {n}")
        B = np.asarray(self.B, dtype=float).reshape(n, 1)
        K = np.asarray(self.K_gain, dtype=float).reshape(1, n)
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "K_gain", K)
        object.__setattr__(self, "Q", Q)
        P = solve_lyapunov(A + B @ K, Q)
        object.__setattr__(self, "P", P)
        A_cl = A + B @ K
        resid = A_cl.T @ P + P @ A_cl + Q
        if np.max(np.abs(resid)) > 1e-9 * (1.0 + spectral_norm(Q)):
            raise NumericalError("Lyapunov residual exceeds tolerance")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def A_cl(self) -> np.ndarray:
        return self.A + self.B @ self.K_gain

    @property
    def PB_norm(self) -> float:
        return spectral_norm(self.P @ self.B)

    @property
    def K_norm(self) -> float:
        return spectral_norm(self.K_gain)

    @property
    def lam_min_Q(self) -> float:
        return float(np.linalg.eigvalsh(self.Q)[0])

    @property
    def lam_min_P(self) -> float:
        return float(np.linalg.eigvalsh(self.P)[0])

    @property
    def lam_max_P(self) -> float:
        return float(np.linalg.eigvalsh(self.P)[-1])

    @property
    def L_f(self) -> float:
        # Default Lipschitz bound for the trade-off constants.
        return math.sqrt(2.0) * (spectral_norm(self.A) + spectral_norm(self.B))

    def f(self, x, u: float) -> np.ndarray:
        return self.A @ x + self.B[:, 0] * u

    def K(self, x) -> float:
        return (self.K_gain @ x)[0]

    def S(self, x):
        """x^T P x, for one state or each row of an array of states, with the same bits."""
        return np.vecdot(x @ self.P, x)

    def grad_S(self, x) -> np.ndarray:
        return 2.0 * (self.P @ np.asarray(x))

    def to_model(self) -> SystemModel:
        model = SystemModel(state_dim=self.n, f=self.f, K=self.K, L_f=self.L_f, L_K=self.K_norm)
        object.__setattr__(model, "_linear", self)
        return model


def lift(M: np.ndarray, L: int) -> np.ndarray:
    """``[M^i | S_i]`` for i = 1..L stacked as (L n, 2 n), S_i = sum_{r<i} M^r: row block
    i of ``lift(M, L) @ [y; c]`` is the i-th iterate of ``y -> M y + c``."""
    n = len(M)
    G = np.empty((L, n, 2 * n))
    Mi, S = np.eye(n), np.zeros((n, n))
    for i in range(L):
        S = S + Mi
        Mi = Mi @ M
        G[i, :, :n], G[i, :, n:] = Mi, S
    return G.reshape(L * n, 2 * n)


def solve_lyapunov(A_cl, Q) -> np.ndarray:
    """Solve ``A_cl^T P + P A_cl = -Q`` for symmetric positive definite P.

    The equation is vectorized into an ``n^2 x n^2`` linear system; the result
    is symmetrized after the solve.
    """
    A_cl = np.atleast_2d(np.asarray(A_cl, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    n = A_cl.shape[0]
    if A_cl.shape != (n, n) or Q.shape != (n, n):
        raise ConfigurationError("A_cl and Q must be square with matching size")
    if np.max(np.abs(Q - Q.T)) > 1e-10 * (1.0 + np.max(np.abs(Q))):
        raise ConfigurationError("Q must be symmetric")
    if np.linalg.eigvalsh(0.5 * (Q + Q.T))[0] <= 0:
        raise ConfigurationError("Q must be positive definite")
    if np.max(np.linalg.eigvals(A_cl).real) >= 0:
        raise NumericalError("A_cl is not Hurwitz: no positive-definite solution")
    M = np.kron(np.eye(n), A_cl.T) + np.kron(A_cl.T, np.eye(n))
    try:
        vec_p = np.linalg.solve(M, -Q.reshape(n * n))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - Hurwitz implies regular
        raise NumericalError("singular Lyapunov system") from exc
    P = vec_p.reshape(n, n)
    return 0.5 * (P + P.T)


def _quad(coeff: float, r: float) -> float:
    return coeff * r * r


def _quad_inv(coeff: float, y: float) -> float:
    return math.sqrt(max(y, 0.0) / coeff)


def _quad_pair(coeff: float):
    """(r -> coeff*r^2, inverse) with a guarded inverse for coeff > 0; picklable."""
    return partial(_quad, coeff), partial(_quad_inv, coeff)


def linear_certificate(sys: LinearSystem) -> ISSCertificate:
    """Quadratic ISS certificate from the Lyapunov solve; it pickles with ``sys``.

    S(x) = x^T P x (``LinearSystem.S``), alpha_i from the extreme eigenvalues
    of P, gamma(r) = lam_min(Q)/2 r^2, rho(r) = 2|PB|^2/lam_min(Q) r^2.
    """
    lam_min_q = sys.lam_min_Q
    pb = sys.PB_norm
    gamma, gamma_inv = _quad_pair(0.5 * lam_min_q)
    c_rho = 2.0 * pb * pb / lam_min_q
    rho, rho_inv = _quad_pair(c_rho)
    return ISSCertificate(
        S=sys.S,
        grad_S=sys.grad_S,
        alpha1=_quad_pair(sys.lam_min_P)[0],
        alpha2=_quad_pair(sys.lam_max_P)[0],
        gamma=gamma,
        rho=rho,
        gamma_inv=gamma_inv,
        rho_inv=rho_inv,
        integrable_flag=True,
        rho_quad_coeff=c_rho,
    )


@dataclass
class CertificateReport:
    passed: bool
    max_bound_violation: float
    max_decay_violation: float
    n_samples: int
    warnings: list = dataclasses.field(default_factory=list)


def verify_certificate(
    model: SystemModel,
    cert: ISSCertificate,
    sample_states,
    sample_disturbances,
    tol: float = 1e-9,
) -> CertificateReport:
    """Sampled check of the certificate inequalities.

    Verifies ``alpha1(|x|) <= S(x) <= alpha2(|x|)`` and
    ``grad_S(x) . f(x, K(x)+w) <= -gamma(|x|) + rho(|w|)`` on the given
    samples, whose disturbances ``w`` are floats.  Report-only: never
    raises on violations.
    """
    states = [np.atleast_1d(np.asarray(x, dtype=float)) for x in sample_states]
    dists = [float(w) for w in sample_disturbances]
    warnings = []
    if not states or not dists:
        warnings.append("empty sample set: vacuous pass")
        return CertificateReport(True, 0.0, 0.0, 0, warnings)
    max_bound = 0.0
    max_decay = 0.0
    count = 0
    for x in states:
        r = float(np.linalg.norm(x))
        s = float(cert.S(x))
        max_bound = max(max_bound, cert.alpha1(r) - s, s - cert.alpha2(r))
        for w in dists:
            g = eval_f(model, x, model.K(x) + w)
            lie = float(np.asarray(cert.grad_S(x)) @ g)
            max_decay = max(max_decay, lie + cert.gamma(r) - cert.rho(abs(w)))
            count += 1
    passed = max(max_bound, max_decay) <= tol
    return CertificateReport(passed, max_bound, max_decay, count, warnings)
