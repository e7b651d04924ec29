"""Plant models, feedback laws, the quadratic certificate, and the matrix exponential.

A :class:`SystemModel` couples a vector field ``f(x, u)`` with a stabilizing
feedback ``K(x)`` and the Lipschitz data the trigger analysis needs.  A
:class:`LinearSystem` derives the quadratic ISS-Lyapunov certificate
``S(x) = x^T P x`` from a Lyapunov-equation solve; a run reads it as its ``cert``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .exceptions import ConfigurationError, NumericalError

__all__ = [
    "SystemModel",
    "euler",
    "LinearSystem",
    "expm",
    "lift",
    "solve_lyapunov",
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

    A state is a tuple of ``state_dim`` floats and ``u`` a float: ``f`` returns a state,
    ``K`` a float.  ``L_f`` is a Lipschitz bound of ``f`` on the operating region (supplied
    by the user for nonlinear plants); ``L_K`` is the global Lipschitz constant of ``K``.
    """

    state_dim: int
    f: Callable[[tuple, float], tuple]
    K: Callable[[tuple], float]
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
        x0 = (0.0,) * self.state_dim
        if type(f0 := self.f(x0, 0.0)) is not tuple or len(f0) != self.state_dim:
            raise ConfigurationError(f"f must return a tuple of {self.state_dim} floats")
        if math.hypot(*f0) > 1e-12:
            raise ConfigurationError("f(0, 0) must vanish (equilibrium at the origin)")
        if abs(float(self.K(x0))) > 1e-12:
            raise ConfigurationError("K(0) must vanish")


def euler(x: tuple, dt: float, fx) -> tuple:
    """``x + dt * fx`` one element at a time: numpy's two IEEE operations per element."""
    if len(x) == 2:  # the presets' dimension, unrolled: a third of the comprehension's cost
        return (x[0] + dt * fx[0], x[1] + dt * fx[1])
    return tuple([a + dt * b for a, b in zip(x, fx)])


@dataclass(frozen=True)
class LinearSystem:
    """Linear single-input plant ``xdot = A x + B u`` with gain ``K_gain`` and certificate P.

    ``B`` is one column and ``K_gain`` one row.  ``P`` solves
    ``(A + B K)^T P + P (A + B K) = -Q`` and is derived at construction.  As a run's
    certificate it gives ``S(x) = x^T P x`` with ``gamma(r) = lam_min(Q)/2 r^2`` and
    ``rho(r) = 2|PB|^2/lam_min(Q) r^2``: the trigger and the monitor read these constants.
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
        if A.shape != (n, n) or not all(np.isfinite(M).all() for M in (A, B, K, Q)):
            raise ConfigurationError("A must be square, and A, B, K and Q finite")
        A_cl = A + B @ K
        try:
            P = solve_lyapunov(A_cl, Q)
        except NumericalError as exc:
            raise ConfigurationError(f"K does not stabilize the plant: {exc}") from None
        object.__setattr__(self, "P", P)
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
    def lam_max_P(self) -> float:
        return float(np.linalg.eigvalsh(self.P)[-1])

    @property
    def L_f(self) -> float:
        # Default Lipschitz bound for the trade-off constants.
        return math.sqrt(2.0) * (spectral_norm(self.A) + spectral_norm(self.B))

    def f(self, x, u: float) -> tuple:
        return tuple((self.A @ x + self.B[:, 0] * u).tolist())

    def K(self, x) -> float:
        return (self.K_gain @ x).item()

    def S(self, x):
        """x^T P x, for one state or each row of an array of states, with the same bits."""
        return np.vecdot(x @ self.P, x)

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


# Higham (2005), "The scaling and squaring method for the matrix exponential revisited": the
# largest 1-norm at which each Padé order 3, 5, 7, 9 and 13 reaches double precision, and
# the coefficients b_j = (2m - j)! / (j! (m - j)!) of each order m
THETAS = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1, 2.097847961257068,
          5.371920351148152)
PADE = [[math.factorial(2 * m - j) / (math.factorial(j) * math.factorial(m - j))
         for j in range(m + 1)] for m in (3, 5, 7, 9, 13)]


def _pade(X: np.ndarray, b: list) -> np.ndarray:
    """The Padé approximant of exp with coefficients b at each slice of the stack X,
    ``(V - U)^-1 (V + U)`` with U odd and V even in X; order 13 reads the powers up to X^6
    only (Higham 2005)."""
    m = len(b) - 1
    P = [np.eye(X.shape[-1]), X @ X]  # the even powers I, X^2, ... that the sums read
    while len(P) < (4 if m == 13 else m // 2 + 1):
        P.append(P[-1] @ P[1])
    odd = sum(b[2 * i + 1] * A for i, A in enumerate(P))
    even = sum(b[2 * i] * A for i, A in enumerate(P))
    if m == 13:  # X^6 times the terms of degree 8 to 13
        odd = odd + P[3] @ (b[13] * P[3] + b[11] * P[2] + b[9] * P[1])
        even = even + P[3] @ (b[12] * P[3] + b[10] * P[2] + b[8] * P[1])
    U = X @ odd
    return np.linalg.solve(even - U, even + U)


def expm(M: np.ndarray) -> np.ndarray:
    """The matrix exponential of each slice of the stack ``M`` (k, m, m), by scaling and
    squaring (Higham 2005).  A slice takes the lowest Padé order whose theta bounds its
    1-norm, else order 13 on the slice over 2^s, squared s times (the finite series if strictly
    upper triangular).  The slices of one (order, s), or series, go through one stacked evaluation
    whose every operation treats each slice alone: a slice's bits do not depend on the stack."""
    M = np.asarray(M, dtype=float)
    groups, nil = {}, (~np.tril(M).any(axis=(1, 2))).tolist()  # (order index, s) or None: slices
    for j, norm in enumerate(np.abs(M).sum(axis=1).max(axis=1).tolist()):
        mant, e = math.frexp(norm / THETAS[-1])  # s = ceil(log2(norm / theta_13)), 0 at least
        key = None if nil[j] else (min(bisect_left(THETAS, norm), 4), max(e - (mant == 0.5), 0))
        groups.setdefault(key, []).append(j)
    R = np.empty_like(M)
    for key, i in groups.items():
        if key is None:  # the sum of M^r / r!, r = 0 .. m - 1
            E = term = np.broadcast_to(np.eye(m := M.shape[-1]), (len(i), m, m))
            for r in range(1, m):
                E = E + (term := term @ M[i] / r)
        else:
            E = _pade(M[i] * 0.5 ** key[1], PADE[key[0]])
            for _ in range(key[1]):
                E = E @ E
        R[i] = E
    return R


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

