"""Actuation-delay and sensing-channel models.

The actuation channel is described by a strictly increasing map ``phi``: a
control generated at time t is applied to the plant at time ``sigma(t) =
phi^{-1}(t)``, so ``t - phi(t)`` is the delay experienced at plant time t.
The sensing channel delivers the state sampled at transmission time
``tau_ell`` to the controller after a (possibly random) delay.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .exceptions import ChannelModelError, ConfigurationError

# brentq tolerances of sigma; the scalar and the array solve share them, so
# both end on the same double
_XTOL, _RTOL = 1e-14, 1e-15
SNAP = 1e-9  # in steps: the band of node_of
TABLES_MAX = 16  # entries of the process-wide cache of grid tables

__all__ = ["ActuationDelay", "GridTables", "SensingConfig", "SensingSchedule", "node_of",
           "nodes_of"]


@dataclass(frozen=True)
class ActuationDelay:
    """Known actuation delay map with its bound data.

    ``M0`` bounds the delay ``t - phi(t)``; ``m2 <= dphi/dt <= M1``, so
    ``M2 = 1 / m2`` bounds the slope of sigma.  ``phi`` takes a float or an
    ndarray, with the same bits per element: tables and monitor use arrays.
    Delays compare and hash by value; the built-in shapes' ``phi`` are
    frozen dataclasses or a module-level function, so equal shapes are equal
    and pickle, while any other callable compares by identity.
    """

    phi: Callable
    M0: float
    M1: float
    m2: float

    def __post_init__(self):
        if not (0 < self.M0 < math.inf and 0 < self.M1 < math.inf and self.m2 > 0):  # NaN too
            raise ConfigurationError("delay bounds must be positive and finite")
        if self.m2 > self.M1:
            raise ConfigurationError("m2 must not exceed M1")

    @property
    def M2(self) -> float:
        return 1.0 / self.m2

    # -- common channel shapes -------------------------------------------

    @staticmethod
    def constant(D: float) -> "ActuationDelay":
        if D <= 0:
            raise ConfigurationError("constant delay must be positive")
        return ActuationDelay(phi=_ConstantPhi(D), M0=D, M1=1.0, m2=1.0)

    @staticmethod
    def example1() -> "ActuationDelay":
        """Bump-shaped delay peaking at t = 5: delay = ((t-5)^2+2)/(2(t-5)^2+2)."""
        wig = 3.0 * math.sqrt(3.0) / 16.0
        return ActuationDelay(phi=_example1_phi, M0=1.0, M1=1.0 + wig, m2=1.0 - wig)

    @staticmethod
    def sinusoidal(D: float, a: float) -> "ActuationDelay":
        """Delay D + a*sin(t); requires a < min(D, 1)."""
        if not 0 <= a < min(D, 1.0):
            raise ConfigurationError("need 0 <= a < min(D, 1) for a valid channel")
        return ActuationDelay(phi=_SinusoidalPhi(D, a), M0=D + a, M1=1.0 + a, m2=1.0 - a)

    @staticmethod
    def from_table(times: Sequence[float], delays: Sequence[float]) -> "ActuationDelay":
        """Piecewise-linear delay profile from (t, delay) pairs."""
        t = np.asarray(times, dtype=float)
        d = np.asarray(delays, dtype=float)
        if t.ndim != 1 or t.shape != d.shape or len(t) < 2:
            raise ConfigurationError("table needs matching 1-d arrays, length >= 2")
        if np.any(np.diff(t) <= 0):
            raise ConfigurationError("table times must be strictly increasing")
        if np.any(d <= 0):
            raise ConfigurationError("table delays must be positive")
        # np.interp holds the delay flat outside the table: phi has slope 1 there too
        slopes = np.append(np.diff(d) / np.diff(t), 0.0)
        M1 = float(1.0 - slopes.min())
        m2 = float(1.0 - slopes.max())
        if m2 <= 0:
            raise ConfigurationError("delay table implies non-increasing phi")
        return ActuationDelay(phi=_TablePhi(tuple(t.tolist()), tuple(d.tolist())),
                              M0=float(d.max()), M1=M1, m2=m2)

    # -- inverse map ------------------------------------------------------

    def sigma(self, t):
        """Solve ``phi(s) = t`` by bracketed root finding, for a float or a 1-d array.

        The bracket ``[t, t + 2 M0]`` is guaranteed by the delay bounds; a
        violated bracket means the channel does not satisfy its declared
        bounds.  A float is solved by scipy's ``brentq``, an array in one
        pass of ``_brentq_array``, the same iteration element by element, so
        both give the same bits.
        """
        phi = self.phi
        array = np.ndim(t) > 0
        t = np.asarray(t, dtype=float) if array else float(t)
        lo, hi = t, t + 2.0 * self.M0
        flo, fhi = phi(lo) - t, phi(hi) - t
        # a float is checked by plain comparisons, far cheaper than numpy's on a scalar
        outside = (flo > 0) | (fhi < 0)
        if outside.any() if array else outside:
            i = np.argmax(outside)
            raise ChannelModelError(
                f"bracket [{np.ravel(lo)[i]}, {np.ravel(hi)[i]}] does not contain "
                f"sigma({np.ravel(t)[i]}); declared delay bounds are violated"
            )
        if array:
            s = _brentq_array(phi, t, lo, hi, flo, fhi)
        elif flo == 0.0:
            return lo
        else:
            from scipy.optimize import brentq
            # brentq's wrapper is a reference cycle: let it hold phi, not self
            s = float(brentq(lambda v: phi(v) - t, lo, hi, xtol=_XTOL, rtol=_RTOL))
        off = abs(phi(s) - t) > 1e-12 * (1.0 + abs(t))
        if off.any() if array else off:
            raise ChannelModelError(f"sigma({np.ravel(t)[np.argmax(off)]}) did not converge")
        return s

    def sigma_dot(self, t: float, h: float) -> float:
        """Centered finite difference of sigma with spacing ``h``."""
        lo = t - h
        if lo < self.phi(0.0):
            # one-sided at the left boundary of sigma's domain
            return (self.sigma(t + h) - self.sigma(t)) / h
        return (self.sigma(t + h) - self.sigma(lo)) / (2.0 * h)

    @lru_cache(maxsize=TABLES_MAX)
    def grid_tables(self, h: float, m_lo: int, N: int) -> "GridTables":
        """``(sig, sdot, j_k)`` on the grid of step h, one solve per key.

        ``sig`` and ``sdot`` hold sigma and its centered difference (one-sided
        at m_lo) at the nodes m h, m in [m_lo, N + 1]; ``sdot`` has none at
        N + 1.  Slot 0, node m_lo - 1, holds sigma(phi(0)) and the one-sided
        difference there instead: the pre-history starts at phi(0), which lies
        in (node m_lo - 1, node m_lo] unless ``node_of`` snaps it onto node
        m_lo.  ``j_k[k]``, for k from 0 past the last sigma node, is the index
        of the last node of ``0, h, ..., N h`` at or before phi(k h), snapped
        by ``node_of``'s rule so a 1-ulp offset cannot pick up a stale control
        value, and -1 in the pre-history: a control that only changes at nodes
        takes its value at phi(k h) from node ``j_k[k]``.  The key is the
        delay's value (its ``M0`` fixes the brackets) with ``(h, m_lo, N)``:
        one process-wide cache of ``TABLES_MAX`` entries serves every run on an
        equal delay.
        """
        phi0 = self.phi(0.0)
        # one solve for phi(0), every node from m_lo on and phi(0) + h
        solved = self.sigma(np.concatenate([[phi0], np.arange(m_lo, N + 2) * h, [phi0 + h]]))
        sig = solved[:-1]
        sdot = np.full(len(sig), math.nan)
        # sigma_dot(phi0, h) is one-sided: the same expression
        sdot[0] = (solved[-1] - sig[0]) / h
        sdot[1] = (sig[2] - sig[1]) / h
        sdot[2:-1] = (sig[3:] - sig[1:-2]) / (2.0 * h)
        # the node phi(k h) is placed on, or the one below the first node above it
        node, on = nodes_of(self.phi(np.arange(int(sig[-1] / h) + 2) * h), h)
        j_k = np.clip(node - ~on, -1, N)
        return GridTables(h, (sig, sdot, j_k))


# -- the built-in delay shapes: data, so that delays compare by value and pickle


@dataclass(frozen=True)
class _ConstantPhi:
    D: float

    def __call__(self, t):
        return t - self.D


def _example1_phi(t):
    # libm pow, as Python's float ** is: numpy's ** 2 squares, which
    # rounds differently on some inputs
    s2 = np.float_power(t - 5.0, 2.0)
    return t - (s2 + 2.0) / (2.0 * s2 + 2.0)


@dataclass(frozen=True)
class _SinusoidalPhi:
    D: float
    a: float

    def __call__(self, t):
        return t - self.D - self.a * np.sin(t)


@dataclass(frozen=True)
class _TablePhi:
    times: tuple
    delays: tuple

    def __post_init__(self):  # np.interp would convert the tuples on every call
        object.__setattr__(self, "_xp", (np.asarray(self.times), np.asarray(self.delays)))

    def __call__(self, s):
        return s - np.interp(s, *self._xp)


class GridTables(tuple):
    """``(sig, sdot, j_k)`` of ``ActuationDelay.grid_tables`` on the grid of
    step ``h``, shared by every run on the key: the arrays are read-only, and the
    tuples that runs read element by element are built from them on first use."""

    def __new__(cls, h: float, arrays):
        for a in arrays:
            a.flags.writeable = False
        self = super().__new__(cls, arrays)
        self.h = h
        return self

    @cached_property
    def rows(self) -> tuple:
        """``j_k`` as ints: ``NodeGrid.rows``."""
        return tuple(self[2].tolist())

    @cached_property
    def sigs(self) -> tuple:
        """``sig`` as floats."""
        return tuple(self[0].tolist())

    @cached_property
    def step_keys(self) -> tuple[list, list]:
        """``LinearPredictor``'s advance keys ``round(dsig, 14)`` of ``dsig = sig[i + 1] - sig[i]``,
        nondecreasing in dsig: the slots where the key changes, then the end, and each key's
        first dsig, 0.0 for key 0 (slot 0 snapped onto node m_lo, which no advance takes)."""
        u = np.unique(d := np.diff(self[0]))
        keys = [round(v, 14) for v in u.tolist()]
        grp = np.searchsorted(u[1:][np.diff(keys) != 0], d, "right")
        runs = np.append(np.flatnonzero(np.diff(grp)) + 1, len(d)).tolist()
        dsigs = d[np.unique(grp, return_index=True)[1]].tolist()
        return runs, [v if round(v, 14) else 0.0 for v in dsigs]

    @cached_property
    def targets(self) -> tuple:
        """``(sig, k, on)`` per slot, ``(k, on)`` the ``node_of`` of sig."""
        kt, on = nodes_of(self[0], self.h)
        return tuple(zip(self.sigs, kt.tolist(), on.tolist()))


def node_of(t: float, h: float) -> tuple[int, bool]:
    """``(k, on)`` for a float time t on the grid of step h: ``on`` when t lies within
    ``SNAP`` steps of its nearest node k, which then stands for t, else k is the
    first node above t.  Every float time placed on the grid goes through here."""
    m = t / h
    k = round(m)
    if abs(m - k) < SNAP:
        return k, True
    return math.ceil(m), False


def nodes_of(t: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """``node_of`` element by element over an array of times: int array k, bool array on."""
    m = t / h
    k = np.round(m)  # half to even, as Python's round
    on = np.abs(m - k) < SNAP
    return np.where(on, k, np.ceil(m)).astype(int), on


def _brentq_array(phi, t, lo, hi, flo, fhi):
    """scipy's ``brentq`` (Brent 1973) element by element: ``phi(s_i) = t_i`` per element.

    ``[lo, hi]`` brackets each root and ``flo``, ``fhi`` are ``phi - t``
    there.  Each element takes the float operations of scipy's C loop
    (``brentq.c``: secant, inverse quadratic and bisection steps, tolerance
    tests) and leaves the active set once converged, so it ends on the double
    ``brentq`` returns.  That holds while the compiled loop does not fuse
    multiply-adds (checked on x86-64, scipy 1.17.1); TestArrayPaths in
    tests/test_channel.py compares the two on every host it runs on.  2,048
    elements at a time bound the temporaries.
    """
    maxiter, chunk = 100, 2048
    out = np.where(flo == 0, lo, hi)
    for c in range(0, len(t), chunk):
        act = c + np.flatnonzero((flo[c : c + chunk] != 0) & (fhi[c : c + chunk] != 0))
        tc = t[act]
        # rows: the previous iterate, the current one and the contrapoint
        x = np.stack([lo[act], hi[act], np.zeros(len(act))])
        fx = np.stack([flo[act], fhi[act], np.zeros(len(act))])
        steps = np.zeros((2, len(act)))  # the step before last and the last step
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for _ in range(maxiter):
                if not len(act):
                    break
                m = (fx[0] != 0) & (fx[1] != 0) & (np.signbit(fx[0]) != np.signbit(fx[1]))
                x[2, m], fx[2, m] = x[0, m], fx[0, m]
                steps[:, m] = x[1, m] - x[0, m]
                # the smaller |f| becomes the current iterate
                m = np.abs(fx[2]) < np.abs(fx[1])
                x[:, m], fx[:, m] = x[1:, m][[0, 1, 0]], fx[1:, m][[0, 1, 0]]
                delta = (_XTOL + _RTOL * np.abs(x[1])) / 2
                sbis = (x[2] - x[1]) / 2
                conv = (fx[1] == 0) | (np.abs(sbis) < delta)
                if conv.any():
                    out[act[conv]] = x[1, conv]
                    keep = ~conv
                    act, tc, delta, sbis = act[keep], tc[keep], delta[keep], sbis[keep]
                    x, fx, steps = x[:, keep], fx[:, keep], steps[:, keep]
                (xpre, xcur, xblk), (fpre, fcur, fblk) = x, fx
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = np.where(
                    xpre == xblk,
                    -fcur * (xcur - xpre) / (fcur - fpre),
                    -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)),
                )
                spre = np.abs(steps[0])
                good = ((spre > delta) & (np.abs(fcur) < np.abs(fpre))
                        & (2 * np.abs(stry) < np.minimum(spre, 3 * np.abs(sbis) - delta)))
                steps = np.where(good, np.stack([steps[1], stry]), sbis)
                step = np.where(np.abs(steps[1]) > delta, steps[1], np.where(sbis > 0, delta, -delta))
                x[0], fx[0] = xcur, fcur
                x[1] = xcur + step
                fx[1] = phi(x[1]) - tc
        if len(act):
            raise ChannelModelError(f"sigma({tc[0]}) did not converge in {maxiter} iterations")
    return out


@dataclass(frozen=True)
class SensingSchedule:
    """Periodic state transmissions with per-transmission delivery delay.

    Delivery times are drawn eagerly at construction (seeded), so the
    schedule is a pure table.  Deliveries may arrive out of order; the
    engine adopts the freshest transmission delivered so far.
    """

    transmit_times: np.ndarray
    delivery_times: np.ndarray

    def __post_init__(self):
        tx = np.asarray(self.transmit_times, dtype=float)
        dv = np.asarray(self.delivery_times, dtype=float)
        if tx.shape != dv.shape or tx.ndim != 1 or len(tx) == 0:
            raise ConfigurationError("transmit/delivery arrays must match, nonempty")
        if np.any(np.diff(tx) < 0):
            raise ConfigurationError("transmit times must be nondecreasing")
        if tx[0] != 0.0:
            raise ConfigurationError("first transmission must be at time 0")
        if np.any(dv < tx) or not np.all(np.isfinite(dv)):
            raise ConfigurationError("delivery times must be finite and causal")
        object.__setattr__(self, "transmit_times", tx)
        object.__setattr__(self, "delivery_times", dv)

    @staticmethod
    def periodic(
        delta_tau: float,
        horizon: float,
        d_psi: Optional[float] = None,
        mu_psi: Optional[float] = None,
        sigma_psi: Optional[float] = None,
        seed: Optional[int] = None,
    ) -> "SensingSchedule":
        """tau_ell = ell * delta_tau up to the horizon.

        Either a fixed delay ``d_psi`` or truncated Gaussian
        ``N(mu_psi, sigma_psi^2)`` (clipped at 0) per transmission.
        """
        if delta_tau <= 0:
            raise ConfigurationError("delta_tau must be positive")
        k, on = node_of(horizon, delta_tau)  # snapped: a quotient 1 ulp short keeps t = T
        n = k + on
        tx = np.arange(n) * delta_tau
        if d_psi is not None:
            dly = np.full(n, float(d_psi))
        elif mu_psi is not None and sigma_psi is not None:
            rng = np.random.default_rng(seed)
            dly = np.maximum(rng.normal(mu_psi, sigma_psi, size=n), 0.0)
        else:
            raise ConfigurationError("either d_psi or (mu_psi, sigma_psi) required")
        return SensingSchedule(tx, tx + dly)  # whose checks reject a negative delay


@dataclass(frozen=True)
class SensingConfig:
    """Sensing channel: periodic transmissions or idealized continuous feedback.  Its
    ``__post_init__`` is the one check of the sensing parameters; NaN fails it."""

    mode: str = "periodic"  # "periodic" | "perfect"
    delta_tau: float = 1.0
    d_psi: Optional[float] = None
    mu_psi: Optional[float] = None
    sigma_psi: Optional[float] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if self.mode not in ("periodic", "perfect"):
            raise ConfigurationError(f"unknown sensing mode {self.mode!r}")
        if self.mode == "perfect":
            return
        if not 0 < self.delta_tau < math.inf:
            raise ConfigurationError(f"delta_tau must be positive and finite, got {self.delta_tau}")
        if self.d_psi is not None:
            if not 0 <= self.d_psi < math.inf:
                raise ConfigurationError(f"sensing delay d_psi must be nonnegative and finite, "
                                         f"got {self.d_psi}")
        elif self.mu_psi is None or self.sigma_psi is None:
            raise ConfigurationError("periodic sensing needs d_psi or (mu_psi, sigma_psi)")
        elif not (abs(self.mu_psi) < math.inf and 0 <= self.sigma_psi < math.inf):
            raise ConfigurationError("mu_psi must be finite, sigma_psi nonnegative and finite")
        if not (self.seed is None or isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ConfigurationError(f"seed must be a nonnegative integer, got {self.seed!r}")

    def schedule(self, horizon: float) -> Optional[SensingSchedule]:
        if self.mode == "perfect":
            return None
        return SensingSchedule.periodic(
            self.delta_tau,
            horizon,
            d_psi=self.d_psi,
            mu_psi=self.mu_psi,
            sigma_psi=self.sigma_psi,
            seed=self.seed,
        )

    def adoptions(self, T: float, h: float, N: int):
        """``(deliveries, nodes, adopt)``: the deliveries ``(ell, tau, delivery_time, grid_time)``
        to node N, the sorted delivery nodes and ``adopt[k]``, the freshest transmit time
        delivered at node k, kept iff at least as fresh as the last one kept.  Perfect
        sensing delivers at every node and adopts k h from node 1 on."""
        sched = self.schedule(T)
        if sched is None:
            return [], list(range(N + 1)), {k: k * h for k in range(1, N + 1)}
        deliveries, freshest = [], {}  # transmit times are nondecreasing: the last at k is freshest
        for ell, (tau, dv) in enumerate(zip(sched.transmit_times.tolist(),
                                            sched.delivery_times.tolist())):
            if (k := node_of(dv, h)[0]) <= N:
                deliveries.append((ell, tau, dv, k * h))
                freshest[k] = tau
        if not deliveries:
            raise ConfigurationError("no sensing delivery inside the horizon")
        adopt, last, nodes = {}, 0.0, sorted(freshest)
        for k in nodes:
            if freshest[k] >= last:
                adopt[k] = last = freshest[k]
        return deliveries, nodes, adopt
