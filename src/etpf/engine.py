"""Fixed-step hybrid simulation loop.

One run couples the Euler-discretized plant, the actuation channel, the
sampled/delayed sensing channel, the incremental predictor, the event trigger,
and (optionally) the Lyapunov monitor.  Everything is deterministic given the
configuration, including seeds.
"""

from __future__ import annotations

import dataclasses
import math
import os
import pickle
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .channel import ActuationDelay, SensingSchedule, node_of
from .exceptions import ConfigurationError
from .model import ISSCertificate, LinearSystem, SystemModel, lift
from .monitor import MonitorConfig, compute_L, compute_V, compute_w
from .predictor import LIFT, NodeGrid, make_predictor
from .signals import TimedSignal
from .trigger import EventLog, TriggerConfig, check_and_fire, first_crossing, threshold

__all__ = ["SensingConfig", "SimConfig", "SimTrace", "run", "heatmap"]


@dataclass(frozen=True)
class SensingConfig:
    """Sensing channel: periodic transmissions or idealized continuous feedback."""

    mode: str = "periodic"  # "periodic" | "perfect"
    delta_tau: float = 1.0
    d_psi: Optional[float] = None
    mu_psi: Optional[float] = None
    sigma_psi: Optional[float] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if self.mode not in ("periodic", "perfect"):
            raise ConfigurationError(f"unknown sensing mode {self.mode!r}")
        if self.mode == "periodic":
            if self.delta_tau <= 0:
                raise ConfigurationError("delta_tau must be positive")
            if self.d_psi is None and (self.mu_psi is None or self.sigma_psi is None):
                raise ConfigurationError(
                    "periodic sensing needs d_psi or (mu_psi, sigma_psi)"
                )

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


@dataclass(frozen=True)
class SimConfig:
    model: SystemModel
    delay: ActuationDelay
    sensing: SensingConfig
    trigger: TriggerConfig
    x0: np.ndarray
    h: float = 1e-2
    T: float = 25.0
    predictor_method: str = "closed-loop"
    cert: Optional[ISSCertificate] = None
    linear: Optional[LinearSystem] = None
    ctrl_delay: Optional[ActuationDelay] = None  # nominal channel model, if mismatched
    u_prehistory: float = 0.0  # constant control on [phi(0), 0]
    monitor: Optional[MonitorConfig] = None
    divergence_threshold: float = 1e9
    label: str = ""

    def __post_init__(self):
        if self.h <= 0 or self.T <= self.h:
            raise ConfigurationError("need 0 < h < T")
        object.__setattr__(
            self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)).copy()
        )
        if self.x0.shape != (self.model.state_dim,):
            raise ConfigurationError("x0 dimension does not match the model")

    @property
    def controller_delay(self) -> ActuationDelay:
        return self.ctrl_delay if self.ctrl_delay is not None else self.delay


@dataclass
class SimTrace:
    times: np.ndarray
    x: np.ndarray
    u: np.ndarray
    p: np.ndarray
    e_norm: np.ndarray
    threshold: np.ndarray
    V: np.ndarray
    L: np.ndarray
    event_flags: np.ndarray
    delivery_flags: np.ndarray
    events: EventLog
    deliveries: list  # (ell, tau_ell, delivery_time, grid_time)
    t0: float
    h: float
    diagnostics: dict = field(default_factory=dict)
    # back-extension of the prediction on [phi(0), 0), for the monitor
    pre_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    pre_p: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))

    @property
    def diverged(self) -> bool:
        return self.diagnostics.get("divergence") is not None

    @property
    def final_state_norm(self) -> float:
        return float(np.linalg.norm(self.x[-1]))

    def write_trace_csv(self, path) -> None:
        from .csvout import write_csv  # loaded at the first write, like scipy: a faster `import etpf`
        n = self.x.shape[1]
        header = (
            ["t"]
            + [f"x_{i+1}" for i in range(n)]
            + ["u_1"]
            + [f"p_{i+1}" for i in range(n)]
            + ["e_norm", "threshold", "V", "L", "event_flag", "delivery_flag"]
        )
        cols = np.column_stack([self.times, self.x, self.u, self.p, self.e_norm, self.threshold,
                                self.V, self.L, self.event_flags, self.delivery_flags])
        write_csv(path, header, cols)

    def write_events_csv(self, path) -> None:
        from .csvout import write_csv
        header = ["k", "t_k", "dwell", "p_norm", "e_pre_reset", "u_1"]
        t_k = np.array(self.events.event_times, dtype=float)
        cols = np.full((len(t_k), 6), math.nan)
        cols[:, 0] = np.arange(len(t_k))
        cols[:, 1] = t_k
        cols[:, 2] = np.diff(t_k, prepend=math.nan)
        for c, key in ((3, "event_p_norms"), (4, "event_e_pre")):
            vals = self.diagnostics.get(key, [])[: len(t_k)]
            cols[: len(vals), c] = vals
        cols[:, 5] = self.events.event_controls
        write_csv(path, header, cols)

    def summary(self) -> str:
        d = self.diagnostics.get("divergence")
        cause = " ({bound} bound, {phase}, step {step}, t = {t:.6g})".format(**d) if d else ""
        lines = [
            f"final |x(T)| = {self.final_state_norm:.6g}",
            f"events: {self.events.count}, min dwell = {self.events.min_dwell_observed:.6g}",
            f"t0 = {self.t0:.6g}",
            f"diverged: {self.diverged}{cause}",
            f"max |w| after t0: {self.diagnostics.get('w_max_after_t0', float('nan')):.3e}",
        ]
        rep = self.diagnostics.get("decay_report")
        if rep is not None:
            lines.append(str(rep))
        return "\n".join(lines)


def _node_grid(delay: ActuationDelay, h: float, m_lo: int, N: int, U, u_pre,
               events: list) -> NodeGrid:
    """The delay's grid tables (``ActuationDelay.grid_tables``) for one run over ``U``,
    ``u_pre`` and the event times ``events``.

    The float lookups ``sigma`` and ``sigma_dot`` read the table entry of a
    time that ``node_of`` places on a node from m_lo on, or of phi(0) (slot
    0), and solve any other query directly.
    """
    tables = delay.grid_tables(h, m_lo, N)
    sig, sdot = tables[:2]
    phi0 = delay.phi(0.0)

    def lookup(table, last, solve):
        def fn(s: float) -> float:
            k, on = node_of(s, h)
            if on and m_lo <= k <= last:
                return float(table[k - (m_lo - 1)])
            return float(table[0]) if s == phi0 else solve(s)

        return fn

    sigma_fn = lookup(sig, N + 1, delay.sigma)
    sigma_dot_fn = lookup(sdot, N, lambda s: delay.sigma_dot(s, h))
    return NodeGrid(h=h, lo=m_lo - 1, tables=tables, sig=sig, sdot=sdot, rows=tables.rows, U=U,
                    u_pre=u_pre, sigma=sigma_fn, sigma_dot=sigma_dot_fn, events=events)


class _Diverged(Exception):
    """The engine's divergence stop, with the bound that fired and the phase it fired in."""


def _adoptions(sensing: SensingConfig, T: float, h: float, N: int):
    """``(deliveries, nodes, adopt)``: the deliveries ``(ell, tau, delivery_time, grid_time)``
    up to node N, the sorted delivery nodes and the adoption table: ``adopt[k]`` is the
    freshest transmit time delivered at node k, kept iff it is at least as fresh as the last
    one kept.  Perfect sensing delivers at every node and adopts k h from node 1 on."""
    sched = sensing.schedule(T)
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


def run(cfg: SimConfig) -> SimTrace:
    """Simulate one run and return the full trace."""
    model = cfg.model
    h = cfg.h
    N = int(round(cfg.T / h))
    times = np.arange(N + 1) * h
    n = model.state_dim

    true_delay = cfg.delay
    ctrl_delay = cfg.controller_delay
    phi0 = float(ctrl_delay.phi(0.0))
    m_lo, on = node_of(phi0, h)
    first = m_lo - (not on)  # the pre-history's first advance, from phi(0)
    if first >= 0:
        raise ConfigurationError("the channel must have positive delay at t = 0")

    deliveries, dv_nodes, adopt = _adoptions(cfg.sensing, cfg.T, h, N)
    t0 = (t0_idx := dv_nodes[0]) * h

    # -- control history: U[k] is the control in force at node k h and
    # u_pre the one before t = 0; the rows change only at the log's events
    U = np.zeros(N + 1)  # u = 0 from t = 0 until the first state arrives
    u_pre = float(cfg.u_prehistory)
    if t0_idx == 0:
        U[0] = u_pre  # the pre-history control holds until the event at t = 0
    log = EventLog()

    grid = _node_grid(ctrl_delay, h, m_lo, N, U, u_pre, log.event_times)
    if true_delay is ctrl_delay:
        true_grid = grid
    elif true_delay.phi(0.0) < phi0:
        raise ConfigurationError(
            "the plant's delay at t = 0 exceeds the controller's: u is undefined there"
        )
    else:
        true_grid = _node_grid(true_delay, h, m_lo, N, U, u_pre, log.event_times)
    rows_true = true_grid.rows

    # -- predictor and the pre-history grid [phi(0), 0) -------------------
    predictor = make_predictor(cfg.predictor_method, model, ctrl_delay, grid, linear=cfg.linear)
    pre_times = np.array([phi0] + [k * h for k in range(first + 1, 0)])
    pre_p = np.full((len(pre_times), n), np.nan)

    # -- allocate the trace ----------------------------------------------
    X = np.empty((N + 1, n))
    P = np.full((N + 1, n), np.nan)
    E = np.zeros(N + 1)
    TH = np.full(N + 1, np.nan)
    V = np.full(N + 1, np.nan)
    Lv = np.full(N + 1, np.nan)
    ev_flags = np.zeros(N + 1)
    dv_flags = np.zeros(N + 1)

    X[0] = cfg.x0
    event_p_norms: list[float] = []
    event_e_pre: list[float] = []
    p_last_event: Optional[np.ndarray] = None
    w_max_after_t0 = 0.0
    divergence = None

    # the closed-loop replay from a row of X, under the plant's own delay object (`is`, not
    # ==, on purpose), holds the plant's next rows (README, "One Euler chain"); the
    # pre-history anchors at X[0]
    own = shared = cfg.predictor_method == "closed-loop" and true_delay is ctrl_delay
    replayed = predictor.replayed if shared else None
    step = 0
    done = 0  # U rows [0, done) are the trace's u; the rest is zeroed on divergence
    x, f, advance = X[0], model.f, predictor.advance
    # the divergence rule (README, "Divergence"): |x| and |p| bounded, NaN failing both;
    # hypot of the floats is a fraction of the cost of a numpy dot for short vectors
    bound, p_bound = cfg.divergence_threshold, 1e3 * cfg.divergence_threshold

    # a linear plant, the closed-form predictor and the threshold rho_bar |p|: once
    # events have started, the steps between breakpoints run as blocks
    lifted = blk = None
    if (cfg.predictor_method == "linear-closed-form" and model._linear is cfg.linear
            and cfg.trigger.mode != "nonlinear"):
        dv_steps, hb = dv_nodes + [N], h * cfg.linear.B[:, 0]
        Gx = lift(np.eye(n) + h * cfg.linear.A, LIFT)  # x_i = M^i x + S_i h B u

        def lifted(s: int, x) -> int:
            """Commit the rows after s up to a breakpoint (README, "Block stepping of linear
            runs"), a trigger crossing or a bound; return the row handed back, with x, p and
            U set."""
            ev, j = log.event_times, rows_true[s]
            i = bisect_right(ev, j * h)
            limit = 0 if j < 0 else min(round(ev[i] / h), s + 1) if i < len(ev) else s + 1
            end = min(bisect_left(rows_true, limit, s), dv_steps[bisect_right(dv_steps, s)])
            if end - s < 2:  # one row: the loop's own step
                return s
            Pr = predictor.block(s, N - s)
            L = min(len(Pr), end - s)
            u = hb * (U[j] if j >= 0 else u_pre)
            Xr = (Gx[: L * n] @ np.concatenate((x, u))).reshape(L, n)
            ok = np.sqrt((Xr * Xr).sum(axis=1)) <= bound  # NaN too
            ok &= np.sqrt((Pr[:L] * Pr[:L]).sum(axis=1)) <= p_bound
            L = L if ok.all() else int(ok.argmin())
            if L < 2:
                return s
            c, e_n, thr = first_crossing(p_last_event, Pr[: L - 1], cfg.trigger.rho_bar)
            r = s + 1 + c
            X[s + 1 : r + 1], U[s + 1 : r + 1] = Xr[: c + 1], U[s]
            P[s + 1 : r], E[s + 1 : r], TH[s + 1 : r] = Pr[:c], e_n[:c], thr[:c]
            predictor.p = Pr[c]
            return r

    try:
        # the pre-history: p at each of pre_times, then one advance onto t = 0
        predictor.reanchor(0.0, cfg.x0, phi0)
        for i, k in enumerate(range(first, 0)):
            if not math.hypot(*(p := predictor.p).tolist()) <= p_bound:
                raise _Diverged("prediction", "pre-history")
            pre_p[i] = p
            predictor.advance(k)
        if not math.hypot(*(p := predictor.p).tolist()) <= p_bound:
            raise _Diverged("prediction", "pre-history")

        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                t = step * h
                if (tau := adopt.get(step)) is not None:  # the adoption table
                    k, on = node_of(tau, h)  # snapped: a 1-ulp overshoot reads no unwritten row
                    lam = (tau - (k - 1) * h) / h
                    predictor.reanchor(tau, X[k] if on else (1.0 - lam) * X[k - 1] + lam * X[k], t)
                    own = shared and on
                    if not math.hypot(*(p := predictor.p).tolist()) <= p_bound:
                        raise _Diverged("prediction", "re-anchor")

                p_now = predictor.p
                P[step] = p_now

                if step >= t0_idx:
                    thr = threshold(cfg.trigger, p_now, cfg.cert)
                    TH[step] = thr
                    fired, e_n = check_and_fire(p_last_event, p_now, thr)
                    if fired:
                        control = model.K(p_now)
                        log.record(t, control)
                        event_p_norms.append(math.sqrt(p_now.dot(p_now)))
                        event_e_pre.append(e_n)
                        U[step] = control
                        p_last_event, blk = p_now.copy(), lifted
                        ev_flags[step] = 1.0
                        # w-identity diagnostic: w vanishes once events have
                        # started; U and p_last_event change only at events
                        w = compute_w(U[step], p_last_event, model.K)
                        w_max_after_t0 = max(w_max_after_t0, abs(w))
                    else:
                        E[step] = e_n
                done = step + 1

                if step == N:
                    break
                if blk is not None and (r := blk(step, x)) > step:
                    step, x = r, X[r]
                    continue
                # plant Euler step with the delayed control u(phi(t)), or the replay's row
                if own and (xr := replayed(step + 1)) is not None:
                    x = xr
                else:
                    j = rows_true[step]
                    x = x + h * f(x, U[j] if j >= 0 else u_pre)
                if not math.hypot(*x.tolist()) <= bound:
                    raise _Diverged("plant", "plant step")
                X[step + 1] = x
                U[step + 1] = U[step]
                advance(step)
                if not math.hypot(*(p := predictor.p).tolist()) <= p_bound:
                    raise _Diverged("prediction", "advance")
                step += 1
    except _Diverged as stop:
        # the one divergence exit: keep the trace up to this step and hold the last state
        divergence = dict(zip(("bound", "phase"), stop.args), step=step, t=step * h)
        X[step + 1 :] = X[step]
        U[done:] = 0.0

    # delivery flags on the rows the loop reached
    reached = -1 if divergence is not None and divergence["phase"] == "pre-history" else step
    dv_flags[dv_nodes[: bisect_right(dv_nodes, reached)]] = 1.0

    trace = SimTrace(
        times=times,
        x=X,
        u=U,
        p=P,
        e_norm=E,
        threshold=TH,
        V=V,
        L=Lv,
        event_flags=ev_flags,
        delivery_flags=dv_flags,
        events=log,
        deliveries=deliveries,
        t0=t0,
        h=h,
        pre_times=pre_times,
        pre_p=pre_p,
        diagnostics={
            "divergence": divergence,
            "final_step": step,
            "w_max_after_t0": w_max_after_t0,
            "event_p_norms": event_p_norms,
            "event_e_pre": event_e_pre,
        },
    )

    if cfg.monitor is not None and cfg.cert is not None and divergence is None:
        _attach_monitor(trace, cfg, true_grid, true_delay)
    return trace


def _attach_monitor(trace: SimTrace, cfg: SimConfig, grid: NodeGrid, delay) -> None:
    """Fill V and L at the stride: one ``compute_L`` per window node count, one ``compute_V``."""
    mon, t0, h = cfg.monitor, trace.t0, trace.h

    # disturbance history: nonzero only before t0, where u is u_pre on the pre-history
    # nodes (all before t = 0) and row k at node k h
    k0, K = node_of(t0, h)[0], cfg.model.K
    w_times = np.concatenate([trace.pre_times, trace.times[:k0]])
    w_u = [grid.u_pre] * len(trace.pre_times) + grid.U[:k0].tolist()
    w = [compute_w(u, p, K) for u, p in zip(w_u, np.concatenate([trace.pre_p, trace.p[:k0]]))]
    tail = [t0] if w_times[-1] < t0 else []  # pre_times holds phi(0) at least
    tail.append(float(trace.times[-1]) + 1.0)
    w_hist = TimedSignal(np.concatenate([w_times, tail]), w + [0.0] * len(tail))

    # L is 0 from sigma(t0) on
    steps = np.arange(0, len(trace.times), mon.stride)
    t, sig = trace.times[steps], grid.sig[steps - grid.lo]
    n_nodes = np.maximum(2, np.rint((sig - t) / h).astype(int) + 1)
    live, L = t < grid.sig[k0 - grid.lo], np.zeros(len(steps))
    for n in sorted(set(n_nodes[live].tolist())):  # not np.unique, which imports numpy.ma
        m = live & (n_nodes == n)
        L[m] = compute_L(mon, w_hist, t[m], sig[m], delay.phi, n_nodes=n)
    trace.L[steps], trace.V[steps] = L, compute_V(mon, trace.x[steps], L, cfg.cert)


def heatmap(
    base_cfg: SimConfig,
    delta_tau_grid,
    d_psi_grid,
    n_ic: int,
    seed: int,
    workers: Optional[int] = None,
    config_factory=None,
) -> np.ndarray:
    """Average |x(T)| per (delta_tau, d_psi) cell over seeded initial states.

    The same initial-condition draws are reused in every cell for paired
    comparison.  Diverged runs contribute the saturation value, the config's
    ``divergence_threshold``, which also caps |x(T)|; every other error, such
    as an unknown predictor method, propagates.  A negative ``d_psi`` raises
    ``ConfigurationError`` before any cell runs, as ``SensingSchedule`` would.

    With ``workers > 1`` the cells run in a process pool, which needs what is
    sent to the workers to pickle: ``config_factory`` when one is given, else
    ``base_cfg``.  Every preset config does, and so does a YAML-built one;
    one that does not, such as a config whose delay ``phi`` is a lambda,
    raises ``ConfigurationError`` naming the field before any cell runs.
    An error raised in a worker propagates.
    """
    if n_ic < 1:
        raise ConfigurationError("n_ic must be at least 1")
    delta_tau_grid = [float(v) for v in delta_tau_grid]
    d_psi_grid = [float(v) for v in d_psi_grid]
    if not all(v >= 0 for v in d_psi_grid):  # NaN too
        raise ConfigurationError(f"sensing delays d_psi must be nonnegative: {d_psi_grid}")
    rng = np.random.default_rng(seed)
    ics = rng.standard_normal((n_ic, base_cfg.model.state_dim))

    if workers is None:
        raw = os.environ.get("ETPF_THREADS", "0")
        if not raw.strip().isdecimal():
            raise ConfigurationError(f"ETPF_THREADS must be a nonnegative integer, not {raw!r}")
        workers = int(raw) or os.cpu_count() or 1

    cells = [(i, j, dt, dp) for i, dt in enumerate(delta_tau_grid)
             for j, dp in enumerate(d_psi_grid)]
    result = np.empty((len(delta_tau_grid), len(d_psi_grid)))

    cell_cfg = base_cfg if config_factory is None else None
    if workers > 1:
        bad = (_unpicklable("base_cfg", base_cfg) if config_factory is None
               else _unpicklable("config_factory", config_factory))
        if bad is not None:
            raise ConfigurationError(f"heatmap on {workers} workers: {bad} does not pickle; "
                                     "use workers=1 or a module-level callable")
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futs = {
                pool.submit(_heatmap_cell, cell_cfg, config_factory, dt, dp, ics): (i, j)
                for i, j, dt, dp in cells
            }
            for fut, (i, j) in futs.items():
                result[i, j] = fut.result()
        return result

    for i, j, dt, dp in cells:
        result[i, j] = _heatmap_cell(cell_cfg, config_factory, dt, dp, ics)
    return result


def _unpicklable(name: str, obj) -> Optional[str]:
    """None if ``obj`` pickles, else the dotted name of its innermost dataclass field that
    does not, ``name`` itself if no field is to blame."""
    try:
        pickle.dumps(obj)
    except (pickle.PicklingError, AttributeError, TypeError):
        fields = dataclasses.fields(obj) if dataclasses.is_dataclass(obj) else ()
        bad = (_unpicklable(f"{name}.{f.name}", getattr(obj, f.name)) for f in fields)
        return next((b for b in bad if b is not None), name)
    return None


def _heatmap_cell(base_cfg, config_factory, delta_tau, d_psi, ics) -> float:
    if base_cfg is None:
        base_cfg = config_factory()
    sensing = dataclasses.replace(
        base_cfg.sensing, mode="periodic", delta_tau=delta_tau,
        d_psi=d_psi if d_psi > 0 else 0.0, mu_psi=None, sigma_psi=None,  # -0.0 -> 0.0
    )
    total = 0.0
    for x0 in ics:
        cfg = dataclasses.replace(base_cfg, sensing=sensing, x0=x0, monitor=None)
        tr = run(cfg)
        cap = cfg.divergence_threshold
        total += min(tr.final_state_norm, cap) if not tr.diverged else cap
    return total / len(ics)
