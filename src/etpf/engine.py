"""Fixed-step hybrid simulation loop.

One run couples the Euler-discretized plant, the actuation channel, the
sampled/delayed sensing channel, the incremental predictor, the event trigger,
and (optionally) the Lyapunov monitor.  Everything is deterministic given the
configuration, including seeds.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import os
import pickle
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .channel import ActuationDelay, SensingConfig, node_of
from .exceptions import ConfigurationError
from .model import LinearSystem, SystemModel, euler
from .monitor import MonitorConfig, compute_L, compute_V, compute_w
from .predictor import NodeGrid, anchor_state, lift_table, make_predictor
from .trigger import (EventLog, TriggerConfig, check_and_fire, decide, fill_norms, first_crossing,
                      threshold)

__all__ = ["SensingConfig", "SimConfig", "SimTrace", "run", "heatmap"]


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
    cert: Optional[LinearSystem] = None  # the system whose P certifies the loop
    linear: Optional[LinearSystem] = None
    ctrl_delay: Optional[ActuationDelay] = None  # nominal channel model, if mismatched
    u_prehistory: float = 0.0  # constant control on [phi(0), 0]
    monitor: Optional[MonitorConfig] = None
    divergence_threshold: float = 1e9

    def __post_init__(self):
        # comparisons that NaN fails
        if not 0 < self.h < self.T < math.inf:
            raise ConfigurationError(f"need 0 < h < T < inf, got h = {self.h}, T = {self.T}")
        # the run ends on node T / h, so node_of must place T on one (T / h may overflow)
        if not (self.T / self.h < math.inf and node_of(self.T, self.h)[1]):
            raise ConfigurationError(f"T = {self.T} is not a whole number of steps "
                                     f"h = {self.h}")
        if not 0 < self.divergence_threshold < math.inf:
            raise ConfigurationError("divergence_threshold must be positive and finite")
        if not abs(self.u_prehistory) < math.inf:
            raise ConfigurationError("u_prehistory must be finite")
        object.__setattr__(
            self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)).copy()
        )
        if self.x0.shape != (self.model.state_dim,):
            raise ConfigurationError("x0 dimension does not match the model")
        if not np.isfinite(self.x0).all():
            raise ConfigurationError("x0 must be finite")
        if self.cert is None and self.monitor is not None:
            raise ConfigurationError("the monitor needs an ISS certificate (cert)")

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
        write_csv(path, header, self.times, self.x, self.u, self.p, self.e_norm, self.threshold,
                  self.V, self.L, self.event_flags, self.delivery_flags)

    def write_events_csv(self, path) -> None:
        from .csvout import write_csv
        header = ["k", "t_k", "dwell", "p_norm", "e_pre_reset", "u_1"]
        t_k = np.array(self.events.event_times, dtype=float)
        P = self.p[self.event_flags == 1]
        write_csv(path, header, np.arange(len(t_k)), t_k, np.diff(t_k, prepend=math.nan),
                  np.sqrt(np.vecdot(P, P)), self.events.e_pre_reset, self.events.event_controls)

    def summary(self) -> str:
        d = self.diagnostics.get("divergence")
        cause = (" ({bound} bound, {phase}, step {step}, t = {t:.6g})\nstopped before any "
                 "control reached the plant: {before_control}".format(**d) if d else "")
        lines = [
            f"final |x(T)| = {self.final_state_norm:.6g}",
            f"events: {self.events.count}, min dwell = {self.events.min_dwell_observed:.6g}",
            f"exact trigger checks: {self.diagnostics.get('exact_trigger_checks', 0)}",
            f"t0 = {self.t0:.6g}",
            f"diverged: {self.diverged}{cause}",
            f"max |w| after t0: {self.diagnostics.get('w_max_after_t0', float('nan')):.3e}",
        ]
        rep = self.diagnostics.get("decay_report")
        if rep is not None:
            lines.append(str(rep))
        return "\n".join(lines)


class _Diverged(Exception):
    """The engine's divergence stop, with the bound that fired and the phase it fired in."""


def run(cfg: SimConfig) -> SimTrace:
    """Simulate one run and return the full trace."""
    model, h = cfg.model, cfg.h
    N = node_of(cfg.T, h)[0]  # on its node: SimConfig checks it
    times = np.arange(N + 1) * h
    n = model.state_dim

    true_delay = cfg.delay

    # -- control history: U[k], a float, is the control in force at node k h and
    # u_pre the one before t = 0; the rows change only at the log's events
    U = [0.0] * (N + 1)  # u = 0 from t = 0 until the first state arrives
    u_pre = float(cfg.u_prehistory)
    log = EventLog()
    # the grid places phi(0): the pre-history runs from node `first`, phi(0)'s slot
    grid = NodeGrid(cfg.controller_delay, h, U, u_pre, log.event_times, log.event_nodes)
    phi0, first = grid.phi0, grid.first

    deliveries, dv_nodes, adopt = cfg.sensing.adoptions(cfg.T, h, N)
    t0 = (t0_idx := dv_nodes[0]) * h
    if t0_idx == 0:
        U[0] = u_pre  # the pre-history control holds until the event at t = 0

    # the plant reads the true delay's tables, on the controller's slots
    if true_delay == grid.delay:
        tables = grid.tables
    elif true_delay.phi(0.0) < phi0:
        raise ConfigurationError(
            "the plant's delay at t = 0 exceeds the controller's: u is undefined there"
        )
    else:
        tables = true_delay.grid_tables(h, grid.lo + 1, N)
    rows_true = tables.rows

    # -- predictor and the pre-history grid [phi(0), 0) -------------------
    predictor = make_predictor(cfg.predictor_method, model, grid, linear=cfg.linear)
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

    X[0], x = cfg.x0, tuple(cfg.x0.tolist())  # the state, a tuple of floats
    # flat views of X and P: two float stores cost a quarter of a numpy row write from a tuple
    two, Xm, Pm = n == 2, memoryview(X).cast("B").cast("d"), memoryview(P).cast("B").cast("d")
    divergence = None

    # a closed-loop predictor's replay chain (README, "One Euler chain"): the plant reads its
    # rows after an anchor on a row of X under the plant's delay (`replayed`; the pre-history
    # anchors at X[0]), and a two-state run takes advance's one-node step on it (`fused`)
    own = replay = predictor.replayed and true_delay == grid.delay
    inline = two and predictor.fused
    targets, rows_c, lo = grid.tables.targets if inline else None, grid.tables.rows, grid.lo
    d = next(adopted := iter([*adopt, N + 1]))  # the node of the next adopted delivery
    step, done = 0, N + 1  # U rows [0, done) are the trace's u; the rest is zeroed on divergence
    f, K, advance, record = model.f, model.K, predictor.advance, log.record
    trig, nan, exact, pe = cfg.trigger, math.nan, 0, None  # exact: rows decide() left
    rho = trig.rho_bar  # every mode's threshold is rho_bar |p|; pe is p(t_k), a tuple
    # the divergence rule (README, "Divergence"): |x| and |p| bounded, NaN failing both;
    # hypot of the floats is a fraction of the cost of a numpy dot for short vectors
    bound, p_bound = cfg.divergence_threshold, 1e3 * cfg.divergence_threshold

    # a predictor with blocks and the plant its linear system built: once events have
    # started, the steps between deliveries and crossings run as blocks
    lifted = None
    if predictor.block is not None and model._linear is cfg.linear:
        dv_steps, hb = [*adopt, N, N], h * cfg.linear.B[:, 0]  # the adoptions, then the end
        Gx = lift_table((np.eye(n) + h * cfg.linear.A).tobytes())  # x_i = M^i x + S_i h B u

        def lifted(s: int, pe: tuple) -> int:
            """Commit rows after s through the next adopted delivery up to a crossing from ``pe``,
            the next delivery or a bound; the row back (README, "Block stepping of linear runs")."""
            d, d2 = dv_steps[(q := bisect_right(dv_steps, s))], dv_steps[q + 1]
            if (L := predictor.span(s, d2 - s)) < 3:
                return s  # a row and the one handed back: the loop's own steps
            # the rows ahead hold U[s]; the plant's are lifts of one control each, a new one
            # where its control row passes node 0 or an event node
            U[s + 1 : s + L + 1], k, nodes = [U[s]] * L, s, log.event_nodes
            j0, j1 = rows_true[s], rows_true[s + L - 1]
            for e in [0, *nodes[bisect_right(nodes, j0) : bisect_right(nodes, j1)], N + 1]:
                if (m := min(bisect_left(rows_true, e, k), s + L)) > k:
                    xu = np.concatenate((X[k], hb * (U[j] if (j := rows_true[k]) >= 0 else u_pre)))
                    X[k + 1 : m + 1] = (Gx[: (m - k) * n] @ xu).reshape(m - k, n)
                    k = m
            if inside := d < s + L:  # re-anchored on the rows ahead, with the events up to s
                p_d = predictor.anchored(tau := adopt[d], anchor_state(X, tau, h)[0], d)
            Pr = predictor.block(s, L, d, p_d) if inside else predictor.block(s, L)
            ok = np.sqrt(np.vecdot(Xr := X[s + 1 : s + L + 1], Xr)) <= bound  # NaN too
            ok &= (Pn := np.sqrt(np.vecdot(Pr, Pr))) <= p_bound  # the rows' |p|, as in fill_norms
            L = L if ok.all() else int(ok.argmin())
            if L < 2:
                return s
            c, e_n = first_crossing(pe, Pr[: L - 1], thr := rho * Pn[: L - 1])
            r = s + 1 + c
            P[s + 1 : r], E[s + 1 : r], TH[s + 1 : r] = Pr[:c], e_n[:c], thr[:c]
            predictor.set_p(Pr[c])
            if inside and r >= d:
                del adopt[d]  # the rows hold its re-anchor: the loop's next adoption is d2
            return r

    try:
        with np.errstate(over="ignore", invalid="ignore"):
            # the pre-history: p at each of pre_times, then the advances onto t = 0; an
            # overflow (a float power past the range) is a divergence in its phase, as below
            try:
                predictor.reanchor(0.0, cfg.x0, first)
                if lifted:  # as block rows of u_pre
                    pre = np.vstack((predictor.p, predictor.rows(first, 0)))  # nodes first .. 0
                    ok = np.sqrt(np.vecdot(pre, pre)) <= p_bound
                    m = len(pre_p) if ok.all() else int(ok.argmin())  # the rows within the bound
                    pre_p[:m] = pre[:m]
                    if m < len(pre_p):
                        raise _Diverged("prediction", "pre-history")
                else:
                    for i, k in enumerate(range(first, 0)):
                        if not math.hypot(*(p := predictor.p)) <= p_bound:
                            raise _Diverged("prediction", "pre-history")
                        pre_p[i] = p
                        advance(k)
            except OverflowError:
                raise _Diverged("prediction", "pre-history") from None
            # p and p_n: the current prediction and its |p|, for the bound and the trigger
            if not (p_n := math.hypot(*(p := predictor.p))) <= p_bound:
                raise _Diverged("prediction", "pre-history")
            # the chain state (ClosedLoopPredictor), read again after each re-anchor
            chain, c0, f_k = ((predictor._chain, predictor._c0, predictor._f_k) if replay or inline
                              else ([], 0, None))

            # one row loop: the re-anchor at an adopted delivery, the trigger, the plant step
            # and the advance, or a linear block through the rows ahead
            while True:
                if step == d:  # an adopted delivery
                    tau, d = adopt[step], next(adopted)
                    x_a, on = anchor_state(X, tau, h)
                    if inline:
                        predictor._f_k = f_k
                    try:
                        predictor.reanchor(tau, x_a, step)
                    except OverflowError:
                        raise _Diverged("prediction", "re-anchor") from None
                    if replay or inline:  # the chain the re-anchor left
                        chain, c0, f_k = predictor._chain, predictor._c0, predictor._f_k
                    own = on and replay
                    if not (p_n := math.hypot(*(p := predictor.p))) <= p_bound:
                        raise _Diverged("prediction", "re-anchor")

                if two:
                    Pm[2 * step], Pm[2 * step + 1] = p
                else:
                    P[step] = p

                if step >= t0_idx:
                    e_n = nan  # the norms of a row decide() settles come after the loop
                    if (fired := pe and decide(pe, p, rho, p_n)) is None:
                        exact += 1  # the first check, a near tie or an extreme norm
                        TH[step] = thr = threshold(trig, p)
                        fired, e_n = check_and_fire(pe, p, thr)
                        E[step] = 0.0 if fired else e_n
                    if fired:
                        try:
                            U[step] = control = K(p)
                        except OverflowError:  # |p| within its bound, K(p) past the float range
                            raise _Diverged("prediction", "control") from None
                        record(step * h, control, e_n, step)
                        pe = p

                if step == N:
                    break
                if lifted and pe and (r := lifted(step, pe)) > step:
                    step, x, p = r, tuple(X[r].tolist()), predictor.p
                    p_n, d = math.hypot(*p), next(adopted) if d <= r and d not in adopt else d
                    continue
                # the plant step with the delayed control u(phi(t)), or the chain's row
                if own and 0 <= (c := step + 1 - c0) < len(chain):
                    x = chain[c]
                else:
                    try:
                        fx = f(x, U[j] if (j := rows_true[step]) >= 0 else u_pre)
                    except OverflowError:
                        raise _Diverged("plant", "plant step") from None
                    x = (x[0] + h * fx[0], x[1] + h * fx[1]) if two else euler(x, h, fx)
                if not math.hypot(*x) <= bound:
                    raise _Diverged("plant", "plant step")
                if two:
                    Xm[2 * step + 2], Xm[2 * step + 3] = x
                else:
                    X[step + 1] = x
                U[step + 1] = U[step]
                # advance(step), or on a two-state chain its one-node case here: the kept f_k
                # onto node kt - 1, then the partial step onto sigma
                try:
                    if inline and not (t := targets[step + 1 - lo])[2] and f_k is not None \
                            and (kt := t[1]) == c0 + len(chain) + 1:
                        xk = chain[-1]
                        chain.append(xk := (xk[0] + h * f_k[0], xk[1] + h * f_k[1]))
                        fx = f(xk, U[j] if (j := rows_c[kt - 1]) >= 0 else u_pre)
                        f_k, dt = fx if j <= step else None, t[0] - (kt - 1) * h
                        p = (xk[0] + dt * fx[0], xk[1] + dt * fx[1])
                    else:
                        if inline:
                            predictor._f_k = f_k
                        advance(step)
                        p, f_k = predictor.p, predictor._f_k if inline else None
                except OverflowError:
                    raise _Diverged("prediction", "advance") from None
                if not (p_n := math.hypot(*p)) <= p_bound:
                    raise _Diverged("prediction", "advance")
                step += 1
    except _Diverged as stop:
        # the one divergence exit: keep the trace up to this step and hold the last state
        # before_control: the stop came before sigma(t0), where the first control reaches the plant
        divergence = dict(zip(("bound", "phase"), stop.args), step=step, t=step * h,
                          before_control=step * h < float(tables[0][t0_idx - grid.lo]))
        X[step + 1 :] = X[step]
        done = step + (stop.args[1] in ("plant step", "advance"))  # after the row's trigger
        U[done:] = [0.0] * (N + 1 - done)

    # delivery flags on the rows the loop reached
    reached = -1 if divergence is not None and divergence["phase"] == "pre-history" else step
    dv_flags[dv_nodes[: bisect_right(dv_nodes, reached)]] = 1.0
    ev_flags[ev := np.array(log.event_nodes, dtype=np.intp)] = 1.0
    fill_norms(P, E, TH, ev, t0_idx, done, rho, log.e_pre_reset)  # of the rows decide() settled
    # w = u - K(p(t_k)) on the rows from t0 up to `done`, where K(p(t_k)) is the row of the
    # last event at or before: 0 while the held rows keep the event's control
    u = np.array(U)
    held = ev[np.searchsorted(ev, np.arange(t0_idx, done), "right") - 1]
    w_max_after_t0 = float(np.abs(u[t0_idx:done] - u[held]).max(initial=0.0))

    trace = SimTrace(
        times=times,
        x=X,
        u=u,
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
            "exact_trigger_checks": exact,
        },
    )

    if cfg.monitor is not None and divergence is None:
        _attach_monitor(trace, cfg, grid, tables[0])
    return trace


def _attach_monitor(trace: SimTrace, cfg: SimConfig, grid: NodeGrid, sig: np.ndarray) -> None:
    """Fill V and L at the stride: one ``compute_L`` over the w history, one ``compute_V``.
    ``sig`` is sigma of the plant's delay on the slots of the controller's ``grid``."""
    mon, lo = cfg.monitor, grid.lo
    # w: u_pre at phi(0) and the pre-history nodes, row k at node k h, 0 from t0 on; the
    # stamps' images from the plant's table after sigma(phi(0)), which is 0, or at most 0
    # under a mismatched delay (a root solve may round it above)
    k0, K = node_of(trace.t0, trace.h)[0], cfg.model.K
    w_u = [grid.u_pre] * len(trace.pre_p) + grid.U[:k0]
    p_held = map(tuple, np.concatenate([trace.pre_p, trace.p[:k0]]).tolist())
    w = [compute_w(u, p, K) for u, p in zip(w_u, p_held)]
    tau0 = 0.0 if cfg.delay == grid.delay else min(cfg.delay.sigma(grid.phi0), 0.0)
    taus = np.concatenate([[tau0], sig[grid.first + 1 - lo : k0 + 1 - lo]])
    steps = np.arange(0, len(trace.times), mon.stride)  # L is 0 from sigma(t0) on
    L = compute_L(mon, taus, w + [0.0], trace.times[steps], sig[steps - lo])
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
    as an unknown predictor method, propagates.  Every cell's ``SensingConfig``
    is built before any cell runs, so a negative ``d_psi`` or a ``delta_tau``
    that is not positive raises ``ConfigurationError`` first, as do an empty
    or nested grid, an ``n_ic`` that is not an integer >= 1 and a ``seed``
    that is not a nonnegative integer.

    With ``workers > 1`` the cells run in a process pool, which needs what is
    sent to the workers to pickle: ``config_factory`` when one is given, else
    ``base_cfg``.  Every preset config does, and so does a YAML-built one;
    one that does not, such as a config whose delay ``phi`` is a lambda,
    raises ``ConfigurationError`` naming the field before any cell runs.
    An error raised in a worker propagates.
    """
    if isinstance(n_ic, bool) or not isinstance(n_ic, numbers.Integral) or n_ic < 1:
        raise ConfigurationError(f"n_ic must be an integer >= 1, got {n_ic!r}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ConfigurationError(f"seed must be a nonnegative integer, got {seed!r}")
    for name, grid in (("delta_tau_grid", delta_tau_grid), ("d_psi_grid", d_psi_grid)):
        if np.ndim(grid) != 1 or len(grid) == 0:
            raise ConfigurationError(f"{name} must be a nonempty list of numbers")
    cells = [(i, j, SensingConfig(delta_tau=float(dt), d_psi=float(dp)))
             for i, dt in enumerate(delta_tau_grid) for j, dp in enumerate(d_psi_grid)]
    rng = np.random.default_rng(seed)
    ics = rng.standard_normal((n_ic, base_cfg.model.state_dim))

    if workers is None:
        raw = os.environ.get("ETPF_THREADS", "0")
        if not raw.strip().isdecimal():
            raise ConfigurationError(f"ETPF_THREADS must be a nonnegative integer, not {raw!r}")
        workers = int(raw) or os.cpu_count() or 1

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
                pool.submit(_heatmap_cell, cell_cfg, config_factory, sensing, ics): (i, j)
                for i, j, sensing in cells
            }
            for fut, (i, j) in futs.items():
                result[i, j] = fut.result()
        return result

    for i, j, sensing in cells:
        result[i, j] = _heatmap_cell(cell_cfg, config_factory, sensing, ics)
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


def _heatmap_cell(base_cfg, config_factory, sensing, ics) -> float:
    if base_cfg is None:
        base_cfg = config_factory()
    total = 0.0
    for x0 in ics:
        cfg = dataclasses.replace(base_cfg, sensing=sensing, x0=x0, monitor=None)
        tr = run(cfg)
        cap = cfg.divergence_threshold
        total += min(tr.final_state_norm, cap) if not tr.diverged else cap
        del tr  # else the next run's peak holds this trace too
    return total / len(ics)
