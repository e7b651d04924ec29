"""Command-line interface.

Subcommands: ``simulate`` (one run, full trace artifacts), ``heatmap``
(sensing-parameter sweep), ``tradeoff`` (linear-case trade-off tables), and
``verify`` (built-in smoke checks).  Exit codes: 0 success, 1 configuration
error, 2 divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import presets as presets_mod
from .config import apply_overrides, build_sim_config, load_config, read_section
from .csvout import render, write_csv
from .engine import SimConfig, heatmap, run
from .exceptions import ConfigurationError, ETPFError
from .monitor import decay_report
from .tradeoff import TradeoffConstants, mu_of_theta, optimize_nu, sweep
from .trigger import min_dwell, min_dwell_numeric

__all__ = ["main"]

_TRACE_GP = """\
# gnuplot script: state, control, and Lyapunov panels of one run
set datafile separator ","
set key autotitle columnhead
set multiplot layout 3,1
set ylabel "x"
plot "trace.csv" using 1:2 with lines, "" using 1:3 with lines
set ylabel "u"
plot "trace.csv" using 1:4 with steps
set ylabel "V"
set logscale y
plot "trace.csv" using 1:($10 > 0 ? $10 : 1/0) with points pt 7 ps 0.3
unset multiplot
"""

_HEATMAP_GP = """\
# gnuplot script: average final state norm over the sensing-parameter grid
set datafile separator ","
set key autotitle columnhead
set xlabel "delta_tau"
set ylabel "d_psi"
set view map
set logscale cb
splot "heatmap.csv" using 1:2:3 with points pt 5 ps 3 palette
"""

_TRADEOFF_GP = """\
# gnuplot script: trade-off curves delta(nu), mu(nu), and nu*(lambda)
set datafile separator ","
set key autotitle columnhead
set multiplot layout 2,1
set xlabel "nu"
plot "tradeoff_nu.csv" using 1:2 with lines title "delta", \\
     "tradeoff_nu.csv" using 1:3 with lines title "mu"
set xlabel "lambda"
set ylabel "nu*"
plot "tradeoff_lambda.csv" using 1:2 with linespoints
unset multiplot
"""


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _load_sim_config(args) -> SimConfig:
    data = load_config(args.config) if args.config else {}
    if args.preset:
        if data.get("preset", args.preset) != args.preset:
            raise ConfigurationError(f"--preset {args.preset} and the config's preset "
                                     f"{data['preset']!r} differ")
        data = {"preset": args.preset, **data}
    if not data:
        raise ConfigurationError("pass --preset and/or --config")
    return build_sim_config(apply_overrides(data, args.override))


def _cmd_simulate(args) -> int:
    cfg = _load_sim_config(args)
    os.makedirs(args.out, exist_ok=True)
    trace = run(cfg)

    mu = None  # a guaranteed rate: only the linear trigger has one
    if cfg.linear is not None and cfg.trigger.mode == "linear":
        mu = mu_of_theta(cfg.trigger.theta, cfg.linear.lam_min_Q, cfg.linear.lam_max_P)
    rep = decay_report(trace.times, trace.V, trace.t0, mu=mu)
    trace.diagnostics["decay_report"] = rep

    trace.write_trace_csv(os.path.join(args.out, "trace.csv"))
    trace.write_events_csv(os.path.join(args.out, "events.csv"))
    _write(os.path.join(args.out, "summary.txt"), trace.summary() + "\n")
    _write(os.path.join(args.out, "plot.gp"), _TRACE_GP)
    print(trace.summary())
    return 2 if trace.diverged else 0


def _cmd_heatmap(args) -> int:
    if args.config and args.preset or args.override and not args.config:
        raise ConfigurationError("heatmap takes --preset, or --config with any --override")
    if args.config:
        data = apply_overrides(load_config(args.config), args.override)
        # heatmap-ex1's cells, unless the config's heatmap section replaces them
        spec = dataclasses.replace(presets_mod.heatmap_ex1(),
                                   **read_section("heatmap", data.pop("heatmap", None)))
        base = build_sim_config(data)
    else:
        spec = presets_mod.get_preset(args.preset or "heatmap-ex1")
        if not isinstance(spec, presets_mod.HeatmapSpec):
            raise ConfigurationError(f"{args.preset!r} is not a heatmap preset")
        base = spec.base_factory()
    n_ic = spec.n_ic if args.n_ic is None else args.n_ic
    seed = spec.seed if args.seed is None else args.seed

    os.makedirs(args.out, exist_ok=True)
    mat = heatmap(base, spec.delta_tau_grid, spec.d_psi_grid, n_ic, seed)
    cells = [(dt, dp, mat[i, j]) for i, dt in enumerate(spec.delta_tau_grid)
             for j, dp in enumerate(spec.d_psi_grid)]
    write_csv(os.path.join(args.out, "heatmap.csv"), ["delta_tau", "d_psi", "avg_xT"], cells)
    _write(os.path.join(args.out, "plot.gp"), _HEATMAP_GP)
    print(f"wrote {len(cells)} cells to {args.out}/heatmap.csv")
    return 0


def _cmd_tradeoff(args) -> int:
    spec = presets_mod.get_preset(args.preset or "tradeoff")
    if not isinstance(spec, presets_mod.TradeoffSpec):
        raise ConfigurationError(f"{args.preset!r} is not a trade-off preset")
    consts = spec.constants()
    nu_rows, lam_rows = sweep(consts, spec.nu_grid, spec.lambda_grid)

    os.makedirs(args.out, exist_ok=True)
    write_csv(os.path.join(args.out, "tradeoff_nu.csv"), ["nu", "delta", "mu"], nu_rows)
    numbers = render([row[:2] for row in lam_rows]).decode().splitlines()
    _write(os.path.join(args.out, "tradeoff_lambda.csv"), "lambda,nu_star,flag\n"
           + "".join(f"{line},{flag}\n" for line, (_, _, flag) in zip(numbers, lam_rows)))
    _write(os.path.join(args.out, "plot.gp"), _TRADEOFF_GP)
    print(f"wrote trade-off tables to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    """Fast self-checks over the shipped presets."""
    failures = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        status = "ok" if ok else "FAIL"
        print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
        if not ok:
            failures.append(name)

    cfg = presets_mod.get_preset("example1")
    tr = run(cfg)
    check("example1 stabilizes", tr.final_state_norm <= 0.1,
          f"|x(T)| = {tr.final_state_norm:.3g}")
    check("example1 events finite with positive dwell",
          0 < tr.events.count and tr.events.min_dwell_observed > 0,
          f"{tr.events.count} events")
    check("w-identity after t0",
          tr.diagnostics["w_max_after_t0"] <= 1e-9,
          f"max |w| = {tr.diagnostics['w_max_after_t0']:.2e}")

    lin = presets_mod.get_preset("linear2d")
    lin = dataclasses.replace(lin, T=5.0)
    trl = run(lin)
    lin_consts = TradeoffConstants.from_linear_system(lin.linear, M2=lin.delay.M2)
    a, c = lin_consts.a, lin_consts.c
    R = lin.trigger.rho_bar
    delta = min_dwell(a, c, R)
    check("linear dwell bound", trl.events.min_dwell_observed >= delta,
          f"observed {trl.events.min_dwell_observed:.3g} >= {delta:.3g}")
    check("dwell closed form vs ODE",
          abs(min_dwell_numeric(a, c, R) - delta) <= 1e-6 * (1.0 + delta))

    consts = presets_mod.get_preset("tradeoff").constants()
    nus = [optimize_nu(consts, lam).nu for lam in np.arange(0.1, 0.95, 0.1)]
    check("nu*(lambda) nondecreasing",
          all(b >= a - 1e-12 for a, b in zip(nus[:-1], nus[1:])))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="etpf",
        description="Predictor-based event-triggered control simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one simulation")
    p_sim.add_argument("--preset", help="preset name")
    p_sim.add_argument("--config", help="YAML config file")
    p_sim.add_argument("--override", action="append", default=[],
                       metavar="SEC.KEY=VAL", help="override a config field")
    p_sim.add_argument("--out", default="runs/out", help="output directory")
    p_sim.set_defaults(func=_cmd_simulate)

    p_hm = sub.add_parser("heatmap", help="sensing-parameter sweep")
    p_hm.add_argument("--preset", help="heatmap preset name")
    p_hm.add_argument("--config", help="YAML config file")
    p_hm.add_argument("--override", action="append", default=[],
                      metavar="SEC.KEY=VAL")
    p_hm.add_argument("--n-ic", type=int, default=None,
                      help="initial conditions per cell")
    p_hm.add_argument("--seed", type=int, default=None)
    p_hm.add_argument("--out", default="runs/heatmap")
    p_hm.set_defaults(func=_cmd_heatmap)

    p_to = sub.add_parser("tradeoff", help="trade-off tables")
    p_to.add_argument("--preset", help="trade-off preset name")
    p_to.add_argument("--out", default="runs/tradeoff")
    p_to.set_defaults(func=_cmd_tradeoff)

    p_ver = sub.add_parser("verify", help="run built-in self-checks")
    p_ver.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except ETPFError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
