"""The three benchmark workloads and their correctness checks.

Each workload turns the benchmark seed into concrete inputs, offers one
``call`` (the unit that is timed) and checks the outputs of every call:

* ``sim-ex1`` / ``sim-linear2d``: the ``simulate`` path on a preset: build
  the config, ``run`` with the monitor on, ``decay_report``, and write
  ``trace.csv`` and ``events.csv``.  The seed draws ``x0`` around the
  preset's ``(1, 1)``.
* ``sweep-ex1``: one ``heatmap`` call over the 16 odd-index cells of the
  ``heatmap-ex1`` grid, with 10 initial conditions drawn from the seed, on a
  2-worker process pool.

Every call is checked for invariants that hold at any seed.  Each run also
replays the preset's own inputs once (the reference probe) and compares the
result with ``reference.json``, recorded from the unmodified package: event
counts and times must match exactly, states and heatmap cells within the
tolerance stored there.  At the sweep's reference seed (42) every timed call
is compared with the full reference matrix as well.

All etpf entry points are looked up on their modules at call time, so the
traced pass sees the wrapped versions.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import resource
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import calibrate

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

W_MAX = 1e-9  # C8: w vanishes after t0
X0_SPREAD = 0.25  # x0 = (1, 1) + U(-X0_SPREAD, X0_SPREAD)^2
STATE_STRIDE = {"example1": 50, "linear2d": 300}  # trajectory rows kept in the reference

SWEEP_CELLS = (1, 3, 5, 7)  # odd indices of heatmap-ex1's 8 x 8 grid
SWEEP_N_IC = 10
SWEEP_WORKERS = 2
PRESET_SWEEP_SEED = 42  # heatmap-ex1's own seed
PROBE_CELL = (1, 1)  # cell of the 4 x 4 slice that the sweep probe replays
# children CPU below this share of the sweep's wall time means the pool did
# not run the cells (heatmap falls back to the serial path silently)
MIN_POOL_CPU_SHARE = 0.25


def close(a, b, tol: dict) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= tol["rtol"] * np.abs(b) + tol["atol"])
    )


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


@dataclass
class CallResult:
    wall_s: float
    steps: int  # plant Euler steps simulated, up to divergence
    digest: str  # sha256 of the call's outputs, compared across calls
    problems: list  # failed checks; empty when the outputs are correct
    events: int = 0
    csv_bytes: int = 0
    children_cpu_s: float = 0.0
    ref_s: float = 0.0  # wall_s rescaled to the reference CPU speed (calibrate.py)
    slowness: float = 0.0  # median over a sweep's runs of calibrate.Sampler.slowness


class SimWorkload:
    """``simulate`` on one preset, repeated on one seeded ``x0``."""

    min_calls = 2  # per run, so that two calls on identical inputs are compared
    workers = 1
    own_sampler = False  # timed under a calibrate.Sampler
    csv_files = 2
    csv_identical = 0  # CSVs of the reference probe byte-identical to the reference

    def __init__(self, preset: str, etpf: dict, seed: int, workdir: Path, ref: dict, tol: dict):
        self.preset, self.etpf, self.ref, self.tol = preset, etpf, ref, tol
        rng = np.random.default_rng(seed)
        self.x0 = [1.0 + float(v) for v in rng.uniform(-X0_SPREAD, X0_SPREAD, 2)]
        self.paths = [workdir / "trace.csv", workdir / "events.csv"]

    def inputs(self) -> dict:
        return {"preset": self.preset, "x0": self.x0}

    def config_data(self, x0) -> dict:
        return {"preset": self.preset, "sim": {"x0": list(x0)}}

    def setup_code(self) -> str:
        return f"from etpf import config\nconfig.build_sim_config({self.config_data(self.x0)!r})\n"

    def _simulate(self, x0):
        config, engine, monitor = (self.etpf[m] for m in ("config", "engine", "monitor"))
        cfg = config.build_sim_config(self.config_data(x0))
        tr = engine.run(cfg)
        mu = None
        if cfg.linear is not None:  # as `etpf simulate` does
            mu = (2.0 - cfg.trigger.theta) * cfg.linear.lam_min_Q / (4.0 * cfg.linear.lam_max_P)
        tr.diagnostics["decay_report"] = monitor.decay_report(tr.times, tr.V, tr.t0, mu=mu)
        tr.write_trace_csv(self.paths[0])
        tr.write_events_csv(self.paths[1])
        return tr

    def call(self, clock, x0=None):
        t0 = clock()
        tr = self._simulate(self.x0 if x0 is None else x0)
        wall = clock() - t0
        problems = []
        if tr.diverged:
            problems.append("run diverged")
        w = tr.diagnostics["w_max_after_t0"]
        if not w <= W_MAX:
            problems.append(f"max |w| after t0 = {w:.3e} > {W_MAX:g}")
        times = tr.events.event_times
        if any(b <= a for a, b in zip(times, times[1:])):
            problems.append("event times do not strictly increase")
        res = CallResult(
            wall_s=wall,
            steps=int(tr.diagnostics["final_step"]),
            digest=file_digest(self.paths),
            problems=problems,
            events=tr.events.count,
            csv_bytes=sum(p.stat().st_size for p in self.paths),
        )
        return res, tr

    def preset_x0(self) -> list:
        return [float(v) for v in self.etpf["presets"].get_preset(self.preset).x0]

    def record(self, clock) -> dict:
        _, tr = self.call(clock, x0=self.preset_x0())
        stride = STATE_STRIDE[self.preset]
        return {
            "x0": self.preset_x0(),
            "event_count": tr.events.count,
            "event_times": list(tr.events.event_times),
            "final_step": int(tr.diagnostics["final_step"]),
            "state_stride": stride,
            "states": tr.x[::stride].tolist(),
            "final_state": tr.x[-1].tolist(),
            "csv_sha256": {p.name: file_digest([p]) for p in self.paths},
        }

    def probe(self, clock) -> list:
        """Replay the preset's own inputs; return the differences from the reference."""
        ref = self.ref
        res, tr = self.call(clock, x0=ref["x0"])
        problems = res.problems
        if tr.events.count != ref["event_count"]:
            problems.append(f"{tr.events.count} events, reference has {ref['event_count']}")
        elif list(tr.events.event_times) != ref["event_times"]:
            problems.append("event times differ from the reference")
        if res.steps != ref["final_step"]:
            problems.append("final step differs from the reference")
        states_ok = close(tr.x[:: ref["state_stride"]], ref["states"], self.tol)
        if not (states_ok and close(tr.x[-1], ref["final_state"], self.tol)):
            problems.append("states differ from the reference beyond tolerance")
        self.csv_identical = sum(
            file_digest([p]) == ref["csv_sha256"][p.name] for p in self.paths
        )
        return problems


class SweepWorkload:
    """One ``heatmap`` call on the 16 odd-index cells of ``heatmap-ex1``."""

    min_calls = 2
    workers = SWEEP_WORKERS
    own_sampler = True  # RunCounter samples the speed in the process of each run
    csv_files = csv_identical = 0  # heatmap writes no CSV

    def __init__(self, etpf: dict, seed: int, ref: dict, tol: dict):
        self.etpf, self.seed, self.ref, self.tol = etpf, seed, ref, tol
        spec = etpf["presets"].heatmap_ex1()
        self.delta_tau = [float(spec.delta_tau_grid[i]) for i in SWEEP_CELLS]
        self.d_psi = [float(spec.d_psi_grid[j]) for j in SWEEP_CELLS]
        self.n_runs = len(self.delta_tau) * len(self.d_psi) * SWEEP_N_IC

    def inputs(self) -> dict:
        return {"delta_tau": self.delta_tau, "d_psi": self.d_psi,
                "n_ic": SWEEP_N_IC, "heatmap_seed": self.seed, "workers": SWEEP_WORKERS}

    def setup_code(self) -> str:
        return "from etpf import config\nconfig.build_sim_config({'preset': 'example1'})\n"

    def _heatmap(self, delta_tau, d_psi, seed, workers):
        config, engine, presets = (self.etpf[m] for m in ("config", "engine", "presets"))
        base = config.build_sim_config({"preset": "example1"})
        # as `etpf heatmap` does: the preset's delay map is a closure, so only
        # the factory, not ``base`` itself, can be sent to the pool
        return engine.heatmap(base, delta_tau, d_psi, SWEEP_N_IC, seed,
                              workers=workers, config_factory=presets.example1)

    def call(self, clock, x0=None, workers=SWEEP_WORKERS):
        counter = RunCounter(self.etpf["engine"], self.n_runs)
        cpu0 = children_cpu_s()
        t0 = clock()
        with counter:
            mat = self._heatmap(self.delta_tau, self.d_psi, self.seed, workers)
        wall = clock() - t0
        child_cpu = children_cpu_s() - cpu0
        problems = []
        if workers > 1 and child_cpu < MIN_POOL_CPU_SHARE * wall:
            problems.append(f"pool children used {child_cpu:.3f} s CPU in a {wall:.1f} s "
                            "sweep: heatmap fell back to the serial path")
        if counter.runs != self.n_runs:
            problems.append(f"{counter.runs} runs counted, expected {self.n_runs}")
        if mat.shape != (len(self.delta_tau), len(self.d_psi)) or not np.all(np.isfinite(mat)):
            problems.append("heatmap matrix has the wrong shape or non-finite cells")
        elif self.seed == self.ref["heatmap_seed"] and not close(mat, self.ref["matrix"], self.tol):
            problems.append("heatmap differs from the reference beyond tolerance")
        res = CallResult(
            wall_s=wall,
            steps=counter.steps,
            digest=hashlib.sha256(np.ascontiguousarray(mat).tobytes()).hexdigest(),
            problems=problems,
            children_cpu_s=child_cpu,
            slowness=counter.slowness,
        )
        return res, mat

    def record(self, clock) -> dict:
        mat = self._heatmap(self.delta_tau, self.d_psi, PRESET_SWEEP_SEED, SWEEP_WORKERS)
        return {"heatmap_seed": PRESET_SWEEP_SEED, "n_ic": SWEEP_N_IC,
                "delta_tau": self.delta_tau, "d_psi": self.d_psi, "matrix": mat.tolist()}

    def probe(self, clock) -> list:
        """Replay one cell at the preset's seed, serially, against the reference."""
        i, j = PROBE_CELL
        mat = self._heatmap([self.delta_tau[i]], [self.d_psi[j]], self.ref["heatmap_seed"], 1)
        want = self.ref["matrix"][i][j]
        if not close(mat[0, 0], want, self.tol):
            return [f"cell {PROBE_CELL} = {mat[0, 0]!r}, reference {want!r}"]
        return []


class RunCounter:
    """Counts the runs and plant steps of ``engine.run``, pool workers included.

    The pool forks its workers, so they inherit the wrapper and the shared
    counters.  Each run also goes under a ``calibrate.Sampler`` in the process
    that does it, and the slowness of each of the first ``capacity`` runs is
    kept.  The wrapper adds one locked increment per run: 160 per sweep.
    """

    def __init__(self, engine, capacity: int):
        self.engine = engine
        self._runs = multiprocessing.Value("q", 0)
        self._steps = multiprocessing.Value("q", 0)
        self._slowness = multiprocessing.Array("d", capacity, lock=False)

    def __enter__(self):
        original = self.original = self.engine.run
        runs, steps, slowness = self._runs, self._steps, self._slowness

        def counted_run(cfg):
            with calibrate.Sampler() as speed:
                tr = original(cfg)
            with runs.get_lock():
                if runs.value < len(slowness):
                    slowness[runs.value] = speed.slowness()
                runs.value += 1
                steps.value += int(tr.diagnostics["final_step"])
            return tr

        self.engine.run = counted_run
        return self

    def __exit__(self, *exc):
        self.engine.run = self.original

    @property
    def runs(self) -> int:
        return self._runs.value

    @property
    def steps(self) -> int:
        return self._steps.value

    @property
    def slowness(self) -> float:
        return statistics.median(self._slowness[: min(self.runs, len(self._slowness))])


WORKLOADS = ("sim-ex1", "sim-linear2d", "sweep-ex1")


def make(name: str, etpf: dict, seed: int, workdir: Path, reference: dict):
    ref, tol = reference["workloads"][name], reference["tolerance"]
    if name == "sim-ex1":
        return SimWorkload("example1", etpf, seed, workdir, ref, tol)
    if name == "sim-linear2d":
        return SimWorkload("linear2d", etpf, seed, workdir, ref, tol)
    if name == "sweep-ex1":
        return SweepWorkload(etpf, seed, ref, tol)
    raise ValueError(f"unknown workload {name!r}")
