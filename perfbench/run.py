"""Benchmark of the etpf simulator: end-to-end timings and per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload sim-ex1 --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``sim-ex1``, ``sim-linear2d``,
``sweep-ex1``.  The seed only draws the inputs; the package sees the
generated inputs.

``--trace 0`` times the workload's calls, closed loop and back to back, for
``--seconds`` seconds (at least two calls) with tracing off.  The speed of
the CPU is sampled during every timed call and every set-up interpreter
(``calibrate.py``), and each wall time is rescaled to a reference speed,
which divides out the shared host's changing CPU speed.  The result line
carries the checked end-to-end metrics: ``call_s_p50`` (median rescaled
call), ``steps_per_s`` (median over calls of plant Euler steps per rescaled
second), ``setup_s`` (median rescaled time of fresh interpreters that import
etpf and build the configs) and ``peak_rss_mb`` (this process plus its pool
workers).  The report above it adds the raw wall times, ``call_s_tail`` and
``fail_frac``.

``--trace 1`` times untraced calls, then the same calls again with every
public entry point of the package wrapped from outside (``tracer.py``), and
reports per-layer metrics per workload call plus the tracing overhead.  The
sweep's traced pass runs serially, since spans recorded inside pool workers
would not reach this process.

The report (machine block, inputs, every metric with its unit, checks) is
printed as indented JSON first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 after a complete run (``correct`` may still be false), 2 when
the package sources are missing.
"""

import os

THREADS = "1"  # 2 pool workers stay within nproc = 2 only with 1 BLAS thread each
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAYERS = ("config", "channel", "predictor", "model", "trigger", "signals", "monitor", "engine")

SETUP_REPEATS = 9
SELF_TIME_TOLERANCE = 0.10  # span self times must add up to the traced wall time
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)

clock = time.perf_counter


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_etpf() -> dict:
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"etpf.{name}") for name in LAYERS}
    mods["presets"] = importlib.import_module("etpf.presets")
    mods["package"] = importlib.import_module("etpf")
    return mods


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def machine_block() -> dict:
    import numpy
    import scipy

    h = hashlib.sha256()
    for p in sorted((SRC / "etpf").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "src_sha256": h.hexdigest(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def tail(samples: list) -> dict:
    """Highest listed percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)  # nearest-rank percentile
        if n - rank >= 10:
            return {"percentile": p, "value_s": xs[rank - 1], "samples": n, "beyond": n - rank}
    return {"omitted": f"{n} samples: fewer than 10 beyond any percentile", "samples": n}


def setup_seconds(wl) -> tuple[list, list]:
    """Wall and rescaled times of fresh interpreters importing etpf and building the configs."""
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\nimport etpf\n" + wl.setup_code()
    walls, rescaled = [], []
    with calibrate.pinned(calibrate.cpus()[0]):
        for _ in range(SETUP_REPEATS):
            with calibrate.Sampler() as speed:
                t0 = clock()
                subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                               env=os.environ, stdout=subprocess.DEVNULL)
                walls.append(clock() - t0)
            rescaled.append(walls[-1] / speed.slowness())
    return walls, rescaled


class Ledger:
    """Counts attempted and failed checks and remembers why checks failed.

    Every call is one check of its outputs; a run also makes a few checks
    across calls (identical outputs, the tracing self-checks).
    """

    def __init__(self, errors):
        self.errors = errors  # exception types that mark a call as failed
        self.attempted = self.failed = 0
        self.reasons: list[str] = []

    def guarded(self, what: str, fn, *args, **kwargs):
        """Return ``fn(...)``, or None after counting a package error as a failed check."""
        try:
            return fn(*args, **kwargs)
        except self.errors as exc:
            self.check(False, f"{what}: {type(exc).__name__}: {exc}")
            return None

    def check(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)
            print(f"check failed: {reason}", file=sys.stderr)


def timed_calls(wl, ledger, seconds: float, min_calls: int, **kw) -> list:
    """Call back to back until ``seconds`` have passed and ``min_calls`` were made.

    Calls without a process pool run pinned to one CPU.  A workload whose
    runs sample the CPU speed themselves (the sweep) brings the result in
    ``slowness``; other calls run under a ``calibrate.Sampler``.  The
    slowness turns each result's wall time into its ``ref_s``.
    """
    results = []
    with contextlib.ExitStack() as stack:
        if kw.get("workers", wl.workers) == 1:
            stack.enter_context(calibrate.pinned(calibrate.cpus()[0]))
        start = clock()
        calls = 0
        while calls < min_calls or clock() - start < seconds:
            calls += 1
            with contextlib.nullcontext() if wl.own_sampler else calibrate.Sampler() as speed:
                got = ledger.guarded("timed call", wl.call, clock, **kw)
            if got is not None:
                res = got[0]
                res.ref_s = res.wall_s / (res.slowness if wl.own_sampler else speed.slowness())
                ledger.check(not res.problems, "timed call: " + "; ".join(res.problems))
                results.append(res)
    digests = {r.digest for r in results}
    ledger.check(len(digests) <= 1, f"{len(digests)} different outputs from identical inputs")
    return results


def end_to_end(wl, ledger, seconds: float) -> tuple[dict, dict]:
    results = timed_calls(wl, ledger, seconds, wl.min_calls)
    if not results:
        raise SystemExit("no call succeeded; no metrics to report")
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    workers = wl.inputs().get("workers", 0)
    walls = [r.wall_s for r in results]
    rescaled = [r.ref_s for r in results]
    setup_walls, setups = setup_seconds(wl)
    # Rescaled times are checked, not wall times: over ten 20 s runs on a
    # shared 2-CPU host, the median wall time of a call spread by 16-38%
    # (IQR over median), the rescaled one by 1-9%; see calibrate.py.
    metrics = {
        "call_s_p50": (statistics.median(rescaled), "s"),
        "steps_per_s": (statistics.median(r.steps / r.ref_s for r in results), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        # pool workers are forked: each one's peak counts the pages it shares
        "peak_rss_mb": ((self_kb + workers * child_kb) / 1024.0, "MB"),
    }
    extra = {
        "call_s_tail": tail(rescaled),
        "wall_call_s_p50": {"value": statistics.median(walls), "unit": "s"},
        "wall_call_s_min": {"value": min(walls), "unit": "s"},
        "wall_setup_s_p50": {"value": statistics.median(setup_walls), "unit": "s"},
        "fail_frac": {"value": ledger.failed / ledger.attempted, "unit": "ratio"},
        "calls": len(results),
        "call_s": rescaled,
        "wall_call_s": walls,
        "slowness": [r.wall_s / r.ref_s for r in results],
        "setup_s_samples": setups,
        "wall_setup_s_samples": setup_walls,
        "steps_per_call": results[0].steps,
        "events_per_call": results[0].events,
        "children_cpu_s": [r.children_cpu_s for r in results] if workers else None,
    }
    return metrics, extra


def traced_pass(wl, ledger, seconds: float, etpf: dict) -> tuple[dict, dict]:
    sweep = isinstance(wl, workloads.SweepWorkload)
    serial = {"workers": 1} if sweep else {}
    parallel = []
    if sweep:
        parallel = timed_calls(wl, ledger, 0, min_calls=1)
        untraced = timed_calls(wl, ledger, 0, min_calls=1, **serial)
    else:
        untraced = timed_calls(wl, ledger, seconds / 2, min_calls=2)
    tr = tracing.Tracer()
    patches = tracing.install(tr, etpf)
    try:
        traced = timed_calls(wl, ledger, 0, min_calls=len(untraced), **serial)
    finally:
        patches.remove()
    ledger.check(patches.all_removed(), "tracing wrappers were not removed")
    if not (untraced and traced):
        raise SystemExit("no call succeeded; no metrics to report")
    digests = {r.digest for r in untraced + traced + parallel}
    ledger.check(len(digests) == 1, "traced and untraced calls gave different outputs")

    n = len(traced)
    traced_wall = sum(r.wall_s for r in traced)
    self_sum = tr.all_self_s()
    ledger.check(abs(self_sum - traced_wall) <= SELF_TIME_TOLERANCE * traced_wall,
                 f"span self times sum to {self_sum:.4f} s, traced wall {traced_wall:.4f} s")

    steps = sum(r.steps for r in traced)
    reanchors = tr.calls("predictor.reanchor")
    un_best = min(r.ref_s for r in untraced)
    tr_best = min(r.ref_s for r in traced)

    def per_call(x):
        return x / n

    m = {
        "channel.sigma.calls": (per_call(tr.calls("channel.sigma")), "count"),
        "channel.sigma.self_s": (per_call(tr.self_s("channel.sigma")), "s"),
        "channel.phi.calls": (per_call(tr.counts["channel.phi"]), "count"),
        "channel.schedule.self_s": (per_call(tr.self_s("channel.schedule")), "s"),
        "predictor.advance.calls": (per_call(tr.calls("predictor.advance")), "count"),
        "predictor.advance.self_s": (per_call(tr.self_s("predictor.advance")), "s"),
        "model.f.calls": (per_call(tr.calls("model.f")), "count"),
        "model.f.self_s": (per_call(tr.self_s("model.f")), "s"),
        "model.f.per_step": (tr.calls("model.f") / steps if steps else 0.0, "count/step"),
        "predictor.reanchor.calls": (per_call(reanchors), "count"),
        "predictor.reanchor.self_s": (per_call(tr.self_s("predictor.reanchor")), "s"),
        "predictor.reanchor_per_delivery": (
            tr.total_s("predictor.reanchor") / reanchors if reanchors else 0.0, "s"),
        "predictor.expm.calls": (per_call(tr.calls("predictor.expm")), "count"),
        "signals.sample.calls": (per_call(tr.calls("signals.sample")), "count"),
        "signals.sample.self_s": (per_call(tr.self_s("signals.sample")), "s"),
        "trigger.threshold.calls": (per_call(tr.calls("trigger.threshold")), "count"),
        "trigger.threshold.self_s": (per_call(tr.self_s("trigger.threshold")), "s"),
        "trigger.events": (per_call(tr.calls("trigger.record")), "count"),
        "model.K.calls": (per_call(tr.calls("model.K")), "count"),
        "monitor.compute_L.calls": (per_call(tr.calls("monitor.compute_L")), "count"),
        "monitor.compute_L.self_s": (per_call(tr.self_s("monitor.compute_L")), "s"),
        "monitor.compute_V.self_s": (per_call(tr.self_s("monitor.compute_V")), "s"),
        "engine.csv.self_s": (per_call(tr.self_s("engine.csv")), "s"),
        "engine.csv.bytes": (per_call(sum(r.csv_bytes for r in traced)), "B"),
        "engine.csv_identical": (float(wl.csv_identical), "count"),
        "engine.run.calls": (per_call(tr.calls("engine.run")), "count"),
        "engine.run.self_s": (per_call(tr.self_s("engine.run")), "s"),
        "engine.steps": (per_call(steps), "count"),
        "engine.heatmap.parallel_eff": (
            untraced[0].ref_s / (2.0 * parallel[0].ref_s) if parallel else 0.0, "ratio"),
        "config.build.self_s": (per_call(tr.self_s("config.build")), "s"),
        "trace_overhead_frac": (tr_best / un_best - 1.0, "ratio"),
    }
    run_total = tr.total_s("engine.run")
    shares = {
        name: tr.total_s(name) / run_total
        for name in ("channel.sigma", "predictor.advance", "predictor.reanchor", "model.f",
                     "signals.sample", "trigger.threshold", "monitor.compute_L")
    } if run_total else {}
    notes = {}
    if sweep:
        notes["monitor.*, engine.csv*"] = "zero: heatmap runs have the monitor off and write no CSV"
        notes["pass"] = "traced pass is serial (workers=1); spans inside pool workers are not collected"
    else:
        notes["engine.heatmap.parallel_eff"] = "zero: no process pool on this workload"
    extra = {
        "traced_calls": n,
        "untraced_call_s": [r.wall_s for r in untraced],
        "traced_call_s": [r.wall_s for r in traced],
        "parallel_call_s": [r.wall_s for r in parallel],
        "self_time_sum_s": self_sum,
        "traced_wall_s": traced_wall,
        "share_of_engine_run_time": shares,
        "spans": tr.pairs(),
        "notes": notes,
    }
    return m, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "etpf" / "__init__.py").is_file():
        print(f"etpf sources not found under {SRC}", file=sys.stderr)
        return 2
    etpf = import_etpf()
    ledger = Ledger(etpf["package"].ETPFError)
    with tempfile.TemporaryDirectory(prefix="_work-", dir=HERE) as tmp:
        wl = workloads.make(args.workload, etpf, args.seed, Path(tmp), workloads.load_reference())
        # the probe also warms caches before any timed call
        problems = ledger.guarded("reference probe", wl.probe, clock)
        if problems is not None:
            ledger.check(not problems, "reference probe: " + "; ".join(problems))
        if args.trace:
            metrics, extra = traced_pass(wl, ledger, args.seconds, etpf)
        else:
            metrics, extra = end_to_end(wl, ledger, args.seconds)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_block(),
        "inputs": wl.inputs(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "engine.csv_identical": {"identical": wl.csv_identical, "of": wl.csv_files},
        **extra,
        "failures": ledger.reasons,
    }
    print(json.dumps(report, indent=1))
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
