"""Contract between the package and the benchmark's per-layer tracer.

``perfbench/tracer.py`` wraps package functions and methods by name, so a
rename or deletion under ``src/`` would otherwise surface only in a traced
benchmark run.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

from etpf import presets
from etpf.channel import node_of

from conftest import cold_linear_memos, offgrid_config

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
LAYERS = ("config", "channel", "predictor", "model", "trigger", "signals", "monitor", "engine")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_remove():
    tracing = load_tracer()
    mods = {name: importlib.import_module(f"etpf.{name}") for name in LAYERS}
    tracer = tracing.Tracer()
    patches = tracing.install(tracer, mods)
    try:
        cfg = dataclasses.replace(presets.example1(), T=2.0, monitor=None)
        tr = mods["engine"].run(cfg)
    finally:
        patches.remove()
    assert patches.all_removed()
    # the engine looks the exact threshold up by name on each row that the float norms
    # leave to it (trigger.decide), the first check from t0 among them
    assert tracer.calls("engine.run") == 1
    assert tracer.calls("trigger.threshold") == tr.diagnostics["exact_trigger_checks"] >= 1
    # the closed-loop replay reuses the f of its partial step when the next
    # step starts from the same node with a final control row, the
    # pre-history control included (without that reuse: 862 calls), and a
    # re-anchor onto a node whose replayed state has the anchor state's bits
    # replays nothing (without that: 613 calls); the 200 plant steps read their
    # states from that replay and call f not at all (without that: 458 calls)
    assert tracer.calls("model.f") == 258


def test_full_example1_run_calls_f_about_once_per_step():
    # one Euler chain: the plant reads the closed-loop replay, so f runs once per
    # replayed node and a few times more for the partial steps onto sigma(t)
    tracing = load_tracer()
    mods = {name: importlib.import_module(f"etpf.{name}") for name in LAYERS}
    tracer = tracing.Tracer()
    patches = tracing.install(tracer, mods)
    try:
        tr = mods["engine"].run(dataclasses.replace(presets.example1(), monitor=None))
    finally:
        patches.remove()
    steps = tr.diagnostics["final_step"]
    assert steps == 2500 and not tr.diverged
    assert tracer.calls("model.f") <= 1.05 * steps


def test_lazy_expm_is_traced():
    # LinearPredictor looks the module-level expm up at call time, so the
    # tracer's wrapper sees every matrix exponential that the process-wide memo misses;
    # emptied, the memo misses them all
    cold_linear_memos()
    tracing = load_tracer()
    mods = {name: importlib.import_module(f"etpf.{name}") for name in LAYERS}
    tracer = tracing.Tracer()
    patches = tracing.install(tracer, mods)
    try:
        cfg = dataclasses.replace(presets.linear2d(), T=0.5, monitor=None)
        tr = mods["engine"].run(cfg)
    finally:
        patches.remove()
    assert patches.all_removed()
    assert tracer.calls("predictor.expm") > 0
    # the block path ran, the tracer's wrapper around f notwithstanding: after the
    # pre-history's one advance per node of [phi(0), 0), blocks of steps
    # (LinearPredictor.block) stand in for nearly every advance
    steps = tr.diagnostics["final_step"]
    pre = -node_of(cfg.delay.phi(0.0), cfg.h)[0]
    assert steps == 500 and pre == 500
    assert tracer.calls("predictor.advance") - pre < steps / 10


def test_offgrid_sweep_cell_calls():
    # sweep-ex1's first cell (tests/test_golden.py, example1-offgrid): the plant takes its
    # own Euler step after each off-grid anchor and reads the replay after an on-grid one.
    # The f count is the one the per-step loop made before it kept U as floats and h as a
    # vector; each event records once and calls K once, for its control (the w check reads
    # the control rows)
    tracing = load_tracer()
    mods = {name: importlib.import_module(f"etpf.{name}") for name in LAYERS}
    tracer = tracing.Tracer()
    patches = tracing.install(tracer, mods)
    try:  # the model is built while tracing, so that its f and K are wrapped
        tr = mods["engine"].run(dataclasses.replace(offgrid_config(), monitor=None))
    finally:
        patches.remove()
    assert tr.events.count == 1199 and not tr.diverged
    assert tracer.calls("trigger.record") == tr.events.count
    assert tracer.calls("trigger.threshold") == tr.diagnostics["exact_trigger_checks"]
    assert tracer.calls("model.f") == 6796
    assert tracer.calls("model.K") == 1199
    # one re-anchor per adopted delivery and the pre-history's; the engine takes advance's
    # one-node case on the chain itself and calls advance for the pre-history's 52 steps and
    # where that case does not hold (with fused off it calls advance 2552 times: the
    # pre-history's and one per step)
    assert tracer.calls("predictor.reanchor") == 21
    assert tracer.calls("predictor.advance") == 177
