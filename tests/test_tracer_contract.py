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
        mods["engine"].run(cfg)
    finally:
        patches.remove()
    assert patches.all_removed()
    # the engine looks the trigger threshold up by name once per step from t0
    assert tracer.calls("engine.run") == 1
    assert tracer.calls("trigger.threshold") == 101
    # the closed-loop replay reuses the f of its partial step when the next
    # step starts from the same node with a final control row, the
    # pre-history control included (without that reuse: 862 calls), and a
    # re-anchor onto a node whose replayed state has the anchor state's bits
    # replays nothing (without that: 613 calls)
    assert tracer.calls("model.f") == 458


def test_lazy_expm_is_traced():
    # LinearPredictor looks the module-level expm up at call time, so the
    # tracer's wrapper sees every matrix exponential
    tracing = load_tracer()
    mods = {name: importlib.import_module(f"etpf.{name}") for name in LAYERS}
    tracer = tracing.Tracer()
    patches = tracing.install(tracer, mods)
    try:
        mods["engine"].run(dataclasses.replace(presets.linear2d(), T=0.5, monitor=None))
    finally:
        patches.remove()
    assert patches.all_removed()
    assert tracer.calls("predictor.expm") > 0
