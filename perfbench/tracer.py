"""Per-layer spans recorded from outside the package.

``install(tracer, etpf_modules)`` replaces the public functions and methods of
each etpf module with timing wrappers and returns a ``Patches`` object whose
``remove()`` puts every original back.  Nothing under ``src/`` is edited.

Hot per-step calls are aggregated per (parent span, span name) pair instead of
being stored one span per call: ``linear2d`` alone makes ~236k ``sample``
calls.  A span's self time is its duration minus the durations of its direct
child spans.  ``phi`` is only counted (it runs ~10 times inside every
``brentq`` solve), so its time stays in the self time of its caller.
"""

from __future__ import annotations

import time
from collections import Counter


class Tracer:
    """In-memory span aggregates: (parent, name) -> [calls, total_s, self_s]."""

    def __init__(self):
        self.stats: dict[tuple[str, str], list] = {}
        self.counts: Counter = Counter()
        self._stack: list[list] = []

    def span(self, name: str, fn):
        stats, stack, clock = self.stats, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                key = (parent[0] if parent else "", name)
                rec = stats.get(key)
                if rec is None:
                    rec = stats[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt

        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- aggregates ---------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(r[0] for (_, n), r in self.stats.items() if n == name)

    def total_s(self, name: str) -> float:
        """Inclusive time of the ``name`` spans (no span nests inside itself)."""
        return sum(r[1] for (_, n), r in self.stats.items() if n == name)

    def self_s(self, name: str) -> float:
        return sum(r[2] for (_, n), r in self.stats.items() if n == name)

    def all_self_s(self) -> float:
        return sum(r[2] for r in self.stats.values())

    def pairs(self) -> list[dict]:
        return [
            {"parent": p, "name": n, "calls": r[0], "total_s": r[1], "self_s": r[2]}
            for (p, n), r in sorted(self.stats.items(), key=lambda kv: -kv[1][2])
        ]


class Patches:
    """Originals of every patched attribute, so they can be put back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)

    def all_removed(self) -> bool:
        return all(owner.__dict__[attr] is original for owner, attr, original in self._saved)


def _wrap_method(patches, tracer, cls, attr, name):
    raw = cls.__dict__[attr]
    if isinstance(raw, staticmethod):
        patches.replace(cls, attr, staticmethod(tracer.span(name, raw.__func__)))
    else:
        patches.replace(cls, attr, tracer.span(name, raw))


def _wrap_function(patches, tracer, module, attr, name):
    patches.replace(module, attr, tracer.span(name, module.__dict__[attr]))


def _wrap_fields_after_init(patches, cls, wrap_fields):
    """Wrap callable fields of every instance built while tracing.

    The preset maps ``f``/``K`` and the delay map ``phi`` are fields of
    frozen dataclasses, so they are wrapped per instance right after the
    original ``__post_init__`` has validated them.
    """
    original = cls.__dict__["__post_init__"]

    def __post_init__(self):
        original(self)
        wrap_fields(self)

    patches.replace(cls, "__post_init__", __post_init__)


def install(tracer: Tracer, mods) -> Patches:
    """Wrap the public entry points of every traced layer; return the patches.

    ``mods`` maps module short names (``config``, ``channel``, ...) to the
    imported etpf modules.  Layers and their spans:

    * config: ``config.build`` (``build_sim_config``)
    * channel: ``channel.sigma``, ``channel.sigma_dot``, ``channel.schedule``
      (``SensingSchedule.periodic``) and the ``channel.phi`` call count
    * predictor: ``predictor.advance``, ``predictor.reanchor`` of every
      predictor class, ``predictor.expm`` (matrix exponentials)
    * model: ``model.f`` and ``model.K`` of every model built while tracing
    * trigger: ``trigger.threshold``, ``trigger.record``
    * signals: ``signals.sample``, ``signals.append``
    * monitor: ``monitor.compute_L``, ``monitor.compute_V``,
      ``monitor.decay_report``
    * engine: ``engine.run``, ``engine.csv`` (both CSV writers),
      ``engine.heatmap``
    """
    config, channel, predictor = mods["config"], mods["channel"], mods["predictor"]
    model, trigger, signals = mods["model"], mods["trigger"], mods["signals"]
    monitor, engine = mods["monitor"], mods["engine"]
    p = Patches()

    _wrap_function(p, tracer, config, "build_sim_config", "config.build")

    _wrap_method(p, tracer, channel.ActuationDelay, "sigma", "channel.sigma")
    _wrap_method(p, tracer, channel.ActuationDelay, "sigma_dot", "channel.sigma_dot")
    _wrap_method(p, tracer, channel.SensingSchedule, "periodic", "channel.schedule")

    def wrap_phi(delay):
        object.__setattr__(delay, "phi", tracer.counter("channel.phi", delay.phi))

    _wrap_fields_after_init(p, channel.ActuationDelay, wrap_phi)

    for cls in (predictor.ClosedLoopPredictor, predictor.OpenLoopPredictor,
                predictor.SemiClosedPredictor, predictor.LinearPredictor):
        _wrap_method(p, tracer, cls, "advance", "predictor.advance")
        _wrap_method(p, tracer, cls, "reanchor", "predictor.reanchor")
    _wrap_function(p, tracer, predictor, "expm", "predictor.expm")

    def wrap_maps(sm):
        object.__setattr__(sm, "f", tracer.span("model.f", sm.f))
        object.__setattr__(sm, "K", tracer.span("model.K", sm.K))

    _wrap_fields_after_init(p, model.SystemModel, wrap_maps)

    # engine imported threshold/compute_L/compute_V by name: patch both copies
    for mod in (trigger, engine):
        _wrap_function(p, tracer, mod, "threshold", "trigger.threshold")
    _wrap_method(p, tracer, trigger.EventLog, "record", "trigger.record")

    _wrap_method(p, tracer, signals.TimedSignal, "sample", "signals.sample")
    _wrap_method(p, tracer, signals.TimedSignal, "append", "signals.append")

    for mod in (monitor, engine):
        _wrap_function(p, tracer, mod, "compute_L", "monitor.compute_L")
        _wrap_function(p, tracer, mod, "compute_V", "monitor.compute_V")
    _wrap_function(p, tracer, monitor, "decay_report", "monitor.decay_report")

    _wrap_function(p, tracer, engine, "run", "engine.run")
    _wrap_method(p, tracer, engine.SimTrace, "write_trace_csv", "engine.csv")
    _wrap_method(p, tracer, engine.SimTrace, "write_events_csv", "engine.csv")
    _wrap_function(p, tracer, engine, "heatmap", "engine.heatmap")
    return p
