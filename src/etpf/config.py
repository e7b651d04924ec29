"""YAML configuration loading, override application, and SimConfig assembly.

A config names a ``preset`` or describes the system from scratch (``system.kind``);
its sections, and ``--override section.key=value`` on the command line, refine it.
``SCHEMA`` declares every section's keys and types; a key that the section's
``kind`` or ``mode`` does not read is an error.
"""

from __future__ import annotations

import dataclasses
import numbers

import numpy as np

from . import presets
from .channel import ActuationDelay
from .engine import SimConfig
from .exceptions import ConfigurationError
from .model import LinearSystem
from .monitor import MonitorConfig
from .predictor import PREDICTOR_METHODS
from .trigger import TriggerConfig

__all__ = ["SCHEMA", "load_config", "apply_overrides", "read_section", "build_sim_config"]

SCHEMA = {
    "system": {"kind": "str", "A": "matrix", "B": "matrix", "K": "matrix", "Q": "matrix"},
    "delay": {"kind": "str", "D": "float", "a": "float", "nominal_D": "float"},
    "sensing": {"mode": "str", "delta_tau": "float", "d_psi": "float", "mu_psi": "float",
                "sigma_psi": "float", "seed": "int"},
    "trigger": {"mode": "str", "theta": "float", "rho_bar": "float", "L_K": "float"},
    "predictor": {"method": "str"},
    "monitor": {"enabled": "bool", "b": "float", "form": "str", "stride": "int"},
    "sim": {"x0": "matrix", "h": "float", "T": "float", "u_prehistory": "float",
            "divergence_threshold": "float"},
    # read by `etpf heatmap` only
    "heatmap": {"delta_tau_grid": "matrix", "d_psi_grid": "matrix", "n_ic": "int", "seed": "int"},
}


def _float(v) -> float:
    if isinstance(v, bool):
        raise TypeError(v)
    return float(v)  # a numeric string too: PyYAML reads 1e-3 as one


def _int(v) -> int:
    x = _float(v) if isinstance(v, bool) or not isinstance(v, numbers.Integral) else v
    if x != int(x):  # 2.5; int() raises on NaN and inf
        raise ValueError(v)
    return int(x)


def _is(kind):
    def read(v):
        if isinstance(v, kind):
            return v
        raise TypeError(v)
    return read


def _matrix(v) -> np.ndarray:
    def leaves(x):
        return [leaves(y) for y in x] if isinstance(x, (list, tuple, np.ndarray)) else _float(x)
    return np.array(leaves(v), dtype=float)  # a ragged list raises ValueError


_TYPES = {"float": _float, "int": _int, "bool": _is(bool), "str": _is(str), "matrix": _matrix}


def read_section(name: str, section) -> dict:
    """Config section ``name`` typed by ``SCHEMA``; an empty one (YAML ``name:``) is ``{}``.
    A non-mapping, an unknown key or a mistyped value raises ``ConfigurationError`` naming
    ``name.key``.  Ranges are left to the config dataclasses."""
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ConfigurationError(f"config section {name} must be a mapping, got {section!r}")
    keys, out = SCHEMA[name], {}
    for key, value in section.items():
        if key not in keys:
            raise ConfigurationError(f"unknown key {name}.{key} (known: {', '.join(keys)})")
        try:
            out[key] = _TYPES[keys[key]](value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigurationError(
                f"{name}.{key} must be of type {keys[key]}, got {value!r}") from None
    return out


def _unread(name: str, keys, when: str) -> None:
    """Raise on the first of ``keys``, keys of section ``name`` that its builder did not read."""
    if keys:
        raise ConfigurationError(f"{name}.{sorted(keys)[0]} is not read when {when}")


def load_config(path) -> dict:
    import yaml
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigurationError(f"malformed YAML in {path}{where}: {exc}") from exc
    if not isinstance(data, (dict, type(None))):
        raise ConfigurationError(f"config root in {path} must be a mapping")
    return data or {}


def apply_overrides(data: dict, overrides) -> dict:
    """Apply ``section.key=value`` strings; values parse as YAML scalars."""
    import yaml
    data = dict(data)
    for item in overrides or []:
        path, eq, raw = item.partition("=")
        section, dot, key = path.strip().partition(".")
        if not (eq and dot and section and key):
            raise ConfigurationError(f"override {item!r} must look like section.key=value")
        try:
            value = yaml.safe_load(raw)
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"cannot parse override value {raw!r}: {exc}") from exc
        node = data.get(section)
        if not isinstance(node, (dict, type(None))):
            raise ConfigurationError(f"override {item!r}: section {section} is not a mapping")
        data[section] = {**(node or {}), key: value}
    return data


def _build_system(cfg: SimConfig, vals: dict) -> SimConfig:
    kind = vals.pop("kind", None)
    if kind == "example1":
        ref = presets.example1()
        cfg = dataclasses.replace(cfg, model=ref.model, linear=None, cert=ref.cert)
    elif kind == "example2":
        # no certificate, so nothing that reads one: no monitor
        cfg = dataclasses.replace(cfg, model=presets.example2_model(), linear=None, cert=None,
                                  monitor=None)
    elif kind == "linear":
        if not vals.keys() >= {"A", "B", "K"}:
            raise ConfigurationError("system.kind linear needs system.A, system.B and system.K")
        A = vals.pop("A")
        Q = vals.pop("Q") if "Q" in vals else np.eye(np.atleast_2d(A).shape[0])
        sys = LinearSystem(A=A, B=vals.pop("B"), K_gain=vals.pop("K"), Q=Q)
        cfg = dataclasses.replace(cfg, model=sys.to_model(), linear=sys, cert=sys)
    else:
        raise ConfigurationError(f"system.kind must be example1, example2 or linear: {kind!r}")
    _unread("system", vals, f"system.kind is {kind}")
    return cfg


def _build_delay(cfg: SimConfig, vals: dict) -> SimConfig:
    if vals.keys() == {"nominal_D"}:  # the controller's model alone: the plant's delay stays
        return dataclasses.replace(cfg, ctrl_delay=ActuationDelay.constant(vals["nominal_D"]))
    kind = vals.pop("kind", "constant")
    if kind == "constant":
        delay = ActuationDelay.constant(vals.pop("D", 0.5))
    elif kind == "example1":
        delay = ActuationDelay.example1()
    elif kind == "sinusoidal":
        delay = ActuationDelay.sinusoidal(vals.pop("D", 0.2), vals.pop("a", 0.01))
    else:
        raise ConfigurationError(f"unknown delay.kind {kind!r}")
    ctrl = cfg.ctrl_delay
    if "nominal_D" in vals:
        ctrl = ActuationDelay.constant(vals.pop("nominal_D"))
    _unread("delay", vals, f"delay.kind is {kind}")
    return dataclasses.replace(cfg, delay=delay, ctrl_delay=ctrl)


def _build_sensing(cfg: SimConfig, vals: dict) -> SimConfig:
    if vals.get("mode", cfg.sensing.mode) == "perfect":
        _unread("sensing", vals.keys() - {"mode"}, "sensing.mode is perfect")
    if "mu_psi" in vals or "sigma_psi" in vals:
        _unread("sensing", vals.keys() & {"d_psi"}, "sensing.mu_psi or sigma_psi is given")
        vals["d_psi"] = None
    elif vals.get("d_psi", cfg.sensing.d_psi) is not None:
        vals.update(mu_psi=None, sigma_psi=None)
    return dataclasses.replace(cfg, sensing=dataclasses.replace(cfg.sensing, **vals))


def _build_trigger(cfg: SimConfig, vals: dict) -> SimConfig:
    mode = vals.pop("mode", cfg.trigger.mode)
    if mode == "fixed-ratio":
        # a ratio carried over from a fixed-ratio trigger only, not a derived one
        base = cfg.trigger.rho_bar if cfg.trigger.mode == "fixed-ratio" else 0.5
        trig = TriggerConfig.fixed_ratio(vals.pop("rho_bar", base))
    elif mode == "linear":
        if cfg.linear is None:
            raise ConfigurationError("trigger.mode linear needs a linear system")
        trig = TriggerConfig.linear(cfg.linear, theta=vals.pop("theta", cfg.trigger.theta))
    elif mode == "nonlinear":
        trig = TriggerConfig.nonlinear(cfg.cert, vals.pop("theta", cfg.trigger.theta),
                                       vals.pop("L_K", cfg.model.L_K))
    else:
        raise ConfigurationError(f"unknown trigger.mode {mode!r}")
    _unread("trigger", vals, f"trigger.mode is {mode}")
    return dataclasses.replace(cfg, trigger=trig)


def _build_predictor(cfg: SimConfig, vals: dict) -> SimConfig:
    method = vals.get("method", cfg.predictor_method)
    if method not in PREDICTOR_METHODS:
        raise ConfigurationError(f"predictor.method must be one of {', '.join(PREDICTOR_METHODS)}")
    return dataclasses.replace(cfg, predictor_method=method)


def _build_monitor(cfg: SimConfig, vals: dict) -> SimConfig:
    if not vals.pop("enabled", True):
        _unread("monitor", vals, "monitor.enabled is false")
        return dataclasses.replace(cfg, monitor=None)
    mon = dataclasses.replace(cfg.monitor or MonitorConfig(), **vals)
    return dataclasses.replace(cfg, monitor=mon)


# in the order they refine the config
_BUILDERS = {
    "system": _build_system, "delay": _build_delay, "sensing": _build_sensing,
    "trigger": _build_trigger, "predictor": _build_predictor, "monitor": _build_monitor,
    "sim": lambda cfg, vals: dataclasses.replace(cfg, **vals),
}


def build_sim_config(data: dict) -> SimConfig:
    """Assemble a SimConfig from parsed config data: from ``data['preset']`` when given,
    else from a ``system`` section; the other sections refine it in a fixed order."""
    for key in data:
        if key not in _BUILDERS and key != "preset":
            raise ConfigurationError(f"unknown config section {key!r}")
    sections = {name: read_section(name, data[name]) for name in _BUILDERS if name in data}
    if "preset" in data:
        name = data["preset"]
        cfg = presets.get_preset(name) if isinstance(name, str) else None
        if not isinstance(cfg, SimConfig):
            raise ConfigurationError(f"preset {name!r} is not a simulation preset")
    elif "system" in data:  # the preset of the system's kind; _build_system checks the kind
        kind = sections["system"].get("kind")
        cfg = presets.get_preset(kind if kind in ("example1", "example2") else "linear2d")
    else:
        raise ConfigurationError("config needs a preset or a system section")
    for name, vals in sections.items():
        cfg = _BUILDERS[name](cfg, vals)
    if cfg.trigger.mode == "linear":  # from the final system, also when carried over from a preset
        cfg = _build_trigger(cfg, {"theta": cfg.trigger.theta})
    if cfg.predictor_method == "linear-closed-form" and cfg.linear is None:
        raise ConfigurationError("predictor.method linear-closed-form needs a linear system")
    return cfg
