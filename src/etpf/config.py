"""YAML configuration loading, override application, and SimConfig assembly.

A config file either names a ``preset`` to start from or describes the system
from scratch (``system.kind`` in {example1, example2, linear}).  Any field can
then be overridden section by section, including from the command line via
``--override section.key=value``.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from .channel import ActuationDelay
from .engine import SensingConfig, SimConfig
from .exceptions import ConfigurationError
from .model import LinearSystem, linear_certificate
from .monitor import MonitorConfig
from .predictor import PREDICTOR_METHODS
from .trigger import TriggerConfig

__all__ = ["load_config", "apply_overrides", "build_sim_config"]

_SECTIONS = ("system", "delay", "sensing", "trigger", "predictor", "monitor", "sim")


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
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigurationError(f"config root in {path} must be a mapping")
    return data


def apply_overrides(data: dict, overrides) -> dict:
    """Apply ``section.key=value`` strings; values parse as YAML scalars."""
    data = dict(data)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigurationError(f"override {item!r} must look like section.key=value")
        path, raw = item.split("=", 1)
        keys = path.strip().split(".")
        if len(keys) < 2 or not all(keys):
            raise ConfigurationError(f"override key {path!r} must be section.key")
        import yaml
        try:
            value = yaml.safe_load(raw)
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"cannot parse override value {raw!r}: {exc}") from exc
        node = data
        for k in keys[:-1]:
            nxt = node.get(k)
            if nxt is None:
                nxt = {}
                node[k] = nxt
            elif not isinstance(nxt, dict):
                raise ConfigurationError(f"override path {path!r} crosses a scalar field {k!r}")
            else:
                nxt = dict(nxt)
                node[k] = nxt
            node = nxt
        node[keys[-1]] = value
    return data


def _matrix(section: dict, key: str, what: str) -> np.ndarray:
    if key not in section:
        raise ConfigurationError(f"linear system section is missing field {key!r} ({what})")
    try:
        return np.asarray(section[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"field {key!r} is not a numeric matrix: {exc}") from exc


def _build_system(cfg: SimConfig, section: dict) -> SimConfig:
    from . import presets

    kind = section.get("kind")
    if kind == "example1":
        ref = presets.example1()
        return dataclasses.replace(
            cfg, model=ref.model, linear=None, cert=ref.cert
        )
    if kind == "example2":
        return dataclasses.replace(
            cfg, model=presets.example2_model(), linear=None, cert=None
        )
    if kind == "linear":
        A = _matrix(section, "A", "state matrix")
        B = _matrix(section, "B", "input matrix")
        K = _matrix(section, "K", "feedback gain")
        Q = _matrix(section, "Q", "Lyapunov right-hand side") if "Q" in section \
            else np.eye(A.shape[0])
        sys = LinearSystem(A=A, B=B, K_gain=K, Q=Q)
        return dataclasses.replace(
            cfg, model=sys.to_model(), linear=sys, cert=linear_certificate(sys)
        )
    raise ConfigurationError(
        f"system.kind must be one of example1, example2, linear (got {kind!r})"
    )


def _build_delay(cfg: SimConfig, section: dict) -> SimConfig:
    kind = section.get("kind", "constant")
    if kind == "constant":
        delay = ActuationDelay.constant(float(section.get("D", 0.5)))
    elif kind == "example1":
        delay = ActuationDelay.example1()
    elif kind == "sinusoidal":
        delay = ActuationDelay.sinusoidal(
            float(section.get("D", 0.2)), float(section.get("a", 0.01))
        )
    else:
        raise ConfigurationError(f"unknown delay.kind {kind!r}")
    ctrl = cfg.ctrl_delay
    if "nominal_D" in section:
        ctrl = ActuationDelay.constant(float(section["nominal_D"]))
    return dataclasses.replace(cfg, delay=delay, ctrl_delay=ctrl)


def _build_sensing(cfg: SimConfig, section: dict) -> SimConfig:
    def opt(key):
        v = section.get(key, getattr(cfg.sensing, key, None))
        return None if v is None else (int(v) if key == "seed" else float(v))

    mode = section.get("mode", cfg.sensing.mode)
    if "mu_psi" in section or "sigma_psi" in section:
        d_psi = None
    else:
        d_psi = opt("d_psi")
    sensing = SensingConfig(
        mode=mode,
        delta_tau=float(section.get("delta_tau", cfg.sensing.delta_tau)),
        d_psi=d_psi,
        mu_psi=opt("mu_psi") if d_psi is None else None,
        sigma_psi=opt("sigma_psi") if d_psi is None else None,
        seed=opt("seed"),
    )
    return dataclasses.replace(cfg, sensing=sensing)


def _build_trigger(cfg: SimConfig, section: dict) -> SimConfig:
    mode = section.get("mode", cfg.trigger.mode)
    theta = float(section.get("theta", cfg.trigger.theta))
    if mode == "fixed-ratio":
        # a ratio carried over from a fixed-ratio trigger only, not a derived one
        base = cfg.trigger.rho_bar if cfg.trigger.mode == "fixed-ratio" else 0.5
        rho_bar = float(section.get("rho_bar", base))
        trig = TriggerConfig.fixed_ratio(rho_bar, theta=theta)
    elif mode == "linear":
        if cfg.linear is None:
            raise ConfigurationError("trigger.mode linear needs a linear system")
        trig = TriggerConfig.linear(cfg.linear, theta=theta)
    elif mode == "nonlinear":
        L_K = float(section.get("L_K", cfg.model.L_K))
        trig = TriggerConfig.nonlinear(theta=theta, L_K=L_K)
    else:
        raise ConfigurationError(f"unknown trigger.mode {mode!r}")
    return dataclasses.replace(cfg, trigger=trig)


def _build_monitor(cfg: SimConfig, section: dict) -> SimConfig:
    if section.get("enabled", True) is False:
        return dataclasses.replace(cfg, monitor=None)
    base = cfg.monitor or MonitorConfig()
    mon = MonitorConfig(
        b=float(section.get("b", base.b)),
        form=section.get("form", base.form),
        stride=int(section.get("stride", base.stride)),
    )
    return dataclasses.replace(cfg, monitor=mon)


def _build_sim(cfg: SimConfig, section: dict) -> SimConfig:
    kwargs = {}
    if "x0" in section:
        kwargs["x0"] = np.asarray(section["x0"], dtype=float)
    for key in ("h", "T", "u_prehistory", "divergence_threshold"):
        if key in section:
            kwargs[key] = float(section[key])
    return dataclasses.replace(cfg, **kwargs) if kwargs else cfg


def build_sim_config(data: dict, base: Optional[SimConfig] = None) -> SimConfig:
    """Assemble a SimConfig from parsed config data.

    Starts from ``data['preset']`` (or ``base``) when given, else requires a
    ``system`` section; later sections refine the result in a fixed order.
    """
    from . import presets

    cfg = base
    if "preset" in data:
        cfg = presets.get_preset(str(data["preset"]))
        if not isinstance(cfg, SimConfig):
            raise ConfigurationError(
                f"preset {data['preset']!r} is not a simulation preset"
            )
    for key in data:
        if key not in _SECTIONS and key != "preset":
            raise ConfigurationError(f"unknown config section {key!r}")
    if cfg is None:
        if "system" not in data:
            raise ConfigurationError("config needs a preset or a system section")
        # neutral scaffold; the sections below replace every relevant field
        cfg = presets.linear2d()
    if "system" in data:
        cfg = _build_system(cfg, data["system"] or {})
    if "delay" in data:
        cfg = _build_delay(cfg, data["delay"] or {})
    if "sensing" in data:
        cfg = _build_sensing(cfg, data["sensing"] or {})
    if "trigger" in data:
        cfg = _build_trigger(cfg, data["trigger"] or {})
    if "predictor" in data:
        method = (data["predictor"] or {}).get("method", cfg.predictor_method)
        if method not in PREDICTOR_METHODS:
            raise ConfigurationError(
                f"predictor.method must be one of {', '.join(PREDICTOR_METHODS)}"
            )
        if method == "linear-closed-form" and cfg.linear is None:
            raise ConfigurationError("linear-closed-form predictor needs a linear system")
        cfg = dataclasses.replace(cfg, predictor_method=method)
    if "monitor" in data:
        cfg = _build_monitor(cfg, data["monitor"] or {})
    if "sim" in data:
        cfg = _build_sim(cfg, data["sim"] or {})
    return cfg
