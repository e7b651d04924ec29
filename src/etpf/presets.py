"""Shipped experiment presets.

Each preset is a zero-argument factory returning either a :class:`SimConfig`
(simulation presets), a heatmap sweep description, or trade-off constants.
Plant and feedback maps are module-level functions so configurations stay
picklable for parallel sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .channel import ActuationDelay
from .engine import SensingConfig, SimConfig
from .exceptions import ConfigurationError
from .model import LinearSystem, SystemModel, linear_certificate
from .monitor import MonitorConfig
from .tradeoff import TradeoffConstants
from .trigger import TriggerConfig

__all__ = [
    "PRESETS",
    "get_preset",
    "HeatmapSpec",
    "TradeoffSpec",
    "example1_model",
    "example2_model",
    "linear2d_system",
]


# -- Compliant nonlinear benchmark -------------------------------------------


def _ex1_f(x, u):
    # Python floats: the same IEEE operations as numpy scalars, without their overhead
    x0, x1 = x.tolist()
    return np.array([x0 + x1, math.tanh(x0) + x1 + u])


def _ex1_K(x):
    x0, x1 = x.tolist()
    return -6.0 * x0 - 5.0 * x1 - math.tanh(x0)


def example1_model() -> SystemModel:
    return SystemModel(
        state_dim=2,
        f=_ex1_f,
        K=_ex1_K,
        L_f=2.0 * math.sqrt(3.0),
        L_K=7.0 * math.sqrt(2.0),
    )


def _ex1_linearization() -> LinearSystem:
    """Linearization at the origin; supplies the monitor's quadratic certificate."""
    return LinearSystem(
        A=np.array([[1.0, 1.0], [1.0, 1.0]]),
        B=np.array([[0.0], [1.0]]),
        K_gain=np.array([[-7.0, -5.0]]),
        Q=np.eye(2),
    )


def example1() -> SimConfig:
    return SimConfig(
        model=example1_model(),
        delay=ActuationDelay.example1(),
        sensing=SensingConfig(mode="periodic", delta_tau=2.0, d_psi=1.0),
        trigger=TriggerConfig.fixed_ratio(0.015, theta=0.5),
        x0=np.array([1.0, 1.0]),
        h=1e-2,
        T=25.0,
        predictor_method="closed-loop",
        cert=linear_certificate(_ex1_linearization()),
        monitor=MonitorConfig(b=10.0, form="sup", stride=10),
        label="example1",
    )


# -- Non-compliant nonlinear benchmark ---------------------------------------


def _ex2_f(x, u):
    return np.array([x[0] + x[1], x[0] ** 3 + x[1] + u])


def _ex2_K(x):
    return -6.0 * x[0] - 5.0 * x[1] - x[0] ** 3


def example2_model() -> SystemModel:
    # Lipschitz constants on the unit operating region (cubic terms are local).
    return SystemModel(
        state_dim=2,
        f=_ex2_f,
        K=_ex2_K,
        L_f=2.0 * math.sqrt(3.0),
        L_K=7.0 * math.sqrt(2.0),
    )


def _example2_base(D: float, a: float) -> SimConfig:
    return SimConfig(
        model=example2_model(),
        delay=ActuationDelay.sinusoidal(D, a),
        sensing=SensingConfig(
            mode="periodic", delta_tau=1.0, mu_psi=0.1, sigma_psi=0.02, seed=7
        ),
        trigger=TriggerConfig.fixed_ratio(0.5, theta=0.5),
        x0=np.array([1.0, 1.0]),
        h=1e-2,
        T=25.0,
        predictor_method="closed-loop",
        # the controller assumes the nominal constant delay D
        ctrl_delay=ActuationDelay.constant(D),
        monitor=MonitorConfig(b=10.0, form="sup", stride=10),
        label="example2",
    )


def example2() -> SimConfig:
    return _example2_base(D=0.2, a=0.01)


def example2_body() -> SimConfig:
    return replace(_example2_base(D=0.5, a=0.05), label="example2-body")


# -- Linear double integrator ------------------------------------------------


def linear2d_system() -> LinearSystem:
    return LinearSystem(
        A=np.array([[0.0, 1.0], [0.0, 0.0]]),
        B=np.array([[0.0], [1.0]]),
        K_gain=np.array([[-1.0, -2.0]]),
        Q=np.eye(2),
    )


def linear2d() -> SimConfig:
    sys = linear2d_system()
    return SimConfig(
        model=sys.to_model(),
        delay=ActuationDelay.constant(0.5),
        sensing=SensingConfig(mode="periodic", delta_tau=0.05, d_psi=0.0),
        trigger=TriggerConfig.linear(sys, theta=0.5),
        x0=np.array([1.0, 1.0]),
        h=1e-3,
        T=15.0,
        predictor_method="linear-closed-form",
        cert=linear_certificate(sys),
        linear=sys,
        monitor=MonitorConfig(b=10.0, form="integral", stride=10),
        label="linear2d",
    )


# -- Sweeps ------------------------------------------------------------------


@dataclass(frozen=True)
class HeatmapSpec:
    base_factory: Callable[[], SimConfig]
    delta_tau_grid: tuple
    d_psi_grid: tuple
    n_ic: int
    seed: int
    label: str = ""


def heatmap_ex1() -> HeatmapSpec:
    return HeatmapSpec(
        base_factory=example1,
        delta_tau_grid=tuple(np.linspace(0.5, 6.0, 8)),
        d_psi_grid=tuple(np.linspace(0.0, 4.0, 8)),
        n_ic=10,
        seed=42,
        label="heatmap-ex1",
    )


@dataclass(frozen=True)
class TradeoffSpec:
    system_factory: Callable[[], LinearSystem]
    M2: float
    nu_grid: tuple
    lambda_grid: tuple
    label: str = ""

    def constants(self) -> TradeoffConstants:
        return TradeoffConstants.from_linear_system(self.system_factory(), M2=self.M2)


def tradeoff() -> TradeoffSpec:
    nu_max = math.sqrt(2.0)
    return TradeoffSpec(
        system_factory=linear2d_system,
        M2=1.0,
        nu_grid=tuple(np.linspace(0.01, nu_max - 0.01, 100)),
        lambda_grid=tuple(np.round(np.arange(0.0, 1.0001, 0.05), 10)),
        label="tradeoff",
    )


PRESETS = {
    "example1": example1,
    "example2": example2,
    "example2-body": example2_body,
    "linear2d": linear2d,
    "heatmap-ex1": heatmap_ex1,
    "tradeoff": tradeoff,
}


def get_preset(name: str):
    try:
        factory = PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ConfigurationError(f"unknown preset {name!r} (known: {known})") from None
    return factory()
