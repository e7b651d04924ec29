"""Event-triggered predictor feedback for systems with time-varying delays.

Simulation library and CLI for predictor-based event-triggered stabilization
of single-input plants with actuation and sensing delays: plant models with
quadratic certificates, delay channels, predictor strategies, the event trigger
with its dwell-time bound, Lyapunov-Krasovskii monitoring, and the linear
communication-convergence trade-off.
"""

from .channel import ActuationDelay, SensingSchedule
from .engine import SensingConfig, SimConfig, SimTrace, heatmap, run
from .exceptions import (ChannelModelError, ConfigurationError, CoverageError, DomainError,
                         ETPFError, MonitorError, NumericalError, PredictorError)
from .model import LinearSystem, SystemModel, solve_lyapunov
from .monitor import MonitorConfig, compute_L, compute_V, compute_w, decay_report
from .predictor import PREDICTOR_METHODS, make_predictor
from .presets import PRESETS, get_preset
from .signals import TimedSignal
from .tradeoff import TradeoffConstants, aggregate_J, delta_of_nu, mu_of_nu, optimize_nu, sweep
from .trigger import EventLog, TriggerConfig, min_dwell, min_dwell_numeric, threshold

__version__ = "0.1.0"

__all__ = [
    "ActuationDelay", "SensingSchedule",
    "SensingConfig", "SimConfig", "SimTrace", "heatmap", "run",
    "ChannelModelError", "ConfigurationError", "CoverageError", "DomainError", "ETPFError",
    "MonitorError", "NumericalError", "PredictorError",
    "LinearSystem", "SystemModel", "solve_lyapunov",
    "MonitorConfig", "compute_L", "compute_V", "compute_w", "decay_report",
    "PREDICTOR_METHODS", "make_predictor",
    "PRESETS", "get_preset",
    "TimedSignal",
    "TradeoffConstants", "aggregate_J", "delta_of_nu", "mu_of_nu", "optimize_nu", "sweep",
    "EventLog", "TriggerConfig", "min_dwell", "min_dwell_numeric", "threshold",
    "__version__",
]
