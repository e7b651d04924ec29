"""Shared fixtures: expensive preset runs are executed once per session."""

import dataclasses
import time

import numpy as np
import pytest

from etpf import presets, run
from etpf.engine import heatmap


def prediction_error(trace, delay):
    """sup over t >= t0 of |p(t) - x(sigma(t))|, with x linearly interpolated.

    Restricted to times whose prediction target sigma(t) lies inside the
    recorded trajectory.
    """
    sig = delay.sigma(trace.times)
    mask = (trace.times >= trace.t0) & (sig <= trace.times[-1])
    s = sig[mask]
    xi = np.column_stack(
        [np.interp(s, trace.times, trace.x[:, j]) for j in range(trace.x.shape[1])]
    )
    return float(np.max(np.linalg.norm(trace.p[mask] - xi, axis=1)))


def per_step(cfg):
    """``cfg`` with its plant f wrapped in a lambda: a model that ``LinearSystem.to_model``
    did not build keeps a linear run on the engine's per-step path, the block path's oracle."""
    f = cfg.model.f
    return dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, f=lambda x, u: f(x, u)))


@pytest.fixture(scope="session")
def ex1_trace():
    return run(presets.example1())


@pytest.fixture(scope="session")
def linear_trace():
    return run(presets.linear2d())


@pytest.fixture(scope="session")
def ex2_trace():
    return run(presets.example2())


@pytest.fixture(scope="session")
def ex2_body_trace():
    return run(presets.example2_body())


@pytest.fixture(scope="session")
def all_preset_traces(ex1_trace, linear_trace, ex2_trace, ex2_body_trace):
    return {
        "example1": ex1_trace,
        "linear2d": linear_trace,
        "example2": ex2_trace,
        "example2-body": ex2_body_trace,
    }


@pytest.fixture(scope="session")
def ex1_trace_fine():
    cfg = dataclasses.replace(presets.example1(), h=1e-3, monitor=None)
    return run(cfg)


@pytest.fixture(scope="session")
def heatmap_result():
    spec = presets.heatmap_ex1()
    start = time.monotonic()
    mat = heatmap(
        spec.base_factory(), spec.delta_tau_grid, spec.d_psi_grid,
        spec.n_ic, spec.seed, config_factory=spec.base_factory,
    )
    elapsed = time.monotonic() - start
    return spec, mat, elapsed
