"""Shared fixtures: expensive preset runs are executed once per session."""

import contextlib
import dataclasses
import time
from unittest import mock

import numpy as np
import pytest

from etpf import predictor as etpf_predictor
from etpf import presets, run
from etpf.engine import SensingConfig, heatmap
from etpf.predictor import ClosedLoopPredictor


def prediction_error(trace, delay):
    """sup over t >= t0 of |p(t) - x(sigma(t))|, with x linearly interpolated.

    Restricted to times whose prediction target sigma(t) lies inside the
    recorded trajectory; a ValueError if there is none.
    """
    sig = delay.sigma(trace.times)
    mask = (trace.times >= trace.t0) & (sig <= trace.times[-1])
    if not mask.any():
        raise ValueError(f"no prediction target inside the horizon: t0 = {trace.t0}, "
                         f"sigma(t0) = {float(delay.sigma(trace.t0))}, T = {trace.times[-1]}")
    s = sig[mask]
    xi = np.column_stack(
        [np.interp(s, trace.times, trace.x[:, j]) for j in range(trace.x.shape[1])]
    )
    return float(np.max(np.linalg.norm(trace.p[mask] - xi, axis=1)))


def cold_linear_memos():
    """Empty the process-wide memos of the linear path: the next linear run computes every
    ``expm`` and lift table it reads, as the first run of a process does."""
    etpf_predictor._steps.clear()
    etpf_predictor.lift_table.cache_clear()


def per_step(cfg):
    """``cfg`` with its plant f wrapped in a lambda: a model that ``LinearSystem.to_model``
    did not build keeps a linear run on the engine's per-step path, the block path's oracle."""
    f = cfg.model.f
    return dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, f=lambda x, u: f(x, u)))


@contextlib.contextmanager
def own_step():
    """Runs inside take the plant's own Euler steps: with the closed-loop predictor's
    ``replayed`` switched off, the plant never reads the replay's rows."""
    with mock.patch.object(ClosedLoopPredictor, "replayed", False):
        yield


@contextlib.contextmanager
def unfused():
    """Runs inside call ``advance`` on every closed-loop step: with the predictor's ``fused``
    switched off, the engine takes no one-node step on the chain itself, and ``advance``'s
    ``_extend`` is the oracle of the one it takes."""
    with mock.patch.object(ClosedLoopPredictor, "fused", False):
        yield


def offgrid_config():
    """``example1`` at the first cell of sweep-ex1: ``heatmap-ex1``'s second ``delta_tau``
    (9/7 up to an ulp) and second ``d_psi`` (4/7).  Only the transmissions at 0, 9 and 18
    lie on the grid, so the plant alternates between its own Euler step (after an off-grid
    anchor) and the closed-loop replay's rows (after an on-grid one)."""
    spec = presets.heatmap_ex1()
    sensing = SensingConfig(mode="periodic", delta_tau=float(spec.delta_tau_grid[1]),
                            d_psi=float(spec.d_psi_grid[1]))
    return dataclasses.replace(presets.example1(), sensing=sensing)


TRACE_COLUMNS = ("x", "u", "p", "e_norm", "threshold", "event_flags", "delivery_flags")


def assert_same_run(tr, oracle):
    """Byte-identical columns, event times and final step."""
    for name in TRACE_COLUMNS:
        np.testing.assert_array_equal(getattr(tr, name), getattr(oracle, name), err_msg=name)
    assert tr.events.event_times == oracle.events.event_times
    assert tr.diagnostics["final_step"] == oracle.diagnostics["final_step"]
    assert tr.diverged == oracle.diverged


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
