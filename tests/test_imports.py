"""Which paths load scipy and PyYAML.

The package imports scipy and yaml inside the few functions that call them,
so every preset and the heatmap run on numpy alone.  Each check
runs in a fresh interpreter, because this test session has imported scipy
already.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

REPORT = textwrap.dedent(
    """
    import json, sys
    print(json.dumps(sorted({".".join(m.split(".")[:2]) for m in sys.modules
                             if m.split(".")[0] in ("scipy", "yaml")})))
    """
)


def loaded_after(code: str, tmp_path) -> list:
    """scipy and yaml modules loaded once ``code`` has run, to two name levels."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code) + REPORT],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_nonlinear_presets_and_heatmap_load_no_scipy_or_yaml(tmp_path):
    offenders = loaded_after(
        """
        import dataclasses
        import etpf
        from etpf import presets
        from etpf.monitor import decay_report

        for factory in presets.PRESETS.values():
            factory()
        trace = etpf.run(dataclasses.replace(presets.example1(), T=2.0))
        assert (trace.V[trace.times >= trace.t0] > 0).any()  # the monitor ran
        decay_report(trace.times, trace.V, trace.t0)
        trace.write_trace_csv("trace.csv")
        trace.write_events_csv("events.csv")
        etpf.run(dataclasses.replace(presets.example2(), T=2.0))
        etpf.heatmap(presets.example1(), [2.0], [1.0], n_ic=1, seed=0, workers=1)
        """,
        tmp_path,
    )
    print("loaded:", offenders)
    assert offenders == []


def test_linear_path_loads_no_scipy(tmp_path):
    # the linear-closed-form predictor takes its exponentials from the package's own kernel
    loaded = loaded_after(
        """
        import etpf
        from etpf import presets

        cfg = presets.linear2d()
        assert cfg.predictor_method == "linear-closed-form"
        trace = etpf.run(cfg)
        trace.write_trace_csv("trace.csv")
        trace.write_events_csv("events.csv")
        """,
        tmp_path,
    )
    print("loaded:", loaded)
    assert loaded == []
