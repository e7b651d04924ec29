"""Record ``reference.json``: the outputs of each workload on the presets' own inputs.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/record_reference.py
"""

import json
import sys
import tempfile
from pathlib import Path

import run  # pins the BLAS threads before numpy is imported
import workloads

# States and heatmap cells may drift by a few ulps (an integer time grid or a
# vectorized channel table reorders float operations); event counts and event
# times are compared exactly.
TOLERANCE = {"rtol": 1e-9, "atol": 1e-12}


def main() -> int:
    etpf = run.import_etpf()
    blank = {"workloads": {name: {} for name in workloads.WORKLOADS}, "tolerance": TOLERANCE}
    out = {"tolerance": TOLERANCE, "machine": run.machine_block(), "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="_work-", dir=run.HERE) as tmp:
        for name in workloads.WORKLOADS:
            wl = workloads.make(name, etpf, 0, Path(tmp), blank)
            out["workloads"][name] = wl.record(run.clock)
    workloads.REFERENCE_PATH.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
