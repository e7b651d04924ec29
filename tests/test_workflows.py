"""The CI workflow files load as YAML and every step does something."""

from pathlib import Path

import pytest
import yaml

WORKFLOWS = sorted((Path(__file__).resolve().parents[1] / ".github" / "workflows").glob("*.yml"))


def test_there_is_a_workflow():
    assert WORKFLOWS


@pytest.mark.parametrize("path", WORKFLOWS, ids=lambda p: p.name)
def test_workflow_loads_and_each_step_runs_or_uses(path):
    doc = yaml.safe_load(path.read_text())
    for job in doc["jobs"].values():
        for step in job["steps"]:
            assert ("run" in step) != ("uses" in step), step
