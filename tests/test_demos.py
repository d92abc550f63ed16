"""Every script under ``demos/`` runs to completion against this package."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # cwd=tmp_path: demos that write files write them there
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, env=child_env(), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
