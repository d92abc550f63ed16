"""The benchmark's committed ``sim_an`` references, checked in Tier-1.

``perfbench/refs/sim_an.json`` holds the digest of the results CSV that the
full-size ``sim_an`` workload writes at each seed.  A change to the random
streams, the generation, the amputation or the ``an`` kernel that moves a
single bit changes that digest; this test catches it without running the
benchmark.  It reads ``perfbench/workloads.py`` and the references as they
are, and runs the workload's CLI steps in this process.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from mcartest.cli import main

BENCH = Path(__file__).parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 1, 4242])
def test_sim_an_matches_committed_reference(seed, tmp_path, capsys):
    workloads = _workloads()
    refs = json.loads((BENCH / "refs" / "sim_an.json").read_text(encoding="utf-8"))
    size = workloads.SIZES["full"]["sim_an"]
    for step in workloads.steps("sim_an", seed, size, tmp_path):
        assert main(step) == 0
    assert workloads.fingerprint("sim_an", tmp_path) == refs["full"][str(seed)]
