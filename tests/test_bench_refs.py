"""The benchmark's committed references, checked in Tier-1.

``perfbench/refs/<workload>.json`` holds, for each seed, the fingerprint of
what the full-size workload writes: the digest of the results CSV for the
simulations, and the digest of the generated CSV with the report's
statistics for ``csv_roundtrip``.  A change to the random streams, the
generation, the amputation or a test kernel that moves a single bit of a
results CSV, or a report statistic by more than the benchmark's tolerance,
fails here without running the benchmark.  ``sim_an`` covers the ``an``
kernel in the harness, ``sim_d2`` the ``d2_general`` kernel there, and
``csv_roundtrip`` the ``test`` command on one large dataset.  The tests read
``perfbench/workloads.py`` and the references as they are, and run the
workloads' CLI steps in this process.  A last test reads
``perfbench/tracer.py`` and checks that the package attributes it wraps
still exist, so a start-up refactor cannot silently zero its metrics.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from mcartest.cli import main

BENCH = Path(__file__).parents[1] / "perfbench"


def _load(name):
    """``perfbench/<name>.py`` as a module, read as it is."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mismatches(name, seed, work):
    """Run the full-size workload at ``seed`` in ``work``; return
    ``workloads.compare``'s messages against the committed reference."""
    workloads = _load("workloads")
    refs = json.loads((BENCH / "refs" / f"{name}.json").read_text(encoding="utf-8"))
    for step in workloads.steps(name, seed, workloads.SIZES["full"][name], work):
        assert main(step) == 0
    return workloads.compare(workloads.fingerprint(name, work), refs["full"][str(seed)])


@pytest.mark.parametrize("seed", [0, 1, 4242])
def test_sim_an_matches_committed_reference(seed, tmp_path, capsys):
    assert _mismatches("sim_an", seed, tmp_path) == []


@pytest.mark.parametrize("seed", [0, 4242])
@pytest.mark.parametrize("name", ["sim_d2", "csv_roundtrip"])
def test_workload_matches_committed_reference(name, seed, tmp_path, capsys):
    assert _mismatches(name, seed, tmp_path) == []


# the tracer's targets that resolve: its per-layer metrics for the CLI, CSV
# I/O, synthesis, streams, cells and EM read 0 if any of them goes missing
TRACED = {
    "mcartest.cli": {
        "main", "load_csv", "write_csv", "results_to_csv",
        "generate", "apply_mechanism", "rng_stream",
    },
    "mcartest.harness": {"run_cell"},
    "mcartest.stats": {"em_mvn"},
}


def test_tracer_targets_resolve():
    targets = {(module, attr) for module, attr, _ in _load("tracer").TARGETS}
    missing = []
    for module, attrs in TRACED.items():
        for attr in sorted(attrs):
            assert (module, attr) in targets, f"the tracer no longer wraps {module}.{attr}"
            if not callable(getattr(importlib.import_module(module), attr, None)):
                missing.append(f"{module}.{attr}")
    assert missing == []
