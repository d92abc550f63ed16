"""The benchmark's workloads: the CLI commands each runs, and its output check.

Each workload is a fixed sequence of ``mcartest`` CLI calls whose only
variable input is the seed.  Why each one is here:

* ``sim_an`` -- the power study of acceptance criterion 7 without EM: the
  closed-form ``an`` statistic plus generation and amputation, repeated over
  many tiny datasets.  It runs no EM and no CSV ingest.
* ``sim_d2`` -- the criterion-6 cell (2X3Y Clayton, n=100) with ``an`` and
  Little's d2; EM and the pattern grouping take most of each replication.
  Not in ``BENCHMARK.json``: a full measurement (4 + 22 runs per workload)
  must fit in 57 minutes, which allows 60-second runs for two workloads
  only, and shorter runs were not steady.  Run it by name for per-layer EM
  figures.
* ``csv_roundtrip`` -- ``generate`` a 100k-row dataset, then ``test`` it.
  The same layers as above run once on one large dataset, so CSV write and
  read dominate and per-replication overheads do not appear.

The check compares a fingerprint of the outputs with a reference captured
from the program (``refs.json``, made by ``run.py --make-refs``): the bytes
of the results CSV for the simulations; the digest of the generated CSV and
the report statistics (1e-9 relative, identical ``df`` and ``reject``) for
the round trip.  For a seed without a reference, every call in the run must
give the first call's fingerprint and pass the sanity checks below.
"""

import csv
import hashlib
import json
import math

NAMES = ("sim_an", "sim_d2", "csv_roundtrip")

# replications per cell (simulations) or rows (round trip) in one call
SIZES = {
    "full": {"sim_an": 250, "sim_d2": 150, "csv_roundtrip": 100000},
    "smoke": {"sim_an": 10, "sim_d2": 4, "csv_roundtrip": 2000},
}

AN_SWEEP = (0.06, 0.12, 0.18, 0.24)
REL_TOL = 1e-9


def steps(name, seed, size, work):
    """CLI argument lists for one invocation of a workload, in order."""
    out = str(work / "results.csv")
    if name == "sim_an":
        return [[
            "simulate", "--p", "1", "--q", "2", "--n", "100",
            "--mechanism", "mar_1_to_x", "--odds", "9",
            "--sweep-miss", ",".join(str(v) for v in AN_SWEEP), "--tests", "an",
            "--replications", str(size), "--workers", "1",
            "--seed", str(seed), "--out", out,
        ]]
    if name == "sim_d2":
        return [[
            "simulate", "--p", "2", "--q", "3", "--n", "100",
            "--dist", "clayton", "--theta", "1", "--margins", "exp1",
            "--mechanism", "mcar", "--miss-prob", "0.12", "--tests", "an,d2",
            "--replications", str(size), "--workers", "1",
            "--seed", str(seed), "--out", out,
        ]]
    if name == "csv_roundtrip":
        data = str(work / "data.csv")
        return [
            [
                "generate", "--n", str(size), "--p", "2", "--q", "3",
                "--dist", "clayton", "--margins", "exp1",
                "--mechanism", "mar_1_to_x", "--miss-prob", "0.12", "--odds", "9",
                "--seed", str(seed), "--out", data,
            ],
            ["test", "--input", data, "--tests", "an,d2", "--out", str(work / "report.json")],
        ]
    raise ValueError(f"unknown workload {name!r}")


def replications(name, size):
    """Monte-Carlo replications one invocation completes (0 for the round trip)."""
    return {"sim_an": len(AN_SWEEP) * size, "sim_d2": size}.get(name, 0)


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def fingerprint(name, work):
    """What the check compares: digests and report statistics."""
    if name == "csv_roundtrip":
        with open(work / "report.json", encoding="utf-8") as fh:
            records = json.load(fh)
        report = [
            {k: r[k] for k in ("method", "statistic", "df", "reject")} for r in records
        ]
        return {"csv_sha256": _sha256(work / "data.csv"), "report": report}
    return {"results_sha256": _sha256(work / "results.csv")}


def compare(got, want):
    """Mismatches between two fingerprints, as messages."""
    problems = [
        f"{key}: {got.get(key)} != {want[key]}"
        for key in want
        if key.endswith("sha256") and got.get(key) != want[key]
    ]
    if "report" in want:
        if [r["method"] for r in got["report"]] != [r["method"] for r in want["report"]]:
            return problems + ["report methods differ"]
        for g, w in zip(got["report"], want["report"]):
            if g["df"] != w["df"] or g["reject"] != w["reject"]:
                problems.append(f"{w['method']}: df/reject {g['df']}/{g['reject']} "
                                f"!= {w['df']}/{w['reject']}")
            if not math.isclose(g["statistic"], w["statistic"], rel_tol=REL_TOL, abs_tol=0.0):
                problems.append(f"{w['method']}: statistic {g['statistic']!r} "
                                f"!= {w['statistic']!r}")
    return problems


def sanity(name, seed, size, work):
    """Checks that hold for any seed, as messages."""
    if name == "csv_roundtrip":
        with open(work / "report.json", encoding="utf-8") as fh:
            records = {r["method"]: r for r in json.load(fh)}
        problems = []
        if sorted(records) != ["an", "d2_general"]:
            problems.append(f"report methods {sorted(records)}")
        elif records["an"]["df"] != 6 or records["d2_general"]["df"] < 1:
            problems.append("unexpected degrees of freedom")
        problems += [
            f"{m}: non-finite statistic"
            for m, r in records.items()
            if not math.isfinite(r["statistic"])
        ]
        return problems

    with open(work / "results.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    tests = ["an"] if name == "sim_an" else ["an", "d2_general"]
    cells = len(AN_SWEEP) if name == "sim_an" else 1
    if [r["test"] for r in rows] != tests * cells:
        return [f"results rows {[r['test'] for r in rows]}"]
    problems = []
    for r in rows:
        rate, low, high = float(r["rate"]), float(r["ci_low"]), float(r["ci_high"])
        if not 0.0 <= low <= rate <= high <= 1.0:
            problems.append(f"rate {rate} outside its interval [{low}, {high}]")
        if int(r["seed"]) != seed or int(r["degenerate_count"]) > size:
            problems.append(f"bad seed or degenerate count in {r}")
    return problems
