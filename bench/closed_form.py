#!/usr/bin/env python3
"""Measure ``stats.closed_form_batch`` and the benchmark workloads, parent against change.

Both sides are checkouts of this repository (each with ``src/`` and
``perfbench/``), best placed at paths of equal length.  Each phase adds
its results to the output JSON file as they finish:

    python3 bench/closed_form.py --parent ../parent --change ../change \\
        --out BENCH_closed_form.json --phase kernel
    python3 bench/closed_form.py ... --phase differential
    python3 bench/closed_form.py ... --phase pairs --workload sim_an --seed 0 --pairs 10
    python3 bench/closed_form.py ... --phase summary

``kernel`` times ``closed_form_batch`` on one block of 250 datasets of
n = 100 rows for each of the shapes 1X1Y, 1X2Y and 2X3Y, in one child
process per side and round with one BLAS thread: each child takes the
best of 9 repeats of 20 calls, and the sides alternate which goes first.
``differential`` runs both sides' kernels on the same stacks in child
processes and counts the datasets whose outputs differ in any bit: the
``dn`` statistics over stacks of 1X1Y datasets with offsets up to 1e8,
scales of 1e-6 to 1e6, small integer data (exact zero gaps) and
degenerate columns, and every statistic, p-value and error, and the
``dn`` and ``d2_univariate`` diagnostics, over those and over 1X2Y and
2X3Y stacks.  A bit count cannot tell a rounding move from a decision
change, so per test it also reports the error-class changes in each
direction, the reject flips at alpha = 0.05, and the largest relative move
of the statistic by decade of the complete columns' |mean|/sd; and per
side, ``an``'s drift between shifted data and the same data moved back, at
offsets 1e4 to 1e12.
``pairs`` and ``summary`` are those of ``bench/csv_write.py``:
``perfbench/run.py --trace 0`` on each side, alternating which side goes
first, then each side's median and quartiles and how many pairs the change
won.
"""

import argparse
import ast
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import csv_write
from csv_write import SIDES, _env, _load, _quartiles, _save

SHAPES = {"1X1Y": (1, 1), "1X2Y": (1, 2), "2X3Y": (2, 3)}

# run in a child with the side's src first on sys.path: argv is p, q and
# the number of repeats and of calls per repeat; prints the per-call
# seconds of each repeat
TIME_KERNEL = """
import sys, time
import numpy as np
from mcartest.data import ColumnRoles
from mcartest.stats import closed_form_batch
p, q, repeats, calls = map(int, sys.argv[1:])
rng = np.random.default_rng(0)
values = rng.standard_normal((250, 100, p + q))
mask = np.ones(values.shape, bool)
mask[:, :, p:] = rng.random((250, 100, q)) >= 0.15
roles = ColumnRoles(tuple(range(p)), tuple(range(p, p + q)))
for _ in range(5):
    closed_form_batch(values, mask, roles)
times = []
for _ in range(repeats):
    begin = time.perf_counter()
    for _ in range(calls):
        closed_form_batch(values, mask, roles)
    times.append((time.perf_counter() - begin) / calls)
print(repr(times))
"""

# run in a child with the side's src first on sys.path: argv is the file
# to write; builds the differential stacks from fixed seeds and writes
# every output of the kernel, as bytes, per stack
RUN_STACKS = """
import pickle, sys
import numpy as np
from mcartest.data import ColumnRoles
from mcartest.stats import closed_form_batch

def error_text(e):
    return None if e is None else (type(e).__name__, str(e), getattr(e, "eigenvalue", None))

def stacks():
    rng = np.random.default_rng(20261019)
    sizes = (3, 4, 5, 6, 8, 10, 13, 20, 30, 60, 100, 128, 257)
    for i in range(240):
        # 1X1Y: mixed offsets and scales, small integers, sparse missingness
        n = sizes[i % len(sizes)]
        kind = i % 4
        if kind == 3:
            values = rng.integers(-2, 3, (250, n, 2)).astype(float)
        else:
            values = rng.standard_normal((250, n, 2))
            values *= 10.0 ** rng.integers(-6, 7, (250, 1, 2))
            values += rng.choice([0.0, 1.0, -3e4, 1e8], (250, 1, 2))
        if kind == 2:
            values[::7, :, 0] = 2.5  # constant complete columns
        mask = np.ones(values.shape, bool)
        mask[:, :, 1] = rng.random((250, n)) >= rng.choice([0.02, 0.1, 0.3, 0.5], (250, 1))
        yield f"1X1Y_{i}", values, mask, 1, 1
    for label, (p, q) in (("1X2Y", (1, 2)), ("2X3Y", (2, 3))):
        for i in range(40):
            n = sizes[i % len(sizes)]
            values = rng.standard_normal((250, n, p + q))
            values *= 10.0 ** rng.integers(-6, 7, (250, 1, p + q))
            values += rng.choice([0.0, 1.0, 1e8], (250, 1, p + q))
            mask = np.ones(values.shape, bool)
            mask[:, :, p:] = rng.random((250, n, q)) >= 0.15
            yield f"{label}_{i}", values, mask, p, q

out = {}
for key, values, mask, p, q in stacks():
    roles = ColumnRoles(tuple(range(p)), tuple(range(p, p + q)))
    batches = closed_form_batch(values, mask, roles)
    # each dataset's largest |mean|/sd over its complete columns
    x = values[:, :, :p]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.max(np.abs(x.mean(axis=1)) / x.std(axis=1, ddof=1), axis=1)
    out[key] = {
        "mean_over_sd": ratio.tobytes(),
        "tests": {
            tag: {
                "statistic": b.statistic.tobytes(),
                "p_value": b.p_value.tobytes(),
                "errors": [error_text(e) for e in b.errors],
                "diagnostics": {k: np.asarray(v).tobytes() for k, v in b.diagnostics.items()},
            }
            for tag, b in batches.items()
        },
    }
with open(sys.argv[1], "wb") as fh:
    pickle.dump(out, fh)
"""

# run in a child with the side's src first on sys.path: prints, for each
# offset, an's largest relative drift between 400 2X3Y datasets (n = 100)
# with the offset added to their complete columns and the same data with it
# taken off again
SHIFT_DRIFT = """
import numpy as np
from mcartest.data import ColumnRoles
from mcartest.stats import closed_form_batch
rng = np.random.default_rng(12345)
values = rng.standard_normal((400, 100, 5))
mask = np.ones(values.shape, bool)
mask[:, :, 2:] = rng.random((400, 100, 3)) >= 0.15
roles = ColumnRoles((0, 1), (2, 3, 4))
drift = {}
for k in (4, 6, 8, 10, 12):
    shifted = values.copy()
    shifted[:, :, :2] += 10.0 ** k
    back = shifted.copy()
    back[:, :, :2] -= 10.0 ** k
    a = closed_form_batch(shifted, mask, roles)["an"].statistic
    b = closed_form_batch(back, mask, roles)["an"].statistic
    drift[f"1e{k}"] = float(np.max(np.abs(a - b) / np.maximum(b, 1.0)))
print(repr(drift))
"""


def kernel(dirs, out, rounds, repeats, calls):
    record = _load(out)
    best = {shape: {side: [] for side in SIDES} for shape in SHAPES}
    for r in range(rounds):
        for side in SIDES if r % 2 == 0 else SIDES[::-1]:
            for shape, (p, q) in SHAPES.items():
                text = subprocess.run(
                    [sys.executable, "-c", TIME_KERNEL, str(p), str(q), str(repeats), str(calls)],
                    env=_env(dirs[side]), check=True, capture_output=True, text=True,
                ).stdout
                best[shape][side].append(round(min(ast.literal_eval(text)) * 1e3, 4))
    record["kernel"] = {
        "what": (
            f"closed_form_batch on one block of 250 datasets x n = 100 (standard normal "
            f"values, incomplete columns missing with probability 0.15), one BLAS thread; "
            f"each child takes the best of {repeats} repeats of {calls} calls, "
            f"{rounds} children per side and shape, alternating which side goes first"
        ),
        "best_ms": {
            shape: {
                side: {**_quartiles(v), "per_child": v, "best": min(v)}
                for side, v in sides.items()
            }
            for shape, sides in best.items()
        },
    }
    _save(out, record)


def _error_class(error):
    return "valid" if error is None else error[0]


def _decade(ratio):
    """The label of |mean|/sd's decade: all below 1 share one, and a
    constant column (sd 0) has its own."""
    if not np.isfinite(ratio):
        return "constant"
    return "<1e0" if ratio < 1.0 else f"1e{int(np.floor(np.log10(ratio)))}"


def _differences(parent, change, alpha=0.05):
    """Per test, over every stack: the datasets compared, those whose
    statistic differs in any bit, and those with any other output differing;
    the error-class changes by direction; the reject flips at alpha; and,
    over the datasets valid on both sides, the largest move of the
    statistic relative to the parent's (or to 1 where that is smaller), by
    decade of the complete columns' largest |mean|/sd."""
    counts = {}
    for key, want_stack in parent.items():
        decades = [_decade(r) for r in np.frombuffer(want_stack["mean_over_sd"])]
        got_stack = change[key]["tests"]
        for tag, w in want_stack["tests"].items():
            g = got_stack[tag]
            stat_w = np.frombuffer(w["statistic"], np.uint64)
            stat_g = np.frombuffer(g["statistic"], np.uint64)
            other = (
                (np.frombuffer(w["p_value"], np.uint64) != np.frombuffer(g["p_value"], np.uint64))
                | np.array([a != b for a, b in zip(w["errors"], g["errors"])])
            )
            if tag != "an":
                for name, value in w["diagnostics"].items():
                    other |= np.frombuffer(value, np.uint64) != np.frombuffer(
                        g["diagnostics"][name], np.uint64
                    )
            row = counts.setdefault(tag, {
                "datasets_statistic_differs_other_differs": [0, 0, 0],
                "error_class_changes": {},
                "reject_flips": {"parent_rejects_change_accepts": 0,
                                 "parent_accepts_change_rejects": 0},
                "max_rel_statistic_move_by_decade": {},
            })
            bits = row["datasets_statistic_differs_other_differs"]
            bits[0] += len(stat_w)
            bits[1] += int(np.sum(stat_w != stat_g))
            bits[2] += int(np.sum(other))
            p_w, p_g = np.frombuffer(w["p_value"]), np.frombuffer(g["p_value"])
            s_w, s_g = np.frombuffer(w["statistic"]), np.frombuffer(g["statistic"])
            for i, (e_w, e_g) in enumerate(zip(w["errors"], g["errors"])):
                a, b = _error_class(e_w), _error_class(e_g)
                if a != b:
                    changes = row["error_class_changes"]
                    changes[f"{a} -> {b}"] = changes.get(f"{a} -> {b}", 0) + 1
                    continue
                if a != "valid":
                    continue
                if (p_w[i] <= alpha) != (p_g[i] <= alpha):
                    flip = ("parent_rejects_change_accepts" if p_w[i] <= alpha
                            else "parent_accepts_change_rejects")
                    row["reject_flips"][flip] += 1
                move = abs(s_g[i] - s_w[i]) / max(abs(s_w[i]), 1.0)
                cell = row["max_rel_statistic_move_by_decade"].setdefault(
                    decades[i], {"datasets": 0, "max_rel_move": 0.0}
                )
                cell["datasets"] += 1
                cell["max_rel_move"] = max(cell["max_rel_move"], float(move))
    return counts


def differential(dirs, out):
    record = _load(out)
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for side in SIDES:
            path = Path(tmp) / f"{side}.pickle"
            subprocess.run(
                [sys.executable, "-c", RUN_STACKS, str(path)],
                env=_env(dirs[side]), check=True,
            )
            outputs[side] = pickle.loads(path.read_bytes())
    counts = _differences(outputs["parent"], outputs["change"])
    drift = {
        side: ast.literal_eval(subprocess.run(
            [sys.executable, "-c", SHIFT_DRIFT], env=_env(dirs[side]), check=True,
            capture_output=True, text=True,
        ).stdout)
        for side in SIDES
    }
    dn = [s["tests"]["dn"] for s in outputs["change"].values() if "dn" in s["tests"]]
    valid = [np.array([e is None for e in s["errors"]]) for s in dn]
    zero = [np.frombuffer(s["statistic"]) == 0.0 for s in dn]
    record["differential"] = {
        "what": (
            "both sides' closed_form_batch on the same stacks of 250 datasets (240 1X1Y "
            "stacks with n from 3 to 257, per-column scales 1e-6 to 1e6 and offsets up to "
            "1e8, every fourth stack small integers, and in another fourth every seventh "
            "dataset's complete column constant; 40 stacks each of 1X2Y and 2X3Y); per "
            "test, the datasets compared, those whose statistic differs in any bit, and "
            "those whose p-value, error, or (dn and d2_univariate) diagnostics differ in "
            "any bit; the error-class changes (parent -> change, 'valid' for no error); "
            "the reject flips at alpha = 0.05 among datasets valid on both sides; and "
            "over those, the largest |change - parent| / max(|parent|, 1) of the "
            "statistic by decade of the dataset's largest complete-column |mean|/sd "
            "('<1e0' below 1, 'constant' where a complete column has sd 0)"
        ),
        "per_test": counts,
        "an_shift_drift": {
            "what": (
                "an's largest relative drift between 400 2X3Y datasets (n = 100, standard "
                "normal, incomplete columns missing with probability 0.15) with the offset "
                "added to their complete columns and the same data with it taken off again"
            ),
            **drift,
        },
        "dn_degenerate": int(sum(np.sum(~v) for v in valid)),
        "dn_valid_statistic_exactly_zero": int(sum(np.sum(v & z) for v, z in zip(valid, zero))),
    }
    _save(out, record)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, default=Path("BENCH_closed_form.json"))
    parser.add_argument(
        "--phase", choices=("kernel", "differential", "pairs", "summary"), required=True
    )
    parser.add_argument("--workload", default="sim_an")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--calls", type=int, default=20)
    args = parser.parse_args(argv)
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    out = args.out.resolve()
    if args.phase == "kernel":
        kernel(dirs, out, args.rounds, args.repeats, args.calls)
    elif args.phase == "differential":
        differential(dirs, out)
    elif args.phase == "pairs":
        key = f"{args.workload}_seed{args.seed}_{args.seconds:g}s"
        csv_write.pairs(dirs, out, key, args.workload, args.seed, args.seconds, args.pairs, 0)
    else:
        csv_write.summary(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
