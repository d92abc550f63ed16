#!/usr/bin/env python3
"""Measure ``data.write_csv`` and the benchmark workloads, parent against change.

Both sides are checkouts of this repository (each with ``src/`` and
``perfbench/``), best placed at paths of equal length.  Each phase adds
its runs to the output JSON file as they finish, so a long measurement can
be run one phase at a time:

    python3 bench/csv_write.py --parent ../parent --change ../change \\
        --out BENCH_csv_write.json --phase layers
    python3 bench/csv_write.py ... --phase trace --pairs 3 --seconds 30
    python3 bench/csv_write.py ... --phase pairs --workload csv_roundtrip --seed 0 --pairs 10
    python3 bench/csv_write.py ... --phase summary
    python3 bench/csv_write.py ... --phase memory

``layers`` writes the seed-0 ``csv_roundtrip`` file with the parent's CLI,
then times, in one child process per side and round, whole ``write_csv``
calls on it and on the same data scaled by 1e-6 (every cell outside the
range orjson formats as ``repr`` does), and the text formatting alone (one
``repr`` of each block's list, against one ``orjson.dumps`` of each
block's array); it also records each CLI step's ``ru_maxrss`` as its own
process.  ``trace`` runs
``perfbench/run.py --trace 1`` and keeps its per-layer ``data.*`` metrics.
``pairs`` runs ``perfbench/run.py --trace 0`` on each side, alternating
which side goes first.  ``summary`` gives each side's median and
quartiles, how many pairs the change won, and the parent's quartile spread.
``memory`` writes the seed-0 ``csv_roundtrip`` file at each of ``ROWS``
with the parent's CLI, then, alternating which side goes first, records
each side's ``generate`` and ``test`` steps' ``ru_maxrss`` and seconds as
their own processes, checks that both sides generate the same bytes, and
keeps the largest relative move of a reported statistic and the d2 fit's
diagnostics; at the first of ``ROWS`` it also times ``em.pattern_stats`` on
the loaded file in one child per side and round (best of ``--calls``) and
takes its ``tracemalloc`` peak.
"""

import argparse
import ast
import filecmp
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
HIGHER_IS_BETTER = {"data.load_csv_rows_per_s", "data.write_csv_rows_per_s"}
GENERATE = [
    "generate", "--n", "100000", "--p", "2", "--q", "3",
    "--dist", "clayton", "--margins", "exp1",
    "--mechanism", "mar_1_to_x", "--miss-prob", "0.12", "--odds", "9", "--seed", "0",
]
# the row counts of the memory phase
ROWS = (100_000, 1_000_000)

# run in a child with the side's src first on sys.path: argv is the CSV
# file, the number of calls, and the files to write the data and the
# scaled data to
TIME_WRITE = """
import sys, time
from mcartest import data
ds, _ = data.load_csv(sys.argv[1])
calls = []
for _ in range(int(sys.argv[2])):
    begin = time.perf_counter()
    data.write_csv(ds, sys.argv[3])
    calls.append(time.perf_counter() - begin)
# every observed value below 1e-4, so every cell takes repr's notation
tiny = data.Dataset(ds.values * 1e-6, ds.mask, ds.column_names)
tiny_calls = []
for _ in range(int(sys.argv[2])):
    begin = time.perf_counter()
    data.write_csv(tiny, sys.argv[4])
    tiny_calls.append(time.perf_counter() - begin)
blocks = [ds.values[i : i + data._BLOCK_ROWS].ravel() for i in range(0, ds.n, data._BLOCK_ROWS)]
begin = time.perf_counter()
for b in blocks:
    repr(b.tolist())[1:-1].split(", ")
repr_s = time.perf_counter() - begin
import orjson
begin = time.perf_counter()
for b in blocks:
    orjson.dumps(b, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
orjson_s = time.perf_counter() - begin
print(repr((calls, tiny_calls, repr_s, orjson_s)))
"""


# run in a child with the side's src first on sys.path: argv is the CSV
# file and the number of calls; prints the seconds of each pattern_stats
# call on its data, and the tracemalloc peak of one
TIME_RECORD = """
import sys, time, tracemalloc
from mcartest import data
from mcartest.em import pattern_stats
ds, _ = data.load_csv(sys.argv[1])
values, mask = ds.values[None], ds.mask[None]
calls = []
for _ in range(int(sys.argv[2])):
    begin = time.perf_counter()
    pattern_stats(values, mask)
    calls.append(time.perf_counter() - begin)
tracemalloc.start()
pattern_stats(values, mask)
print(repr((calls, tracemalloc.get_traced_memory()[1])))
"""


def _env(side_dir):
    return dict(os.environ, PYTHONPATH=str(side_dir / "src"), **BLAS_ENV)


def _quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _load(out):
    return json.loads(out.read_text()) if out.exists() else {}


def _save(out, record):
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def _maxrss_step(side_dir, args, cwd):
    """(seconds, ru_maxrss MB) of one CLI call as its own process.

    At exec Linux keeps the high-water RSS of the memory the child
    replaces, which a vforked child shares with this process: the child's
    ru_maxrss is at least this process's peak RSS.  So this process
    compares files in chunks (``filecmp``) and never reads a whole data
    file into memory; at 1M rows that read set every step's figure.
    """
    begin = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "mcartest", *args], env=_env(side_dir), cwd=cwd,
        stdout=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(child.pid, 0)
    if status:
        raise RuntimeError(f"{args[0]} failed on {side_dir}")
    return time.perf_counter() - begin, usage.ru_maxrss / 1024


def layers(dirs, out, rounds, calls):
    record = _load(out)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = tmp / "data.csv"
        _maxrss_step(dirs["parent"], [*GENERATE, "--out", str(data)], tmp)
        write = {side: [] for side in SIDES}
        tiny = {side: [] for side in SIDES}
        fmt = {"repr_s": [], "orjson_s": []}
        rss = {step: {side: [] for side in SIDES} for step in ("generate", "test")}
        same = True
        for r in range(rounds):
            for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                copy, tiny_copy = tmp / f"{side}.csv", tmp / f"{side}-tiny.csv"
                text = subprocess.run(
                    [sys.executable, "-c", TIME_WRITE, str(data), str(calls), str(copy),
                     str(tiny_copy)],
                    env=_env(dirs[side]), check=True, capture_output=True, text=True,
                ).stdout
                times, tiny_times, repr_s, orjson_s = ast.literal_eval(text)
                write[side].extend(times)
                tiny[side].extend(tiny_times)
                same = same and filecmp.cmp(copy, data, shallow=False)
                if side == "change":
                    fmt["repr_s"].append(repr_s)
                    fmt["orjson_s"].append(orjson_s)
                out_csv = tmp / f"{side}-gen.csv"
                steps = {
                    "generate": [*GENERATE, "--out", str(out_csv)],
                    "test": ["test", "--input", str(data), "--tests", "an,d2",
                             "--out", str(tmp / "report.json")],
                }
                for step, args in steps.items():
                    rss[step][side].append(round(_maxrss_step(dirs[side], args, tmp)[1], 2))
                same = same and filecmp.cmp(out_csv, data, shallow=False)
            same = same and filecmp.cmp(tmp / "change-tiny.csv", tmp / "parent-tiny.csv",
                                        shallow=False)
    record["layers"] = {
        "what": (
            f"in-process write_csv of the seed-0 csv_roundtrip file (100,000 x 5), "
            f"{calls} calls per child, {rounds} children per side alternating which "
            "side goes first, and as many of the same file scaled by 1e-6, every observed "
            "value below 1e-4; the text formatting of the same blocks alone, repr of "
            "each block's list against orjson.dumps of each block's array (one pass "
            "per child); each CLI step's ru_maxrss (MB) as its own process"
        ),
        "write_csv_s": {side: _quartiles(write[side]) for side in SIDES},
        "write_csv_best_s": {side: min(write[side]) for side in SIDES},
        "write_csv_all_below_1e-4_s": {side: _quartiles(tiny[side]) for side in SIDES},
        "format_only_s": {k: _quartiles(v) for k, v in fmt.items()},
        "ru_maxrss_mb": rss,
        "every_file_byte_identical": same,
    }
    _save(out, record)


def memory(dirs, out, rounds, calls):
    record = _load(out)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for count in ROWS:
            generate = list(GENERATE)
            generate[generate.index("--n") + 1] = str(count)
            data = tmp / f"{count}.csv"
            _maxrss_step(dirs["parent"], [*generate, "--out", str(data)], tmp)
            steps = {f"{step}_{s}": {side: [] for side in SIDES}
                     for step in ("generate", "test") for s in ("mb", "s")}
            reports, same = {}, True
            for r in range(rounds):
                for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                    out_csv, report = tmp / f"{side}-gen.csv", tmp / f"{side}.json"
                    args = {
                        "generate": [*generate, "--out", str(out_csv)],
                        "test": ["test", "--input", str(data), "--tests", "an,d2",
                                 "--out", str(report)],
                    }
                    for step, argv in args.items():
                        seconds, mb = _maxrss_step(dirs[side], argv, tmp)
                        steps[f"{step}_mb"][side].append(round(mb, 2))
                        steps[f"{step}_s"][side].append(round(seconds, 4))
                    same = same and filecmp.cmp(out_csv, data, shallow=False)
                    reports[side] = json.loads(report.read_text())
            moves = {}
            for want, got in zip(reports["parent"], reports["change"]):
                rel = abs(got["statistic"] - want["statistic"]) / abs(want["statistic"])
                moves[want["method"]] = {
                    "parent": want["statistic"], "change": got["statistic"],
                    "rel_move": rel, "same_df_and_diagnostics_but_floats": all(
                        got["diagnostics"][k] == v for k, v in want["diagnostics"].items()
                        if not isinstance(v, float)
                    ) and got["df"] == want["df"],
                }
            entry = {
                **{k: {side: _quartiles(v[side]) for side in SIDES} for k, v in steps.items()},
                "per_round": steps,
                "generated_csv_byte_identical": same,
                "statistics": moves,
            }
            if count == ROWS[0]:
                timing = {side: [] for side in SIDES}
                peak = {}
                for r in range(rounds):
                    for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                        text = subprocess.run(
                            [sys.executable, "-c", TIME_RECORD, str(data), str(calls)],
                            env=_env(dirs[side]), check=True, capture_output=True, text=True,
                        ).stdout
                        times, peak[side] = ast.literal_eval(text)
                        timing[side].append(round(min(times) * 1e3, 3))
                entry["pattern_stats_best_ms"] = {
                    side: {**_quartiles(v), "per_round": v} for side, v in timing.items()
                }
                entry["pattern_stats_tracemalloc_peak_mb"] = {
                    side: round(v / 2**20, 3) for side, v in peak.items()
                }
            record.setdefault("memory", {})[f"{count}_rows"] = entry
            record["memory"]["what"] = (
                f"the seed-0 csv_roundtrip generate and test steps at each row count, "
                f"each as its own process: ru_maxrss (MB) and seconds, {rounds} rounds "
                f"alternating which side goes first; whether both sides generate the same "
                f"bytes; each reported statistic on both sides and its relative move, and "
                f"whether df and every non-float diagnostic (EM iterations, patterns) are "
                f"equal; at {ROWS[0]} rows, em.pattern_stats on the loaded file in one child "
                f"per side and round, the best of {calls} calls, and its tracemalloc peak"
            )
            _save(out, record)


def _bench(side_dir, workload, seed, seconds, trace):
    text = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=side_dir, env=dict(os.environ, **BLAS_ENV), check=True,
        capture_output=True, text=True,
    ).stdout
    result = json.loads(text.strip().splitlines()[-1])
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def pairs(dirs, out, key, workload, seed, seconds, n_pairs, trace):
    record = _load(out)
    runs = record.setdefault("runs", {}).setdefault(key, [])
    first = len(runs) // 2
    for i in range(first, first + n_pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            run = _bench(dirs[side], workload, seed, seconds, trace)
            runs.append({"pair": i, "side": side, **run})
            _save(out, record)


def summary(out):
    record = _load(out)
    table = {}
    for key, runs in record.get("runs", {}).items():
        by_pair = {}
        for run in runs:
            by_pair.setdefault(run["pair"], {})[run["side"]] = run
        complete = [p for p in by_pair.values() if len(p) == 2]
        names = sorted(set(complete[0]["parent"]["metrics"])) if complete else []
        rows = {}
        for name in names:
            values = {s: [p[s]["metrics"][name] for p in complete] for s in SIDES}
            pairs_won = sum(
                c > p if name in HIGHER_IS_BETTER else c < p
                for p, c in zip(values["parent"], values["change"])
            )
            parent, change = _quartiles(values["parent"]), _quartiles(values["change"])
            rows[name] = {
                "parent": {**parent, "per_pair": values["parent"]},
                "change": {**change, "per_pair": values["change"]},
                "change_better": f"{pairs_won}/{len(complete)}",
                "median_change_frac": round(change["median"] / parent["median"] - 1, 4)
                if parent["median"] else None,
                "median_difference": change["median"] - parent["median"],
                "parent_quartile_spread": parent["q3"] - parent["q1"],
            }
        rows["every_run_correct_with_0_failed"] = all(
            p[s]["correct"] and not p[s]["failed"] for p in complete for s in SIDES
        )
        table[key] = rows
    record["summary"] = table
    _save(out, record)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, default=Path("BENCH_csv_write.json"))
    parser.add_argument(
        "--phase", choices=("layers", "trace", "pairs", "summary", "memory"), required=True
    )
    parser.add_argument("--workload", default="csv_roundtrip")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--calls", type=int, default=5)
    args = parser.parse_args(argv)
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    out = args.out.resolve()
    if args.phase == "layers":
        layers(dirs, out, args.rounds, args.calls)
    elif args.phase == "trace":
        key = f"{args.workload}_seed{args.seed}_trace1_{args.seconds:g}s"
        pairs(dirs, out, key, args.workload, args.seed, args.seconds, args.pairs, 1)
    elif args.phase == "pairs":
        key = f"{args.workload}_seed{args.seed}_{args.seconds:g}s"
        pairs(dirs, out, key, args.workload, args.seed, args.seconds, args.pairs, 0)
    elif args.phase == "memory":
        memory(dirs, out, args.rounds, args.calls)
    else:
        summary(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
