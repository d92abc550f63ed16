#!/usr/bin/env python3
"""Measure ``data.load_csv`` in process, parent against change.

Each side is a checkout of this repository's ``src/``:

    python3 bench/csv_read.py --parent ../parent --change ../change \\
        --out BENCH_csv_read.json [--pre-orjson ../before]

It writes the seed-0 ``csv_roundtrip`` file with the parent's CLI and an
LF-only copy of it, then, in one child process per side and round, times
whole ``load_csv`` calls on both files, the parsing of the CRLF file's
blocks alone (``data._parse_plain`` over its lines as the reader splits
them), ``write_csv`` of the same data scaled by 1e-6 (every observed value
below 1e-4, so every cell takes ``repr``) and the ``tracemalloc`` peak of
one ``load_csv``.  It also records each CLI step's ``ru_maxrss`` as its own
process, and checks that both sides read the same bits and write the same
files and reports.  ``--pre-orjson`` adds a third checkout, from before
``write_csv`` used orjson, to every timing but not to the CLI steps.

The benchmark workloads are run into the same file by
``bench/csv_write.py --out BENCH_csv_read.json`` with its ``trace``,
``pairs`` and ``summary`` phases.
"""

import argparse
import ast
import filecmp
import subprocess
import sys
import tempfile
from pathlib import Path

from csv_write import GENERATE, SIDES, _env, _load, _maxrss_step, _quartiles, _save

# run in a child with the side's src first on sys.path: argv is the CRLF
# file, its LF-only copy, the number of calls, and the file to write the
# scaled data to
TIME_READ = """
import hashlib, sys, time, tracemalloc
from itertools import islice
from mcartest import data

path, lf_path, calls, out = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]

def timed(fn, *args):
    times = []
    for _ in range(calls):
        begin = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - begin)
    return times

load = timed(data.load_csv, path)
load_lf = timed(data.load_csv, lf_path)
with open(path, newline="", encoding="utf-8") as fh:
    d = len(next(fh).split(","))
    blocks = []
    while lines := list(islice(fh, data._BLOCK_ROWS)):
        blocks.append(lines)

def parse_blocks():
    for lines in blocks:
        if data._parse_plain(lines, d, data.DEFAULT_NA_TOKENS) is None:
            raise AssertionError("a block of the CRLF file was declined")

parse = timed(parse_blocks)
del blocks
ds, _ = data.load_csv(path)
lf, _ = data.load_csv(lf_path)
digest = hashlib.sha256(ds.values.tobytes() + ds.mask.tobytes()).hexdigest()
same_lf = lf.values.tobytes() == ds.values.tobytes() and lf.mask.tobytes() == ds.mask.tobytes()
del lf
tiny = data.Dataset(ds.values * 1e-6, ds.mask, ds.column_names)
write_tiny = timed(data.write_csv, tiny, out)
del ds, tiny
tracemalloc.start()
data.load_csv(path)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(repr((load, load_lf, parse, write_tiny, peak, digest, same_lf)))
"""


def layers(dirs, out, rounds, calls):
    record = _load(out)
    sides = list(dirs)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = tmp / "data.csv"
        _maxrss_step(dirs["parent"], [*GENERATE, "--out", str(data)], tmp)
        lf = tmp / "data-lf.csv"
        with data.open("rb") as src, lf.open("wb") as dst:
            dst.writelines(line.replace(b"\r\n", b"\n") for line in src)
        keys = ("load_csv_s", "load_csv_lf_only_s", "parse_blocks_s",
                "write_csv_all_below_1e-4_s")
        times = {key: {side: [] for side in sides} for key in keys}
        peak = {side: [] for side in sides}
        rss = {step: {side: [] for side in SIDES} for step in ("generate", "test")}
        # files are compared in chunks: bytes held here would count in
        # every later child's ru_maxrss, which starts from this process's
        # RSS at the fork
        digests, same_lf, same_tiny, same_outputs = set(), True, True, True
        for r in range(rounds):
            for side in sides if r % 2 == 0 else sides[::-1]:
                tiny = tmp / f"{side}-tiny.csv"
                text = subprocess.run(
                    [sys.executable, "-c", TIME_READ, str(data), str(lf), str(calls),
                     str(tiny)],
                    env=_env(dirs[side]), check=True, capture_output=True, text=True,
                ).stdout
                *runs, traced, digest, lf_same = ast.literal_eval(text)
                for key, values in zip(keys, runs):
                    times[key][side].extend(values)
                peak[side].append(traced)
                same_tiny = same_tiny and filecmp.cmp(tiny, tmp / f"{sides[0]}-tiny.csv",
                                                      shallow=False)
                if side not in SIDES:
                    continue
                digests.add(digest)
                # the parent reads the LF-only file through csv.reader
                same_lf = same_lf and lf_same
                gen = tmp / f"{side}-gen.csv"
                report = tmp / f"{side}-report.json"
                steps = {
                    "generate": [*GENERATE, "--out", str(gen)],
                    "test": ["test", "--input", str(data), "--tests", "an,d2",
                             "--out", str(report)],
                }
                for step, args in steps.items():
                    rss[step][side].append(round(_maxrss_step(dirs[side], args, tmp)[1], 2))
                same_outputs = (
                    same_outputs and filecmp.cmp(gen, data, shallow=False)
                    and filecmp.cmp(report, tmp / f"{SIDES[0]}-report.json", shallow=False)
                )
    record["layers"] = {
        "what": (
            "in-process load_csv of the seed-0 csv_roundtrip file (100,000 x 5, CRLF) "
            "and of an LF-only copy, the parse of the CRLF file's blocks alone "
            "(data._parse_plain over each block of lines), and write_csv of the "
            f"same data scaled by 1e-6; {calls} calls each per child, {rounds} children "
            "per side alternating which side goes first; the tracemalloc peak (bytes) "
            "of one load_csv per child; each CLI step's ru_maxrss (MB) as its own process"
        ),
        **{key: {side: _quartiles(v) for side, v in times[key].items()} for key in keys},
        "load_csv_best_s": {side: min(times["load_csv_s"][side]) for side in sides},
        "load_csv_tracemalloc_peak_bytes": {side: max(v) for side, v in peak.items()},
        "ru_maxrss_mb": rss,
        "same_values_and_mask_on_every_side": len(digests) == 1,
        "lf_only_copy_reads_the_same": same_lf,
        "scaled_write_byte_identical": same_tiny,
        "generated_files_and_reports_byte_identical": same_outputs,
    }
    _save(out, record)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pre-orjson", type=Path)
    parser.add_argument("--out", type=Path, default=Path("BENCH_csv_read.json"))
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--calls", type=int, default=5)
    args = parser.parse_args(argv)
    dirs = {"parent": args.parent, "change": args.change}
    if args.pre_orjson:
        dirs["pre_orjson"] = args.pre_orjson
    layers({side: path.resolve() for side, path in dirs.items()}, args.out.resolve(),
           args.rounds, args.calls)
    return 0


if __name__ == "__main__":
    sys.exit(main())
