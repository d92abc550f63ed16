"""Results CSVs pinned byte for byte.

The files under ``tests/golden/`` were written by ``mcartest simulate``
before replications were run in blocks; the blocked harness must give the
same bytes.  They cover the cells of acceptance criteria 6, 7 and 8 at
their seeds (fewer replications), a ``mar_rank`` 1X1Y cell with every
test, and two small cells where many replications are degenerate.
"""

from pathlib import Path

import pytest

from mcartest.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "criterion06_2X3Y_clayton.csv": (
        "--p 2 --q 3 --n 100 --dist clayton --theta 1 --margins exp1 --mechanism mcar "
        "--miss-prob 0.12 --tests an,d2 --replications 200 --seed 1002"
    ),
    "criterion07_1X2Y_mar_1_to_x.csv": (
        "--p 1 --q 2 --n 100 --mechanism mar_1_to_x --odds 9 "
        "--sweep-miss 0.06,0.12,0.18,0.24 --tests an,d2 --replications 100 --seed 1003"
    ),
    "criterion08_1X2Y_n300.csv": (
        "--p 1 --q 2 --n 300 --mechanism mcar --miss-prob 0.12 --tests an "
        "--replications 500 --seed 1004"
    ),
    "mar_rank_1X1Y.csv": (
        "--p 1 --q 1 --n 12 --mechanism mar_rank --miss-prob 0.25 --sweep-n 8,30 "
        "--tests an,dn,d2 --replications 300 --seed 11"
    ),
    "degenerate_1X1Y_n10.csv": (
        "--p 1 --q 1 --n 10 --mechanism mcar --miss-prob 0.08 --tests an,dn,d2 "
        "--replications 300 --seed 5"
    ),
    "degenerate_2X2Y_n8.csv": (
        "--p 2 --q 2 --n 8 --mechanism mcar --miss-prob 0.1 --tests an,d2 "
        "--replications 100 --seed 6"
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_results_csv_matches_golden(name, tmp_path, capsys):
    out = tmp_path / name
    assert main(["simulate", *CASES[name].split(), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
