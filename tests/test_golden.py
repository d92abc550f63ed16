"""Results CSVs pinned byte for byte.

The files under ``tests/golden/`` were written by ``mcartest simulate``;
a refactor of the harness or the amputation must give the same bytes.
Six were written before replications were run in blocks.  They cover the
cells of acceptance criteria 6, 7 and 8 at their seeds (fewer
replications), a ``mar_rank`` 1X1Y cell with every test, and two small
cells where many replications are degenerate.  The two ``mar_mean`` cells
(the stock rates; explicit rates with one control shared by two targets)
were written before the four per-mechanism amputation functions were
merged into ``apply_mechanism``.  The two Clayton cells (``chisq4`` and
``uniform`` margins), the ``mar_rank`` cell with three targets and the
two-worker run of criterion 7 were written before each block of
replications was generated and amputated as one array.  The two
``seed_*words`` cells, whose master seeds take two and five 32-bit words
(all others take one), were written while each replication still opened
its streams through ``numerics.rng_stream``, before a block's streams
were keyed in one pass (``numerics.rng_streams``).

``cli_test_1X1Y_n60.csv`` is not a results CSV but the input of
``test_cli.py``'s report check; it was written by ``mcartest generate``,
and ``cli_test_1X1Y_n60_an_dn_d2.json`` by ``mcartest test`` on it, while
``dn`` and ``d2_univariate`` still had closed-form kernels of their own.
``generate`` must still write that file's bytes (``GENERATE``), now that
it builds its dataset from a ``harness.Scenario``.
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
    "mar_mean_1X2Y.csv": (
        "--p 1 --q 2 --n 100 --mechanism mar_mean --tests an,d2 --replications 200 "
        "--seed 1005"
    ),
    "mar_mean_2X3Y_shared_control.csv": (
        "--p 2 --q 3 --n 100 --mechanism mar_mean --p-high 0.2,0.05,0.15 "
        "--p-low 0.05,0.1,0.02 --controls x2,x2,x1 --tests an,d2 --replications 200 "
        "--seed 1006"
    ),
    "clayton_chisq4_2X2Y_mar_1_to_x.csv": (
        "--p 2 --q 2 --n 60 --dist clayton --theta 2 --margins chisq4 "
        "--mechanism mar_1_to_x --miss-prob 0.15 --odds 4 --tests an,d2 "
        "--replications 150 --seed 1007"
    ),
    "clayton_uniform_1X2Y_mar_mean.csv": (
        "--p 1 --q 2 --n 80 --dist clayton --theta 0.5 --margins uniform,chisq4,uniform "
        "--mechanism mar_mean --tests an,d2 --replications 200 --seed 1008"
    ),
    "mar_rank_2X3Y.csv": (
        "--p 2 --q 3 --n 50 --mechanism mar_rank --miss-prob 0.1 --tests an,d2 "
        "--replications 150 --seed 1009"
    ),
    # 2**32 + 17: a master seed of two 32-bit words
    "seed_2words_1X2Y_mar_1_to_x.csv": (
        "--p 1 --q 2 --n 40 --mechanism mar_1_to_x --miss-prob 0.15 --odds 4 "
        "--tests an,d2 --replications 120 --seed 4294967313"
    ),
    # 2**128 + 29: five words, more than SeedSequence's pool of four
    "seed_5words_mar_rank_2X3Y_shared_control.csv": (
        "--p 2 --q 3 --n 40 --mechanism mar_rank --miss-prob 0.15 --controls x1,x1,x2 "
        "--tests an,d2 --replications 120 --seed 340282366920938463463374607431768211485"
    ),
}

# cases run again with more worker processes; they must give the same bytes
WORKERS = {"criterion07_1X2Y_mar_1_to_x.csv": 2}

# datasets written by ``mcartest generate``
GENERATE = {
    "cli_test_1X1Y_n60.csv": (
        "--n 60 --p 1 --q 1 --dist clayton --theta 1 --mechanism mar_1_to_x "
        "--miss-prob 0.2 --seed 13"
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_results_csv_matches_golden(name, tmp_path, capsys):
    out = tmp_path / name
    assert main(["simulate", *CASES[name].split(), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name, workers", sorted(WORKERS.items()))
def test_workers_match_golden(name, workers, tmp_path, capsys):
    out = tmp_path / name
    args = [*CASES[name].split(), "--workers", str(workers), "--out", str(out)]
    assert main(["simulate", *args]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(GENERATE))
def test_generated_csv_matches_golden(name, tmp_path, capsys):
    out = tmp_path / name
    assert main(["generate", *GENERATE[name].split(), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
