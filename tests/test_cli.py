import argparse
import csv
import importlib
import json
import math
import pkgutil
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import mcartest
from mcartest import Dataset, little_mcar_general, load_csv, ustat_mcar_test, write_csv
from mcartest.cli import _build_parser, main
from mcartest.stats import KNOWN_TESTS

from conftest import child_env

HAND_CSV = "x,y\n1.0,10.0\n2.0,11.0\n3.0,NA\n"
GOLDEN = Path(__file__).parent / "golden"

DATA_OPTIONS = (
    "--n", "--p", "--q", "--dist", "--theta", "--margins", "--mechanism",
    "--miss-prob", "--odds", "--controls", "--p-high", "--p-low",
)

# a cheap valid scenario file
SCENARIO = {
    "label": "1X1Y",
    "distribution": {"kind": "std_normal", "dim": 2},
    "p": 1,
    "q": 1,
    "n": 60,
    "mechanism": {"kind": "mcar", "miss_prob": 0.2},
    "tests": ["an"],
    "replications": 10,
    "master_seed": 9,
}
# each data flag at a value that SCENARIO could hold, the flag's default among them
SCENARIO_FLAG_VALUES = {
    "--n": "60", "--p": "1", "--q": "1", "--dist": "std_normal", "--theta": "1",
    "--margins": "exp1", "--mechanism": "mcar", "--miss-prob": "0.2", "--odds": "9",
    "--controls": "x1", "--p-high": "0.1", "--p-low": "0.1", "--tests": "an",
    "--alpha": "0.05",
}

# a results CSV that plot draws: an's rate over two missingness probabilities
RESULTS_CSV = (
    "label,distribution,n,mechanism,param,test,rate,ci_low,ci_high,degenerate_count,seed\n"
    "1X2Y,std_normal,40,mcar,0.06,an,0.05,0.01,0.2,0,4\n"
    "1X2Y,std_normal,40,mcar,0.12,an,0.1,0.03,0.3,0,4\n"
)

# a cheap valid simulate call; each bad case below overrides one part of it
SIMULATE = ["simulate", "--n", "40", "--tests", "an", "--replications", "5"]


def run_cli(*argv):
    """Invoke main() in process, capturing argparse exits too."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def _subcommands() -> dict:
    """The CLI's subcommand parsers, by name."""
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def write_hand(tmp_path):
    path = tmp_path / "hand.csv"
    path.write_text(HAND_CSV)
    return path


class TestTestCommand:
    def test_hand_case(self, tmp_path, capsys):
        path = write_hand(tmp_path)
        out = tmp_path / "rep.json"
        code = run_cli("test", "--input", str(path), "--tests", "an", "--out", str(out))
        assert code == 0
        records = json.loads(out.read_text())
        assert len(records) == 1
        assert records[0]["statistic"] == pytest.approx(2.25, rel=1e-12)
        assert records[0]["df"] == 1
        printed = capsys.readouterr().out
        assert "an" in printed and "no evidence" in printed

    def test_json_round_trips_result(self, tmp_path):
        path = write_hand(tmp_path)
        out = tmp_path / "rep.json"
        assert run_cli("test", "--input", str(path), "--tests", "an", "--out", str(out)) == 0
        (record,) = json.loads(out.read_text())
        ds, roles = load_csv(path)
        expected = ustat_mcar_test(ds, roles).to_record()
        assert record == expected

    def test_an_equals_d2_on_univariate(self, tmp_path):
        path = write_hand(tmp_path)
        out = tmp_path / "rep.json"
        assert run_cli("test", "--input", str(path), "--out", str(out)) == 0
        records = json.loads(out.read_text())
        assert {r["method"] for r in records} == {"an", "d2_univariate"}
        a, d = records
        assert a["statistic"] == pytest.approx(d["statistic"], rel=1e-8)

    def test_report_matches_the_closed_form_kernels(self, tmp_path):
        # the golden report was written while dn and d2_univariate had
        # kernels of their own; as views of an's kernel they keep every
        # method, df, decision and diagnostic key, and every number to 1e-9
        out = tmp_path / "r.json"
        data = GOLDEN / "cli_test_1X1Y_n60.csv"
        assert run_cli("test", "--input", str(data), "--tests", "an,dn,d2", "--out", str(out)) == 0
        got = json.loads(out.read_text())
        want = json.loads((GOLDEN / "cli_test_1X1Y_n60_an_dn_d2.json").read_text())
        assert [r["method"] for r in got] == ["an", "dn", "d2_univariate"]
        for g, w in zip(got, want):
            assert (g["method"], g["df"], g["alpha"], g["reject"]) == (
                w["method"], w["df"], w["alpha"], w["reject"]
            )
            assert g["statistic"] == pytest.approx(w["statistic"], rel=1e-9)
            assert g["p_value"] == pytest.approx(w["p_value"], rel=1e-9)
            assert g["diagnostics"].keys() == w["diagnostics"].keys()
            for key, value in w["diagnostics"].items():
                assert g["diagnostics"][key] == pytest.approx(value, rel=1e-9), key

    def test_csv_report(self, tmp_path):
        path = write_hand(tmp_path)
        out = tmp_path / "rep.csv"
        assert run_cli("test", "--input", str(path), "--out", str(out)) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["method"] == "an"
        assert float(rows[0]["statistic"]) == pytest.approx(2.25)

    def test_complete_csv_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "full.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,4.0\n5.0,6.5\n")
        assert run_cli("test", "--input", str(path)) == 3
        assert "incomplete" in capsys.readouterr().err
        # d2 alone says the same, though d2_general's kernel reads no roles
        assert run_cli("test", "--input", str(path), "--tests", "d2") == 3
        assert capsys.readouterr().err == "error: no incomplete columns\n"

    def test_no_complete_column(self, tmp_path, capsys):
        # Little's d2 needs no complete column; the closed-form tests need one
        rng = np.random.default_rng(0)
        values = rng.standard_normal((200, 3))
        path = tmp_path / "no_complete.csv"
        write_csv(Dataset(values, rng.random((200, 3)) >= 0.1, ("a", "b", "c")), path)
        out = tmp_path / "rep.json"
        assert run_cli("test", "--input", str(path), "--tests", "d2", "--out", str(out)) == 0
        assert "d2_general: statistic=9.30672 df=8" in capsys.readouterr().out
        (record,) = json.loads(out.read_text())
        ds, roles = load_csv(path)
        assert (roles.p, roles.q) == (0, 3)
        assert record == little_mcar_general(ds).to_record()
        assert record["statistic"] == pytest.approx(9.306718348741361, rel=1e-12)
        for tests in (["--tests", "an"], []):
            assert run_cli("test", "--input", str(path), *tests) == 3
            err = capsys.readouterr().err
            assert err == "error: the an test requires at least one complete column\n"

    def test_missing_file_is_data_error(self, tmp_path):
        assert run_cli("test", "--input", str(tmp_path / "nope.csv")) == 3

    def test_non_utf8_file_is_data_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,b\n1,2\n\xff,3\n")
        assert run_cli("test", "--input", str(path)) == 3

    @pytest.mark.parametrize("quote", ["", '"'])
    def test_cell_over_the_csv_field_limit_is_data_error(self, tmp_path, capsys, quote):
        # csv.reader's default field limit is 131,072 characters
        path = tmp_path / "long.csv"
        cell = quote + "0" * 131_072 + "1" + quote
        path.write_text(f"a,b\r\n1.0,2.0\r\n3.0,{cell}\r\n5.0,NA\r\n", newline="")
        assert run_cli("test", "--input", str(path)) == 3
        assert capsys.readouterr().err == (
            f"error: {path}: line 3, column 'b': cell longer than 131072 characters\n"
        )

    def test_custom_na_token(self, tmp_path):
        path = tmp_path / "tok.csv"
        path.write_text("x,y\n1.0,10.0\n2.0,11.0\n3.0,?\n")
        assert run_cli("test", "--input", str(path), "--na-token", "?", "--tests", "an") == 0

    def test_roles_override(self, tmp_path, capsys):
        # the data decide the roles: a column is incomplete if it has a
        # missing cell, and there is no flag to say otherwise
        path = write_hand(tmp_path)
        assert run_cli("test", "--input", str(path), "--roles", "y", "--tests", "an") == 2
        assert "unrecognized arguments: --roles y" in capsys.readouterr().err

    def test_bad_alpha_is_usage_error(self, tmp_path):
        path = write_hand(tmp_path)
        assert run_cli("test", "--input", str(path), "--alpha", "2.0") == 2

    def test_bad_test_name_is_usage_error(self, tmp_path):
        path = write_hand(tmp_path)
        assert run_cli("test", "--input", str(path), "--tests", "zz") == 2

    def test_alpha_one_accepted_by_test_and_simulate(self, tmp_path):
        # one rule for both commands: alpha in (0, 1], and alpha = 1 rejects
        path = write_hand(tmp_path)
        out = tmp_path / "rep.json"
        code = run_cli("test", "--input", str(path), "--alpha", "1", "--out", str(out))
        assert code == 0
        assert all(r["reject"] for r in json.loads(out.read_text()))
        res = tmp_path / "res.csv"
        code = run_cli(
            "simulate", "--out", str(res), "--n", "40", "--replications", "10",
            "--alpha", "1", "--seed", "2",
        )
        assert code == 0
        with open(res, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(float(r["rate"]) == 1.0 for r in rows)

    @pytest.mark.parametrize("alpha", ["0", "1.5"])
    def test_alpha_outside_rule_is_usage_error_for_both(self, tmp_path, alpha):
        path = write_hand(tmp_path)
        assert run_cli("test", "--input", str(path), "--alpha", alpha) == 2
        code = run_cli("simulate", "--out", str(tmp_path / "r.csv"), "--alpha", alpha)
        assert code == 2


class TestGenerateCommand:
    def test_byte_determinism(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            code = run_cli(
                "generate", "--out", str(out), "--n", "60", "--p", "1", "--q", "2",
                "--mechanism", "mcar", "--miss-prob", "0.2", "--seed", "11",
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        assert json.loads((tmp_path / "a.json").read_text())["seed"] == 11

    def test_p_zero_no_missing(self, tmp_path):
        out = tmp_path / "clean.csv"
        code = run_cli(
            "generate", "--out", str(out), "--n", "40", "--mechanism", "mcar",
            "--miss-prob", "0", "--seed", "1",
        )
        assert code == 0
        assert "NA" not in out.read_text()

    def test_mar_mean_stock_fractions(self, tmp_path):
        out = tmp_path / "mm.csv"
        code = run_cli(
            "generate", "--out", str(out), "--n", "5000", "--p", "1", "--q", "2",
            "--mechanism", "mar_mean", "--seed", "3",
        )
        assert code == 0
        ds, roles = load_csv(out)
        frac = (~ds.mask).mean(axis=0)
        assert abs(frac[1] - 0.09) < 0.02
        assert abs(frac[2] - 0.0975) < 0.02

    def test_clayton_generate(self, tmp_path):
        out = tmp_path / "clay.csv"
        code = run_cli(
            "generate", "--out", str(out), "--n", "30", "--p", "1", "--q", "1",
            "--dist", "clayton", "--theta", "1.0", "--margins", "exp1",
            "--mechanism", "mcar", "--miss-prob", "0.2", "--seed", "2",
        )
        assert code == 0
        meta = json.loads((tmp_path / "clay.json").read_text())
        assert meta["distribution"]["kind"] == "clayton"
        assert meta["distribution"]["margins"] == ["exp1", "exp1"]

    def test_default_miss_prob(self, tmp_path):
        # MechanismSpec's default rate, for generate as for simulate
        outs = [tmp_path / "default.csv", tmp_path / "given.csv"]
        base = ("generate", "--n", "50", "--seed", "6")
        assert run_cli(*base, "--out", str(outs[0])) == 0
        assert run_cli(*base, "--miss-prob", "0.12", "--out", str(outs[1])) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert (tmp_path / "default.json").read_bytes() == (tmp_path / "given.json").read_bytes()

    def test_empty_na_token(self, tmp_path):
        # the empty token writes empty cells, which load_csv reads as missing
        outs = [tmp_path / "na.csv", tmp_path / "empty.csv"]
        base = ("generate", "--n", "40", "--miss-prob", "0.3", "--seed", "2")
        assert run_cli(*base, "--out", str(outs[0])) == 0
        assert run_cli(*base, "--na-token", "", "--out", str(outs[1])) == 0
        text = outs[1].read_text()
        assert "NA" not in text and ",," in text
        assert text == outs[0].read_text().replace("NA", "")
        (want, _), (got, _) = load_csv(outs[0]), load_csv(outs[1])
        assert (~got.mask).any()
        assert got.mask.tobytes() == want.mask.tobytes()
        assert got.values[got.mask].tobytes() == want.values[want.mask].tobytes()

    def test_invalid_combo_usage_error(self, tmp_path):
        out = tmp_path / "x.csv"
        # p_high for mar_1_to_x would exceed 1
        code = run_cli(
            "generate", "--out", str(out), "--mechanism", "mar_1_to_x",
            "--miss-prob", "0.6", "--odds", "9",
        )
        assert code == 2


class TestSimulateCommand:
    def test_smoke_and_row_count(self, tmp_path):
        out = tmp_path / "res.csv"
        code = run_cli(
            "simulate", "--out", str(out), "--n", "50", "--p", "1", "--q", "2",
            "--mechanism", "mcar", "--sweep-miss", "0.1,0.2",
            "--replications", "30", "--seed", "5",
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # 2 cells x (an, d2)

    def test_default_seed_is_zero(self, tmp_path):
        outs = [tmp_path / "default.csv", tmp_path / "zero.csv"]
        base = ("simulate", "--n", "30", "--replications", "5")
        assert run_cli(*base, "--out", str(outs[0])) == 0
        assert run_cli(*base, "--seed", "0", "--out", str(outs[1])) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_unknown_mechanism_usage_error(self, tmp_path):
        code = run_cli(
            "simulate", "--out", str(tmp_path / "r.csv"), "--mechanism", "mnar"
        )
        assert code == 2

    def test_scenario_file(self, tmp_path):
        doc = {
            "label": "1X1Y",
            "distribution": {"kind": "std_normal", "dim": 2},
            "p": 1,
            "q": 1,
            "n": 60,
            "mechanism": {"kind": "mcar", "miss_prob": 0.2},
            "tests": ["an", "dn", "d2"],
            "replications": 25,
            "alpha": 0.05,
            "master_seed": 9,
        }
        sc = tmp_path / "scenario.json"
        sc.write_text(json.dumps(doc))
        out = tmp_path / "res.csv"
        assert run_cli("simulate", "--scenario", str(sc), "--out", str(out)) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["test"] for r in rows} == {"an", "dn", "d2_univariate"}

    @pytest.mark.parametrize("flag", SCENARIO_FLAG_VALUES)
    def test_scenario_file_rejects_data_flags(self, tmp_path, capsys, flag):
        # the file holds the whole cell, so the flag would be silently ignored
        assert set(SCENARIO_FLAG_VALUES) == {*DATA_OPTIONS, "--tests", "--alpha"}
        value = SCENARIO_FLAG_VALUES[flag]
        sc = tmp_path / "scenario.json"
        sc.write_text(json.dumps(SCENARIO))
        out = tmp_path / "res.csv"
        assert run_cli("simulate", "--scenario", str(sc), flag, value, "--out", str(out)) == 2
        assert f"{flag} cannot be combined with --scenario" in capsys.readouterr().err
        assert not out.exists()

    def test_scenario_file_takes_the_spec_defaults(self, tmp_path):
        # a file may leave out theta, margins and miss_prob, as the flags may
        full = {
            **SCENARIO,
            "distribution": {"kind": "clayton", "dim": 2, "theta": 1, "margins": ["exp1"] * 2},
            "mechanism": {"kind": "mar_1_to_x", "miss_prob": 0.12},
        }
        bare = {
            **SCENARIO,
            "distribution": {"kind": "clayton", "dim": 2},
            "mechanism": {"kind": "mar_1_to_x"},
        }
        outs = [tmp_path / "full.csv", tmp_path / "bare.csv"]
        for out, doc in zip(outs, (full, bare)):
            sc = tmp_path / f"{out.stem}.json"
            sc.write_text(json.dumps(doc))
            assert run_cli("simulate", "--scenario", str(sc), "--out", str(out)) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert ",mar_1_to_x,0.12," in outs[1].read_text()

    def test_scenario_file_takes_replications_and_seed(self, tmp_path):
        outs = [tmp_path / "flags.csv", tmp_path / "file.csv"]
        docs = [SCENARIO, {**SCENARIO, "replications": 5, "master_seed": 3}]
        flags = [["--replications", "5", "--seed", "3"], []]
        for out, doc, extra in zip(outs, docs, flags):
            sc = tmp_path / f"{out.stem}.json"
            sc.write_text(json.dumps(doc))
            assert run_cli("simulate", "--scenario", str(sc), *extra, "--out", str(out)) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_scenario_file_bad_field(self, tmp_path):
        sc = tmp_path / "bad.json"
        sc.write_text(json.dumps({"label": "1X1Y"}))
        assert run_cli("simulate", "--scenario", str(sc), "--out", str(tmp_path / "r.csv")) == 2

    def test_scenario_not_json(self, tmp_path):
        sc = tmp_path / "bad.json"
        sc.write_text("{nope")
        assert run_cli("simulate", "--scenario", str(sc), "--out", str(tmp_path / "r.csv")) == 2

    def test_worker_invariance(self, tmp_path):
        args = [
            "simulate", "--n", "40", "--p", "1", "--q", "2", "--mechanism", "mcar",
            "--sweep-miss", "0.15,0.25", "--replications", "20", "--seed", "8",
        ]
        a = tmp_path / "w1.csv"
        b = tmp_path / "w3.csv"
        assert run_cli(*args, "--out", str(a), "--workers", "1") == 0
        assert run_cli(*args, "--out", str(b), "--workers", "3") == 0
        assert a.read_bytes() == b.read_bytes()


# mechanisms that do not fit the default 1X2Y columns: (id, options, message)
MISFIT_MECHANISMS = [
    (
        "control-not-complete",
        ["--mechanism", "mar_1_to_x", "--miss-prob", "0.1", "--controls", "y1,x1"],
        "control column 1 is not a complete column",
    ),
    (
        "one-control-two-targets",
        ["--mechanism", "mar_1_to_x", "--miss-prob", "0.1", "--controls", "x1"],
        "need one control per target (2), got 1",
    ),
    (
        "control-index-not-complete",
        ["--mechanism", "mar_1_to_x", "--miss-prob", "0.1", "--controls", "1,0"],
        "control column 1 is not a complete column",
    ),
    (
        "control-unknown-name",
        ["--mechanism", "mar_1_to_x", "--miss-prob", "0.1", "--controls", "zz,0"],
        "no column named 'zz'",
    ),
    (
        "one-rate-pair-two-targets",
        ["--mechanism", "mar_mean", "--p-high", "0.1", "--p-low", "0.2"],
        "pair per target",
    ),
]


class TestOnePass:
    """``an``, ``dn`` and ``d2_univariate`` are one statistic: at p = q = 1
    one QR pass (the columns' factor and its small second QR) serves all
    three."""

    @pytest.fixture
    def qr_calls(self, monkeypatch):
        calls = []
        qr = np.linalg.qr

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted)
        return calls

    def test_simulate_factors_each_block_once(self, tmp_path, qr_calls):
        argv = ["simulate", "--p", "1", "--q", "1", "--n", "30", "--tests", "an,dn,d2",
                "--replications", "40", "--out", str(tmp_path / "r.csv")]
        assert run_cli(*argv) == 0
        # one cell, one block of 40 replications
        assert qr_calls == [(40, 30, 3), (40, 2, 1)]

    def test_test_factors_the_dataset_once(self, tmp_path, qr_calls):
        path = write_hand(tmp_path)
        assert run_cli("test", "--input", str(path), "--tests", "an,dn,d2") == 0
        assert qr_calls == [(1, 3, 3), (1, 2, 1)]


# each would run truncated to its integer part: n 100, 2 replications, seed 1, p 1
FRACTIONAL_FIELDS = (("n", 100.7), ("replications", 2.5), ("master_seed", 1.9), ("p", 1.5))

HUGE_N = str(10**30)
# 1X2Y, the data flags' default shape: 8 bytes a cell, three cells a row
HUGE_N_MESSAGE = f"n must be at most {np.iinfo(np.intp).max // 24} for 3 columns, got {HUGE_N}"

# each would run as the number it quotes (master_seed true as 1); (field, value, message)
QUOTED_FIELDS = (
    ("n", "100", "n must be an integer, got '100'"),
    ("replications", "7", "replications must be an integer, got '7'"),
    ("alpha", "0.05", "alpha must be a number, got '0.05'"),
    ("master_seed", True, "master_seed must be an integer, got True"),
    ("mechanism", {"kind": "mcar", "miss_prob": "0.1"}, "miss_prob must be a number, got '0.1'"),
    ("distribution", {"kind": "std_normal", "dim": "3"}, "dim must be an integer, got '3'"),
)

# (case, flags, message): NaN passes every range check, and inf makes NaN rates
NON_FINITE_FLAGS = (
    ("theta-nan", ["--dist", "clayton", "--theta", "nan"], "theta must be finite, got nan"),
    ("odds-nan", ["--mechanism", "mar_1_to_x", "--odds", "nan"], "odds must be finite, got nan"),
    ("odds-inf", ["--mechanism", "mar_1_to_x", "--odds", "inf"], "odds must be finite, got inf"),
)


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, names",
        [
            pytest.param(["generate", "--seed", "-1"], "-1", id="generate-seed"),
            pytest.param(SIMULATE + ["--seed", "-1"], "-1", id="simulate-seed"),
            pytest.param(
                ["simulate", "--scenario", "{negative_seed.json}"], "-1", id="scenario-seed"
            ),
            pytest.param(SIMULATE + ["--replications", "0"], "got 0", id="replications"),
            pytest.param(SIMULATE + ["--workers", "0"], "got 0", id="workers"),
            pytest.param(
                SIMULATE + ["--tests", "d2_univariate"], "d2_univariate", id="d2-univariate-q2"
            ),
            pytest.param(SIMULATE + ["--sweep-miss", "abc"], "'abc'", id="sweep-miss-text"),
            pytest.param(SIMULATE + ["--sweep-n", "1.5"], "1.5", id="sweep-n-fraction"),
            pytest.param(SIMULATE + ["--sweep-n", "2"], "got 2", id="sweep-n-small"),
            pytest.param(
                SIMULATE + ["--mechanism", "mar_mean", "--sweep-miss", "0.1"],
                "mar_mean",
                id="sweep-miss-mar-mean",
            ),
            pytest.param(
                SIMULATE + ["--sweep-miss", "0.1,0.2,1.5"], "1.5", id="sweep-miss-late"
            ),
            pytest.param(
                ["simulate", "--scenario", "{not_object.json}"], "JSON object",
                id="scenario-array",
            ),
            pytest.param(
                ["simulate", "--scenario", "{bad_mechanism.json}"], "'mechanism'",
                id="scenario-mechanism-string",
            ),
            pytest.param(
                ["simulate", "--scenario", "{bad_distribution.json}"], "'distribution'",
                id="scenario-distribution-string",
            ),
            # the targets are the incomplete columns: a file cannot name them
            pytest.param(
                ["simulate", "--scenario", "{empty_targets.json}"],
                "unknown field 'target_columns' in MechanismSpec",
                id="scenario-empty-targets",
            ),
            # a scenario file's integer fields are not truncated
            *(
                pytest.param(
                    ["simulate", "--scenario", f"{{fractional_{field}.json}}"],
                    f"{field} must be an integer, got {value}",
                    id=f"scenario-fractional-{field}",
                )
                for field, value in FRACTIONAL_FIELDS
            ),
            # nor are quoted numbers and bools converted
            *(
                pytest.param(
                    ["simulate", "--scenario", f"{{quoted_{field}.json}}"],
                    message,
                    id=f"scenario-quoted-{field}",
                )
                for field, _, message in QUOTED_FIELDS
            ),
            pytest.param(
                ["simulate", "--scenario", "{target_number.json}"],
                "unknown field 'target_columns' in MechanismSpec",
                id="scenario-target-columns-number",
            ),
            pytest.param(
                ["simulate", "--scenario", "{tests_string.json}"],
                "tests must be a list, got 'an'",
                id="scenario-tests-string",
            ),
            # a field that nothing reads is an error, in a file or as a flag
            pytest.param(
                ["simulate", "--scenario", "{unknown_field.json}"],
                "unknown field 'replicatons' in Scenario",
                id="scenario-unknown-field",
            ),
            pytest.param(
                ["simulate", "--scenario", "{unknown_mechanism_field.json}"],
                "Scenario field 'mechanism': unknown field 'odd' in MechanismSpec",
                id="scenario-unknown-mechanism-field",
            ),
            pytest.param(
                ["simulate", "--scenario", "{mar_mean_miss_prob.json}"],
                "mar_mean takes no miss_prob",
                id="scenario-mar-mean-miss-prob",
            ),
            pytest.param(
                SIMULATE + ["--mechanism", "mcar", "--odds", "3"], "mcar takes no odds",
                id="mcar-odds",
            ),
            pytest.param(
                SIMULATE + ["--mechanism", "mcar", "--controls", "x1"],
                "mcar takes no controls",
                id="mcar-controls",
            ),
            pytest.param(
                SIMULATE + ["--mechanism", "mar_mean", "--miss-prob", "0.3"],
                "mar_mean takes no miss_prob",
                id="mar-mean-miss-prob",
            ),
            pytest.param(
                SIMULATE + ["--dist", "std_normal", "--theta", "2"],
                "std_normal takes no theta",
                id="std-normal-theta",
            ),
            pytest.param(
                SIMULATE + ["--mechanism", "mar_1_to_x", "--odds", "0.5"],
                "odds must be >= 1, got 0.5",
                id="odds-below-one",
            ),
            # every number of a spec is finite, as a flag or in a file
            *(
                pytest.param(command + extra, message, id=f"{command[0]}-{case}")
                for command in (["generate"], SIMULATE)
                for case, extra, message in NON_FINITE_FLAGS
            ),
            pytest.param(
                ["simulate", "--scenario", "{theta_nan.json}"],
                "Scenario field 'distribution': theta must be finite, got nan",
                id="scenario-theta-nan",
            ),
            pytest.param(
                SIMULATE + ["--mechanism", "mar_mean", "--p-high", "0.1,0.2", "--p-low", "0.1"],
                "p_high and p_low must have equal length",
                id="mar-mean-unequal-rates",
            ),
            pytest.param(
                SIMULATE + ["--sweep-miss", "0.1", "--sweep-n", "40,50"],
                "choose one of --sweep-miss and --sweep-n",
                id="both-sweeps",
            ),
            # generate takes simulate's data rules, and its messages
            pytest.param(
                ["generate", "--p", "0"], "need p >= 1 complete and q >= 1 incomplete columns",
                id="generate-p-zero",
            ),
            pytest.param(["generate", "--n", "0"], "n must be at least 3, got 0", id="generate-n-zero"),
            pytest.param(
                ["generate", "--seed", "-1"], "master_seed must be >= 0, got -1",
                id="generate-negative-seed",
            ),
            # an n whose (n, p+q) float64 array numpy cannot address, before allocating it
            pytest.param(["generate", "--n", HUGE_N], HUGE_N_MESSAGE, id="generate-huge-n"),
            pytest.param(SIMULATE + ["--n", HUGE_N], HUGE_N_MESSAGE, id="simulate-huge-n"),
            pytest.param(
                # --sweep-n reads floats: 1e30 is then the integer nearest it
                SIMULATE + ["--sweep-n", f"40,{HUGE_N}"],
                HUGE_N_MESSAGE.replace(HUGE_N, str(int(float(HUGE_N)))), id="sweep-huge-n",
            ),
            pytest.param(
                ["simulate", "--scenario", "{huge_n.json}"], HUGE_N_MESSAGE, id="scenario-huge-n",
            ),
            pytest.param(
                ["simulate", "--scenario", "{null_kind.json}"], "kind must not be null",
                id="scenario-null-kind",
            ),
            pytest.param(
                ["simulate", "--scenario", "{zero_dim.json}"], "dim must be positive, got 0",
                id="scenario-zero-dim",
            ),
            pytest.param(
                ["simulate", "--scenario", "{no_tests.json}"], "no tests selected",
                id="scenario-no-tests",
            ),
            # every resolved test's shape rule is checked before the first runs
            pytest.param(
                ["test", "--input", "{2X1Y.csv}", "--tests", "an,dn"],
                "the dn test requires p = 1 and q = 1",
                id="test-dn-2X1Y",
            ),
            pytest.param(
                ["test", "--input", "{1X2Y.csv}", "--tests", "an,d2_univariate"],
                "the d2_univariate test requires q = 1",
                id="test-d2-univariate-1X2Y",
            ),
            pytest.param(
                ["test", "--input", "{1X2Y.csv}", "--tests", ","], "at least one test",
                id="test-no-tests",
            ),
            # plot draws its alpha as the nominal line: the one alpha rule
            *(
                pytest.param(
                    ["plot", "--input", "{results.csv}", "--alpha", alpha],
                    f"alpha must be in (0, 1], got {float(alpha)}",
                    id=f"plot-alpha-{alpha}",
                )
                for alpha in ("2", "-1", "0", "nan")
            ),
            # a mechanism that does not fit the columns is caught before any data
            *(
                pytest.param(command + extra, names, id=f"{command[0]}-{case}")
                for command in (["generate"], SIMULATE)
                for case, extra, names in MISFIT_MECHANISMS
            ),
        ],
    )
    def test_exit_2_before_any_work(self, tmp_path, capsys, argv, names):
        good = {
            "label": "1X2Y",
            "distribution": {"kind": "std_normal", "dim": 3},
            "p": 1,
            "q": 2,
            "n": 40,
            "mechanism": {"kind": "mcar", "miss_prob": 0.2},
            "replications": 5,
        }
        scenarios = {
            "negative_seed": {**good, "master_seed": -1},
            "not_object": [],
            "bad_mechanism": {**good, "mechanism": "oops"},
            "bad_distribution": {**good, "distribution": "oops"},
            "empty_targets": {
                **good,
                "mechanism": {"kind": "mcar", "miss_prob": 0.2, "target_columns": []},
            },
            "target_number": {
                **good,
                "mechanism": {"kind": "mcar", "miss_prob": 0.2, "target_columns": 2},
            },
            "tests_string": {**good, "tests": "an"},
            "unknown_field": {**good, "replicatons": 10},
            "unknown_mechanism_field": {
                **good, "mechanism": {"kind": "mcar", "miss_prob": 0.2, "odd": 1},
            },
            "mar_mean_miss_prob": {**good, "mechanism": {"kind": "mar_mean", "miss_prob": 0.2}},
            "null_kind": {**good, "mechanism": {"kind": None, "miss_prob": 0.2}},
            "zero_dim": {**good, "distribution": {"kind": "std_normal", "dim": 0}},
            "no_tests": {**good, "tests": []},
            # json writes and reads NaN as a bare literal
            "theta_nan": {**good, "distribution": {"kind": "clayton", "dim": 3, "theta": math.nan}},
            "huge_n": {**good, "n": int(HUGE_N)},
            **{f"fractional_{field}": {**good, field: value} for field, value in FRACTIONAL_FIELDS},
            **{f"quoted_{field}": {**good, field: value} for field, value, _ in QUOTED_FIELDS},
        }
        files = {f"{name}.json": json.dumps(doc) for name, doc in scenarios.items()}
        files["2X1Y.csv"] = "x1,x2,y\n1,2,3\n2,1,NA\n3,5,4\n4,3,1\n"
        files["1X2Y.csv"] = "x,y1,y2\n1,2,3\n2,NA,1\n3,5,NA\n4,3,1\n"
        files["results.csv"] = RESULTS_CSV
        for name, text in files.items():
            path = tmp_path / name
            path.write_text(text)
            argv = [a.replace("{" + name + "}", str(path)) for a in argv]
        out = tmp_path / "out.csv"
        assert run_cli(*argv, "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert "error:" in err and "Traceback" not in err
        assert names in err
        assert "done" not in err  # no cell ran
        assert not out.exists()


class TestPlotCommand:
    def make_results(self, tmp_path, sweep="0.06,0.12,0.18", flag="--sweep-miss"):
        out = tmp_path / "res.csv"
        code = run_cli(
            "simulate", "--out", str(out), "--n", "40", "--p", "1", "--q", "2",
            "--mechanism", "mcar", flag, sweep,
            "--replications", "20", "--seed", "4",
        )
        assert code == 0
        return out

    def test_svg_structure(self, tmp_path):
        res = self.make_results(tmp_path)
        svg = tmp_path / "chart.svg"
        assert run_cli("plot", "--input", str(res), "--out", str(svg)) == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 2  # one per test
        assert text.count("<polygon") == 2  # one band per test
        assert "#ff8c00" in text  # quadratic-form test in orange
        assert "#1f77b4" in text  # Little's test in blue
        assert "stroke-dasharray" in text  # alpha reference line

    def test_byte_determinism(self, tmp_path):
        res = self.make_results(tmp_path)
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        assert run_cli("plot", "--input", str(res), "--out", str(a)) == 0
        assert run_cli("plot", "--input", str(res), "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_nothing_to_plot(self, tmp_path, capsys):
        res = self.make_results(tmp_path, sweep="0.12")
        svg = tmp_path / "chart.svg"
        assert run_cli("plot", "--input", str(res), "--out", str(svg)) == 3
        assert "nothing to plot" in capsys.readouterr().err
        # a header and no rows
        res.write_text(res.read_text().splitlines()[0] + "\n")
        assert run_cli("plot", "--input", str(res), "--out", str(svg)) == 3
        assert "nothing to plot: no input rows" in capsys.readouterr().err

    def test_sample_size_sweep_plots_over_n(self, tmp_path):
        res = self.make_results(tmp_path, sweep="30,40,50", flag="--sweep-n")
        svg = tmp_path / "chart.svg"
        assert run_cli("plot", "--input", str(res), "--out", str(svg)) == 0
        text = svg.read_text()
        assert 'font-size="13" text-anchor="middle" font-family="sans-serif">n</text>' in text
        assert text.count("<polyline") == 2  # one per test

    def test_mixed_sweeps_rejected(self, tmp_path, capsys):
        res_a = self.make_results(tmp_path)
        res_b = self.make_results(tmp_path, sweep="0.06,0.12")
        merged = tmp_path / "merged.csv"
        lines = res_a.read_text().splitlines()
        lines += res_b.read_text().splitlines()[1:]
        merged.write_text("\n".join(lines) + "\n")
        assert run_cli("plot", "--input", str(merged), "--out", str(tmp_path / "m.svg")) == 3
        assert "mixes sweeps" in capsys.readouterr().err

    def test_not_a_results_table(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n1.0,2.0\n3.0,NA\n")
        svg = tmp_path / "chart.svg"
        assert run_cli("plot", "--input", str(path), "--out", str(svg)) == 3
        err = capsys.readouterr().err
        assert "error: not a results table: missing 'test', 'param', 'rate'" in err
        assert "Traceback" not in err and not svg.exists()

    @pytest.mark.parametrize("cell", ["abc", "nan", ""])
    def test_rate_that_is_not_a_number(self, tmp_path, capsys, cell):
        res = self.make_results(tmp_path)
        with open(res, newline="") as fh:
            rows = list(csv.DictReader(fh))
        rows[2]["rate"] = cell
        with open(res, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        svg = tmp_path / "chart.svg"
        assert run_cli("plot", "--input", str(res), "--out", str(svg)) == 3
        err = capsys.readouterr().err
        tag = rows[2]["test"]
        assert f"error: row 3 (test {tag!r}): rate {cell!r} is not a finite number" in err
        assert "Traceback" not in err and not svg.exists()


class TestEntryPoints:
    def test_no_args_usage(self):
        assert run_cli() == 2

    @pytest.mark.parametrize("command", ["test", "simulate"])
    def test_tests_help_lists_known_tests(self, command, capsys):
        assert run_cli(command, "--help") == 0
        out = capsys.readouterr().out
        text = " ".join(out.split())
        assert "--tests TESTS comma list from " + ",".join(KNOWN_TESTS) in text
        if command == "simulate":
            # the data options shared with generate carry the same help
            for option in DATA_OPTIONS:
                entry = re.search(rf"^  {option} \S+(.*(?:\n {{3,}}\S.*)*)", out, re.M)
                assert entry and entry.group(1).strip(), option

    def test_generate_and_simulate_share_the_data_options(self):
        # one registration: each data flag takes the same type, choices and
        # help in both commands, and is absent from args unless given
        commands = _subcommands()
        shared = [
            {
                a.option_strings[0]: (a.type, a.choices, a.default, a.help)
                for a in commands[name]._actions
                if a.option_strings and a.option_strings[0] in DATA_OPTIONS
            }
            for name in ("generate", "simulate")
        ]
        assert shared[0] == shared[1]
        assert sorted(shared[0]) == sorted(DATA_OPTIONS)
        assert {entry[2] for entry in shared[0].values()} == {argparse.SUPPRESS}

    def test_readme_cli_flags_exist(self):
        # every flag the README's CLI section names is one that a command
        # takes; the section's own text, before its subsections, which
        # record measurements and name the benchmark's flags
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = re.search(r"^## CLI\n(.*?)^##", readme, re.M | re.S).group(1)
        flags = set(re.findall(r"--[a-z][a-z0-9-]*", section))
        commands = _subcommands().values()
        known = {flag for command in commands for flag in command._option_string_actions}
        assert "--miss-prob" in flags and "--scenario" in flags
        assert flags <= known, sorted(flags - known)

    def test_cli_path_loads_no_scipy_ma_or_plotting(self, tmp_path):
        # scipy costs a quarter to a whole second of start-up per call,
        # numpy.ma (np.median's first call imports it) ~17 ms and the SVG
        # plotter a few; the import, two simulates, a generate and a test
        # call must load none of them
        path = tmp_path / "tiny.csv"
        rows = [f"{i / 3:.4f},{(i * 7) % 11 - 0.5 * i:.4f}" for i in range(24)]
        for i in (2, 5, 9, 14, 20):
            rows[i] = rows[i].split(",")[0] + ",NA"
        path.write_text("x,y\n" + "\n".join(rows) + "\n")
        code = textwrap.dedent(
            f"""
            import sys
            import mcartest, mcartest.cli

            def loaded(step):
                names = sorted(
                    m for m in sys.modules
                    if m.startswith("scipy") or m in ("numpy.ma", "mcartest.plotting")
                )
                if names:
                    sys.exit(f"{{step}} loaded {{names}}")

            loaded("import")
            code = mcartest.cli.main([
                "simulate", "--out", {str(tmp_path / "sim.csv")!r},
                "--replications", "5", "--n", "40", "--tests", "an,d2",
                "--mechanism", "mcar", "--dist", "clayton", "--margins", "exp1,uniform,exp1",
            ])
            assert code == 0, code
            loaded("simulate")
            code = mcartest.cli.main([
                "simulate", "--out", {str(tmp_path / "sim_mar.csv")!r},
                "--replications", "5", "--n", "40", "--tests", "an",
                "--mechanism", "mar_1_to_x",
            ])
            assert code == 0, code
            loaded("simulate mar_1_to_x")
            code = mcartest.cli.main([
                "generate", "--out", {str(tmp_path / "gen.csv")!r}, "--n", "60",
                "--dist", "std_normal", "--mechanism", "mar_rank", "--miss-prob", "0.2",
                "--seed", "2",
            ])
            assert code == 0, code
            loaded("generate")
            code = mcartest.cli.main(
                ["test", "--input", {str(path)!r}, "--tests", "an,d2,dn"]
            )
            assert code == 0, code
            loaded("test")
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert "dn" in proc.stdout

    def test_only_csv_io_loads_orjson(self, tmp_path):
        # load_csv and write_csv import orjson when they run: loaded at
        # start-up it would add ~0.7 MB of RSS to every call, so --help and
        # simulate must not load it; test and generate show that the check
        # sees it.  Each command runs in a process of its own.
        path = tmp_path / "hand.csv"
        path.write_text(HAND_CSV)
        code = textwrap.dedent(
            """
            import contextlib, io, sys
            import mcartest.cli

            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = mcartest.cli.main(sys.argv[1:])
                except SystemExit as exc:
                    code = exc.code
            assert code == 0, code
            print("orjson" in sys.modules)
            """
        )
        commands = [
            (["--help"], False),
            (["simulate", "--out", str(tmp_path / "sim.csv"), "--replications", "3",
              "--n", "30", "--tests", "an"], False),
            (["test", "--input", str(path), "--tests", "an"], True),
            (["generate", "--out", str(tmp_path / "gen.csv"), "--n", "30",
              "--mechanism", "mcar", "--miss-prob", "0.2"], True),
        ]
        for args, loads in commands:
            proc = subprocess.run(
                [sys.executable, "-c", code, *args], capture_output=True, text=True,
                env=child_env(),
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == str(loads), args[0]

    def test_import_and_test_load_no_numpy_random(self, tmp_path):
        # numpy.random, with the secrets and hmac modules it imports, adds
        # ~2 MB of RSS; the package imports it where it draws, and the test
        # command draws nothing
        path = tmp_path / "hand.csv"
        path.write_text(HAND_CSV)
        code = textwrap.dedent(
            f"""
            import contextlib, io, sys
            import mcartest.cli

            assert "numpy.random" not in sys.modules, "import"
            with contextlib.redirect_stdout(io.StringIO()):
                code = mcartest.cli.main(["test", "--input", {str(path)!r}, "--tests", "an"])
            assert code == 0, code
            assert "numpy.random" not in sys.modules, "test"
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == 0, proc.stderr

    def test_chisq4_margin_imports_scipy_when_used(self):
        # the one caller left of scipy.special imports it on first use
        code = (
            "import sys, numpy as np; "
            "from mcartest import DistributionSpec, generate; "
            "spec = DistributionSpec(kind='clayton', dim=2, theta=1.0, "
            "margins=('chisq4', 'exp1')); "
            "ds = generate(spec, 50, np.random.default_rng(3)); "
            "assert np.isfinite(ds.values).all() and (ds.values > 0).all(); "
            "assert 'scipy.special' in sys.modules"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == 0, proc.stderr

    def test_each_public_name_has_one_home(self):
        # every __all__ entry exists, and no two submodules list the same
        # name; the package root re-exports and is exempt
        homes = {}
        for info in pkgutil.iter_modules(mcartest.__path__):
            if info.name.startswith("_"):
                continue  # __main__ runs the CLI when imported
            module = importlib.import_module(f"mcartest.{info.name}")
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"mcartest.{info.name}.{name}"
                assert name not in homes, f"{name} in {homes.get(name)} and {info.name}"
                homes[name] = info.name

    def test_module_invocation(self, tmp_path):
        path = tmp_path / "hand.csv"
        path.write_text(HAND_CSV)
        # the child imports the same package as this process, installed or not
        proc = subprocess.run(
            [sys.executable, "-m", "mcartest", "test", "--input", str(path), "--tests", "an"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert "2.25" in proc.stdout
