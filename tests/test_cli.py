import csv
import importlib
import json
import pkgutil
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import mcartest
from mcartest import Dataset, load_csv, ustat_mcar_test
from mcartest.cli import main
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

# a cheap valid simulate call; each bad case below overrides one part of it
SIMULATE = ["simulate", "--n", "40", "--tests", "an", "--replications", "5"]


def run_cli(*argv):
    """Invoke main() in process, capturing argparse exits too."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


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

    def test_roles_override(self, tmp_path):
        path = tmp_path / "full.csv"
        path.write_text("a,b\n1.0,9.0\n2.0,8.0\n3.0,7.5\n4.0,6.0\n")
        # force b incomplete despite having no missing cells: its response
        # indicator is constant, a data error (singular), not a crash
        assert run_cli("test", "--input", str(path), "--roles", "b", "--tests", "an") == 3

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
        assert qr_calls == [(40, 30, 2), (40, 2, 1)]

    def test_test_factors_the_dataset_once(self, tmp_path, qr_calls):
        path = write_hand(tmp_path)
        assert run_cli("test", "--input", str(path), "--tests", "an,dn,d2") == 0
        assert qr_calls == [(1, 3, 2), (1, 2, 1)]


# each would run truncated to its integer part: n 100, 2 replications, seed 1, p 1
FRACTIONAL_FIELDS = (("n", 100.7), ("replications", 2.5), ("master_seed", 1.9), ("p", 1.5))

# each would run as the number it quotes (master_seed true as 1); (field, value, message)
QUOTED_FIELDS = (
    ("n", "100", "n must be an integer, got '100'"),
    ("replications", "7", "replications must be an integer, got '7'"),
    ("alpha", "0.05", "alpha must be a number, got '0.05'"),
    ("master_seed", True, "master_seed must be an integer, got True"),
    ("mechanism", {"kind": "mcar", "miss_prob": "0.1"}, "miss_prob must be a number, got '0.1'"),
    ("distribution", {"kind": "std_normal", "dim": "3"}, "dim must be an integer, got '3'"),
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
            pytest.param(
                ["simulate", "--scenario", "{empty_targets.json}"], "target_columns is empty",
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
                "target_columns must be a list, got 2",
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
            **{f"fractional_{field}": {**good, field: value} for field, value in FRACTIONAL_FIELDS},
            **{f"quoted_{field}": {**good, field: value} for field, value, _ in QUOTED_FIELDS},
        }
        files = {f"{name}.json": json.dumps(doc) for name, doc in scenarios.items()}
        files["2X1Y.csv"] = "x1,x2,y\n1,2,3\n2,1,NA\n3,5,4\n4,3,1\n"
        files["1X2Y.csv"] = "x,y1,y2\n1,2,3\n2,NA,1\n3,5,NA\n4,3,1\n"
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
    def make_results(self, tmp_path, sweep="0.06,0.12,0.18"):
        out = tmp_path / "res.csv"
        code = run_cli(
            "simulate", "--out", str(out), "--n", "40", "--p", "1", "--q", "2",
            "--mechanism", "mcar", "--sweep-miss", sweep,
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

    def test_mixed_sweeps_rejected(self, tmp_path, capsys):
        res_a = self.make_results(tmp_path)
        res_b = self.make_results(tmp_path, sweep="0.06,0.12")
        merged = tmp_path / "merged.csv"
        lines = res_a.read_text().splitlines()
        lines += res_b.read_text().splitlines()[1:]
        merged.write_text("\n".join(lines) + "\n")
        assert run_cli("plot", "--input", str(merged), "--out", str(tmp_path / "m.svg")) == 3
        assert "mixes sweeps" in capsys.readouterr().err


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

    def test_only_writing_a_csv_loads_orjson(self, tmp_path):
        # write_csv imports orjson when it runs: loaded at start-up it would
        # add ~0.7 MB of RSS to every call, so --help, simulate and test
        # must not load it; generate shows that the check sees it
        path = tmp_path / "hand.csv"
        path.write_text(HAND_CSV)
        code = textwrap.dedent(
            f"""
            import contextlib, io, sys
            import mcartest.cli

            def loads_orjson(*args):
                with contextlib.redirect_stdout(io.StringIO()):
                    try:
                        code = mcartest.cli.main(list(args))
                    except SystemExit as exc:
                        code = exc.code
                assert code == 0, (args, code)
                return "orjson" in sys.modules

            assert not loads_orjson("--help"), "--help"
            assert not loads_orjson(
                "simulate", "--out", {str(tmp_path / "sim.csv")!r},
                "--replications", "3", "--n", "30", "--tests", "an",
            ), "simulate"
            assert not loads_orjson("test", "--input", {str(path)!r}, "--tests", "an"), "test"
            assert loads_orjson(
                "generate", "--out", {str(tmp_path / "gen.csv")!r}, "--n", "30",
                "--mechanism", "mcar", "--miss-prob", "0.2",
            ), "generate"
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
