import csv
import json
import re
import subprocess
import sys
import textwrap

import pytest

from mcartest import Dataset, load_csv, ustat_mcar_test
from mcartest.cli import main
from mcartest.harness import KNOWN_TESTS

from conftest import child_env

HAND_CSV = "x,y\n1.0,10.0\n2.0,11.0\n3.0,NA\n"

DATA_OPTIONS = (
    "--n", "--p", "--q", "--dist", "--theta", "--margins", "--mechanism",
    "--miss-prob", "--odds", "--controls", "--p-high", "--p-low",
)

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

    def test_missing_file_is_data_error(self, tmp_path):
        assert run_cli("test", "--input", str(tmp_path / "nope.csv")) == 3

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

    def test_cli_path_loads_no_scipy(self, tmp_path):
        # scipy costs a quarter to a whole second of start-up per call; the
        # import, a simulate, a generate and a test call must not load any of it
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
                names = sorted(m for m in sys.modules if m.startswith("scipy"))
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
