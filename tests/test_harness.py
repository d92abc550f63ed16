import csv

import pytest

from mcartest import DegenerateDataError, DistributionSpec, MechanismSpec
from mcartest.harness import (
    Scenario,
    _ks_distance,
    resolve_test,
    results_to_csv,
    run_cell,
    run_grid,
    wilson_interval,
)


def scenario(**overrides):
    base = dict(
        label="1X2Y",
        distribution=DistributionSpec(kind="std_normal", dim=3),
        p=1,
        q=2,
        n=80,
        mechanism=MechanismSpec(kind="mcar", miss_prob=0.15),
        tests=("an", "d2"),
        replications=60,
        alpha=0.05,
        master_seed=424242,
    )
    base.update(overrides)
    return Scenario(**base)


class TestScenario:
    def test_label_must_match_dims(self):
        with pytest.raises(ValueError, match="label"):
            scenario(label="2X1Y")

    def test_distribution_dim_must_match(self):
        with pytest.raises(ValueError, match="dim"):
            scenario(distribution=DistributionSpec(kind="std_normal", dim=4))

    @pytest.mark.parametrize("tag", ["dn", "d2_univariate"])
    def test_shape_bound_test_rejected(self, tag):
        # 1X2Y fits neither test; rejected here, not after every replication
        with pytest.raises(ValueError, match=tag):
            scenario(tests=(tag,))

    def test_negative_master_seed(self):
        with pytest.raises(ValueError, match="master_seed"):
            scenario(master_seed=-1)

    def test_unknown_test(self):
        with pytest.raises(ValueError, match="unknown test"):
            scenario(tests=("zz",))

    def test_json_round_trip(self):
        s = scenario()
        assert Scenario.from_dict(s.to_dict()) == s

    def test_missing_field_message(self):
        doc = scenario().to_dict()
        del doc["mechanism"]
        with pytest.raises(ValueError, match="mechanism"):
            Scenario.from_dict(doc)

    def test_hash_ignores_run_parameters(self):
        s = scenario()
        assert s.content_hash() == scenario(replications=999).content_hash()
        assert s.content_hash() == scenario(master_seed=7).content_hash()
        assert s.content_hash() == scenario(tests=("an",)).content_hash()
        assert s.content_hash() == scenario(alpha=0.01).content_hash()
        assert s.content_hash() != scenario(n=81).content_hash()
        assert (
            s.content_hash()
            != scenario(
                mechanism=MechanismSpec(kind="mcar", miss_prob=0.18)
            ).content_hash()
        )

    def test_resolve_d2_by_q(self):
        assert resolve_test("d2", 1) == "d2_univariate"
        assert resolve_test("d2", 3) == "d2_general"
        assert resolve_test("an", 2) == "an"


class TestWilson:
    def test_known_value(self):
        low, high = wilson_interval(5, 100)
        # standard Wilson score numbers for 5/100 at 95%
        assert low == pytest.approx(0.0215, abs=2e-4)
        assert high == pytest.approx(0.1118, abs=2e-4)

    def test_bounds(self):
        assert wilson_interval(0, 50)[0] == 0.0
        assert wilson_interval(50, 50)[1] == 1.0
        with pytest.raises(ValueError):
            wilson_interval(1, 0)


class TestRunCell:
    def test_worker_count_invariance(self):
        s = scenario(replications=40)
        serial = run_cell(s, workers=1)
        parallel = run_cell(s, workers=3)
        assert serial.per_test == parallel.per_test
        assert serial.statistics == parallel.statistics
        assert serial.ks_vs_chi2 == parallel.ks_vs_chi2

    def test_counts_add_up(self):
        # tiny n and miss prob: all-observed response draws become degenerate
        s = scenario(n=12, mechanism=MechanismSpec(kind="mcar", miss_prob=0.05))
        cell = run_cell(s)
        for stats in cell.per_test.values():
            assert stats.valid + stats.degenerate == s.replications
            assert stats.rate == stats.rejections / stats.valid
        assert cell.per_test["an"].degenerate > 0

    def test_alpha_one_rejects_everything(self):
        cell = run_cell(scenario(alpha=1.0, replications=20))
        for stats in cell.per_test.values():
            assert stats.rate == 1.0

    def test_all_degenerate_raises(self):
        s = scenario(mechanism=MechanismSpec(kind="mcar", miss_prob=0.0), replications=5)
        with pytest.raises(DegenerateDataError):
            run_cell(s)

    def test_rerun_is_identical(self):
        s = scenario(replications=30)
        assert run_cell(s).per_test == run_cell(s).per_test

    def test_ks_only_for_mcar(self):
        s = scenario(
            mechanism=MechanismSpec(kind="mar_rank", miss_prob=0.15),
            replications=20,
        )
        assert run_cell(s).ks_vs_chi2 is None
        assert run_cell(scenario(replications=20)).ks_vs_chi2 is not None


class TestRunGrid:
    def test_miss_prob_sweep(self):
        cells = run_grid(scenario(replications=25), {"miss_prob": [0.1, 0.2]})
        assert len(cells) == 2
        assert cells[0].scenario.mechanism.miss_prob == 0.1
        assert cells[1].scenario.mechanism.miss_prob == 0.2
        # different cells draw different data
        assert cells[0].statistics["an"] != cells[1].statistics["an"]

    def test_n_sweep(self):
        cells = run_grid(scenario(replications=25), {"n": [40, 60]})
        assert [c.scenario.n for c in cells] == [40, 60]

    def test_singleton_equals_run_cell(self):
        s = scenario(replications=25)
        (cell,) = run_grid(s, {"miss_prob": [0.15]})
        assert cell.per_test == run_cell(s).per_test

    def test_sweep_validation(self):
        s = scenario(replications=5)
        with pytest.raises(ValueError):
            run_grid(s, {})
        with pytest.raises(ValueError):
            run_grid(s, {"miss_prob": []})
        with pytest.raises(ValueError):
            run_grid(s, {"theta": [1.0]})
        with pytest.raises(ValueError):
            run_grid(s, {"miss_prob": [0.1], "n": [30]})
        with pytest.raises(ValueError, match="integer"):
            run_grid(s, {"n": [30, 40.5]})
        mm = scenario(
            mechanism=MechanismSpec(kind="mar_mean", p_high=(0.1, 0.1), p_low=(0.1, 0.1)),
            replications=5,
        )
        with pytest.raises(ValueError, match="no miss_prob"):
            run_grid(mm, {"miss_prob": [0.1]})


class TestNullDistribution:
    def test_ks_small_under_null(self):
        ks = run_cell(scenario(n=150, replications=400)).ks_vs_chi2
        assert ks < 0.08

    def test_df_mismatch_is_worse(self):
        s = scenario(n=150, replications=400)
        cell = run_cell(s)
        right = _ks_distance(cell.statistics["an"], 2)
        wrong = _ks_distance(cell.statistics["an"], 3)
        assert wrong > right


class TestResultsCsv:
    def test_schema_and_content(self, tmp_path):
        cells = run_grid(scenario(replications=20), {"miss_prob": [0.1, 0.2]})
        path = tmp_path / "res.csv"
        results_to_csv(cells, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == [
            "label", "distribution", "n", "mechanism", "param", "test",
            "rate", "ci_low", "ci_high", "degenerate_count", "seed",
        ]
        assert len(rows) == 4  # 2 cells x 2 tests
        assert {r["test"] for r in rows} == {"an", "d2_general"}
        assert rows[0]["param"] == "0.1"
        for row in rows:
            assert 0.0 <= float(row["rate"]) <= 1.0
            assert float(row["ci_low"]) <= float(row["rate"]) <= float(row["ci_high"])

    def test_mar_mean_param_blank(self, tmp_path):
        s = scenario(
            mechanism=MechanismSpec(kind="mar_mean", p_high=(0.3, 0.1), p_low=(0.1, 0.3)),
            replications=20,
        )
        path = tmp_path / "mm.csv"
        results_to_csv([run_cell(s)], path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["param"] == "" for r in rows)
