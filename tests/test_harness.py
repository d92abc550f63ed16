import concurrent.futures
import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcartest.harness
from conftest import draw_distribution, draw_mechanism
from mcartest import (
    ColumnRoles,
    DegenerateDataError,
    DistributionSpec,
    MechanismSpec,
    SingularMatrixError,
    apply_mechanism,
    generate,
    pattern_names,
    rng_stream,
)
from mcartest.harness import (
    Scenario,
    _ks_distance,
    results_to_csv,
    run_cell,
    run_grid,
    wilson_interval,
)
from mcartest.stats import KNOWN_TESTS, TESTS, resolve_tests, run_tests


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

    def test_n_bound(self):
        # the largest n whose (n, 3) float64 array numpy can address; no data is made
        max_n = np.iinfo(np.intp).max // 24
        assert scenario(n=max_n).n == max_n
        with pytest.raises(ValueError, match=f"n must be at most {max_n} for 3 columns"):
            scenario(n=max_n + 1)

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
        assert resolve_tests(("d2",), 2, 1) == ("d2_univariate",)
        assert resolve_tests(("d2",), 2, 3) == ("d2_general",)
        assert resolve_tests(("an",), 2, 2) == ("an",)
        # each test once, in first-seen order, the alias with its target
        assert resolve_tests(("d2", "an", "d2_general", "an"), 1, 2) == ("d2_general", "an")

    def test_registry_names_every_wire_name(self):
        assert set(KNOWN_TESTS) == set(TESTS) | {"d2"}
        assert resolve_tests(KNOWN_TESTS, 1, 1) == tuple(TESTS)
        assert resolve_tests(["an", "d2_general", "d2"], 3, 3) == ("an", "d2_general")

    def test_unknown_name_is_rejected_before_the_shape(self):
        with pytest.raises(ValueError, match=r"unknown test 'bogus'; expected one of \("):
            resolve_tests(("dn", "bogus"), 2, 2)

    @pytest.mark.parametrize(
        "tag, p, q, ok",
        [("dn", 1, 1, True), ("dn", 2, 1, False), ("dn", 1, 2, False),
         ("d2_univariate", 3, 1, True), ("d2_univariate", 1, 2, False),
         ("an", 3, 3, True), ("d2_general", 2, 3, True)],
    )
    def test_registry_shape_rules(self, tag, p, q, ok):
        if ok:
            assert resolve_tests((tag,), p, q) == (tag,)
        else:
            with pytest.raises(ValueError, match=f"the {tag} test requires"):
                resolve_tests((tag,), p, q)

    @pytest.mark.parametrize("doc", [[], "text", 3])
    def test_from_dict_needs_an_object(self, doc):
        with pytest.raises(ValueError, match="JSON object"):
            Scenario.from_dict(doc)

    @pytest.mark.parametrize("field", ["distribution", "mechanism"])
    def test_from_dict_nested_objects(self, field):
        doc = scenario().to_dict()
        doc[field] = "oops"
        with pytest.raises(ValueError, match=field):
            Scenario.from_dict(doc)


@st.composite
def spec_cases(draw):
    """A distribution, a mechanism and a Scenario made of them."""
    p, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    dist = draw_distribution(draw, p + q)
    mech = draw_mechanism(draw, p, q)

    def fits(tag):
        try:
            resolve_tests((tag,), p, q)
        except ValueError:
            return False
        return True

    tests = st.lists(st.sampled_from([t for t in KNOWN_TESTS if fits(t)]), min_size=1, unique=True)
    s = Scenario(
        label=f"{p}X{q}Y",
        distribution=dist,
        p=p,
        q=q,
        n=draw(st.integers(3, 10**6)),
        mechanism=mech,
        tests=tuple(draw(tests)),
        replications=draw(st.integers(1, 10**6)),
        alpha=draw(st.floats(0.0, 1.0, exclude_min=True)),
        master_seed=draw(st.integers(0, 2**128)),
    )
    return dist, mech, s


@settings(max_examples=200, deadline=None)
@given(case=spec_cases())
def test_json_round_trip_property(case):
    # from_dict takes to_dict's own output back, through JSON text, whole
    for spec in case:
        back = type(spec).from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back == spec
    assert back.content_hash() == spec.content_hash()


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

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_raise(self, workers):
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            run_cell(scenario(replications=6), workers=workers)

    @pytest.mark.parametrize("workers, replications, pools", [(64, 6, [6]), (3, 1, [])])
    def test_pool_is_no_larger_than_the_blocks(self, workers, replications, pools, monkeypatch):
        # a stand-in pool that records its size and maps in this process
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        s = scenario(replications=replications)
        assert run_cell(s, workers=workers) == run_cell(s)
        assert sizes == pools

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
        # a swept miss_prob is judged as the field is, not converted
        with pytest.raises(ValueError, match="miss_prob must be a number, got '0.2'"):
            run_grid(s, {"miss_prob": ["0.2", True]})
        with pytest.raises(ValueError, match="miss_prob must be a number, got True"):
            run_grid(s, {"miss_prob": [0.2, True]})
        mm = scenario(
            mechanism=MechanismSpec(kind="mar_mean", p_high=(0.1, 0.1), p_low=(0.1, 0.1)),
            replications=5,
        )
        with pytest.raises(ValueError, match="mar_mean takes no miss_prob"):
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


# small cells where many replications are degenerate, for the block tests
SMALL_CELLS = [
    pytest.param(
        dict(label="1X1Y", distribution=DistributionSpec(kind="std_normal", dim=2),
             p=1, q=1, n=10, tests=("an", "dn", "d2"),
             mechanism=MechanismSpec(kind="mcar", miss_prob=0.08)),
        id="1X1Y-n10-an-dn-d2",
    ),
    pytest.param(
        dict(label="2X2Y", distribution=DistributionSpec(kind="std_normal", dim=4),
             p=2, q=2, n=8, tests=("an", "d2"),
             mechanism=MechanismSpec(kind="mcar", miss_prob=0.1)),
        id="2X2Y-n8-an-d2",
    ),
    pytest.param(
        dict(label="1X1Y", distribution=DistributionSpec(kind="std_normal", dim=2),
             p=1, q=1, n=10, tests=("dn", "d2"),
             mechanism=MechanismSpec(kind="mar_1_to_x", miss_prob=0.1, odds=9.0)),
        id="1X1Y-n10-dn-d2",
    ),
    pytest.param(
        dict(label="2X3Y", distribution=DistributionSpec(kind="std_normal", dim=5),
             p=2, q=3, n=12, tests=("an",),
             mechanism=MechanismSpec(kind="mar_mean", p_high=(0.3, 0.1, 0.2),
                                     p_low=(0.05, 0.2, 0.1), controls=(1, 1, 0))),
        id="2X3Y-n12-mar_mean-shared-control",
    ),
    pytest.param(
        dict(label="2X2Y", distribution=DistributionSpec(kind="std_normal", dim=4),
             p=2, q=2, n=6, tests=("an",),
             mechanism=MechanismSpec(kind="mar_rank", miss_prob=0.2)),
        id="2X2Y-n6-mar_rank",
    ),
    pytest.param(
        dict(label="2X2Y",
             distribution=DistributionSpec(kind="clayton", dim=4, theta=2.0,
                                           margins=("chisq4", "uniform", "exp1", "chisq4")),
             p=2, q=2, n=10, tests=("an", "d2"),
             mechanism=MechanismSpec(kind="mcar", miss_prob=0.1)),
        id="2X2Y-n10-clayton",
    ),
]


class TestBlocks:
    @pytest.mark.parametrize("cell", SMALL_CELLS)
    def test_matches_per_dataset_tests(self, cell):
        # each replication, rebuilt from its own streams and tested alone,
        # gives the run's degenerate classification, statistic and reject
        s = scenario(**cell, replications=150)
        cell_result = run_cell(s)
        key = s.content_hash()
        roles = ColumnRoles(tuple(range(s.p)), tuple(range(s.p, s.p + s.q)))
        for tag in cell_result.per_test:
            values, rejections = [], 0
            for rep in range(s.replications):
                full = generate(s.distribution, s.n, rng_stream(s.master_seed, key, rep, 0),
                                pattern_names(s.p, s.q))
                ds = apply_mechanism(full, roles, s.mechanism,
                                     rng_stream(s.master_seed, key, rep, 1))
                try:
                    (result,) = run_tests((tag,), ds, roles, s.alpha)
                except (SingularMatrixError, DegenerateDataError):
                    continue
                values.append(result.statistic)
                rejections += result.reject
            stats = cell_result.per_test[tag]
            assert stats.degenerate > 0
            assert stats.degenerate == s.replications - len(values)
            assert stats.rejections == rejections
            assert cell_result.statistics[tag] == tuple(values)

    @pytest.mark.parametrize("cell", SMALL_CELLS)
    def test_block_size_does_not_change_outcomes(self, cell, monkeypatch):
        s = scenario(**cell, replications=45)
        whole = run_cell(s)
        cells_per_rep = s.n * (s.p + s.q)
        for size in (1, 7):
            monkeypatch.setattr(mcartest.harness, "_BLOCK_CELLS", size * cells_per_rep)
            assert mcartest.harness._blocks(s.replications, 1, cells_per_rep)[0] == (0, size)
            assert run_cell(s) == whole

    @pytest.mark.parametrize("cell", SMALL_CELLS)
    def test_workers_with_uneven_blocks(self, cell):
        s = scenario(**cell, replications=41)
        blocks = mcartest.harness._blocks(41, 3, s.n * (s.p + s.q))
        assert len({stop - start for start, stop in blocks}) > 1
        assert run_cell(s, workers=3) == run_cell(s, workers=1)

    def test_blocks_cover_replications_in_order(self):
        for n_rep, workers, cells in ((250, 1, 300), (41, 3, 20), (10, 4, 10**6), (7, 1, 10**7)):
            blocks = mcartest.harness._blocks(n_rep, workers, cells)
            assert [b[0] for b in blocks] == [0] + [b[1] for b in blocks[:-1]]
            assert blocks[-1][1] == n_rep
            size = blocks[0][1] - blocks[0][0]
            assert size == 1 or size * cells <= mcartest.harness._BLOCK_CELLS
