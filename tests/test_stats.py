import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcartest.em
import mcartest.stats
from mcartest import (
    ColumnRoles,
    Dataset,
    DegenerateDataError,
    DistributionSpec,
    MechanismSpec,
    SingularMatrixError,
    apply_mechanism,
    bivariate_mcar_test,
    gap_matrix,
    generate,
    little_mcar_general,
    little_mcar_univariate,
    mean_product_gap,
    response_matrix,
    rng_stream,
    ustat_mcar_test,
)
from mcartest.stats import (
    bivariate_batch,
    little_univariate_batch,
    stack_columns,
    ustat_batch,
)

from conftest import make_dataset, pq_covariance, reference_routes, spd_eigh


def brute_gap(x, r):
    """Literal pair double sum: the O(n^2) oracle for the unbiased gap."""
    n = len(x)
    cross = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                cross += x[i] * r[j]
    return cross / (n * (n - 1)) - float(np.mean(np.asarray(x) * np.asarray(r)))


def hand_dataset():
    # x = [1,2,3] with the third response missing: gap 0.5, A_n = d2 = 2.25
    vals = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    mask = np.array([[True, True], [True, True], [True, False]])
    ds = Dataset(vals, mask, ("x", "y"))
    return ds, ColumnRoles((0,), (1,))


class TestMeanProductGap:
    def test_hand_case(self):
        unbiased, biased = mean_product_gap([1.0, 2.0, 3.0], [1.0, 1.0, 0.0])
        assert unbiased == pytest.approx(0.5, rel=1e-14)
        assert biased == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_double_sum_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 51))
            x = rng.standard_normal(n)
            r = (rng.random(n) < 0.6).astype(float)
            unbiased, _ = mean_product_gap(x, r)
            assert unbiased == pytest.approx(brute_gap(x, r), abs=1e-12)

    def test_scale_relation_exact(self, rng):
        # unbiased is computed from biased, so the n/(n-1) relation is exact
        for _ in range(20):
            n = int(rng.integers(2, 40))
            x = rng.standard_normal(n)
            r = (rng.random(n) < 0.5).astype(float)
            unbiased, biased = mean_product_gap(x, r)
            assert unbiased == biased * n / (n - 1)

    def test_degenerate_inputs_give_zero(self):
        unbiased, biased = mean_product_gap([5.0, 5.0, 5.0], [1.0, 0.0, 1.0])
        assert abs(unbiased) < 1e-12  # constant column carries no signal
        unbiased, _ = mean_product_gap([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        assert abs(unbiased) < 1e-12  # no missingness variation

    def test_requires_two_rows(self):
        with pytest.raises(DegenerateDataError):
            mean_product_gap([1.0], [1.0])


class TestGapMatrix:
    def test_matches_per_pair_loop(self, rng):
        ds, roles = make_dataset(rng, 40, 3, 2)
        stats = gap_matrix(ds, roles)
        r = response_matrix(ds, roles).astype(float)
        for u, cu in enumerate(roles.complete):
            for v in range(roles.q):
                unbiased, biased = mean_product_gap(ds.values[:, cu], r[:, v])
                assert stats.unbiased[u, v] == pytest.approx(unbiased, abs=1e-13)
                assert stats.biased[u, v] == pytest.approx(biased, abs=1e-13)

    def test_covariance_hand_value(self):
        ds, roles = hand_dataset()
        # Var(x): 1 (unbiased), 2/3 (ml); Var(r): 1/3, 2/9
        assert pq_covariance(ds, roles, "unbiased")[0, 0] == pytest.approx(1.0 / 3.0)
        assert pq_covariance(ds, roles, "ml")[0, 0] == pytest.approx(4.0 / 27.0)

    def test_covariance_scale_relation(self, rng):
        ds, roles = make_dataset(rng, 35, 2, 2)
        n = ds.n
        np.testing.assert_allclose(
            pq_covariance(ds, roles, "unbiased"),
            pq_covariance(ds, roles, "ml") * (n / (n - 1)) ** 2,
            rtol=1e-12,
        )


class TestQuadraticFormTest:
    def test_hand_case(self):
        ds, roles = hand_dataset()
        result = ustat_mcar_test(ds, roles)
        assert result.statistic == pytest.approx(2.25, rel=1e-12)
        assert result.df == 1
        assert result.method == "an"
        assert not result.reject

    def test_three_routes_agree(self, rng):
        for _ in range(60):
            p = int(rng.integers(1, 4))
            q = int(rng.integers(1, 4))
            n = int(rng.integers(30, 81))
            ds, roles = make_dataset(rng, n, p, q)
            r = ustat_mcar_test(ds, roles)
            ml, eigen, components = reference_routes(ds, roles)
            assert ml == pytest.approx(r.statistic, rel=1e-10)
            assert eigen == pytest.approx(r.statistic, rel=1e-10)
            assert len(r.diagnostics["components"]) == p * q
            np.testing.assert_allclose(
                r.diagnostics["components"], components, rtol=1e-10, atol=1e-10
            )
            assert np.sum(np.square(r.diagnostics["components"])) == pytest.approx(
                r.statistic, rel=1e-10
            )

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.integers(1, 3),
        q=st.integers(1, 3),
        n=st.integers(10, 200),
        seed=st.integers(0, 2**32 - 1),
        scales=st.lists(st.floats(0.1, 10.0), min_size=6, max_size=6),
    )
    def test_matches_pq_route_under_column_scaling(self, p, q, n, seed, scales):
        # scales spread over two decades: the pq x pq reference itself
        # drifts ~1e-8 relative once they spread over four
        ds, roles = make_dataset(np.random.default_rng(seed), n, p, q)
        values = ds.values * np.asarray(scales[: p + q])
        scaled = Dataset(values, ds.mask, ds.column_names)
        try:
            _, eigen, _ = reference_routes(scaled, roles)
        except SingularMatrixError:
            with pytest.raises(SingularMatrixError):
                ustat_mcar_test(scaled, roles)
            return
        assert ustat_mcar_test(scaled, roles).statistic == pytest.approx(
            eigen, rel=1e-10
        )

    @pytest.mark.parametrize("p, q, n", [(1, 1, 10), (2, 2, 8)])
    def test_degenerate_exactly_when_pq_route_is(self, p, q, n):
        # small MCAR cells, where many replications have a response column
        # without variation or two identical response columns
        dist = DistributionSpec(kind="std_normal", dim=p + q)
        mech = MechanismSpec(kind="mcar", miss_prob=0.12)
        roles = ColumnRoles(tuple(range(p)), tuple(range(p, p + q)))
        degenerate = 0
        for rep in range(400):
            full = generate(dist, n, rng_stream(7, rep, 0))
            ds = apply_mechanism(full, roles, mech, rng_stream(7, rep, 1))
            try:
                spd_eigh(pq_covariance(ds, roles))
            except SingularMatrixError:
                degenerate += 1
                with pytest.raises(SingularMatrixError):
                    ustat_mcar_test(ds, roles)
            else:
                ustat_mcar_test(ds, roles)
        assert 0 < degenerate < 400

    def test_equals_squared_bivariate(self, rng):
        for _ in range(40):
            n = int(rng.integers(10, 120))
            ds, roles = make_dataset(rng, n, 1, 1)
            a = ustat_mcar_test(ds, roles)
            d = bivariate_mcar_test(ds, roles)
            assert a.statistic == pytest.approx(d.statistic**2, rel=1e-10)
            # matching p-values: two-sided normal on D equals chi2(1) on D^2
            assert a.p_value == pytest.approx(d.p_value, abs=1e-12)

    def test_equals_little_univariate(self, rng):
        for _ in range(60):
            p = int(rng.integers(1, 4))
            n = int(rng.integers(20, 201))
            clayton = bool(rng.integers(2))
            ds, roles = make_dataset(rng, n, p, 1, clayton=clayton)
            a = ustat_mcar_test(ds, roles)
            d2 = little_mcar_univariate(ds, roles)
            denom = max(d2.statistic, 1e-12)
            assert abs(a.statistic - d2.statistic) / denom <= 1e-8
            assert a.df == d2.df == p

    def test_affine_invariance_complete_block(self, rng):
        ds, roles = make_dataset(rng, 80, 3, 2)
        base = ustat_mcar_test(ds, roles).statistic
        a = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        b = rng.standard_normal(3)
        values = np.array(ds.values)
        values[:, :3] = values[:, :3] @ a + b
        moved = Dataset(values, ds.mask, ds.column_names)
        assert ustat_mcar_test(moved, roles).statistic == pytest.approx(
            base, rel=1e-8
        )

    def test_incomplete_values_are_ignored(self, rng):
        # only the mask of incomplete columns matters, not their numbers
        ds, roles = make_dataset(rng, 50, 2, 2)
        values = np.array(ds.values)
        values[:, 2:] = rng.standard_normal((50, 2)) * 100
        other = Dataset(values, ds.mask, ds.column_names)
        assert ustat_mcar_test(other, roles).statistic == ustat_mcar_test(
            ds, roles
        ).statistic

    def test_row_permutation_invariance(self, rng):
        ds, roles = make_dataset(rng, 60, 2, 2)
        perm = rng.permutation(60)
        shuffled = Dataset(
            ds.values[perm], ds.mask[perm], ds.column_names
        )
        assert ustat_mcar_test(shuffled, roles).statistic == pytest.approx(
            ustat_mcar_test(ds, roles).statistic, rel=1e-12
        )

    def test_exact_zero_statistic(self):
        # gap vanishes: mean(x)*mean(r) = 0.75 = mean(x*r)
        vals = np.array([[1.0, 0], [2.0, 0], [1.0, 0], [2.0, 0]])
        mask = np.array(
            [[True, True], [True, False], [True, False], [True, True]]
        )
        ds = Dataset(vals, mask, ("x", "y"))
        result = ustat_mcar_test(ds, ColumnRoles((0,), (1,)))
        assert abs(result.statistic) < 1e-14
        assert result.p_value == pytest.approx(1.0)
        assert not result.reject

    def test_rejection_boundary(self, rng):
        ds, roles = make_dataset(rng, 40, 1, 1)
        base = ustat_mcar_test(ds, roles)
        at = ustat_mcar_test(ds, roles, alpha=base.p_value)
        assert at.reject  # p_value <= alpha holds with equality
        below = ustat_mcar_test(ds, roles, alpha=base.p_value * 0.999)
        assert not below.reject

    def test_singular_cases(self, rng):
        # constant complete column
        vals = np.column_stack([np.full(20, 7.0), rng.standard_normal(20)])
        mask = np.ones((20, 2), dtype=bool)
        mask[:5, 1] = False
        ds = Dataset(vals, mask, ("x", "y"))
        with pytest.raises(SingularMatrixError):
            ustat_mcar_test(ds, ColumnRoles((0,), (1,)))

        # response without variation (all observed)
        ds2, roles2 = make_dataset(rng, 20, 1, 1)
        full = ds2.with_mask(np.ones((20, 2), dtype=bool))
        with pytest.raises(SingularMatrixError):
            ustat_mcar_test(full, roles2)

    def test_needs_three_rows(self):
        ds = Dataset(
            [[1.0, 1.0], [2.0, 2.0]],
            [[True, True], [True, False]],
            ("x", "y"),
        )
        with pytest.raises(DegenerateDataError):
            ustat_mcar_test(ds, ColumnRoles((0,), (1,)))

    def test_alpha_validation(self, rng):
        ds, roles = make_dataset(rng, 30, 1, 1)
        with pytest.raises(ValueError):
            ustat_mcar_test(ds, roles, alpha=0.0)
        with pytest.raises(ValueError):
            ustat_mcar_test(ds, roles, alpha=1.5)
        # alpha = 1 is legal and always rejects
        assert ustat_mcar_test(ds, roles, alpha=1.0).reject


class TestBivariate:
    def test_hand_case(self):
        ds, roles = hand_dataset()
        result = bivariate_mcar_test(ds, roles)
        assert result.statistic == pytest.approx(1.5, rel=1e-12)
        assert result.df == 1

    def test_requires_single_pair(self, rng):
        ds, roles = make_dataset(rng, 30, 2, 1)
        with pytest.raises(DegenerateDataError):
            bivariate_mcar_test(ds, roles)

    def test_zero_variance(self, rng):
        vals = np.column_stack([np.full(10, 1.0), np.zeros(10)])
        mask = np.ones((10, 2), dtype=bool)
        mask[3, 1] = False
        ds = Dataset(vals, mask, ("x", "y"))
        with pytest.raises(DegenerateDataError):
            bivariate_mcar_test(ds, ColumnRoles((0,), (1,)))


class TestLittleUnivariate:
    def test_hand_case(self):
        ds, roles = hand_dataset()
        result = little_mcar_univariate(ds, roles)
        assert result.statistic == pytest.approx(2.25, rel=1e-12)
        assert result.df == 1
        assert result.method == "d2_univariate"

    def test_requires_single_incomplete(self, rng):
        ds, roles = make_dataset(rng, 30, 1, 2)
        with pytest.raises(DegenerateDataError):
            little_mcar_univariate(ds, roles)

    def test_requires_both_groups(self, rng):
        ds, roles = make_dataset(rng, 20, 1, 1)
        full = ds.with_mask(np.ones((20, 2), dtype=bool))
        with pytest.raises(DegenerateDataError):
            little_mcar_univariate(full, roles)


class TestLittleGeneral:
    def test_close_to_univariate_at_large_n(self):
        rng = np.random.default_rng(99)
        ds, roles = make_dataset(rng, 2000, 2, 1, miss_prob=0.2)
        general = little_mcar_general(ds)
        uni = little_mcar_univariate(ds, roles)
        assert general.df == uni.df == 2
        rel = abs(general.statistic - uni.statistic) / max(uni.statistic, 1e-12)
        assert rel < 0.05  # asymptotically identical, not finite-sample equal

    def test_df_counting(self, rng):
        ds, roles = make_dataset(rng, 300, 2, 1, miss_prob=0.3)
        result = little_mcar_general(ds)
        # patterns: fully observed (3 columns) and y-missing (2 columns)
        assert result.diagnostics["n_patterns"] == 2
        assert result.df == 3 + 2 - 3

    def test_single_pattern_rejected(self, rng):
        ds, _ = make_dataset(rng, 30, 2, 1)
        full = ds.with_mask(np.ones((30, 3), dtype=bool))
        with pytest.raises(DegenerateDataError):
            little_mcar_general(full)

    def test_no_observed_cell_rejected(self, rng):
        # every row is dropped, which leaves no pattern at all
        ds, _ = make_dataset(rng, 30, 2, 1)
        empty = ds.with_mask(np.zeros((30, 3), dtype=bool))
        with pytest.raises(DegenerateDataError, match="single missingness pattern"):
            little_mcar_general(empty)

    def test_groups_patterns_once(self, rng, monkeypatch):
        calls = []
        for module in (mcartest.em, mcartest.stats):
            original = getattr(module, "group_patterns", None)
            if original is None:
                continue

            def counted(mask, original=original):
                calls.append(mask.shape)
                return original(mask)

            monkeypatch.setattr(module, "group_patterns", counted)
        ds, _ = make_dataset(rng, 200, 2, 3, miss_prob=0.2)
        little_mcar_general(ds)
        assert len(calls) == 1

    # (seed, mechanism, n) -> (repr(statistic), df, em_iterations,
    # em_converged, em_ridged, n_patterns), pinned exactly: a change in the
    # order of floating-point operations in EM or the d2 sum shows up here
    GOLDEN = [
        (1, "mcar", 100, ("31.34658707026996", 18, 16, True, False, 6)),
        (2, "mcar", 100, ("11.43609662248193", 15, 16, True, False, 5)),
        (3, "mcar", 100, ("12.924384485129972", 18, 11, True, False, 6)),
        (4, "mcar", 100, ("12.143057707456038", 15, 9, True, False, 5)),
        (5, "mar_1_to_x", 20000, ("2466.0125179053593", 23, 11, True, False, 8)),
    ]

    @pytest.mark.parametrize("seed, kind, n, expected", GOLDEN)
    def test_golden_outputs(self, seed, kind, n, expected):
        dist = DistributionSpec(kind="clayton", dim=5, theta=1.0, margins=("exp1",) * 5)
        odds = 9.0 if kind == "mar_1_to_x" else None
        mech = MechanismSpec(kind=kind, miss_prob=0.12, odds=odds)
        roles = ColumnRoles((0, 1), (2, 3, 4))
        full = generate(dist, n, rng_stream(seed, 0))
        ds = apply_mechanism(full, roles, mech, rng_stream(seed, 1))
        result = little_mcar_general(ds)
        diag = result.diagnostics
        got = (
            repr(result.statistic),
            result.df,
            diag["em_iterations"],
            diag["em_converged"],
            diag["em_ridged"],
            diag["n_patterns"],
        )
        assert got == expected

    @pytest.mark.parametrize("offset, rel", [(1e6, 1e-7), (1e8, 1e-5)])
    def test_column_offset(self, offset, rel):
        # the statistic is invariant to a shift of every column; EM and the
        # d2 sum take every second moment about a mean, so only the rounding
        # of the shifted inputs is left
        dist = DistributionSpec(kind="clayton", dim=5, theta=1.0, margins=("exp1",) * 5)
        mech = MechanismSpec(kind="mcar", miss_prob=0.12)
        roles = ColumnRoles((0, 1), (2, 3, 4))
        for seed in range(40):
            full = generate(dist, 100, rng_stream(seed, 0))
            ds = apply_mechanism(full, roles, mech, rng_stream(seed, 1))
            base = little_mcar_general(ds).statistic
            shifted = Dataset(ds.values + offset, ds.mask, ds.column_names)
            assert little_mcar_general(shifted).statistic == pytest.approx(base, rel=rel)

    def test_all_missing_rows_dropped(self, rng):
        ds, roles = make_dataset(rng, 120, 2, 2, miss_prob=0.3)
        base = little_mcar_general(ds)
        # a row with every cell missing cannot occur here (complete columns),
        # so fabricate one dataset wide: only incomplete columns
        vals = ds.values[:, 2:]
        mask = np.array(ds.mask[:, 2:])
        mask[0] = False
        sub = Dataset(vals, mask, ("y1", "y2"))
        kept = Dataset(vals[1:], mask[1:], ("y1", "y2"))
        with_row = little_mcar_general(sub)
        without_row = little_mcar_general(kept)
        assert with_row.statistic == pytest.approx(without_row.statistic, rel=1e-10)
        assert base.method == "d2_general"


class TestResultRecord:
    def test_record_round_trip(self, rng):
        ds, roles = make_dataset(rng, 30, 1, 1)
        result = ustat_mcar_test(ds, roles)
        rec = result.to_record()
        assert rec["method"] == "an"
        assert rec["statistic"] == result.statistic
        assert rec["reject"] == result.reject
        assert isinstance(rec["diagnostics"], dict)


def kernel_datasets(rng, n, p, q):
    """Datasets of one shape for the batch kernels, some of them degenerate:
    an all-observed response, a constant complete column, an all-missing
    response column."""
    out = [make_dataset(rng, n, p, q, clayton=bool(i % 2))[0] for i in range(30)]
    out[3] = out[3].with_mask(np.ones((n, p + q), dtype=bool))
    vals = np.array(out[8].values)
    vals[:, 0] = 2.5
    out[8] = Dataset(vals, out[8].mask, out[8].column_names)
    mask = np.ones((n, p + q), dtype=bool)
    mask[:, p:] = False
    out[17] = out[17].with_mask(mask)
    return out, ColumnRoles(tuple(range(p)), tuple(range(p, p + q)))


KERNELS = [
    pytest.param(ustat_batch, ustat_mcar_test, 2, 3, id="an-2X3Y"),
    pytest.param(ustat_batch, ustat_mcar_test, 1, 1, id="an-1X1Y"),
    pytest.param(bivariate_batch, bivariate_mcar_test, 1, 1, id="dn"),
    pytest.param(little_univariate_batch, little_mcar_univariate, 3, 1, id="d2_univariate-3X1Y"),
    pytest.param(little_univariate_batch, little_mcar_univariate, 1, 1, id="d2_univariate-1X1Y"),
]


class TestBatchKernels:
    @pytest.mark.parametrize("kernel, test, p, q", KERNELS)
    def test_block_size_independence(self, rng, kernel, test, p, q):
        # a dataset's statistic is bitwise the same in a block of 1, of 7 and
        # of the whole stack
        datasets, roles = kernel_datasets(rng, 37, p, q)
        whole = kernel(*stack_columns(datasets, roles))
        for size in (1, 7):
            parts = [
                kernel(*stack_columns(datasets[lo:lo + size], roles))
                for lo in range(0, len(datasets), size)
            ]
            for field in ("statistic", "p_value"):
                got = np.concatenate([getattr(b, field) for b in parts])
                assert np.array_equal(got, getattr(whole, field))
            errors = [e for b in parts for e in b.errors]
            assert [repr(e) for e in errors] == [repr(e) for e in whole.errors]

    @pytest.mark.parametrize("kernel, test, p, q", KERNELS)
    def test_matches_per_dataset_function(self, rng, kernel, test, p, q):
        # per dataset: the same exception, or the same TestResult
        datasets, roles = kernel_datasets(rng, 23, p, q)
        batch = kernel(*stack_columns(datasets, roles))
        assert sum(e is not None for e in batch.errors) >= 2
        for i, ds in enumerate(datasets):
            try:
                want = test(ds, roles, 0.05)
            except (SingularMatrixError, DegenerateDataError) as exc:
                assert repr(batch.errors[i]) == repr(exc)
                assert batch.statistic[i] == 0.0 and batch.p_value[i] == 1.0
                continue
            assert batch.errors[i] is None
            assert batch.result(i, 0.05) == want

    def test_degenerate_classes(self, rng):
        datasets, roles = kernel_datasets(rng, 23, 1, 1)
        x, r = stack_columns(datasets, roles)
        an, dn, d2 = ustat_batch(x, r), bivariate_batch(x, r), little_univariate_batch(x, r)
        assert isinstance(an.errors[3], SingularMatrixError)
        assert isinstance(an.errors[8], SingularMatrixError)
        assert "zero variance" in str(dn.errors[3]) and "zero variance" in str(dn.errors[8])
        assert "observed 23 of 23" in str(d2.errors[3])
        assert "observed 0 of 23" in str(d2.errors[17])
        assert isinstance(d2.errors[8], SingularMatrixError)

    def test_shape_errors_are_raised_for_the_block(self, rng):
        datasets, roles = kernel_datasets(rng, 12, 2, 2)
        x, r = stack_columns(datasets, roles)
        with pytest.raises(DegenerateDataError, match="exactly one complete"):
            bivariate_batch(x, r)
        with pytest.raises(DegenerateDataError, match="exactly one incomplete"):
            little_univariate_batch(x, r)
        with pytest.raises(DegenerateDataError, match="n >= 3"):
            ustat_batch(x[:, :2], r[:, :2])
