import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    generate,
    little_mcar_general,
    little_mcar_univariate,
    mean_product_gap,
    rng_stream,
    ustat_mcar_test,
)
from mcartest.stats import (
    KNOWN_TESTS,
    TESTS,
    closed_form_batch,
    little_general_batch,
    resolve_tests,
    run_tests,
)

from conftest import (
    bivariate_reference,
    fit_one,
    gap_matrix,
    little_univariate_reference,
    make_dataset,
    pq_covariance,
    reference_routes,
    response_matrix,
    spd_eigh,
    traced_peak,
)


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
            ml, eigen = reference_routes(ds, roles)
            assert ml == pytest.approx(r.statistic, rel=1e-10)
            assert eigen == pytest.approx(r.statistic, rel=1e-10)

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
            _, eigen = reference_routes(scaled, roles)
        except SingularMatrixError:
            with pytest.raises(SingularMatrixError):
                ustat_mcar_test(scaled, roles)
            return
        assert ustat_mcar_test(scaled, roles).statistic == pytest.approx(
            eigen, rel=1e-10
        )

    @settings(max_examples=100, deadline=None)
    @given(
        p=st.integers(1, 3),
        q=st.integers(1, 3),
        n=st.integers(4, 60),
        seed=st.integers(0, 2**32 - 1),
        miss_prob=st.floats(0.02, 0.5),
        spread=st.integers(0, 9),
    )
    def test_corr_condition(self, p, q, n, seed, miss_prob, spread):
        # the last complete column is the first plus 10**-spread of itself,
        # so Corr(X) runs from well conditioned to singular; both routes
        # round cond(Corr(X) (x) Corr(R)) by about cond * eps, so the two
        # agree to 1e-10 where cond <= 1e4
        rng = np.random.default_rng(seed)
        datasets = []
        for _ in range(8):
            ds, roles = make_dataset(rng, n, p, q, miss_prob)
            values = np.array(ds.values)
            if p > 1:
                values[:, p - 1] = values[:, 0] + 10.0**-spread * values[:, p - 1]
            datasets.append(Dataset(values, ds.mask, ds.column_names))
        an = closed_form_batch(*stacked(datasets), roles)["an"]
        for ds, error, got in zip(datasets, an.errors, an.diagnostics["corr_condition"]):
            if error is not None:
                continue
            corr_x = np.corrcoef(ds.values[:, :p], rowvar=False)
            corr_r = np.corrcoef(ds.mask[:, p:], rowvar=False)
            want = np.linalg.cond(np.kron(np.atleast_2d(corr_x), np.atleast_2d(corr_r)))
            assert got < 1e10
            if want <= 1e4:
                assert got == pytest.approx(want, rel=1e-10)

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
            d, p_value = bivariate_reference(ds, roles)
            assert a.statistic == pytest.approx(d**2, rel=1e-10)
            # matching p-values: two-sided normal on D equals chi2(1) on D^2
            assert a.p_value == pytest.approx(p_value, abs=1e-12)

    def test_equals_little_univariate(self, rng):
        for _ in range(60):
            p = int(rng.integers(1, 4))
            n = int(rng.integers(20, 201))
            clayton = bool(rng.integers(2))
            ds, roles = make_dataset(rng, n, p, 1, clayton=clayton)
            a = ustat_mcar_test(ds, roles)
            d2 = little_univariate_reference(ds, roles)
            denom = max(d2, 1e-12)
            assert abs(a.statistic - d2) / denom <= 1e-8
            assert a.df == p

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

    @pytest.mark.parametrize("scale", [1e-5, 1e-6])
    def test_small_column_scale_is_not_singular(self, rng, scale):
        # a covariance threshold floored in absolute units flagged each of
        # these well-conditioned datasets as singular
        for _ in range(20):
            ds, roles = make_dataset(rng, 100, 2, 3)
            values = np.array(ds.values)
            values[:, 0] *= scale
            scaled = Dataset(values, ds.mask, ds.column_names)
            assert ustat_mcar_test(scaled, roles).statistic == pytest.approx(
                ustat_mcar_test(ds, roles).statistic, rel=1e-12
            )

    def test_saturated_complete_block(self):
        # at n = p + 1 the complete columns span every centred direction, so
        # each response indicator lies in their span and the statistic is n q
        saturated = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            q = 1 + seed % 2
            ds, roles = make_dataset(rng, 4, 3, q, clayton=seed % 4 > 1)
            try:
                result = ustat_mcar_test(ds, roles)
            except SingularMatrixError:
                continue  # two response columns equal or complementary
            saturated += 1
            assert result.statistic == pytest.approx(4 * q, rel=1e-13)
        assert saturated > 150

    def test_column_offset(self):
        # a shift of every column leaves only the rounding of the shifted
        # inputs, ~1e-8 relative at 1e8
        dist = DistributionSpec(kind="clayton", dim=5, theta=1.0, margins=("exp1",) * 5)
        mech = MechanismSpec(kind="mcar", miss_prob=0.12)
        roles = ColumnRoles((0, 1), (2, 3, 4))
        for seed in range(40):
            full = generate(dist, 100, rng_stream(seed, 0))
            ds = apply_mechanism(full, roles, mech, rng_stream(seed, 1))
            shifted = Dataset(ds.values + 1e8, ds.mask, ds.column_names)
            assert ustat_mcar_test(shifted, roles).statistic == pytest.approx(
                ustat_mcar_test(ds, roles).statistic, rel=1e-7
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
        # the one-dataset runner checks alpha before it tests, for every test
        for tag in TESTS:
            with pytest.raises(ValueError, match="alpha"):
                run_tests((tag,), ds, roles, 0.0)


class TestBivariate:
    def test_hand_case(self):
        ds, roles = hand_dataset()
        assert bivariate_reference(ds, roles)[0] == pytest.approx(1.5, rel=1e-12)
        result = bivariate_mcar_test(ds, roles)
        assert result.statistic == pytest.approx(1.5, rel=1e-12)
        assert result.df == 1

    def test_requires_single_pair(self, rng):
        ds, roles = make_dataset(rng, 30, 2, 1)
        with pytest.raises(ValueError, match="the dn test requires p = 1 and q = 1"):
            bivariate_mcar_test(ds, roles)

    def test_zero_variance(self, rng):
        vals = np.column_stack([np.full(10, 1.0), np.zeros(10)])
        mask = np.ones((10, 2), dtype=bool)
        mask[3, 1] = False
        ds = Dataset(vals, mask, ("x", "y"))
        with pytest.raises(DegenerateDataError):
            bivariate_mcar_test(ds, ColumnRoles((0,), (1,)))

    def test_constant_column_that_does_not_center_exactly(self):
        # the mean of ten 0.3s is not 0.3, so the sample standard deviation
        # of the constant column is 5.9e-17, not 0; the statistic is 0/0
        # noise, and must be degenerate, as it is for an and d2_univariate
        vals = np.column_stack([np.full(10, 0.3), np.zeros(10)])
        mask = np.ones((10, 2), dtype=bool)
        mask[7:, 1] = False
        ds = Dataset(vals, mask, ("x", "y"))
        roles = ColumnRoles((0,), (1,))
        assert 0.0 < vals[:, 0].std(ddof=1) < 1e-15
        with pytest.raises(DegenerateDataError, match="zero variance"):
            bivariate_mcar_test(ds, roles)
        with pytest.raises(SingularMatrixError):
            ustat_mcar_test(ds, roles)
        with pytest.raises(SingularMatrixError):
            little_mcar_univariate(ds, roles)


class TestLittleUnivariate:
    def test_hand_case(self):
        ds, roles = hand_dataset()
        assert little_univariate_reference(ds, roles) == pytest.approx(2.25, rel=1e-12)
        result = little_mcar_univariate(ds, roles)
        assert result.statistic == pytest.approx(2.25, rel=1e-12)
        assert result.df == 1
        assert result.method == "d2_univariate"

    def test_requires_single_incomplete(self, rng):
        ds, roles = make_dataset(rng, 30, 1, 2)
        with pytest.raises(ValueError, match="the d2_univariate test requires q = 1"):
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

    @pytest.mark.parametrize("d", [2, 3])
    def test_no_degrees_of_freedom_rejected(self, rng, d):
        # each row observes one column: d patterns of one column each, so
        # df = d - d = 0
        mask = np.arange(d) == np.arange(30)[:, None] % d
        ds = Dataset(rng.standard_normal((30, d)), mask, tuple(f"c{j}" for j in range(d)))
        with pytest.raises(DegenerateDataError, match="no degrees of freedom"):
            little_mcar_general(ds)

    def test_groups_patterns_once(self, rng, monkeypatch):
        # one pattern_stats call for the whole stack, and EM reads its records
        calls = []
        original = mcartest.stats.pattern_stats

        def counted(values, mask):
            calls.append(mask.shape)
            return original(values, mask)

        monkeypatch.setattr(mcartest.stats, "pattern_stats", counted)
        values, mask = stacked([make_dataset(rng, 200, 2, 3, miss_prob=0.2)[0] for _ in range(4)])
        result = mcartest.stats.little_general_batch(values, mask)["d2_general"]
        assert calls == [(4, 200, 5)]
        assert result.errors == (None,) * 4

    def test_fit_holds_no_copy_of_the_mask(self):
        # the single-pattern check reads the pattern record, so the kernel
        # peaks where the record and its EM fit alone do
        ds, roles = make_dataset(np.random.default_rng(3), 20_000, 2, 3, clayton=True)
        em_peak = traced_peak(fit_one, ds.values, ds.mask)[0]
        peak = traced_peak(
            mcartest.stats.little_general_batch, ds.values[None], ds.mask[None], roles
        )[0]
        assert peak <= em_peak + ds.mask.nbytes // 4

    # (seed, mechanism, n) -> (repr(statistic), df, em_iterations,
    # em_converged, em_ridged, n_patterns), pinned exactly: a change in the
    # order of floating-point operations in EM or the d2 sum shows up here
    GOLDEN = [
        (1, "mcar", 100, ("31.34658707026996", 18, 16, True, False, 6)),
        (2, "mcar", 100, ("11.43609662248193", 15, 16, True, False, 5)),
        (3, "mcar", 100, ("12.924384485129972", 18, 11, True, False, 6)),
        (4, "mcar", 100, ("12.143057707456038", 15, 9, True, False, 5)),
        (5, "mar_1_to_x", 20000, ("2466.012517905376", 23, 11, True, False, 8)),
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

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(20, 199),
        seed=st.integers(0, 2**32 - 1),
        clayton=st.booleans(),
        order_seed=st.integers(0, 2**32 - 1),
        power=st.integers(-6, 6),
        shifts=st.lists(st.integers(-1000, 1000), min_size=5, max_size=5),
    )
    def test_invariance(self, n, seed, clayton, order_seed, power, shifts):
        # d2 does not depend on row order, column order, scale or location.
        # The kernel is bound to that up to rounding only within limits:
        # EM's starting variance floor (_VAR_FLOOR * max(var.max(), 1)),
        # its ridge (max(trace / d, 1)) and the singularity threshold
        # (1e-10 * max(largest, 1)) are absolute where the data's variances
        # are below 1, and a large offset cancels the data's digits, so a
        # scale of 1e-5 or an offset of 1e10 makes d2 singular.  Hence
        # powers of two up to 2**6 either way, exact in floating point, and
        # integer shifts up to 1000.
        ds, _ = make_dataset(
            np.random.default_rng(seed), n, 2, 3, miss_prob=0.15, clayton=clayton
        )
        order = np.random.default_rng(order_seed)
        rows, cols = order.permutation(n), order.permutation(5)

        def outcome(values, mask):
            # the result, or the class of the exception raised
            try:
                return little_mcar_general(Dataset(values, mask, ds.column_names))
            except (DegenerateDataError, SingularMatrixError) as exc:
                return type(exc)

        def assert_matches(got, want, rel=None):
            # the same exception class, or the statistic within rel; with
            # no rel, the same bits and EM diagnostics
            if isinstance(want, type):
                assert got is want
                return
            assert not isinstance(got, type), got
            assert got.df == want.df
            if rel is None:
                assert (got.statistic, got.p_value) == (want.statistic, want.p_value)
                assert got.diagnostics == want.diagnostics
            else:
                assert got.statistic == pytest.approx(want.statistic, rel=rel, abs=0)

        base = outcome(ds.values, ds.mask)
        assert_matches(outcome(ds.values[rows], ds.mask[rows]), base, 1e-9)
        assert_matches(outcome(ds.values[:, cols], ds.mask[:, cols]), base, 1e-9)
        assert_matches(outcome(ds.values * 2.0**power, ds.mask), base)
        assert_matches(outcome(ds.values + np.array(shifts, dtype=float), ds.mask), base, 1e-9)

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
        # n counts the kept rows, not the dataset's
        n_kept = int(mask.any(axis=1).sum())
        assert with_row.diagnostics["n"] == without_row.diagnostics["n"] == n_kept < sub.n
        assert base.method == "d2_general"

    @pytest.mark.parametrize("placeholder", [np.nan, np.inf, -np.inf])
    def test_placeholders_are_never_read(self, placeholder):
        # the value under a masked cell is a placeholder: a NaN or an
        # infinity there gives the bits a 0 gives
        dist = DistributionSpec(kind="clayton", dim=5, theta=1.0, margins=("exp1",) * 5)
        mech = MechanismSpec(kind="mcar", miss_prob=0.12)
        roles = ColumnRoles((0, 1), (2, 3, 4))
        names = ("x1", "x2", "y1", "y2", "y3")
        for seed in range(5):
            ds = apply_mechanism(
                generate(dist, 100, rng_stream(seed, 0)), roles, mech, rng_stream(seed, 1)
            )
            zero, other = (
                little_mcar_general(Dataset(np.where(ds.mask, ds.values, fill), ds.mask, names))
                for fill in (0.0, placeholder)
            )
            assert repr(other.statistic) == repr(zero.statistic)
            assert other == zero


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


def stacked(datasets):
    """The (R, n, d) value and mask stacks of a list of datasets."""
    return np.stack([ds.values for ds in datasets]), np.stack([ds.mask for ds in datasets])


def view(tag):
    """One test's BatchResult from its registry kernel, as a function of the
    stack: for ``an``, ``dn`` and ``d2_univariate``, a view of
    ``closed_form_batch``."""
    return lambda values, mask, roles: TESTS[tag].batch(values, mask, roles)[tag]


KERNELS = [
    pytest.param(view("an"), ustat_mcar_test, 2, 3, id="an-2X3Y"),
    pytest.param(view("an"), ustat_mcar_test, 1, 1, id="an-1X1Y"),
    pytest.param(view("dn"), bivariate_mcar_test, 1, 1, id="dn"),
    pytest.param(view("d2_univariate"), little_mcar_univariate, 3, 1, id="d2_univariate-3X1Y"),
    pytest.param(view("d2_univariate"), little_mcar_univariate, 1, 1, id="d2_univariate-1X1Y"),
    pytest.param(
        view("d2_general"),
        lambda ds, roles, alpha: little_mcar_general(ds, alpha),
        2,
        3,
        id="d2_general-2X3Y",
    ),
]


class TestBatchKernels:
    @pytest.mark.parametrize("kernel, test, p, q", KERNELS)
    def test_block_size_independence(self, rng, kernel, test, p, q):
        # a dataset's statistic is bitwise the same in a block of 1, of 7 and
        # of the whole stack
        datasets, roles = kernel_datasets(rng, 37, p, q)
        values, mask = stacked(datasets)
        whole = kernel(values, mask, roles)
        for size in (1, 7):
            parts = [
                kernel(values[lo:lo + size], mask[lo:lo + size], roles)
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
        batch = kernel(*stacked(datasets), roles)
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
        batches = closed_form_batch(*stacked(datasets), roles)
        an, dn, d2 = (batches[tag] for tag in ("an", "dn", "d2_univariate"))
        assert isinstance(an.errors[3], SingularMatrixError)
        assert isinstance(an.errors[8], SingularMatrixError)
        assert "zero variance" in str(dn.errors[3]) and "zero variance" in str(dn.errors[8])
        assert "observed 23 of 23" in str(d2.errors[3])
        assert "observed 0 of 23" in str(d2.errors[17])
        assert isinstance(d2.errors[8], SingularMatrixError)

    def test_registry_runners_check_roles(self, rng):
        # roles that leave a column out are an error for every test, d2_general
        # too, although its kernel reads no roles
        ds, _ = make_dataset(rng, 30, 2, 1)
        for tag in TESTS:
            with pytest.raises(ValueError, match="cover every column"):
                run_tests((tag,), ds, ColumnRoles((0,), (2,)), 0.05)

    def test_shape_errors_are_raised_for_the_block(self, rng):
        # the closed-form kernel returns the views a shape has; the
        # per-dataset tests raise resolve_tests's ValueError for a shape they
        # do not apply to
        datasets, roles = kernel_datasets(rng, 12, 2, 2)
        values, mask = stacked(datasets)
        assert list(closed_form_batch(values, mask, roles)) == ["an"]
        assert list(closed_form_batch(values, mask, ColumnRoles((0, 1, 2), (3,)))) == [
            "an", "d2_univariate"
        ]
        with pytest.raises(ValueError, match="the dn test requires p = 1 and q = 1"):
            bivariate_mcar_test(datasets[0], roles)
        with pytest.raises(ValueError, match="the d2_univariate test requires q = 1"):
            little_mcar_univariate(datasets[0], roles)
        with pytest.raises(DegenerateDataError, match="n >= 3"):
            closed_form_batch(values[:, :2], mask[:, :2], roles)
        # the one-dataset runner reports the shape rule the CLI reports
        with pytest.raises(ValueError, match="the dn test requires p = 1 and q = 1"):
            run_tests(("dn",), datasets[0], roles, 0.05)

    @pytest.mark.parametrize("tag", KNOWN_TESTS)
    @pytest.mark.parametrize("p, q", [(p, q) for p in range(3) for q in range(3) if p + q])
    def test_run_tests_applies_the_one_shape_rule(self, rng, tag, p, q):
        # a test fails on a layout exactly when resolve_tests rejects it, with
        # its error; on every other it runs, d2_general with no complete column too
        ds, roles = make_dataset(rng, 40, p, q)
        try:
            resolve_tests([tag], p, q)
        except (ValueError, DegenerateDataError) as exc:
            with pytest.raises(type(exc)) as raised:
                run_tests([tag], ds, roles, 0.05)
            assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
        else:
            if (p, q) == (0, 1):
                # the one column's kept rows, those observed, are one pattern
                with pytest.raises(DegenerateDataError, match="single missingness pattern"):
                    run_tests([tag], ds, roles, 0.05)
                return
            (result,) = run_tests([tag], ds, roles, 0.05)
            assert result.method == resolve_tests([tag], p, q)[0]


@settings(max_examples=300, deadline=None)
@given(
    p=st.integers(1, 3),
    n=st.integers(3, 200),
    seed=st.integers(0, 2**32 - 1),
    clayton=st.booleans(),
    observed=st.sampled_from(["some", "all", "none"]),
)
def test_views_match_closed_forms(p, n, seed, clayton, observed):
    # per dataset, dn and d2_univariate as views of the quadratic form give
    # the closed forms' exception class, or their statistic to 1e-8
    rng = np.random.default_rng(seed)
    ds, roles = make_dataset(rng, n, p, 1, miss_prob=rng.uniform(0.05, 0.5), clayton=clayton)
    if observed != "some":
        mask = np.array(ds.mask)
        mask[:, p] = observed == "all"
        ds = ds.with_mask(mask)
    cases = [("d2_univariate", little_univariate_reference)]
    if p == 1:
        cases.append(("dn", lambda ds, roles: bivariate_reference(ds, roles)[0]))
    batches = closed_form_batch(ds.values[None], ds.mask[None], roles)
    for tag, reference in cases:
        batch = batches[tag]
        try:
            want = reference(ds, roles)
        except (DegenerateDataError, SingularMatrixError) as exc:
            assert type(batch.errors[0]) is type(exc)
            continue
        assert batch.errors[0] is None
        assert abs(batch.statistic[0] - want) <= 1e-8 * max(abs(want), 1e-12)


def invariance_case(p, q, n, seed, clayton, kind):
    """A dataset for the invariance properties; ``kind`` makes some singular:
    a constant complete column (0.3 does not centre exactly), a response
    column with every row observed, or two equal complete columns."""
    ds, roles = make_dataset(np.random.default_rng(seed), n, p, q, clayton=clayton)
    values, mask = np.array(ds.values), np.array(ds.mask)
    if kind == "constant":
        values[:, 0] = 0.3
    elif kind == "all observed":
        mask[:, p] = True
    elif kind == "equal columns" and p > 1:
        values[:, 1] = values[:, 0]
    return Dataset(values, mask, ds.column_names), roles


def an_statistic(ds, roles):
    """``an``'s statistic, or None where it raises SingularMatrixError."""
    try:
        return ustat_mcar_test(ds, roles).statistic
    except SingularMatrixError:
        return None


def dn_statistic(ds, roles):
    """``dn``'s signed statistic, or None where it raises DegenerateDataError."""
    try:
        return bivariate_mcar_test(ds, roles).statistic
    except DegenerateDataError:
        return None


def assert_close(got, want, rel):
    """Both failed, or both statistics within rel of max(|want|, 1)."""
    assert (got is None) == (want is None)
    if want is not None:
        assert abs(got - want) <= rel * max(abs(want), 1.0)


CASES = dict(
    p=st.integers(1, 3),
    q=st.integers(1, 3),
    n=st.integers(3, 80),
    seed=st.integers(0, 2**32 - 1),
    clayton=st.booleans(),
    kind=st.sampled_from(["regular", "constant", "all observed", "equal columns"]),
)


@settings(max_examples=200, deadline=None)
@given(**CASES, powers=st.lists(st.integers(-30, 30), min_size=6, max_size=6))
def test_power_of_two_column_scale_is_exact(p, q, n, seed, clayton, kind, powers):
    # a power-of-two scale is exact in floating point, and so is every
    # step of the kernel on the scaled columns, up to their normalisation
    ds, roles = invariance_case(p, q, n, seed, clayton, kind)
    scaled = Dataset(ds.values * np.exp2(powers[: p + q]), ds.mask, ds.column_names)
    assert an_statistic(scaled, roles) == an_statistic(ds, roles)


@settings(max_examples=200, deadline=None)
@given(
    **{**CASES, "kind": st.sampled_from(["regular", "constant", "all observed"])},
    exponents=st.lists(st.floats(0.0, 12.0), min_size=6, max_size=6),
    signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=6, max_size=6),
)
@example(
    p=2, q=2, n=3, seed=31225891, clayton=True, kind="regular",
    exponents=[0.0, 9.5, 0, 0, 0, 0], signs=[-1.0] * 6,
)
def test_column_shift_moves_only_the_rounding(p, q, n, seed, clayton, kind, exponents, signs):
    # the shifted values moved back are the numbers the shifted data hold
    # (exactly, once the shift dominates them); the statistic of the shifted
    # data is theirs up to the kernel's own rounding, and so at p = q = 1 is
    # dn's signed root of it
    ds, roles = invariance_case(p, q, n, seed, clayton, kind)
    shift = np.multiply(signs, np.power(10.0, exponents))[: p + q]
    shifted = Dataset(ds.values + shift, ds.mask, ds.column_names)
    rounded = Dataset(shifted.values - shift, ds.mask, ds.column_names)
    statistics = [an_statistic] + [dn_statistic] * (p == q == 1)
    for statistic in statistics:
        assert_close(statistic(shifted, roles), statistic(rounded, roles), rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(**CASES, order_seed=st.integers(0, 2**32 - 1))
def test_row_and_within_role_column_order(p, q, n, seed, clayton, kind, order_seed):
    ds, roles = invariance_case(p, q, n, seed, clayton, kind)
    order = np.random.default_rng(order_seed)
    rows = order.permutation(n)
    cols = [*order.permutation(p), *(p + order.permutation(q))]
    base = an_statistic(ds, roles)
    by_rows = Dataset(ds.values[rows], ds.mask[rows], ds.column_names)
    assert_close(an_statistic(by_rows, roles), base, rel=1e-10)
    by_cols = Dataset(ds.values[:, cols], ds.mask[:, cols], ds.column_names)
    assert_close(an_statistic(by_cols, roles), base, rel=1e-10)


@settings(max_examples=200, deadline=None)
@given(
    p=st.integers(1, 3),
    n=st.integers(3, 150),
    seed=st.integers(0, 2**32 - 1),
    clayton=st.booleans(),
    offset=st.floats(-1e6, 1e6),
)
def test_equals_little_univariate_under_offset(p, n, seed, clayton, offset):
    # the closed form's group means are not centred, so at an offset it
    # loses digits itself (1.3e-8 on three values 0.003 apart at 1.3e5): it
    # reads the shifted values moved back, the same numbers without it
    ds, roles = make_dataset(np.random.default_rng(seed), n, p, 1, clayton=clayton)
    shifted = ds.values + offset
    try:
        want = little_univariate_reference(
            Dataset(shifted - offset, ds.mask, ds.column_names), roles
        )
    except SingularMatrixError:
        want = None
    got = an_statistic(Dataset(shifted, ds.mask, ds.column_names), roles)
    assert_close(got, want, rel=1e-8)


B = mcartest.stats._QR_ROWS
# row counts about the kernel's block size: one block, one and a row, two and a row
TALL = [B - 1, B, B + 1, 2 * B + 1]


def tall_case(n, p, q, seed, clayton, kind):
    """A tall dataset; ``kind`` makes it singular through a constant
    complete column or an exactly collinear pair, b = 2a, over every row."""
    ds, roles = make_dataset(np.random.default_rng(seed), n, p, q, clayton=clayton)
    values = np.array(ds.values)
    if kind == "constant":
        values[:, p - 1] = 0.3
    elif kind == "collinear":
        values[:, 1] = 2.0 * values[:, 0]
    return Dataset(values, ds.mask, ds.column_names), roles


def whole_matrix(values, mask, roles):
    """``closed_form_batch`` with every row in one block: one np.linalg.qr of
    the whole shifted matrix [1 | Z - c]."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(mcartest.stats, "_QR_ROWS", values.shape[1])
        return closed_form_batch(values, mask, roles)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_sets=st.integers(2, 6),
    n=st.integers(2, 60),
    d=st.integers(2, 5),
    miss=st.sampled_from([0.0, 0.1, 0.3, 0.6]),
)
def test_d2_general_alone_equals_in_shuffled_stack(seed, n_sets, n, d, miss):
    # each dataset's entry is bitwise the same whichever stack it is in; the
    # draws include single patterns, rows and columns with no observed cell,
    # and n <= d, with NaN placeholders under the masked cells
    rng = np.random.default_rng(seed)
    mask = rng.random((n_sets, n, d)) >= miss
    values = np.where(mask, rng.standard_normal((n_sets, n, d)), np.nan)
    order = rng.permutation(n_sets)
    mixed = little_general_batch(values[order], mask[order])["d2_general"]
    for j, i in enumerate(order.tolist()):
        alone = little_general_batch(values[i : i + 1], mask[i : i + 1])["d2_general"]
        assert repr(mixed.errors[j]) == repr(alone.errors[0])
        assert repr(mixed.statistic[j]) == repr(alone.statistic[0])
        assert (mixed.df[j], mixed.p_value[j]) == (alone.df[0], alone.p_value[0])
        for key, entries in mixed.diagnostics.items():
            assert entries[j] == alone.diagnostics[key][0], key


class TestRowBlocks:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from(TALL),
        p=st.integers(1, 3),
        q=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        clayton=st.booleans(),
        kind=st.sampled_from(["regular", "regular", "constant", "collinear"]),
    )
    def test_blocks_match_the_whole_matrix_qr(self, n, p, q, seed, clayton, kind):
        if kind == "collinear" and p < 2:
            p = 2
        ds, roles = tall_case(n, p, q, seed, clayton, kind)
        got = closed_form_batch(ds.values[None], ds.mask[None], roles)
        want = whole_matrix(ds.values[None], ds.mask[None], roles)
        assert list(got) == list(want)
        for tag in want:
            assert [type(e) for e in got[tag].errors] == [type(e) for e in want[tag].errors]
            if kind != "regular":
                assert isinstance(got[tag].errors[0], (SingularMatrixError, DegenerateDataError))
            elif n <= B:
                # one block is one QR of the whole matrix
                assert got[tag].statistic.tobytes() == want[tag].statistic.tobytes()
            else:
                # relative to the statistic, or to 1 where it is smaller
                assert_close(got[tag].result(0, 0.05).statistic, want[tag].statistic[0], 1e-12)

    @pytest.mark.parametrize("n", [B + 1, 2 * B + 1])
    def test_stack_of_tall_datasets_is_bitwise_per_dataset(self, rng, n):
        datasets = [make_dataset(rng, n, 2, 3, clayton=bool(i % 2))[0] for i in range(3)]
        datasets.append(tall_case(n, 2, 3, 7, False, "collinear")[0])
        roles = ColumnRoles((0, 1), (2, 3, 4))
        whole = closed_form_batch(*stacked(datasets), roles)["an"]
        for i, ds in enumerate(datasets):
            alone = closed_form_batch(ds.values[None], ds.mask[None], roles)["an"]
            assert alone.statistic.tobytes() == whole.statistic[i : i + 1].tobytes()
            assert alone.p_value.tobytes() == whole.p_value[i : i + 1].tobytes()
            assert repr(alone.errors[0]) == repr(whole.errors[i])
        assert isinstance(whole.errors[3], SingularMatrixError)

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.sampled_from([1, 2, 7]),
        p=st.integers(1, 3),
        q=st.integers(1, 3),
        n=st.integers(3, 40),
        size=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["regular", "regular", "constant", "all observed"]),
        offset=st.sampled_from([0.0, 100.0, -100.0]),
    )
    @example(rows=2, p=3, q=3, n=4, size=3, seed=5, kind="regular", offset=100.0)
    @example(rows=1, p=2, q=2, n=3, size=2, seed=6, kind="constant", offset=-100.0)
    @example(rows=7, p=2, q=3, n=30, size=4, seed=7, kind="constant", offset=100.0)
    def test_short_spans_match_one_span(self, rows, p, q, n, size, seed, kind, offset):
        # spans of 1, 2 or 7 rows send a stack of short datasets through the
        # span loop and the QR of the stacked span factors, which otherwise
        # only datasets above _QR_ROWS rows reach; n < p + q leaves fewer
        # rows than columns in the factor, and the offset of +-100 moves
        # every column
        datasets = [
            invariance_case(p, q, n, seed + i, bool(i % 2), kind)[0] for i in range(size)
        ]
        values, mask = stacked(datasets)
        values += offset
        roles = ColumnRoles(tuple(range(p)), tuple(range(p, p + q)))
        want = whole_matrix(values, mask, roles)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(mcartest.stats, "_QR_ROWS", rows)
            got = closed_form_batch(values, mask, roles)
        assert list(got) == list(want)
        for tag, batch in want.items():
            assert [type(e) for e in got[tag].errors] == [type(e) for e in batch.errors]
            assert np.array_equal(got[tag].df, batch.df)
            # relative to the statistic, or to 1 where it is smaller
            np.testing.assert_allclose(got[tag].statistic, batch.statistic, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(got[tag].p_value, batch.p_value, rtol=1e-12, atol=0)

    def test_memory_does_not_grow_with_rows(self):
        # the kernel holds O(block) rows beside the data it reads
        ds, roles = make_dataset(np.random.default_rng(3), 200_000, 2, 3, clayton=True)
        peaks = [
            traced_peak(closed_form_batch, ds.values[None, :n], ds.mask[None, :n], roles)[0]
            for n in (50_000, 200_000)
        ]
        assert peaks[1] <= 1.2 * peaks[0]
