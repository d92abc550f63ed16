import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mcartest import ColumnRoles, Dataset, DegenerateDataError, SingularMatrixError, em_mvn
from mcartest.em import _chol, _factor, group_patterns

from conftest import loop_group_patterns, make_dataset, traced_peak


def mcar_normal(rng, n, d, miss_prob):
    values = rng.standard_normal((n, d)) @ np.diag([1.0, 2.0, 0.7][:d])
    values += np.array([0.5, -1.0, 2.0][:d])
    mask = rng.random((n, d)) >= miss_prob
    # keep every row and column usable
    mask[:, 0] = True
    return Dataset(values, mask, tuple(f"c{j}" for j in range(d)))


def row_by_row_em(x, mask, mu, sigma, iterations):
    """EM as the textbook writes it: each row's E-step alone, uncentred sums.

    The reference for em_mvn's per-pattern stacked step.  Returns the final
    mean and covariance and the log-likelihood trace.
    """
    n, d = x.shape
    trace = []
    for _ in range(iterations):
        s1 = np.zeros(d)
        s2 = np.zeros((d, d))
        ll = 0.0
        for row, o in zip(x, mask):
            m = ~o
            s_oo = sigma[np.ix_(o, o)]
            r = row[o] - mu[o]
            logdet = np.linalg.slogdet(s_oo)[1]
            ll -= 0.5 * (o.sum() * np.log(2.0 * np.pi) + logdet + r @ np.linalg.solve(s_oo, r))
            z = row.copy()
            cov = np.zeros((d, d))
            beta = np.linalg.solve(s_oo, sigma[np.ix_(o, m)])
            z[m] = mu[m] + r @ beta
            cov[np.ix_(m, m)] = sigma[np.ix_(m, m)] - sigma[np.ix_(m, o)] @ beta
            s1 += z
            s2 += np.outer(z, z) + cov
        trace.append(ll)
        mu = s1 / n
        sigma = s2 / n - np.outer(mu, mu)
    return mu, sigma, trace


def test_matches_row_by_row_em(rng):
    ds = mcar_normal(rng, 80, 3, 0.3)
    x, mask = ds.values, ds.mask
    # em_mvn's start: available-case means and variances
    mu = np.array([x[mask[:, j], j].mean() for j in range(3)])
    sigma = np.diag([x[mask[:, j], j].var() for j in range(3)])
    fit = em_mvn(ds.values, ds.mask, tol=1e-300, max_iter=6)
    ref_mu, ref_sigma, ref_trace = row_by_row_em(x, mask, mu, sigma, 6)
    np.testing.assert_allclose(fit.loglik_trace, ref_trace, rtol=1e-12)
    np.testing.assert_allclose(fit.mu, ref_mu, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(fit.sigma, ref_sigma, rtol=1e-10, atol=1e-12)


def test_complete_data_is_direct_ml(rng):
    x = rng.standard_normal((50, 3))
    fit = em_mvn(x, np.ones((50, 3), bool))
    assert fit.iterations == 1
    assert fit.converged
    assert len(fit.loglik_trace) == 1
    np.testing.assert_allclose(fit.mu, x.mean(axis=0), atol=1e-12)
    centered = x - x.mean(axis=0)
    np.testing.assert_allclose(fit.sigma, centered.T @ centered / 50, atol=1e-12)


def test_loglik_monotone_under_mcar(rng):
    ds = mcar_normal(rng, 300, 3, 0.2)
    fit = em_mvn(ds.values, ds.mask)
    assert fit.converged
    trace = np.array(fit.loglik_trace)
    assert len(trace) >= 2
    assert np.all(np.diff(trace) >= -1e-9)


def test_monotone_pattern_matches_regression_factorization(rng):
    # one incomplete column: the ML solution is closed form, via the
    # regression of y on the complete block fitted on observed-y rows
    n = 400
    ds, _ = make_dataset(rng, n, 2, 1, miss_prob=0.3)
    fit = em_mvn(ds.values, ds.mask, tol=1e-12)
    x = ds.values[:, :2]
    y = ds.values[:, 2]
    obs = ds.mask[:, 2]

    mu_x = x.mean(axis=0)
    cx = x - mu_x
    sigma_xx = cx.T @ cx / n

    xo = x[obs]
    yo = y[obs]
    design = np.column_stack([np.ones(obs.sum()), xo])
    coef, *_ = np.linalg.lstsq(design, yo, rcond=None)
    resid = yo - design @ coef
    s2 = float(resid @ resid / obs.sum())
    beta = coef[1:]

    mu_y = coef[0] + beta @ mu_x
    sigma_xy = sigma_xx @ beta
    sigma_yy = s2 + beta @ sigma_xx @ beta

    np.testing.assert_allclose(fit.mu[:2], mu_x, atol=1e-7)
    np.testing.assert_allclose(fit.mu[2], mu_y, atol=1e-6)
    np.testing.assert_allclose(fit.sigma[:2, :2], sigma_xx, atol=1e-7)
    np.testing.assert_allclose(fit.sigma[:2, 2], sigma_xy, atol=1e-6)
    np.testing.assert_allclose(fit.sigma[2, 2], sigma_yy, atol=1e-6)


def test_all_missing_rows_are_dropped(rng):
    ds = mcar_normal(rng, 100, 2, 0.25)
    vals = ds.values[:, [1, 1]] * np.array([1.0, 0.5]) + np.array([0.0, 1.0])
    vals = vals + rng.standard_normal((100, 2)) * 0.3
    mask = np.array(ds.mask[:, [0, 1]])
    mask[0] = False
    with_row = em_mvn(vals, mask)
    without_row = em_mvn(vals[1:], mask[1:])
    np.testing.assert_allclose(with_row.mu, without_row.mu, atol=1e-9)
    np.testing.assert_allclose(with_row.sigma, without_row.sigma, atol=1e-9)


def test_fit_with_every_row_kept_allocates_one_data_sized_array(rng):
    # beside its inputs the fit allocates at most one n x d float array;
    # the slack is the set-up's n x d bool complement of the mask, its n
    # kept-row flags, and 64 KiB for everything that does not grow with n
    n, d = 100_000, 5
    values = rng.standard_normal((n, d))
    mask = rng.random((n, d)) >= 0.1
    mask[:, 0] = True
    peak, fit = traced_peak(em_mvn, values, mask)
    assert fit.counts.sum() == n and len(fit.counts) > 1
    assert peak <= values.nbytes + mask.nbytes + n + 2**16
    # each pattern's mean is that of its rows with the missing cells zeroed
    zeroed = np.where(mask, values, 0.0)
    means = [zeroed[rows].mean(axis=0) for _, rows in group_patterns(mask)]
    assert fit.means.tobytes() == np.array(means).tobytes()


def test_never_observed_column_rejected(rng):
    vals = rng.standard_normal((20, 2))
    mask = np.ones((20, 2), bool)
    mask[:, 1] = False
    with pytest.raises(DegenerateDataError, match="no observed cells"):
        em_mvn(vals, mask)


def test_needs_more_rows_than_columns(rng):
    vals = rng.standard_normal((3, 3))
    mask = np.ones((3, 3), bool)
    mask[0, 1] = False
    with pytest.raises(DegenerateDataError):
        em_mvn(vals, mask)


def test_invalid_controls():
    vals, mask = np.ones((5, 1)), np.ones((5, 1), bool)
    with pytest.raises(ValueError):
        em_mvn(vals, mask, tol=0.0)
    with pytest.raises(ValueError):
        em_mvn(vals, mask, max_iter=0)


def test_iteration_cap_reported(rng):
    ds = mcar_normal(rng, 200, 3, 0.3)
    fit = em_mvn(ds.values, ds.mask, tol=1e-300, max_iter=4)
    assert not fit.converged
    assert fit.iterations == 4


def test_group_patterns_order_and_partition(rng):
    mask = rng.random((200, 4)) >= 0.3
    groups = group_patterns(mask)
    rows = np.concatenate([r for _, r in groups])
    assert np.array_equal(np.sort(rows), np.arange(200))  # a partition
    firsts = [int(r[0]) for _, r in groups]
    assert firsts == sorted(firsts)  # first-seen order
    for obs, r in groups:
        assert np.all(np.diff(r) > 0)  # ascending rows
        assert np.array_equal(obs, np.flatnonzero(mask[r[0]]))
        assert (mask[r] == mask[r[0]]).all()
    assert len(groups) == len({m.tobytes() for m in mask})


@st.composite
def masks(draw):
    """A mask whose rows repeat a few distinct patterns, up to 70 columns."""
    n = draw(st.integers(0, 60))
    d = draw(st.sampled_from([1, 2, 5, 8, 9, 63, 64, 70]))
    pool = draw(arrays(bool, (draw(st.integers(1, 6)), d)))
    return pool[draw(arrays(np.intp, n, elements=st.integers(0, len(pool) - 1)))]


@settings(max_examples=200, deadline=None)
@given(mask=masks())
def test_group_patterns_matches_row_loop(mask):
    groups = group_patterns(mask)
    expected = loop_group_patterns(mask)
    assert len(groups) == len(expected)
    for (obs, rows), (obs_e, rows_e) in zip(groups, expected):
        assert obs.dtype == obs_e.dtype and np.array_equal(obs, obs_e)
        assert rows.dtype == rows_e.dtype and np.array_equal(rows, rows_e)


def test_group_patterns_wide_mask(rng):
    # 70 columns: more mask bits than an int64 key holds
    mask = rng.random((300, 70)) >= 0.5
    mask[150:] = mask[:150]
    mask[7, 69] = not mask[7, 69]  # differs from row 157 in the last bit only
    groups = group_patterns(mask)
    assert len(groups) == 151
    for (obs, rows), (obs_e, rows_e) in zip(groups, loop_group_patterns(mask)):
        assert np.array_equal(obs, obs_e) and np.array_equal(rows, rows_e)


def test_fit_returns_grouping_of_kept_rows(rng):
    ds = mcar_normal(rng, 120, 3, 0.3)
    mask = np.array(ds.mask)
    mask[[4, 50]] = False  # dropped, so later rows shift down by one or two
    fit = em_mvn(ds.values, mask)
    kept = mask.any(axis=1)
    z = np.where(mask, ds.values, 0.0)[kept]
    expected = group_patterns(mask[kept])
    assert len(fit.observed) == len(fit.counts) == len(fit.means) == len(expected)
    for k, (obs_e, rows_e) in enumerate(expected):
        assert np.array_equal(np.flatnonzero(fit.observed[k]), obs_e)
        assert fit.counts[k] == rows_e.size
        assert np.array_equal(fit.means[k], z[rows_e].mean(axis=0))
    assert fit.counts.sum() == 118

    complete = em_mvn(ds.values, np.ones((120, 3), bool))
    assert np.array_equal(complete.observed, np.ones((1, 3), bool))
    assert np.array_equal(complete.counts, [120])
    assert np.array_equal(complete.means, [ds.values.mean(axis=0)])


class TestRidgePath:
    # three patterns over d = 3; the middle one's observed block is replaced
    OBSERVED = np.array([[1, 1, 1], [1, 0, 1], [0, 1, 1]], dtype=bool)

    def stack(self, rng, middle):
        a = rng.standard_normal((6, 3))
        sigma = a.T @ a
        blocks = [sigma, middle, sigma[np.ix_([1, 2], [1, 2])]]
        stack = np.zeros((3, 3, 3))
        stack[:] = np.eye(3)
        for padded, block, obs in zip(stack, blocks, self.OBSERVED):
            padded[np.ix_(obs, obs)] = block
        return stack

    def test_positive_definite_stack_is_one_batched_call(self, rng):
        stack = self.stack(rng, np.array([[2.0, 0.5], [0.5, 1.0]]))
        factors, ridged = _factor(stack, self.OBSERVED)
        assert np.array_equal(factors, np.linalg.cholesky(stack))
        assert not ridged

    def test_other_blocks_factored_alone(self, rng):
        # singular but positive semi-definite: plain Cholesky fails, the
        # ridged one does not
        stack = self.stack(rng, np.array([[1.0, 1.0], [1.0, 1.0]]))
        factors, _ = _factor(stack, self.OBSERVED)
        for k in (0, 2):
            obs = np.flatnonzero(self.OBSERVED[k])
            oo = np.ix_(obs, obs)
            assert np.array_equal(factors[k][oo], np.linalg.cholesky(stack[k][oo]))
            mis = np.setdiff1d(np.arange(3), obs)
            assert np.array_equal(factors[k][np.ix_(mis, mis)], np.eye(mis.size))

    def test_failing_block_ridged_through_chol(self, rng):
        stack = self.stack(rng, np.array([[1.0, 1.0], [1.0, 1.0]]))
        factors, ridged = _factor(stack, self.OBSERVED)
        assert ridged
        oo = np.ix_([0, 2], [0, 2])
        expected, used = _chol(stack[1][oo])
        assert used
        assert np.array_equal(factors[1][oo], expected)
        assert factors[1][1, 1] == 1.0 and not factors[1][1, [0, 2]].any()
        assert np.allclose(expected @ expected.T, stack[1][oo], atol=1e-7)

    def test_singular_after_ridge_raises_singular_matrix_error(self, rng):
        stack = self.stack(rng, np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
        with pytest.raises(SingularMatrixError, match="even after ridging"):
            _factor(stack, self.OBSERVED)

    def test_collinear_columns_fit_with_a_ridge(self):
        # b = 2a exactly, so the fitted covariance turns singular and, as
        # rounding falls, plain Cholesky fails on the blocks holding both
        ridged = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal(60)
            values = np.column_stack([a, 2.0 * a, rng.standard_normal(60)])
            mask = rng.random((60, 3)) >= 0.2
            mask[:, 0] = True
            fit = em_mvn(values, mask)
            assert np.isfinite(fit.sigma).all() and np.isfinite(fit.loglik_trace).all()
            ridged.append(fit.ridged)
        assert any(ridged)
